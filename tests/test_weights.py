"""Weight schedule generators, the indicator weight, spec parsing, table IO."""

import math
import warnings

import numpy as np
import pytest

from doublelinear import (
    AdmissibilityError,
    WeightSpec,
    clamp_admissible,
    dump_weight_table,
    eval_schedule,
    load_weight_table,
    ma_indicator_weight,
    parse_weight_spec,
)
from doublelinear.weights import _window_means, ma_indicator_weights


class TestNamedSchedules:
    def test_constant(self):
        vals = eval_schedule(WeightSpec("constant", w=0.8), 5)
        np.testing.assert_array_equal(vals, [0.8] * 5)

    def test_log_ramp_endpoints_and_monotonicity(self):
        vals = eval_schedule(WeightSpec("log_ramp"), 252)
        assert vals[-1] == 1.0  # log(1 + e - 1) == 1 exactly at the last stage
        assert vals[0] == pytest.approx(math.log1p((1.0 / 252.0) * (math.e - 1.0)))
        assert np.all(np.diff(vals) > 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_sin_burst_midpoint_pinned(self):
        vals = eval_schedule(WeightSpec("sin_burst"), 252)
        # the oscillator's argument blows up at the midpoint; the limit
        # convention pins the value to 1/2 there
        assert vals[125] == 0.5
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_sin_burst_formula_off_midpoint(self):
        vals = eval_schedule(WeightSpec("sin_burst"), 252)
        k = 10
        expected = 0.5 * (math.sin(1.0 / ((0.02 / 252.0) * k - 0.01)) + 1.0)
        assert vals[k - 1] == pytest.approx(expected, abs=1e-15)

    def test_edge_sin_midpoint_zero_and_endpoint(self):
        vals = eval_schedule(WeightSpec("edge_sin"), 252)
        assert vals[125] == 0.0  # f = 0 at the midpoint, pinned by the limit
        assert vals[-1] == pytest.approx(2.0 * math.sin(0.5), abs=1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_edge_sin_negative_lobes_zeroed(self):
        # wherever f*sin(1/f) < 0 the weight is set to 0, keeping the
        # schedule admissible instead of going short-on-long
        vals = eval_schedule(WeightSpec("edge_sin"), 252)
        assert np.all(vals >= 0.0)
        assert np.any(vals == 0.0)

    def test_named_output_clamped_with_warning(self):
        spec = WeightSpec("edge_sin", w_max=0.5)
        with pytest.warns(RuntimeWarning, match="clamp"):
            vals = eval_schedule(spec, 252)
        assert np.all(vals <= 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind 'bogus'"):
            WeightSpec("bogus")

    @pytest.mark.parametrize("kind, d", [("constant", None), ("ma_indicator", 3)])
    def test_weight_value_required(self, kind, d):
        with pytest.raises(ValueError, match=f"{kind} spec needs a weight value w"):
            WeightSpec(kind, d=d)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            eval_schedule(WeightSpec("constant", w=0.5), 0)


class TestTableSchedules:
    def test_table_roundtrip(self, tmp_path):
        path = tmp_path / "w.csv"
        dump_weight_table(path, [0.1, 0.2, 0.3], comment="three stages")
        loaded = load_weight_table(path)
        np.testing.assert_allclose(loaded, [0.1, 0.2, 0.3], atol=1e-15)

    def test_table_spec_eval(self):
        spec = WeightSpec("table", values=(0.2, 0.4, 0.6))
        np.testing.assert_array_equal(eval_schedule(spec, 3), [0.2, 0.4, 0.6])

    def test_table_too_short(self):
        spec = WeightSpec("table", values=(0.2, 0.4))
        with pytest.raises(ValueError, match="need"):
            eval_schedule(spec, 3)

    def test_table_values_validated_at_construction(self):
        with pytest.raises(AdmissibilityError):
            WeightSpec("table", values=(0.2, 1.4))
        with pytest.raises(AdmissibilityError):
            WeightSpec("table", values=(0.9,), w_max=0.5)

    def test_load_skips_comments_and_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("# provenance line\nstage,weight\n1,0.25\n2,0.5\n")
        np.testing.assert_allclose(load_weight_table(path), [0.25, 0.5])

    @pytest.mark.parametrize(
        "rows, complaint",
        [
            ("3,0.1\n1,0.2\n1,0.3\n", "row 2: stage 3, expected 1"),
            ("1,0.1\n1,0.2\n", "row 3: stage 1, expected 2"),
            ("1,0.1\n3,0.2\n", "row 3: stage 3, expected 2"),
            ("1,0.1\n2.0,0.2\n", "row 3: could not parse ['2.0', '0.2']"),
        ],
        ids=["out-of-order", "repeated", "missing", "non-integer"],
    )
    def test_load_rejects_stages_other_than_one_to_n(self, tmp_path, rows, complaint):
        path = tmp_path / "w.csv"
        path.write_text("stage,weight\n" + rows)
        with pytest.raises(ValueError) as error:
            load_weight_table(path)
        assert str(error.value) == f"weight table {path}: {complaint}"

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("stage,weight\n1,abc\n")
        with pytest.raises(ValueError, match=r"row 2: could not parse \['1', 'abc'\]$"):
            load_weight_table(path)

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("stage,weight\n")
        with pytest.raises(ValueError, match="no data"):
            load_weight_table(path)


class TestMovingAverage:
    PRICES = [10.0, 11.0, 12.0, 11.5, 11.0, 12.5]

    def test_indicator_weight_on_when_price_above_ma(self):
        # price 12 > ma(10,11,12) = 11 -> weight w
        assert ma_indicator_weight(self.PRICES, 2, 3, 0.8) == 0.8

    def test_indicator_weight_off_when_below_or_equal(self):
        assert ma_indicator_weight(self.PRICES, 4, 3, 0.8) == 0.0
        # strictly-above comparison: equality stays off
        assert ma_indicator_weight([10.0, 10.0], 1, 2, 0.8) == 0.0

    def test_weight_is_a_float(self):
        # an int multiplier comes back as a float, as ma_indicator_weights writes it
        value = ma_indicator_weight(self.PRICES, 2, 3, 1)
        assert type(value) is float and value == 1.0

    def test_warm_up_stages_are_zero(self):
        assert ma_indicator_weight(self.PRICES, 0, 3, 0.8) == 0.0
        assert ma_indicator_weight(self.PRICES, 1, 3, 0.8) == 0.0

    def test_k_past_the_prices_is_refused_in_warm_up_too(self):
        # d = 10 makes k = 5 a warm-up stage; d = 2 does not
        for d in (10, 2):
            with pytest.raises(ValueError, match="^k=5 outside the price history of length 2$"):
                ma_indicator_weight([1.0, 2.0], 5, d, 0.5)

    def test_eval_schedule_needs_prices(self):
        with pytest.raises(ValueError, match="price"):
            eval_schedule(WeightSpec("ma_indicator", w=0.8, d=3), 5)

    def test_eval_schedule_is_causal(self):
        spec = WeightSpec("ma_indicator", w=0.8, d=3)
        base = eval_schedule(spec, 5, prices=self.PRICES[:5])
        perturbed_prices = self.PRICES[:5].copy()
        perturbed_prices[4] = 999.0
        perturbed = eval_schedule(spec, 5, prices=perturbed_prices)
        # changing the last price can only change the last weight
        np.testing.assert_array_equal(base[:4], perturbed[:4])

    def test_default_window_weight(self):
        spec = parse_weight_spec("ma:3")
        assert spec.d == 3 and spec.w == 0.8

    def test_price_matrix_refused(self):
        matrix = [[1.0, 2.0, 3.0], [1.0, 1.5, 2.0]]
        for call in (
            lambda: ma_indicator_weight(matrix, 2, 2, 0.5),
            lambda: ma_indicator_weight(matrix, 0, 2, 0.5),  # a warm-up stage too
        ):
            with pytest.raises(ValueError, match="prices must be a 1-d series, got 2 dimensions"):
                call()


def _oracle(prices, n, d, w):
    """The scalar indicator, one stage at a time, reading prices[0..i] only."""
    return np.array([ma_indicator_weight(prices[: i + 1], i, d, w) for i in range(n)])


class TestWindowSumsPastTheFloatRange:
    """A window whose sum overflows still has its finite mean, and no warning escapes."""

    PRICES = [1.5e308, 1.6e308, 1.7e308, 1.75e308]

    @pytest.mark.parametrize(
        "d, expected", [(2, [0.0, 0.5, 0.5, 0.5]), (3, [0.0, 0.0, 0.5, 0.5]), (4, [0.0] * 3 + [0.5])]
    )
    def test_weights(self, d, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ma_indicator_weights(self.PRICES, 4, d, 0.5).tolist() == expected
            assert _oracle(self.PRICES, 4, d, 0.5).tolist() == expected
            rows = ma_indicator_weights([self.PRICES, [1.0, 2.0, 3.0, 4.0]], 4, d, 0.5)
            assert rows.tolist() == [expected, expected]

    def test_means(self):
        p = np.array(self.PRICES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _window_means(p[None, :2])[0] == 2.0 * np.mean(p[:2] / 2.0)
            assert _window_means(p[None, :4])[0] == 8.0 * np.mean(p / 8.0)
            assert _window_means(p[None, :4])[0] == pytest.approx(1.6375e308, rel=1e-15)


class TestVectorizedIndicator:
    """ma_indicator_weights must equal the scalar oracle bit for bit."""

    @pytest.mark.parametrize("d", [2, 7, 8, 9, 20, 129])
    def test_random_price_rows(self, d):
        rng = np.random.default_rng(d)
        prices = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal((5, 300)), axis=1))
        n = 299
        matrix = ma_indicator_weights(prices, n, d, 0.8)
        assert matrix.shape == (5, n)
        for row, p in zip(matrix, prices):
            expected = _oracle(p, n, d, 0.8)
            assert row.tolist() == expected.tolist()
            spec = WeightSpec("ma_indicator", w=0.8, d=d)
            assert eval_schedule(spec, n, prices=p).tolist() == expected.tolist()
        assert 0 < np.count_nonzero(matrix) < matrix.size - 5 * (d - 1)

    def test_exact_ties_stay_off(self):
        # integer prices make every window mean exact: flat stretches tie
        flat = np.full(40, 100.0)
        stepped = np.array([2.0, 1.0, 3.0, 2.0, 2.0, 2.0, 5.0, 1.0, 3.0, 3.0])
        assert ma_indicator_weights(flat, 40, 20, 0.8).tolist() == [0.0] * 40
        assert _oracle(flat, 40, 20, 0.8).tolist() == [0.0] * 40
        got = ma_indicator_weights(stepped, 10, 3, 0.8)
        assert got.tolist() == _oracle(stepped, 10, 3, 0.8).tolist()
        assert got[3] == 0.0 and stepped[3] == stepped[1:4].mean()  # the tie at stage 3

    def test_warm_up_stages_are_zero(self):
        prices = np.arange(1.0, 31.0)  # rising: every full window is on
        got = ma_indicator_weights(prices, 30, 10, 0.5)
        assert got.tolist() == _oracle(prices, 30, 10, 0.5).tolist()
        assert got.tolist() == [0.0] * 9 + [0.5] * 21

    def test_window_of_one_never_trades(self):
        prices = np.array([[3.0, 1.0, 4.0, 1.0, 5.0], [9.0, 2.0, 6.0, 5.0, 3.0]])
        got = ma_indicator_weights(prices, 5, 1, 0.8)
        assert got.tolist() == [_oracle(p, 5, 1, 0.8).tolist() for p in prices]
        assert not got.any()

    def test_horizon_shorter_than_window(self):
        prices = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        got = ma_indicator_weights(prices, 3, 5, 0.8)
        assert got.shape == (2, 3) and not got.any()
        assert got.tolist() == [_oracle(p, 3, 5, 0.8).tolist() for p in prices]
        # n == d: only the last stage has a full window
        got = ma_indicator_weights(prices, 4, 4, 0.8)
        assert got.tolist() == [[0.0, 0.0, 0.0, 0.8], [0.0] * 4]
        assert got.tolist() == [_oracle(p, 4, 4, 0.8).tolist() for p in prices]

    def test_needs_n_prices_per_row(self):
        with pytest.raises(ValueError, match="at least 6 prices"):
            ma_indicator_weights(np.ones((2, 5)), 6, 2, 0.8)


class TestClamp:
    def test_clamps_both_sides(self):
        np.testing.assert_array_equal(
            clamp_admissible([-0.5, 0.3, 1.7], 1.0), [0.0, 0.3, 1.0]
        )

    def test_respects_w_max(self):
        np.testing.assert_array_equal(clamp_admissible([0.9], 0.5), [0.5])

    def test_w_max_domain(self):
        with pytest.raises(ValueError):
            clamp_admissible([0.5], 1.5)


class TestParseSpec:
    def test_constant(self):
        spec = parse_weight_spec("constant:0.6")
        assert spec.kind == "constant" and spec.w == 0.6

    @pytest.mark.parametrize("name", ["log_ramp", "sin_burst", "edge_sin"])
    def test_named(self, name):
        assert parse_weight_spec(name).kind == name

    def test_ma_with_weight(self):
        spec = parse_weight_spec("ma:20:0.5")
        assert (spec.kind, spec.d, spec.w) == ("ma_indicator", 20, 0.5)

    def test_table(self, tmp_path):
        path = tmp_path / "sched.csv"
        dump_weight_table(path, [0.1, 0.9])
        spec = parse_weight_spec(f"table:{path}")
        assert spec.kind == "table"
        assert spec.values == (0.1, 0.9)

    def test_w_max_propagates(self):
        with pytest.raises(AdmissibilityError):
            parse_weight_spec("constant:0.8", w_max=0.5)

    @pytest.mark.parametrize(
        "text", ["", "constant", "constant:x", "ma", "ma:0", "mystery:3", "log_ramp:1", "table:"]
    )
    def test_rejects_bad_text(self, text):
        with pytest.raises(ValueError):
            parse_weight_spec(text)

    def test_price_driven_flag(self):
        assert parse_weight_spec("ma:5").price_driven
        assert not parse_weight_spec("constant:0.5").price_driven
