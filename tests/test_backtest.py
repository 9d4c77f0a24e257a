"""CSV ingestion, backtest metrics, batch reports."""

import io
import re
import warnings

import numpy as np
import pytest

from doublelinear import (
    AdmissibilityError,
    MarketBounds,
    PolicyConfig,
    PriceSeries,
    WeightSpec,
    batch_backtest,
    buy_and_hold_report,
    ingest_csv,
    run_backtest,
    sharpe_ratio,
)

BOUNDS = MarketBounds(-0.5, 1.0)


def make_config(alpha=0.5, v0=1.0, rf=0.0, bounds=BOUNDS):
    return PolicyConfig(alpha=alpha, bounds=bounds, v0=v0, rf=rf)


def series(prices, symbol="test"):
    return PriceSeries(
        timestamps=np.arange(1, len(prices) + 1, dtype=float),
        prices=np.asarray(prices, dtype=float),
        symbol=symbol,
    )


class TestPriceSeries:
    def test_valid(self):
        s = series([100.0, 101.0])
        assert len(s) == 2
        assert s.symbol == "test"

    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError, match="positive"):
            series([100.0, 0.0])

    def test_rejects_nonmonotone_timestamps(self):
        with pytest.raises(ValueError, match="nonmonotone"):
            PriceSeries(
                timestamps=np.array([2.0, 1.0]), prices=np.array([100.0, 101.0])
            )

    def test_rejects_timestamp_outside_int64(self):
        with pytest.raises(ValueError, match="int64"):
            PriceSeries(timestamps=[1, 99999999999999999999], prices=[100.0, 101.0])

    def test_rejects_unsigned_timestamp_the_cast_would_wrap(self):
        with pytest.raises(ValueError, match="int64, got 9223372036854775808"):
            PriceSeries(np.array([2**63, 2**63 + 1], np.uint64), [100.0, 101.0])

    def test_rejects_fractional_timestamp(self):
        with pytest.raises(ValueError, match="int64, got 1.5"):
            PriceSeries(timestamps=[1.5, 2.7], prices=[100.0, 101.0])

    def test_integral_float_timestamps_cast_exactly(self):
        s = PriceSeries(timestamps=[1.0, 2.0], prices=[100.0, 101.0])
        assert s.timestamps.dtype == np.int64
        assert s.timestamps.tolist() == [1, 2]

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="empty series"):
            PriceSeries([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PriceSeries(timestamps=np.array([1.0]), prices=np.array([100.0, 101.0]))


class TestIngest:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "spy.csv"
        path.write_text("timestamp,price\n1,100\n2,110\n3,99\n")
        s = ingest_csv(path)
        np.testing.assert_array_equal(s.prices, [100.0, 110.0, 99.0])
        assert s.symbol == "spy"  # filename stem

    def test_reads_file_like(self):
        s = ingest_csv(io.StringIO("timestamp,price\n1,100\n2,105\n"), symbol="mem")
        assert s.symbol == "mem"
        assert len(s) == 2

    def test_skips_comment_lines(self):
        s = ingest_csv(io.StringIO("# preamble\ntimestamp,price\n1,100\n2,105\n"))
        assert len(s) == 2

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            ingest_csv(io.StringIO("time,px\n1,100\n"))

    def test_bad_row_cites_row_number(self):
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(io.StringIO("timestamp,price\n1,100\n2,abc\n"))

    @pytest.mark.parametrize("second", ["99999999999999999999", "1", "0"])
    def test_bad_timestamp_cites_row_number(self, second):
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(io.StringIO(f"timestamp,price\n1,100\n{second},105\n"))

    def test_nonpositive_price_cites_row(self):
        with pytest.raises(ValueError, match="row 3: nonpositive"):
            ingest_csv(io.StringIO("timestamp,price\n1,100\n2,-5\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_csv(tmp_path / "absent.csv")


class TestSharpe:
    def test_hand_example(self):
        # mean 0.02, sample sd 0.01 -> ratio exactly 2
        assert sharpe_ratio([0.02, 0.01, 0.03]) == pytest.approx(2.0, abs=1e-12)

    def test_flat_returns_degenerate_to_zero(self):
        assert sharpe_ratio([0.01, 0.01, 0.01]) == 0.0

    def test_needs_two_returns(self):
        with pytest.raises(ValueError):
            sharpe_ratio([0.01])

    def test_sign_follows_mean(self):
        assert sharpe_ratio([-0.02, -0.01, -0.03]) == pytest.approx(-2.0, abs=1e-12)


class TestRunBacktest:
    def test_three_price_hand_example(self):
        report = run_backtest(
            make_config(), WeightSpec("constant", w=0.5), series([100.0, 110.0, 99.0])
        )
        assert report.gain_loss == pytest.approx(-0.0025, abs=1e-15)
        assert report.n_periods == 2
        assert report.curve.shape == (3, 2)
        np.testing.assert_array_equal(report.curve[:, 0], [0.0, 1.0, 2.0])
        assert report.curve[0, 1] == 0.0
        np.testing.assert_array_equal(report.weights_used, [0.5, 0.5])

    def test_variance_is_sample_variance_of_account_returns(self):
        s = series([100.0, 104.0, 102.0, 108.0])
        report = run_backtest(make_config(alpha=0.8), WeightSpec("constant", w=0.6), s)
        # recompute from the reported curve
        values = make_config().v0 + report.curve[:, 1]
        r = values[1:] / values[:-1] - 1.0
        assert report.variance == pytest.approx(np.var(r, ddof=1), rel=1e-12)
        assert report.sharpe == pytest.approx(r.mean() / r.std(ddof=1), rel=1e-12)
        assert not report.degenerate_sharpe

    def test_degenerate_sharpe_flagged(self):
        report = run_backtest(
            make_config(), WeightSpec("constant", w=0.0), series([100.0, 104.0, 99.0])
        )
        # zero weight at alpha 1/2: account is flat, sd = 0
        assert report.sharpe == 0.0
        assert report.degenerate_sharpe

    def test_one_return_has_a_degenerate_sharpe(self):
        report = run_backtest(make_config(), WeightSpec("constant", w=0.5), series([100.0, 104.0]))
        assert report.n_periods == 1
        assert (report.variance, report.sharpe, report.degenerate_sharpe) == (0.0, 0.0, True)

    @pytest.mark.parametrize(
        "report",
        [
            lambda config, s: run_backtest(config, WeightSpec("constant", w=0.5), s),
            buy_and_hold_report,
        ],
        ids=["run_backtest", "buy_and_hold_report"],
    )
    def test_one_row_csv_rejected(self, report):
        s = ingest_csv(io.StringIO("timestamp,price\n1,100\n"))
        with pytest.raises(ValueError, match="series must contain at least two prices"):
            report(make_config(), s)

    def test_out_of_bounds_return_rejected_by_default(self):
        s = series([100.0, 250.0, 240.0])  # +150% breaches x_max = 1.0
        with pytest.raises(AdmissibilityError):
            run_backtest(make_config(), WeightSpec("constant", w=0.5), s)

    def test_bounds_from_data_widens(self):
        s = series([100.0, 250.0, 240.0])
        report = run_backtest(
            make_config(), WeightSpec("constant", w=0.5), s, bounds_from_data=True
        )
        assert report.n_periods == 2

    def test_ma_schedule_runs_causally(self):
        prices = [100.0, 101.0, 103.0, 102.0, 105.0, 107.0]
        report = run_backtest(
            make_config(), WeightSpec("ma_indicator", w=0.8, d=3), series(prices)
        )
        # warm-up weights are zero until a full window exists
        assert report.weights_used[0] == 0.0
        assert report.weights_used[1] == 0.0
        assert len(report.weights_used) == 5

    def test_to_dict_keys(self):
        report = run_backtest(
            make_config(), WeightSpec("constant", w=0.5), series([100.0, 101.0, 102.0])
        )
        assert set(report.to_dict()) == {
            "gain_loss",
            "variance",
            "sharpe",
            "degenerate_sharpe",
            "n_periods",
        }


class TestBuyAndHold:
    def test_matches_raw_price_ratio(self):
        s = series([100.0, 130.0, 91.0, 120.0])
        report = buy_and_hold_report(make_config(alpha=0.3), s)
        assert report.gain_loss == pytest.approx(120.0 / 100.0 - 1.0, rel=1e-12)

    def test_widens_bounds_as_needed(self):
        s = series([100.0, 300.0, 50.0])  # +200%, -83% breach both defaults
        report = buy_and_hold_report(make_config(), s)
        assert report.gain_loss == pytest.approx(-0.5, rel=1e-12)

    def test_variance_past_the_float_range_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = buy_and_hold_report(make_config(), series([1.0, 1e200, 1.0]))
        assert (report.variance, report.sharpe, report.degenerate_sharpe) == (np.inf, 0.0, False)

    def test_variance_is_exactly_the_sample_variance_of_its_returns(self):
        prices = np.array([100.0, 101.0, 101.0, 105.0])
        values = 1.0 * prices / prices[0]
        report = buy_and_hold_report(make_config(), series(prices))
        assert report.variance == np.var(values[1:] / values[:-1] - 1.0, ddof=1)

    def test_value_past_the_float_range_names_its_stage(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                "the account value leaves the float range at stage 1: inf"
            )):
                buy_and_hold_report(make_config(v0=1e308), series([1.0, 2.0, 1.0]))

    def test_equals_policy_at_alpha_one_on_admissible_data(self):
        s = series([100.0, 108.0, 95.0, 101.0])
        direct = buy_and_hold_report(make_config(), s)
        via_policy = run_backtest(
            make_config(alpha=1.0), WeightSpec("constant", w=1.0), s
        )
        assert via_policy.gain_loss == pytest.approx(direct.gain_loss, rel=1e-12)
        assert via_policy.sharpe == pytest.approx(direct.sharpe, rel=1e-12)
        assert via_policy.variance == pytest.approx(direct.variance, rel=1e-12)


class TestBatch:
    def test_batch_runs_all_specs(self):
        s = series([100.0, 102.0, 101.0, 104.0])
        specs = {
            "constant:0.5": WeightSpec("constant", w=0.5),
            "ma:2": WeightSpec("ma_indicator", w=0.8, d=2),
        }
        reports = batch_backtest(make_config(), specs, s)
        assert list(reports) == ["constant:0.5", "ma:2"]

    def test_buy_and_hold_listed_first(self):
        s = series([100.0, 102.0, 101.0])
        reports = batch_backtest(
            make_config(),
            {"constant:0.5": WeightSpec("constant", w=0.5)},
            s,
            include_buy_hold=True,
        )
        assert list(reports)[0] == "buy_and_hold"
        assert reports["buy_and_hold"].gain_loss == pytest.approx(0.01, rel=1e-12)
