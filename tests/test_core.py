"""The shared core: one validator, one factor form, cumulative products.

Non-finite inputs must be rejected wherever weights, returns or prices
enter; evolve, a fold of step_account and the Monte Carlo path gain must
agree exactly at every rf; horizon vectors must equal the scalar calls.
"""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelinear import (
    AdmissibilityError,
    GbmJumpParams,
    MarketBounds,
    PolicyConfig,
    PriceSeries,
    ReturnMoments,
    TwoPointModel,
    WeightSpec,
    clamp_admissible,
    eval_schedule,
    evolve,
    expected_gain_loss,
    ingest_csv,
    initial_state,
    ma_indicator_weight,
    ma_value,
    monte_carlo_gain_loss,
    prices_to_returns,
    rpe_scan,
    second_moment_gain_loss,
    sharpe_ratio,
    simulate_two_point,
    step_account,
    survivability_bound,
    variance_gain_loss,
)
from doublelinear.cli import main
from doublelinear.simulate import BLOCK
from doublelinear.weights import KINDS, ma_indicator_weights

BOUNDS = MarketBounds(-0.5, 1.0)
CONFIG = PolicyConfig(alpha=0.5, bounds=BOUNDS)
MOMENTS = ReturnMoments(0.05, 0.01)
NONFINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NONFINITE)
class TestNonFiniteInputsRejected:
    def test_evolve_weight(self, bad):
        with pytest.raises(AdmissibilityError, match="weight .* at stage 1"):
            evolve(CONFIG, [0.5, bad, 0.5], [0.1, 0.1, 0.1])

    def test_evolve_return(self, bad):
        with pytest.raises(AdmissibilityError, match="return .* at stage 2"):
            evolve(CONFIG, [0.5, 0.5, 0.5], [0.1, 0.1, bad])

    def test_step_account(self, bad):
        state = initial_state(CONFIG)
        with pytest.raises(AdmissibilityError, match="weight"):
            step_account(state, bad, 0.1, CONFIG)
        with pytest.raises(AdmissibilityError, match="return"):
            step_account(state, 0.5, bad, CONFIG)

    def test_expected_gain_loss(self, bad):
        with pytest.raises(AdmissibilityError, match="at stage 1"):
            expected_gain_loss(CONFIG, [0.5, bad], 0.1, 2)

    def test_variance_gain_loss(self, bad):
        with pytest.raises(AdmissibilityError, match="at stage 1"):
            variance_gain_loss(CONFIG, [0.5, bad], MOMENTS, 2)

    def test_rpe_scan(self, bad):
        with pytest.raises(AdmissibilityError, match="at stage 1"):
            rpe_scan(CONFIG, [0.5, bad, 0.5], [0.1], 3)

    def test_price_series(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PriceSeries(timestamps=np.array([1, 2]), prices=np.array([100.0, bad]))

    def test_prices_to_returns(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            prices_to_returns([100.0, bad, 101.0])

    def test_ingest_cites_row(self, bad):
        text = f"timestamp,price\n1,100\n2,{bad}\n3,101\n"
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(io.StringIO(text))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_moving_average_prices(self, bad, sign):
        # a negative price is refused too, not read as a weight of 0 or w
        prices = [100.0, 101.0, 102.0, sign * bad, 104.0]
        spec = WeightSpec("ma_indicator", w=0.8, d=2)
        for call in (
            lambda: ma_value(prices, 4, 2),
            lambda: ma_indicator_weight(prices, 4, 2, 0.8),
            lambda: ma_indicator_weights(prices, 5, 2, 0.8),
            lambda: ma_indicator_weights(np.array([prices, prices]), 5, 2, 0.8),
            lambda: eval_schedule(spec, 4, prices=prices),
        ):
            with pytest.raises(ValueError, match="nonpositive or non-finite price"):
                call()
        with pytest.raises(ValueError, match="nonpositive or non-finite price"):
            ma_value([100.0, -1.0, 102.0], 2, 2)

    def test_moving_average_weight(self, bad):
        with pytest.raises(AdmissibilityError, match="weight"):
            ma_indicator_weight([100.0, 101.0], 1, 2, bad)
        with pytest.raises(AdmissibilityError, match="weight"):
            ma_indicator_weights([100.0, 101.0], 2, 2, bad)

    def test_clamp_admissible(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            clamp_admissible([0.5, bad], 1.0)

    def test_sharpe_ratio(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            sharpe_ratio([bad, 0.1, 0.2])

    def test_survivability_bound(self, bad):
        with pytest.raises(ValueError, match="k must be"):
            survivability_bound(CONFIG, bad)


@pytest.mark.parametrize(
    "make, kwargs",
    [
        (PolicyConfig, {"alpha": 0.5, "bounds": BOUNDS, "rf": math.nan}),
        (PolicyConfig, {"alpha": 0.5, "bounds": BOUNDS, "rf": math.inf}),
        (PolicyConfig, {"alpha": 0.5, "bounds": BOUNDS, "v0": math.nan}),
        (PolicyConfig, {"alpha": 0.5, "bounds": BOUNDS, "v0": math.inf}),
        (GbmJumpParams, {"mu_star": math.nan}),
        (GbmJumpParams, {"mu_star": -math.inf}),
        (GbmJumpParams, {"mu_star": 0.1, "sigma_star": math.nan}),
        (GbmJumpParams, {"mu_star": 0.1, "sigma_star": math.inf}),
        (GbmJumpParams, {"mu_star": 0.1, "lam": math.nan}),
        (GbmJumpParams, {"mu_star": 0.1, "lam": math.inf}),
        (GbmJumpParams, {"mu_star": 0.1, "delta": math.nan}),
        (GbmJumpParams, {"mu_star": 0.1, "dt": math.nan}),
        (GbmJumpParams, {"mu_star": 0.1, "dt": math.inf}),
        (GbmJumpParams, {"mu_star": 0.1, "s0": math.nan}),
        (GbmJumpParams, {"mu_star": 0.1, "s0": math.inf}),
        (ReturnMoments, {"mu": math.nan, "sigma2": 0.01}),
        (ReturnMoments, {"mu": math.inf, "sigma2": 0.01}),
        (ReturnMoments, {"mu": 0.05, "sigma2": math.nan}),
        (ReturnMoments, {"mu": 0.05, "sigma2": math.inf}),
        (TwoPointModel, {"x_up": math.inf, "x_down": -0.1, "p_up": 0.5}),
        (TwoPointModel, {"x_up": 0.1, "x_down": -0.1, "p_up": math.nan}),
    ],
    ids=lambda v: getattr(v, "__name__", None) or ",".join(
        f"{k}={x}" for k, x in v.items() if k not in ("alpha", "bounds")
    ),
)
def test_constructors_reject_non_finite_parameters(make, kwargs):
    with pytest.raises(ValueError, match="finite|must lie|need"):
        make(**kwargs)


# any float, with (-1, 1) drawn often enough to pass the range checks
# that guard the other fields, and the extremes drawn often
ANY_FLOAT = (
    st.floats(-1.0, 1.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324])
    | st.floats(allow_nan=True, allow_infinity=True)
)
# constructor, its argument strategy, and its accessors beyond the fields
CONSTRUCTORS = [
    (MarketBounds, st.tuples(ANY_FLOAT, ANY_FLOAT), ()),
    (
        lambda alpha, x_min, x_max, v0, rf: PolicyConfig(alpha, MarketBounds(x_min, x_max), v0, rf),
        st.tuples(*[ANY_FLOAT] * 5),
        ("w_max",),
    ),
    (
        GbmJumpParams,
        st.tuples(*[ANY_FLOAT] * 5, st.integers(-10, 10**6), ANY_FLOAT),
        ("horizon_years",),
    ),
    (ReturnMoments, st.tuples(ANY_FLOAT, ANY_FLOAT), ()),
    (TwoPointModel, st.tuples(*[ANY_FLOAT] * 3), ("mu", "sigma2", "moments")),
    (
        WeightSpec,
        st.tuples(
            st.sampled_from(KINDS),
            st.none() | ANY_FLOAT,
            st.none() | st.integers(-2, 50),
            st.none() | st.lists(ANY_FLOAT, max_size=3).map(tuple),
            ANY_FLOAT,
        ),
        (),
    ),
]


@pytest.mark.parametrize(
    "make, kwargs",
    [
        (TwoPointModel, {"x_up": 1e308, "x_down": -0.5, "p_up": 0.5}),
        (TwoPointModel, {"x_up": 1e308, "x_down": -0.5, "p_up": 0.0}),
        (GbmJumpParams, {"mu_star": 0.1, "dt": 1e308, "n_periods": 2}),
    ],
)
def test_constructors_reject_overflowing_accessors(make, kwargs):
    with pytest.raises(ValueError, match="overflows"):
        make(**kwargs)


def all_finite(value) -> bool:
    """True when every float inside value (dataclass fields, tuples) is finite."""
    if dataclasses.is_dataclass(value):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(map(all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize(
    "make, arguments, accessors", CONSTRUCTORS, ids=lambda v: getattr(v, "__name__", "")
)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_constructors_raise_value_error_or_stay_finite(make, arguments, accessors, data):
    # An accessor may itself raise ValueError: TwoPointModel.moments of a
    # model with zero variance.
    try:
        obj = make(*data.draw(arguments))
    except ValueError:
        return
    assert all_finite(obj), obj
    for name in accessors:
        try:
            value = getattr(obj, name)
            value = value() if callable(value) else value
        except ValueError:
            continue
        assert all_finite(value), (obj, name, value)


class TestStrictJsonOutputs:
    def test_backtest_on_nan_price_fails_cleanly(self, tmp_path, capsys):
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text("timestamp,price\n1,100\n2,nan\n3,101\n")
        code = main(["backtest", "--csv", str(csv_path), "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "row 3" in captured.err
        assert "NaN" not in captured.out
        assert [p.name for p in tmp_path.iterdir()] == ["prices.csv"]

    def test_overflowing_certificate_writes_no_json(self, tmp_path, capsys):
        code = main([
            "verify-rpe", "--w", "constant:0.5", "--k-max", "5000",
            "--mu-grid", "0.9", "--outdir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "certified" not in captured.out
        assert "rpe.json not written, a result is inf or nan" in captured.err
        assert list(tmp_path.iterdir()) == []


@st.composite
def paths(draw):
    k = draw(st.integers(1, 30))
    model = TwoPointModel(
        x_up=draw(st.floats(0.001, BOUNDS.x_max)),
        x_down=draw(st.floats(BOUNDS.x_min, -0.001)),
        p_up=draw(st.floats(0.0, 1.0)),
    )
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    return model, w, draw(st.integers(0, 2**31))


class TestOneFactorForm:
    @given(
        path=paths(),
        alpha=st.floats(0.0, 1.0),
        v0=st.floats(0.1, 100.0),
        rf=st.one_of(st.just(0.0), st.floats(1e-6, 0.01)),
    )
    @settings(max_examples=200, deadline=None)
    def test_evolve_step_fold_and_monte_carlo_agree_exactly(self, path, alpha, v0, rf):
        model, w, seed = path
        cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS, v0=v0, rf=rf)
        x = simulate_two_point(model, len(w), seed, 0)

        traj = evolve(cfg, w, x)
        states = [initial_state(cfg)]
        for wk, xk in zip(w, x.tolist()):
            states.append(step_account(states[-1], wk, xk, cfg))
        mc = monte_carlo_gain_loss(
            cfg, WeightSpec("table", values=tuple(w)), model, 1, seed, n_periods=len(w)
        )

        assert traj.states == tuple(states)
        assert traj.final_gain == states[-1].total - v0
        assert traj.final_gain == mc.mean_gain
        assert traj.gains[-1] == traj.final_gain

    @given(
        path=paths(),
        n_paths=st.integers(2, 2 * BLOCK + 3),
        alpha=st.floats(0.0, 1.0),
        rf=st.one_of(st.just(0.0), st.floats(1e-6, 0.01)),
    )
    @settings(max_examples=50, deadline=None)
    def test_monte_carlo_mean_is_the_mean_of_evolve_over_rows(self, path, n_paths, alpha, rf):
        # across block boundaries: every sample row is exactly the evolve
        # gain on that path's simulate_two_point returns
        model, w, seed = path
        cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS, rf=rf)
        gains = np.array([
            evolve(cfg, w, simulate_two_point(model, len(w), seed, i)).final_gain
            for i in range(n_paths)
        ])
        mc = monte_carlo_gain_loss(
            cfg, WeightSpec("table", values=tuple(w)), model, n_paths, seed, n_periods=len(w)
        )
        assert mc.mean_gain == float(np.mean(gains))
        assert mc.sample_variance == float(np.var(gains, ddof=1))

    def test_trajectory_views_derive_from_the_leg_arrays(self):
        traj = evolve(CONFIG, [0.2, 0.8, 0.5], [0.05, -0.1, 0.3])
        np.testing.assert_array_equal(traj.values, traj.v_long + traj.v_short)
        np.testing.assert_array_equal(traj.gains, traj.values - CONFIG.v0)
        assert [s.v_long for s in traj.states] == traj.v_long.tolist()
        assert traj.horizon == 3


class TestHorizonVectors:
    @given(
        w=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        mu=st.floats(-0.9, 0.9),
        alpha=st.floats(0.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_vector_equals_scalar_calls(self, w, mu, alpha, data):
        ks = data.draw(st.lists(st.integers(1, len(w)), min_size=1, max_size=10))
        cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS)
        moments = ReturnMoments(mu, 0.02)
        for fn, arg in (
            (expected_gain_loss, mu),
            (variance_gain_loss, moments),
            (second_moment_gain_loss, moments),
        ):
            vector = fn(cfg, w, arg, ks)
            assert isinstance(vector, np.ndarray)
            assert vector.tolist() == [fn(cfg, w, arg, k) for k in ks]

    def test_rpe_entries_equal_the_horizon_vector(self):
        w = np.linspace(0.1, 0.9, 12)
        report = rpe_scan(CONFIG, w, [-0.2, 0.0, 0.3], 12)
        for row, mu in zip(report.entries, report.mu_grid):
            assert row.tolist() == expected_gain_loss(CONFIG, w, mu, range(2, 13)).tolist()

    @pytest.mark.parametrize("k", [[], [0, 2], [[1, 2]], [1.5], 2.0])
    def test_bad_horizons_rejected(self, k):
        with pytest.raises(ValueError, match="horizon"):
            expected_gain_loss(CONFIG, [0.5, 0.5], 0.1, k)
