"""The shared core: one validator, one factor form, cumulative products.

Non-finite inputs must be rejected wherever weights, returns or prices
enter; evolve and the Monte Carlo path gain must agree exactly at every
rf; horizon vectors must equal the scalar calls.
"""

import dataclasses
import io
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    batch_backtest,
    brute_force_moments,
    clamp_admissible,
    e2_positive,
    esp_all,
    esp_naive,
    eval_schedule,
    evolve,
    expected_gain_loss,
    expected_gain_loss_constant,
    expected_growth_esp,
    expected_growth_product,
    ingest_csv,
    ma_indicator_weight,
    monte_carlo_gain_loss,
    parse_weight_spec,
    path_rng,
    prices_to_returns,
    rpe_scan,
    run_backtest,
    second_moment_gain_loss,
    sharpe_ratio,
    sign_condition_gain,
    simulate_path,
    simulate_returns,
    simulate_two_point,
    survivability_bound,
    variance_gain_loss,
)
from doublelinear.cli import main
from doublelinear.policy import check_count
from doublelinear.simulate import BLOCK, dump_paths_csv
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

    def test_expected_gain_loss(self, bad):
        with pytest.raises(AdmissibilityError, match="at stage 1"):
            expected_gain_loss(CONFIG, [0.5, bad], 0.1, 2)

    def test_expected_gain_loss_drift_grid(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"|mu| must be < 1, got {bad}")):
            expected_gain_loss(CONFIG, [0.5, 0.5], [0.1, bad], 2)

    def test_sign_condition_gain(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"|mu| must be < 1, got {bad}")):
            sign_condition_gain(CONFIG, [0.5, 0.5], bad, 2)

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
            lambda: ma_indicator_weight(prices, 4, 2, 0.8),
            lambda: ma_indicator_weights(prices, 5, 2, 0.8),
            lambda: ma_indicator_weights(np.array([prices, prices]), 5, 2, 0.8),
            lambda: eval_schedule(spec, 4, prices=prices),
        ):
            with pytest.raises(ValueError, match="nonpositive or non-finite price"):
                call()
        with pytest.raises(ValueError, match="nonpositive or non-finite price"):
            ma_indicator_weight([100.0, -1.0, 102.0], 2, 2, 0.8)

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
        ("w_max", "split"),
    ),
    (
        GbmJumpParams,
        st.tuples(*[ANY_FLOAT] * 5, st.integers(-10, 10**6), ANY_FLOAT),
        ("horizon_years", "log_drift", "log_volatility"),
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
        (GbmJumpParams, {"mu_star": 0.1, "sigma_star": 1e200}),
    ],
)
def test_constructors_reject_overflowing_accessors(make, kwargs):
    with pytest.raises(ValueError, match="overflows"):
        make(**kwargs)


def all_finite(value) -> bool:
    """True when every float inside value (dataclass fields, tuples, lists,
    arrays) is finite."""
    if dataclasses.is_dataclass(value):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(all_finite, value))
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
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


@given(fields=st.tuples(*[ANY_FLOAT] * 6), path_index=st.integers(0, 2 * BLOCK))
@settings(max_examples=300, deadline=None)
def test_gbm_paths_raise_value_error_or_stay_finite(fields, path_index):
    # every float field of the model at once: the model is refused, a path
    # leaves the float range with the named error, or its returns are
    # finite and > -1 and its prices finite and positive
    mu_star, sigma_star, lam, delta, dt, s0 = fields
    try:
        params = GbmJumpParams(mu_star, sigma_star, lam, delta, dt, 3, s0)
    except ValueError:
        return
    for draw, low in ((simulate_returns, -1.0), (simulate_path, 0.0)):
        try:
            out = draw(params, 0, path_index)
        except ValueError as exc:
            assert "leave the float range" in str(exc), exc
            continue
        assert out.shape == (3 + (draw is simulate_path),)
        assert np.isfinite(out).all() and (out > low).all(), (params, out)


# Every public count as (function of the count, its name, its minimum, the
# largest integer drawn), the other arguments valid.  The caps keep each
# example small: at most 5000 stages and 300 paths.
LONG_W = np.full(5000, 0.5)
RISING = np.arange(1.0, 41.0)
SHORT_GBM = GbmJumpParams(mu_star=0.1, n_periods=5)
TWO_POINT = TwoPointModel(0.1, -0.1, 0.5)
LOG_RAMP = WeightSpec("log_ramp")


def mc(n_paths, seed, **options):
    return monte_carlo_gain_loss(CONFIG, LOG_RAMP, SHORT_GBM, n_paths, seed, **options)


COUNTS = {
    "survivability_bound.k": (lambda v: survivability_bound(CONFIG, v), "k", 0, 5000),
    "expected_gain_loss.k": (lambda v: expected_gain_loss(CONFIG, LONG_W, 0.1, v), "k", 1, 5000),
    "sign_condition_gain.k": (lambda v: sign_condition_gain(CONFIG, LONG_W, 0.1, v), "k", 1, 5000),
    "variance_gain_loss.k": (
        lambda v: variance_gain_loss(CONFIG, LONG_W, MOMENTS, v), "k", 1, 5000
    ),
    "second_moment_gain_loss.k": (
        lambda v: second_moment_gain_loss(CONFIG, LONG_W, MOMENTS, v), "k", 1, 5000
    ),
    "expected_gain_loss_constant.k": (
        lambda v: expected_gain_loss_constant(CONFIG, 0.5, 0.1, v), "k", 1, 5000
    ),
    "brute_force_moments.k": (
        lambda v: brute_force_moments(CONFIG, LONG_W, TWO_POINT, v), "k", 1, 12
    ),
    "rpe_scan.k_max": (lambda v: rpe_scan(CONFIG, LONG_W, [0.01], v), "k_max", 2, 5000),
    "GbmJumpParams.n_periods": (
        lambda v: GbmJumpParams(mu_star=0.1, n_periods=v), "n_periods", 1, 5000
    ),
    "path_rng.seed": (lambda v: path_rng(v, 0), "seed", 0, 2**64 - 1),
    "path_rng.block": (lambda v: path_rng(0, v), "block", 0, 2**64 - 1),
    "simulate_path.seed": (lambda v: simulate_path(SHORT_GBM, v), "seed", 0, 2**64 - 1),
    "simulate_path.path_index": (
        lambda v: simulate_path(SHORT_GBM, 0, v), "path_index", 0, 10**9
    ),
    "simulate_two_point.k": (lambda v: simulate_two_point(TWO_POINT, v, 0), "k", 1, 5000),
    "simulate_two_point.seed": (
        lambda v: simulate_two_point(TWO_POINT, 5, v), "seed", 0, 2**64 - 1
    ),
    "simulate_two_point.path_index": (
        lambda v: simulate_two_point(TWO_POINT, 5, 0, v), "path_index", 0, 10**9
    ),
    "monte_carlo_gain_loss.n_paths": (lambda v: mc(v, 0), "n_paths", 1, 300),
    "monte_carlo_gain_loss.seed": (lambda v: mc(3, v), "seed", 0, 2**64 - 1),
    "monte_carlo_gain_loss.n_periods": (
        lambda v: monte_carlo_gain_loss(CONFIG, LOG_RAMP, TWO_POINT, 3, 0, n_periods=v),
        "n_periods", 1, 500,
    ),
    "dump_paths_csv.seed": (
        lambda v: dump_paths_csv(os.devnull, SHORT_GBM, v, 3), "seed", 0, 2**64 - 1
    ),
    "dump_paths_csv.n_paths": (
        lambda v: dump_paths_csv(os.devnull, SHORT_GBM, 0, v), "n_paths", 1, 300
    ),
    "WeightSpec.d": (lambda v: WeightSpec("ma_indicator", w=0.5, d=v), "d", 1, 5000),
    "eval_schedule.n": (lambda v: eval_schedule(LOG_RAMP, v), "n", 1, 5000),
    # k runs past the 40 prices, n does not: a short history names n
    "ma_indicator_weight.k": (lambda v: ma_indicator_weight(RISING, v, 3, 0.5), "k", 0, 60),
    "ma_indicator_weight.d": (lambda v: ma_indicator_weight(RISING, 39, v, 0.5), "d", 1, 60),
    "ma_indicator_weights.n": (lambda v: ma_indicator_weights(RISING, v, 3, 0.5), "n", 1, 40),
    "ma_indicator_weights.d": (lambda v: ma_indicator_weights(RISING, 40, v, 0.5), "d", 1, 60),
    "esp_naive.j": (lambda v: esp_naive(LONG_W[:8], v), "j", 1, 10),
}
NOT_COUNTS = [np.int64(3), True, False, 3.0, 2.5, math.nan, None]


@pytest.mark.parametrize("call, name, minimum, cap", COUNTS.values(), ids=COUNTS.keys())
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_counts_raise_value_error_naming_them_or_stay_finite(call, name, minimum, cap, data):
    value = data.draw(st.integers(-3, cap) | st.sampled_from(NOT_COUNTS), label=name)
    is_count = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    try:
        result = call(value)
    except ValueError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), (value, str(exc))
        return
    assert is_count and value >= minimum, (value, result)
    assert all_finite(result), (value, result)


def test_counts_are_stored_as_python_ints():
    n = np.int64(3)
    stored = [
        GbmJumpParams(mu_star=0.1, n_periods=n).n_periods,
        WeightSpec("ma_indicator", w=0.5, d=n).d,
        *rpe_scan(CONFIG, LONG_W, [0.1], n).k_range,
    ]
    assert [type(value) for value in stored] == [int] * 4


@pytest.mark.parametrize(
    "message, call",
    [
        ("horizon k must be an integer, got 2.5",
         lambda: expected_gain_loss_constant(CONFIG, 0.5, 0.1, 2.5)),
        ("k must be an integer, got 2.5", lambda: survivability_bound(CONFIG, 2.5)),
        ("n must be an integer, got 2.5", lambda: eval_schedule(LOG_RAMP, 2.5)),
        ("n must be an integer, got 2.5",
         lambda: eval_schedule(WeightSpec("constant", w=0.5), 2.5)),
        ("n must be an integer, got 2.5",
         lambda: eval_schedule(WeightSpec("table", values=(0.5,) * 3), 2.5)),
        ("n_periods must be an integer, got 2.5",
         lambda: GbmJumpParams(mu_star=0.1, n_periods=2.5)),
        ("n_paths must be an integer, got 2.5", lambda: mc(2.5, 0)),
        ("n_paths must be an integer, got True", lambda: mc(True, 0)),
        ("seed must be an integer, got 1.5", lambda: mc(3, 1.5)),
        ("n_periods must be an integer, got 5.0", lambda: mc(3, 0, n_periods=5.0)),
        ("k must be an integer, got 2.5", lambda: simulate_two_point(TWO_POINT, 2.5, 0)),
        ("path_index must be an integer, got 2.5", lambda: simulate_path(SHORT_GBM, 0, 2.5)),
        ("path_index must be >= 0, got -1", lambda: simulate_path(SHORT_GBM, 0, -1)),
        ("window d must be an integer, got 2.5",
         lambda: WeightSpec("ma_indicator", w=0.5, d=2.5)),
        ("k must be an integer, got 2.5", lambda: ma_indicator_weight(RISING, 2.5, 2, 0.5)),
        ("n must be an integer, got 2.5", lambda: ma_indicator_weights(RISING, 2.5, 2, 0.5)),
        ("j must be an integer, got 1.5", lambda: esp_naive([0.5, 0.5], 1.5)),
        ("n_paths must be an integer, got 2.5",
         lambda: dump_paths_csv(os.devnull, SHORT_GBM, 0, 2.5)),
        ("k_max must be an integer, got 5.5", lambda: rpe_scan(CONFIG, LONG_W, [0.1], 5.5)),
        # range texts that predate the shared check
        ("n_paths must be >= 1, got 0", lambda: mc(0, 0)),
        ("horizon k must be >= 1, got 0", lambda: expected_gain_loss(CONFIG, LONG_W, 0.1, [3, 0])),
        ("k_max must be >= 2, got 1", lambda: rpe_scan(CONFIG, LONG_W, [0.1], 1)),
    ],
)
def test_count_errors_name_the_parameter(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_check_count_returns_a_python_int():
    assert check_count("n", np.int64(7)) == 7
    assert type(check_count("n", np.uint8(0), 0)) is int
    for bad in (True, np.bool_(True), 3.0, np.float64(3.0), None, "3"):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            check_count("n", bad)


# the closed-form entry points as (config, weights, drift grid, sigma2, horizons) -> array
CLOSED_FORMS = {
    "expected_gain_loss": lambda cfg, w, mu, s2, k: expected_gain_loss(cfg, w, mu, k),
    "variance_gain_loss": lambda cfg, w, mu, s2, k: variance_gain_loss(
        cfg, w, ReturnMoments(mu, s2), k
    ),
    "second_moment_gain_loss": lambda cfg, w, mu, s2, k: second_moment_gain_loss(
        cfg, w, ReturnMoments(mu, s2), k
    ),
    "rpe_scan": lambda cfg, w, mu, s2, k: rpe_scan(cfg, w, mu, max(k)).entries,
}


@pytest.mark.parametrize("form", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
@given(
    w=st.lists(st.floats(0.0, 1.0) | ANY_FLOAT, min_size=1, max_size=8),
    n=st.integers(1, 2500),
    alpha=st.floats(0.0, 1.0),
    grid=st.lists(ANY_FLOAT | st.sampled_from([1.0, -1.0, 0.0]), min_size=1, max_size=5),
    sigma2=st.floats(0.0, 2.0) | ANY_FLOAT,
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_closed_forms_raise_value_error_or_return_no_nan(form, w, n, alpha, grid, sigma2, data):
    # the schedule repeats w up to n stages, so long horizons overflow:
    # inf past the float range is the contract, nan never is
    ks = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS)
    try:
        with np.errstate(over="ignore"):
            values = form(cfg, np.resize(w, n), grid, sigma2, ks)
    except ValueError:
        return
    assert not np.isnan(values).any(), values


# CLOSED_FORMS with the constant-weight reduction at the schedule's first weight
ALL_CLOSED_FORMS = {
    **CLOSED_FORMS,
    "expected_gain_loss_constant": lambda cfg, w, mu, s2, k: np.array(
        [[expected_gain_loss_constant(cfg, w[0], m, kk) for kk in k] for m in mu]
    ),
}


@pytest.mark.parametrize("form", ALL_CLOSED_FORMS.values(), ids=ALL_CLOSED_FORMS.keys())
@given(
    w=st.lists(st.floats(0.0, 1.0) | ANY_FLOAT, min_size=1, max_size=8),
    n=st.integers(1, 2500),
    alpha=st.floats(0.0, 1.0),
    grid=st.lists(ANY_FLOAT | st.sampled_from([1.0, -1.0, 0.0]), min_size=1, max_size=5),
    sigma2=st.floats(0.0, 2.0) | ANY_FLOAT,
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_closed_forms_return_finite_or_inf_without_warning(form, w, n, alpha, grid, sigma2, data):
    # past the float range a closed form is inf by itself, with no warning to hide
    ks = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.asarray(form(cfg, np.resize(w, n), grid, sigma2, ks))
        except ValueError:
            return
    assert (np.isfinite(values) | (values == np.inf)).all(), values


# the ESP table e_0 .. e_k, from the recurrence and from enumeration
ESP_TABLES = {
    "esp_all": esp_all,
    "esp_naive": lambda w: np.array([1.0] + [esp_naive(w, j) for j in range(1, len(w) + 1)]),
}
# zeros and huge weights drawn often: a zero weight after an overflow adds nothing, not nan
ESP_WEIGHTS = st.lists(st.just(0.0) | ANY_FLOAT.map(abs) | ANY_FLOAT, min_size=1, max_size=12)


@pytest.mark.parametrize("table", ESP_TABLES.values(), ids=ESP_TABLES.keys())
@given(w=ESP_WEIGHTS)
@example(w=[1e300, 1e300, 0.0])
@settings(max_examples=200, deadline=None)
def test_esp_table_is_nonnegative_and_never_nan(table, w):
    # e_j sums products of nonnegative weights: finite or +inf, and 0 past the positive count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            e = table(w)
        except ValueError:
            return
    assert (e >= 0.0).all(), e  # nan fails the comparison
    assert e[0] == 1.0 and (e[np.count_nonzero(np.array(w) > 0.0) + 1 :] == 0.0).all(), e


@given(w=ESP_WEIGHTS)
@settings(max_examples=200, deadline=None)
def test_e2_positive_counts_positive_weights(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            positive = e2_positive(w)
        except ValueError:
            return
    assert positive is (sum(x > 0.0 for x in w) >= 2)


GROWTH_FORMS = {
    "expected_growth_product": expected_growth_product,
    "expected_growth_esp": lambda w, mu, sign: expected_growth_esp(esp_all(w), mu, sign),
}


@pytest.mark.parametrize("form", GROWTH_FORMS.values(), ids=GROWTH_FORMS.keys())
@given(
    w=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    mu=ANY_FLOAT,
    sign=st.sampled_from(["+", "-", 1, -1]),
)
@settings(max_examples=200, deadline=None)
def test_growth_factor_raises_value_error_or_is_finite(form, w, mu, sign):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = form(w, mu, sign)
        except ValueError:
            return
    assert math.isfinite(value), value


# Closed forms whose value leaves the float range, with the factors that carry it there.
PAST_FLOAT_RANGE = {
    "expected_gain_loss": lambda cfg: expected_gain_loss(cfg, [0.5] * 5000, 0.9, 5000),
    "variance_gain_loss": lambda cfg: variance_gain_loss(
        cfg, [0.9] * 3000, ReturnMoments(0.9, 0.01), 3000
    ),
    "second_moment_gain_loss": lambda cfg: second_moment_gain_loss(
        cfg, [0.9] * 3000, ReturnMoments(0.9, 0.01), 3000
    ),
}


@pytest.mark.parametrize("form", PAST_FLOAT_RANGE.values(), ids=PAST_FLOAT_RANGE.keys())
def test_closed_form_past_float_range_is_inf_without_warning(form):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert form(PolicyConfig(alpha=0.5, bounds=BOUNDS)) == math.inf


@pytest.mark.parametrize("form", [variance_gain_loss, second_moment_gain_loss])
def test_pair_with_coefficient_zero_ignores_an_infinite_factor(form):
    # alpha = 0 leaves the long pair, whose factor 1 + q/(1 - 0.5)^2 overflows, out
    cfg = PolicyConfig(alpha=0.0, bounds=BOUNDS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = form(cfg, [1.0], ReturnMoments(-0.5, 1e308), 1)
    assert value == pytest.approx(1e308)


class TestConstantReductionPastFloatRange:
    # w*mu = 0.81 over 2000 stages: the long leg grows past the float range,
    # the short leg decays to 0
    @pytest.mark.parametrize("alpha, expected", [(0.0, -1.0), (0.5, math.inf), (1.0, math.inf)])
    def test_matches_the_general_form(self, alpha, expected):
        cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected_gain_loss_constant(cfg, 0.9, 0.9, 2000) == expected
            assert expected_gain_loss(cfg, [0.9] * 2000, 0.9, 2000) == expected

    def test_finite_past_expm1_range_when_the_coefficient_brings_it_back(self):
        cfg = PolicyConfig(alpha=1e-3, bounds=BOUNDS, v0=0.01)  # 1e-5 * 1.81^1200 ~ 1.6e304
        general = expected_gain_loss(cfg, [0.9] * 1200, 0.9, 1200)
        assert math.isfinite(general)
        assert expected_gain_loss_constant(cfg, 0.9, 0.9, 1200) == pytest.approx(general, rel=1e-9)


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


# Runs whose results leave the float range, and the start of their one error line.
FLOAT_RANGE_RUNS = {
    "account legs": (
        ["simulate", "--mu-star", "2", "--sigma-star", "0.5", "--lambda", "0", "--dt", "1",
         "--n", "3000", "--paths", "64", "--w", "constant:1.0"],
        "the account value leaves the float range: a final value is nan",
    ),
    "sample variance": (
        ["simulate", "--mu-star", "0.1", "--rf", "10000", "--n", "45", "--paths", "64",
         "--w", "constant:0.5"],
        "simulate.json not written, a result is inf or nan",
    ),
    "compensator": (
        ["simulate", "--mu-star", "0", "--sigma-star", "0", "--lambda", "0", "--rf", "0.1",
         "--n", "14550", "--paths", "2", "--w", "constant:0.5"],
        "simulate.json not written, a result is inf or nan",
    ),
    "price ratio": (
        ["backtest", "--csv", "{csv}"],
        "a price ratio leaves the float range: returns must lie in (-1, inf), got -1.0",
    ),
    "price ratio, bounds from data": (
        ["backtest", "--csv", "{csv}", "--bounds-from-data"],
        "a price ratio leaves the float range: returns must lie in (-1, inf), got -1.0",
    ),
    # stage 1's legs are finite, their sum is not; stage 2 is back in range
    "backtest account value": (
        ["backtest", "--csv", "{steep}", "--v0", "1.79e308", "--alpha", "0.6",
         "--w", "constant:0.5"],
        "the account value leaves the float range at stage 1: inf",
    ),
}


class TestFloatRange:
    @pytest.mark.parametrize("argv, message", FLOAT_RANGE_RUNS.values(), ids=FLOAT_RANGE_RUNS)
    def test_is_one_error_line_without_warning(self, tmp_path, capsys, argv, message):
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text("timestamp,price\n1,1e300\n2,1e-300\n3,1e300\n")
        steep_path = tmp_path / "steep.csv"
        steep_path.write_text("timestamp,price\n1,100\n2,150\n3,75\n")
        outdir = tmp_path / "out"
        argv = [arg.format(csv=csv_path, steep=steep_path) for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--outdir", str(outdir)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert not outdir.exists()

    def test_price_ratio_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="price ratio leaves the float range"):
                prices_to_returns([1e300, 1e-300, 1e300])

    def test_account_value_rejected(self):
        config = PolicyConfig(alpha=0.5, bounds=BOUNDS, rf=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="account value leaves the float range"):
                evolve(config, [0.5, 0.5], [0.1, 0.1])


class TestAccountReachingZero:
    # a return of exactly x_max = 1 zeroes the short leg, which alpha = 0 holds alone
    CONFIG = PolicyConfig(alpha=0.0, bounds=BOUNDS)

    def test_run_backtest_names_the_stage(self):
        series = PriceSeries([1, 2, 3], [1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                "^the account value reaches 0 at stage 1, so its per-period returns are undefined$"
            )):
                run_backtest(self.CONFIG, WeightSpec("constant", w=1.0), series)

    def test_cli_is_one_error_line_without_warning(self, tmp_path, capsys):
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text("timestamp,price\n1,1\n2,2\n3,3\n")
        outdir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["backtest", "--csv", str(csv_path), "--alpha", "0",
                         "--w", "constant:1.0", "--outdir", str(outdir)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: ") and "stage 1" in captured.err
        assert captured.err.count("\n") == 1
        assert not outdir.exists()

    def test_zero_at_the_last_stage_is_reported(self):
        series = PriceSeries([1, 2, 3], [1.0, 1.5, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_backtest(self.CONFIG, WeightSpec("constant", w=1.0), series)
        assert report.gain_loss == -1.0


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
    def test_evolve_and_monte_carlo_agree_exactly(self, path, alpha, v0, rf):
        model, w, seed = path
        cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS, v0=v0, rf=rf)
        x = simulate_two_point(model, len(w), seed, 0)

        traj = evolve(cfg, w, x)
        mc = monte_carlo_gain_loss(
            cfg, WeightSpec("table", values=tuple(w)), model, 1, seed, n_periods=len(w)
        )

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

    @given(
        path=paths(),
        n_paths=st.integers(2, 9 * BLOCK + 3),
        cpus=st.integers(1, 2),
        alpha=st.floats(0.0, 1.0),
        rf=st.one_of(st.just(0.0), st.floats(1e-6, 0.01)),
    )
    @settings(max_examples=30, deadline=None)
    def test_grouped_folds_give_the_mean_of_evolve_over_rows(self, path, n_paths, cpus, alpha, rf):
        # the engine folds several blocks' rows in one call; past one group, on one
        # or two ranges, every row must still be exactly its evolve gain
        model, w, seed = path
        cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS, rf=rf)
        gains = np.array([
            evolve(cfg, w, simulate_two_point(model, len(w), seed, i)).final_gain
            for i in range(n_paths)
        ])
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            mc = monte_carlo_gain_loss(
                cfg, WeightSpec("table", values=tuple(w)), model, n_paths, seed, n_periods=len(w)
            )
        assert mc.mean_gain == float(np.mean(gains))
        assert mc.sample_variance == float(np.var(gains, ddof=1))

    def test_trajectory_views_derive_from_the_leg_arrays(self):
        traj = evolve(CONFIG, [0.2, 0.8, 0.5], [0.05, -0.1, 0.3])
        np.testing.assert_array_equal(traj.values, traj.v_long + traj.v_short)
        np.testing.assert_array_equal(traj.gains, traj.values - CONFIG.v0)
        assert traj.horizon == 3


def test_step_account_and_evolve_name_a_value_past_the_float_range():
    # the first stage past the range is named, also when its legs are finite
    # and the curve comes back into the range later
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, v0, returns in [
            (1.0, 1.7e308, [0.9]), (0.6, 1.79e308, [0.5, -0.5]), (0.6, 1.79e308, [0.5, 0.5]),
        ]:
            with pytest.raises(ValueError, match=re.escape(
                "the account value leaves the float range at stage 1: inf"
            )):
                evolve(PolicyConfig(alpha, BOUNDS, v0), [0.5] * len(returns), returns)


@given(
    fields=st.tuples(*[ANY_FLOAT] * 5) | st.tuples(
        st.floats(0.0, 1.0), st.floats(-0.99, -0.01), st.floats(0.01, 1.0),
        st.floats(1.7e308, 1.7976931348623157e308), st.floats(0.0, 0.01),
    ),
    path=st.lists(
        st.tuples(ANY_FLOAT, ANY_FLOAT) | st.tuples(st.floats(0.0, 1.0), st.floats(-0.99, 1.0)),
        max_size=4,
    ),
)
@example(fields=(0.6, -0.5, 1.0, 1.79e308, 0.0), path=[(0.5, 0.5), (0.9, -0.5)])
@settings(max_examples=300, deadline=None)
def test_evolve_raises_value_error_or_stays_finite(fields, path):
    # any float anywhere, or a config, weights and returns inside their ranges
    # with v0 near the top of the float range
    alpha, x_min, x_max, v0, rf = fields
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = PolicyConfig(alpha, MarketBounds(x_min, x_max), v0, rf)
            traj = evolve(cfg, [w for w, _ in path], [x for _, x in path])
        except ValueError:
            return
        values = traj.values
    assert np.isfinite(values).all(), (cfg, path, values)
    assert (traj.v_long >= 0.0).all() and (traj.v_short >= 0.0).all(), (cfg, path)


POSITIVE_FLOAT = st.floats(0.0, exclude_min=True, allow_infinity=False)


@given(
    prices=st.lists(POSITIVE_FLOAT, min_size=2, max_size=8),
    v0=POSITIVE_FLOAT,
    alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    bounds_from_data=st.booleans(),
)
@example(prices=[1.0, 1e-10, 1e300], v0=1e-300, alpha=0.5, bounds_from_data=True)
@settings(max_examples=300, deadline=None)
def test_batch_backtest_raises_value_error_or_stays_finite(prices, v0, alpha, bounds_from_data):
    # prices and v0 anywhere in the float range; buy-and-hold runs first, and its
    # account returns may pass the float range even where the prices' do not
    specs = {text: parse_weight_spec(text) for text in ("constant:0.0", "constant:0.5", "ma:2")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reports = batch_backtest(
                PolicyConfig(alpha, BOUNDS, v0), specs,
                PriceSeries(np.arange(len(prices)), prices),
                include_buy_hold=True, bounds_from_data=bounds_from_data,
            )
        except ValueError:
            return
    for name, report in reports.items():
        assert all(map(math.isfinite, report.to_dict().values())), (name, report, prices, v0)


def value_error_or(call):
    """call() with warnings as errors, or None when it raises ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ValueError:
            return None


@given(
    w=st.lists(st.floats(0.0, 1.0) | ANY_FLOAT, min_size=1, max_size=6),
    v0=ANY_FLOAT.map(abs),
    alpha=st.floats(0.0, 1.0),
    fields=st.tuples(*[ANY_FLOAT] * 3),
)
@example(w=[0.5] * 3, v0=1e300, alpha=0.5, fields=(0.5, -0.4, 0.5))
@settings(max_examples=300, deadline=None)
def test_enumeration_oracle_raises_value_error_or_returns_no_nan(w, v0, alpha, fields):
    # the horizon is the schedule's length: a mean past the float range is refused,
    # a variance past it is inf
    moments = value_error_or(lambda: brute_force_moments(
        PolicyConfig(alpha, BOUNDS, v0), w, TwoPointModel(*fields), len(w)
    ))
    assert moments is None or (
        math.isfinite(moments[0]) and 0.0 <= moments[1] <= math.inf
    ), (w, v0, alpha, fields, moments)


@given(returns=st.lists(ANY_FLOAT, min_size=2, max_size=6))
@example(returns=[1e308, 1e308])
@settings(max_examples=300, deadline=None)
def test_sharpe_ratio_raises_value_error_or_is_finite(returns):
    ratio = value_error_or(lambda: sharpe_ratio(returns))
    assert ratio is None or math.isfinite(ratio), (returns, ratio)


# price series and two-row price matrices anywhere in the float range, positive often
PRICE_LISTS = st.lists(ANY_FLOAT.map(abs) | ANY_FLOAT, min_size=1, max_size=8)
PRICES = PRICE_LISTS | PRICE_LISTS.map(lambda p: [p, p[::-1]])


@given(prices=PRICES)
@settings(max_examples=300, deadline=None)
def test_prices_to_returns_raise_value_error_or_stay_finite(prices):
    x = value_error_or(lambda: prices_to_returns(prices))
    assert x is None or (np.isfinite(x).all() and (x > -1.0).all()), (prices, x)


@given(prices=PRICES, k=st.integers(-1, 9), d=st.integers(-1, 9), w=st.floats(0.0, 1.0) | ANY_FLOAT)
@settings(max_examples=300, deadline=None)
def test_moving_average_weights_raise_value_error_or_are_0_or_w(prices, k, d, w):
    # k is the stage of the scalar form and the stage count of the vector form
    weight = value_error_or(lambda: ma_indicator_weight(prices, k, d, w))
    assert weight is None or (type(weight) is float and weight in (0.0, w)), (prices, k, d, w)
    weights = value_error_or(lambda: ma_indicator_weights(prices, k, d, w))
    assert weights is None or np.isin(weights, [0.0, w]).all(), (prices, k, d, w)


@given(values=st.lists(ANY_FLOAT, max_size=8), w_max=ANY_FLOAT)
@settings(max_examples=300, deadline=None)
def test_clamp_admissible_raises_value_error_or_stays_admissible(values, w_max):
    clamped = value_error_or(lambda: clamp_admissible(values, w_max))
    assert clamped is None or ((clamped >= 0.0) & (clamped <= w_max)).all(), (values, w_max)


@given(fields=st.tuples(*[ANY_FLOAT] * 4), k=st.integers(-1, 10**6))
@settings(max_examples=300, deadline=None)
def test_survivability_bound_raises_value_error_or_is_finite_and_nonnegative(fields, k):
    alpha, x_min, x_max, v0 = fields
    bounds = value_error_or(
        lambda: survivability_bound(PolicyConfig(alpha, MarketBounds(x_min, x_max), v0), k)
    )
    assert bounds is None or all(0.0 <= b < math.inf for b in bounds), (fields, k, bounds)


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

    @pytest.mark.parametrize("k", [[], [0, 2], [[1, 2]], [1.5], 2.0, [True, 2]])
    def test_bad_horizons_rejected(self, k):
        with pytest.raises(ValueError, match="horizon"):
            expected_gain_loss(CONFIG, [0.5, 0.5], 0.1, k)


@st.composite
def drift_grids(draw):
    """A shuffled grid holding 0 and each drawn drift with both signs."""
    drifts = draw(st.lists(st.floats(0.0, 0.99, exclude_min=True), min_size=1, max_size=3))
    return draw(st.permutations([0.0, *drifts, *(-d for d in drifts)]))


class TestDriftGrids:
    @given(
        base=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        n=st.integers(2, 2500),
        alpha=st.floats(0.0, 1.0),
        grid=drift_grids(),
        sigma2=st.floats(1e-6, 4.0),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_grid_equals_stacked_scalar_calls(self, base, n, alpha, grid, sigma2, data):
        # the schedule repeats base up to n stages, so long horizons reach inf
        w = np.resize(base, n)
        ks = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=5))
        cfg = PolicyConfig(alpha=alpha, bounds=BOUNDS)
        with np.errstate(over="ignore"):
            for fn, arg in (
                (expected_gain_loss, lambda mu: mu),
                (variance_gain_loss, lambda mu: ReturnMoments(mu, sigma2)),
                (second_moment_gain_loss, lambda mu: ReturnMoments(mu, sigma2)),
            ):
                for k in (ks, ks[0]):
                    stacked = np.array([fn(cfg, w, arg(mu), k) for mu in grid])
                    assert np.array_equal(fn(cfg, w, arg(grid), k), stacked), (fn, k)
            report = rpe_scan(cfg, w, grid, n)
            for i, mu in enumerate(grid):
                row = expected_gain_loss(cfg, w, mu, range(2, n + 1))
                assert np.array_equal(report.entries[i], row)

    def test_scalars_give_a_float_and_grids_their_axes(self):
        w = [0.5, 0.4, 0.3]
        assert type(expected_gain_loss(CONFIG, w, 0.1, 3)) is float
        assert expected_gain_loss(CONFIG, w, [0.1, -0.1], 3).shape == (2,)
        assert expected_gain_loss(CONFIG, w, 0.1, [1, 3]).shape == (2,)
        moments = ReturnMoments([0.1, 0.0, -0.1], 0.01)
        assert variance_gain_loss(CONFIG, w, moments, [1, 2]).shape == (3, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda mu: expected_gain_loss(CONFIG, [0.5, 0.5], mu, 2),
            lambda mu: variance_gain_loss(CONFIG, [0.5, 0.5], ReturnMoments(mu, 0.01), 2),
            lambda mu: second_moment_gain_loss(CONFIG, [0.5, 0.5], ReturnMoments(mu, 0.01), [1, 2]),
        ],
        ids=["mean", "variance", "second_moment"],
    )
    def test_two_dimensional_drift_rejected(self, call):
        with pytest.raises(ValueError, match="1-d grid"):
            call([[0.1, 0.2]])
