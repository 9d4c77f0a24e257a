"""Acceptance gate: one test per shipped guarantee.

Each test here pins down one externally visible promise of the package,
from the closed-form moment formulas through the Monte Carlo engine to
the command line.  The conftest terminal-summary hook prints a one-line
PASS/FAIL verdict per criterion after the run.  Where a criterion is
statistical, the random seed is pinned and the test also checks the
exact closed-form quantity behind the statistic, so a pass certifies
the mathematics and not just one lucky draw.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from doublelinear import (
    GbmJumpParams,
    MarketBounds,
    PolicyConfig,
    PriceSeries,
    ReturnMoments,
    TwoPointModel,
    WeightSpec,
    brute_force_moments,
    buy_and_hold_report,
    derive_w_max,
    e2_positive,
    esp_all,
    esp_naive,
    eval_schedule,
    evolve,
    expected_gain_loss,
    expected_gain_loss_constant,
    expected_growth_esp,
    expected_growth_product,
    monte_carlo_gain_loss,
    run_backtest,
    second_moment_gain_loss,
    sharpe_ratio,
    sign_condition_gain,
    simulate_path,
    variance_gain_loss,
)
from doublelinear.cli import main
from doublelinear.simulate import DEFAULT_MU_STAR_GRID

BOUNDS = MarketBounds(x_min=-0.5, x_max=1.0)


def test_criterion_01_half_split_gain_positive_with_two_weights():
    """alpha = 1/2 and two positive weights force a positive expected gain.

    1000 randomized admissible schedules, horizons 2..30 of both
    parities, mu of either sign: expected_gain_loss must be strictly
    positive every single time, in under five seconds.
    """
    rng = np.random.default_rng(101)
    config = PolicyConfig(alpha=0.5, bounds=BOUNDS)
    w_max = derive_w_max(BOUNDS)
    mu_choices = (-0.9, -0.5, -0.3, -0.1, -0.05, -0.01, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9)
    started = time.perf_counter()
    parities = set()
    for _ in range(1000):
        k = int(rng.integers(2, 31))
        weights = rng.uniform(0.0, w_max, size=k)
        while np.count_nonzero(weights > 0.0) < 2:
            weights = rng.uniform(0.0, w_max, size=k)
        mu = float(rng.choice(mu_choices))
        assert expected_gain_loss(config, weights, mu, k) > 0.0
        parities.add(k % 2)
    assert parities == {0, 1}
    assert time.perf_counter() - started < 5.0


def test_criterion_02_coefficient_expansion_matches_product_form():
    """The polynomial expansion and the factored product agree.

    500 randomized schedules up to k = 30, both parities, both leg
    signs.  When sign*mu < 0 the expansion terms alternate and cancel,
    so f64 cannot agree to 1e-12 of the (tiny) result; the achievable
    bound is 1e-12 of the summed term magnitudes, which is what is
    asserted.  Cancellation-free cases must agree to 1e-12 relative
    outright.
    """
    rng = np.random.default_rng(202)
    parities = set()
    for _ in range(500):
        k = int(rng.integers(1, 31))
        parities.add(k % 2)
        weights = rng.uniform(0.0, 1.0, size=k)
        mu = float(rng.uniform(-0.95, 0.95))
        sign = "+" if rng.integers(2) else "-"
        via_esp = expected_growth_esp(esp_all(weights), mu, sign)
        via_product = expected_growth_product(weights, mu, sign)
        term_mass = expected_growth_product(weights, abs(mu), "+")
        assert abs(via_esp - via_product) <= 1e-12 * term_mass
        leg = 1.0 if sign == "+" else -1.0
        if leg * mu > 0.0:
            assert via_esp == pytest.approx(via_product, rel=1e-12)
    assert parities == {0, 1}


def test_criterion_03_coefficient_recurrence_matches_enumeration():
    """The O(k^2) coefficient recurrence equals subset-sum enumeration.

    200 randomized weight vectors, k up to 12, every order j checked at
    1e-14 relative.  Coefficients are sums of nonnegative products, so
    a plain relative bound is well conditioned here.
    """
    rng = np.random.default_rng(303)
    for _ in range(200):
        k = int(rng.integers(1, 13))
        weights = rng.uniform(0.0, 2.0, size=k)
        table = esp_all(weights)
        for j in range(1, k + 1):
            assert table.e(j) == pytest.approx(esp_naive(weights, j), rel=1e-14, abs=0.0)


def test_criterion_04_pairwise_coefficient_positive_iff_two_weights():
    """e2 > 0 exactly when at least two weights are strictly positive.

    Exhaustive over all 2^6 on/off patterns at k = 6 with random
    positive magnitudes on the active positions.
    """
    rng = np.random.default_rng(404)
    for pattern in range(64):
        active = [(pattern >> i) & 1 for i in range(6)]
        magnitudes = rng.uniform(0.05, 1.0, size=6)
        weights = np.where(active, magnitudes, 0.0)
        if int(np.count_nonzero(weights)) >= 2:
            assert e2_positive(weights)
            assert esp_all(weights).e(2) > 0.0
        else:
            assert not e2_positive(weights)
            assert esp_all(weights).e(2) == 0.0


def _random_two_point_case(rng):
    k = int(rng.integers(2, 13))
    alpha = float(rng.choice([0.3, 0.5, 0.7]))
    model = TwoPointModel(
        x_up=float(rng.uniform(0.05, 0.9)),
        x_down=float(rng.uniform(-0.45, -0.05)),
        p_up=float(rng.uniform(0.1, 0.9)),
    )
    bounds = MarketBounds(x_min=min(model.x_down, -0.5), x_max=max(model.x_up, 1.0))
    config = PolicyConfig(alpha=alpha, bounds=bounds)
    weights = rng.uniform(0.0, derive_w_max(bounds), size=k)
    return config, weights, model, k


def test_criterion_05_closed_moments_match_path_enumeration():
    """Closed-form mean and variance equal exact 2^k path enumeration.

    100 randomized two-point models, k up to 12, alpha in
    {0.3, 0.5, 0.7}, at 1e-10 relative (absolute floor 1e-13 for values
    that cancel to zero), in under thirty seconds.
    """
    rng = np.random.default_rng(505)
    started = time.perf_counter()
    for _ in range(100):
        config, weights, model, k = _random_two_point_case(rng)
        mean_bf, var_bf = brute_force_moments(config, weights, model, k)
        mean_cf = expected_gain_loss(config, weights, model.mu, k)
        var_cf = variance_gain_loss(config, weights, model.moments(), k)
        assert mean_cf == pytest.approx(mean_bf, rel=1e-10, abs=1e-13)
        assert var_cf == pytest.approx(var_bf, rel=1e-10, abs=1e-13)
    assert time.perf_counter() - started < 30.0


def test_criterion_06_variance_matches_second_moment_identity():
    """variance == E[gain^2] - mean^2 across independently grouped products.

    The two sides are evaluated from different factorizations, so the
    identity holding at 1e-10 relative is a real cross-check.  The
    variance must also never dip below the documented -1e-12 * v0^2
    rounding floor.
    """
    rng = np.random.default_rng(606)
    for _ in range(100):
        config, weights, model, k = _random_two_point_case(rng)
        moments = model.moments()
        mean = expected_gain_loss(config, weights, model.mu, k)
        variance = variance_gain_loss(config, weights, moments, k)
        second = second_moment_gain_loss(config, weights, moments, k)
        assert variance == pytest.approx(second - mean * mean, rel=1e-10, abs=1e-13)
        assert variance >= -1e-12 * config.v0**2


def test_criterion_07_monte_carlo_matches_closed_forms():
    """Two-point Monte Carlo reproduces the closed-form mean and variance.

    k = 50, 100000 paths, alpha = 1/2, one constant and one ramped
    schedule: sample mean within four standard errors of the exact mean,
    sample variance within 5% relative of the exact variance, in under
    sixty seconds.  Probe runs put |z| around 0.7 and the variance error
    around 0.4%, so the margins are wide, not tuned.
    """
    config = PolicyConfig(alpha=0.5, bounds=BOUNDS)
    model = TwoPointModel(x_up=0.1, x_down=-0.1, p_up=0.65)
    horizon = 50
    started = time.perf_counter()
    for spec in (WeightSpec("constant", w=0.5), WeightSpec("log_ramp")):
        weights = eval_schedule(spec, horizon)
        exact_mean = expected_gain_loss(config, weights, model.mu, horizon)
        exact_var = variance_gain_loss(config, weights, model.moments(), horizon)
        result = monte_carlo_gain_loss(
            config, spec, model, 100_000, 0, n_periods=horizon
        )
        assert result.std_error > 0.0
        assert abs(result.mean_gain - exact_mean) <= 4.0 * result.std_error
        assert result.sample_variance == pytest.approx(exact_var, rel=0.05)
    assert time.perf_counter() - started < 60.0


def _per_period_moments(params: GbmJumpParams) -> ReturnMoments:
    """Exact one-period return moments of the jump-diffusion discretization.

    One period multiplies the price by
        G = exp((mu* - sigma*^2/2) dt + sigma* sqrt(dt) Z) * (1 - delta)^J
    with Z standard normal independent of J ~ Poisson(lam*dt).  Using
    E[exp(aZ)] = exp(a^2/2) and E[s^J] = exp(lam*dt*(s - 1)):
        E[G]   = exp(mu* dt) * exp(-lam dt delta)
        E[G^2] = exp((2 mu* + sigma*^2) dt) * exp(-lam dt delta (2 - delta))
    and the simple return X = G - 1 has mu = E[G] - 1,
    sigma2 = E[G^2] - E[G]^2.
    """
    dt = params.dt
    m1 = math.exp(params.mu_star * dt) * math.exp(-params.lam * dt * params.delta)
    m2 = math.exp((2.0 * params.mu_star + params.sigma_star**2) * dt) * math.exp(
        -params.lam * dt * params.delta * (2.0 - params.delta)
    )
    return ReturnMoments(mu=m1 - 1.0, sigma2=m2 - m1 * m1)


def test_criterion_08_drift_sweep_shows_positive_expected_gain():
    """The drift sweep shows the gain profile rising away from the flat point.

    Four schedules (constant 0.8, log ramp, interior burst, edge burst)
    swept over the default 41-point annualized drift grid with 10000
    paths per cell at the reference jump-diffusion parameters; each cell
    is the single run at seed 2, so the cells share their draws.  The mean
    per-period return is zero at mu* = lam*delta = 0.02; at every grid
    point at least 0.1 away from it the exact closed-form mean exceeds
    four exact standard errors (so the profile is mathematically real at
    this sample size), the sampled mean exceeds four sampled standard
    errors, and no cell anywhere dips below minus four.  Runs in under
    five minutes single-threaded.
    """
    config = PolicyConfig(alpha=0.5, bounds=BOUNDS)
    base = GbmJumpParams(mu_star=0.0)
    flat_point = base.lam * base.delta
    n_paths = 10_000
    specs = [
        WeightSpec("constant", w=0.8),
        WeightSpec("log_ramp"),
        WeightSpec("sin_burst"),
        WeightSpec("edge_sin"),
    ]
    started = time.perf_counter()
    for spec in specs:
        weights = eval_schedule(spec, base.n_periods)
        for mu_star in DEFAULT_MU_STAR_GRID:
            cell = dataclasses.replace(base, mu_star=mu_star)
            result = monte_carlo_gain_loss(config, spec, cell, n_paths, 2)
            assert result.n_paths == n_paths
            moments = _per_period_moments(cell)
            exact_mean = expected_gain_loss(config, weights, moments.mu, cell.n_periods)
            exact_var = variance_gain_loss(config, weights, moments, cell.n_periods)
            exact_se = math.sqrt(exact_var / n_paths)
            assert result.mean_gain >= -4.0 * result.std_error
            if abs(mu_star - flat_point) >= 0.1:
                assert exact_mean > 4.0 * exact_se
                assert result.mean_gain > 4.0 * result.std_error
    assert time.perf_counter() - started < 300.0


def test_criterion_09_half_split_single_stage_cancels_exactly():
    """At alpha = 1/2 the first stage cancels to exactly zero gain.

    The long leg gains 0.5*w*x, the short leg loses it; with v0 = 1 the
    halves are exact in binary and the realized one-stage gain is 0.0 at
    the bit level.  Checked on 10^6 random (w, x) pairs through the same
    float operations the account recursion performs, on 1000 pairs
    through evolve itself, and on the closed-form variance at k = 1,
    which must vanish to the documented 1e-12 * v0^2 floor.
    """
    rng = np.random.default_rng(909)
    n = 1_000_000
    w = rng.uniform(0.0, 1.0, size=n)
    x = rng.uniform(-0.5, 1.0, size=n)
    t = w * x
    total = 0.5 * (1.0 + t) + 0.5 * (1.0 - t)
    assert np.all(total - 1.0 == 0.0)

    config = PolicyConfig(alpha=0.5, bounds=BOUNDS)
    for wi, xi in zip(w[:1000], x[:1000]):
        trajectory = evolve(config, [float(wi)], [float(xi)])
        assert trajectory.final_gain == 0.0

    variance = variance_gain_loss(config, [0.7], ReturnMoments(mu=0.03, sigma2=0.04), 1)
    assert abs(variance) <= 1e-12 * config.v0**2


def test_criterion_10_accounts_survive_adversarial_boundary_paths():
    """Accounts stay strictly positive on adversarial boundary paths.

    100000 randomized paths of 50 stages, return sequences drawn from
    the bound endpoints themselves (including x_max > 1, where the
    weight cap binds), schedules either random or pinned at w_max:
    the account total must be strictly positive at every stage.  The
    vectorized recursion is tied back to evolve on a 200-path sample.
    """
    rng = np.random.default_rng(1010)
    horizon = 50
    batch = 10_000
    total_paths = 0
    last_case = None
    while total_paths < 100_000:
        bounds = MarketBounds(
            x_min=float(rng.uniform(-0.9, -0.05)),
            x_max=float(rng.uniform(0.1, 3.0)),
        )
        w_max = derive_w_max(bounds)
        alpha = float(rng.uniform(0.05, 0.95))
        if rng.integers(2):
            weights = np.full(horizon, w_max)
        else:
            weights = rng.uniform(0.0, w_max, size=horizon)
        hit_max = rng.integers(0, 2, size=(batch, horizon)).astype(bool)
        x = np.where(hit_max, bounds.x_max, bounds.x_min)
        v_long = alpha * np.cumprod(1.0 + weights * x, axis=1)
        v_short = (1.0 - alpha) * np.cumprod(1.0 - weights * x, axis=1)
        assert np.all(v_long > 0.0)
        assert np.all(v_long + v_short > 0.0)
        last_case = (alpha, bounds, weights, x)
        total_paths += batch

    alpha, bounds, weights, x = last_case
    config = PolicyConfig(alpha=alpha, bounds=bounds)
    for row in x[:200]:
        trajectory = evolve(config, weights, row)
        assert np.all(trajectory.values > 0.0)


def test_criterion_11_constant_schedule_reduction_agrees():
    """The constant-weight closed form equals the general product form.

    200 randomized (alpha, w, mu, k) tuples at 1e-12 relative; the two
    code paths group the same factors differently (repeated
    multiplication versus powers).
    """
    rng = np.random.default_rng(1111)
    for _ in range(200):
        k = int(rng.integers(1, 41))
        config = PolicyConfig(alpha=float(rng.uniform(0.0, 1.0)), bounds=BOUNDS)
        w = float(rng.uniform(0.0, 1.0))
        mu = float(rng.uniform(-0.95, 0.95))
        general = expected_gain_loss(config, np.full(k, w), mu, k)
        reduced = expected_gain_loss_constant(config, w, mu, k)
        assert general == pytest.approx(reduced, rel=1e-12, abs=1e-15)


def test_criterion_12_sign_condition_implies_positive_gain():
    """(2*alpha - 1)*mu > 0 with a positive weight gives gain > 0 at all k.

    200 randomized cases with the condition enforced by construction
    (checked through the predicate), first weight strictly positive:
    the expected gain must be strictly positive for every horizon from
    1 through 30.
    """
    rng = np.random.default_rng(1212)
    for _ in range(200):
        mu_magnitude = float(rng.uniform(1e-3, 0.9))
        alpha_offset = float(rng.uniform(1e-3, 0.5))
        if rng.integers(2):
            mu, alpha = mu_magnitude, 0.5 + alpha_offset
        else:
            mu, alpha = -mu_magnitude, 0.5 - alpha_offset
        config = PolicyConfig(alpha=alpha, bounds=BOUNDS)
        weights = rng.uniform(0.0, 1.0, size=30)
        weights[0] = float(rng.uniform(0.01, 1.0))
        assert sign_condition_gain(config, weights, mu, 30)
        for k in range(1, 31):
            assert expected_gain_loss(config, weights, mu, k) > 0.0


def _write_prices_csv(path, prices):
    rows = ["timestamp,price"]
    rows += [f"{i},{float(p)!r}" for i, p in enumerate(prices)]
    path.write_text("\n".join(rows) + "\n")


def test_criterion_13_backtest_determinism_and_long_only_baseline(tmp_path):
    """Backtests are deterministic and carry an exact hand-checked value.

    The 100 -> 110 -> 99 series at alpha = 1/2, w = 0.5 loses exactly
    0.25% (the +10%/-10% round trip hurts both legs symmetrically);
    repeated CLI runs produce byte-identical reports; the long-only
    baseline equals the raw price relative and equals the policy run at
    alpha = 1, w = 1.
    """
    prices = [100.0, 110.0, 99.0]
    series = PriceSeries(timestamps=np.arange(3), prices=np.array(prices))
    config = PolicyConfig(alpha=0.5, bounds=BOUNDS)
    spec = WeightSpec("constant", w=0.5)
    report = run_backtest(config, spec, series)
    again = run_backtest(config, spec, series)
    assert report.gain_loss == pytest.approx(-0.0025, abs=1e-15)
    assert report.to_dict() == again.to_dict()

    long_only = PolicyConfig(alpha=1.0, bounds=BOUNDS)
    baseline = buy_and_hold_report(long_only, series)
    assert baseline.gain_loss == pytest.approx(prices[-1] / prices[0] - 1.0, rel=1e-12)
    full_weight = run_backtest(long_only, WeightSpec("constant", w=1.0), series)
    assert baseline.gain_loss == pytest.approx(full_weight.gain_loss, rel=1e-12)
    assert baseline.variance == pytest.approx(full_weight.variance, rel=1e-12)
    assert baseline.sharpe == pytest.approx(full_weight.sharpe, rel=1e-12)

    csv_path = tmp_path / "prices.csv"
    _write_prices_csv(csv_path, prices)
    argv = ["backtest", "--csv", str(csv_path), "--w", "constant:0.5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--outdir", str(out_a)]) == 0
    assert main(argv + ["--outdir", str(out_b)]) == 0
    for name in ("backtest.json", "backtest.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    payload = json.loads((out_a / "backtest.json").read_text())
    assert payload["reports"]["constant:0.5"]["gain_loss"] == pytest.approx(
        -0.0025, abs=1e-15
    )


def test_criterion_14_moving_average_batch_reproduction(tmp_path):
    """The moving-average comparison table reproduces end to end.

    A pinned synthetic price year goes through the CLI with four
    indicator windows plus the long-only baseline: exit code 0, a
    metrics-by-strategy table with all five columns and finite values,
    byte-identical across reruns.  The Sharpe convention is anchored on
    hand values: returns (2%, 1%, 3%) give exactly 2, a flat account
    reports 0 with the degenerate flag raised.
    """
    assert sharpe_ratio([0.02, 0.01, 0.03]) == pytest.approx(2.0, abs=1e-12)
    assert sharpe_ratio([0.01, 0.01, 0.01]) == 0.0

    prices = simulate_path(GbmJumpParams(mu_star=0.05), seed=77)
    csv_path = tmp_path / "synthetic.csv"
    _write_prices_csv(csv_path, prices)

    flat = run_backtest(
        PolicyConfig(alpha=0.5, bounds=BOUNDS),
        WeightSpec("constant", w=0.0),
        PriceSeries(timestamps=np.arange(len(prices)), prices=prices),
    )
    assert flat.degenerate_sharpe
    assert flat.sharpe == 0.0

    argv = [
        "backtest", "--csv", str(csv_path),
        "--w", "ma:5", "--w", "ma:10", "--w", "ma:20", "--w", "ma:30",
        "--with-buy-hold",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--outdir", str(out_a)]) == 0
    assert main(argv + ["--outdir", str(out_b)]) == 0
    assert (out_a / "backtest.json").read_bytes() == (out_b / "backtest.json").read_bytes()
    assert (out_a / "backtest.csv").read_bytes() == (out_b / "backtest.csv").read_bytes()

    payload = json.loads((out_a / "backtest.json").read_text())
    columns = ["buy_and_hold", "ma:5", "ma:10", "ma:20", "ma:30"]
    assert sorted(payload["reports"]) == sorted(columns)
    for column in columns:
        report = payload["reports"][column]
        assert report["n_periods"] == len(prices) - 1
        for key in ("gain_loss", "variance", "sharpe"):
            assert math.isfinite(report[key])

    lines = [
        line
        for line in (out_a / "backtest.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    header = lines[0].split(",")
    assert header == ["metric"] + columns
    metrics = [line.split(",")[0] for line in lines[1:]]
    assert metrics == ["gain_loss", "variance", "sharpe", "degenerate_sharpe", "n_periods"]
