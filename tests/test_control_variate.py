"""The martingale control variate of the Monte Carlo mean.

The first-order compensator A sums, over stages k, the expected gain
increment given the past: mu*w_k*D(k-1) + r_k*V_L(k-1), with
D = V_L - V_S and r_k = rf*(1 - w_k).  A static schedule gets the
second-order A2 = A - sum_j w_j*(x_j - mu)*(mu*S_j*V(j-1) + R_j*V_L(j-1)),
V = V_L + V_S and S_j, R_j the sums of w_k and r_k over k > j: the drift
x_j adds to the later terms of A, known when x_j is drawn because the
later weights are.  The engine computes A2 as c0 + V_L(:-1) @ a_L +
V_S(:-1) @ a_S.  An ma: schedule's later weights depend on later prices,
so it keeps A.  Both means are the expected gain, exactly; these tests
pin the identities behind that, the engine's compensator against a loop
over evolve trajectories, the estimate against the plain one and against
the closed form, its standard error against the spread over seeds, and
the cases where it must fall back or vanish.
"""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _per_period_moments

from doublelinear import (
    GbmJumpParams,
    MarketBounds,
    PolicyConfig,
    TwoPointModel,
    WeightSpec,
    eval_schedule,
    evolve,
    expected_gain_loss,
    monte_carlo_gain_loss,
    simulate_path,
    simulate_returns,
    simulate_two_point,
)
from doublelinear.cli import main
from doublelinear.simulate import _compensator_coefficients
from doublelinear.weights import ma_indicator_weights, parse_weight_spec

BOUNDS = MarketBounds(-0.5, 1.0)
CONFIG = PolicyConfig(alpha=0.5, bounds=BOUNDS)
SPECS = ["constant:0.8", "log_ramp", "ma:20"]


def gbm(mu_star=0.3, n_periods=60):
    return GbmJumpParams(mu_star=mu_star, n_periods=n_periods)


class TestTelescopingIdentity:
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        mu=st.floats(-0.9, 0.9),
        alpha=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_compensator_mean_is_the_expected_gain(self, weights, mu, alpha):
        # For a deterministic schedule E[D(j-1)] = alpha*P_up(j-1) -
        # (1-alpha)*P_down(j-1), P_up/down(j) being prod(1 +/- w*mu) over
        # the first j stages; summing mu*w_j*E[D(j-1)] telescopes to the
        # closed-form mean, exactly.
        m = Fraction(mu)
        up, down = [Fraction(1)], [Fraction(1)]
        for w in map(Fraction, weights):
            up.append(up[-1] * (1 + w * m))
            down.append(down[-1] * (1 - w * m))
        for a in (Fraction(alpha), Fraction(1, 2)):
            compensator = sum(
                m * Fraction(w) * (a * up[j] - (1 - a) * down[j]) for j, w in enumerate(weights)
            )
            assert compensator == a * up[-1] + (1 - a) * down[-1] - 1
        # At alpha = 1/2 the closed form sums no negative terms, so it is
        # accurate relative to the value itself.
        exact = (up[-1] + down[-1]) / 2 - 1
        value = expected_gain_loss(CONFIG, weights, mu, len(weights))
        assert value == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


class TestSecondOrderCoefficients:
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        mu=st.floats(-0.9, 0.9),
        alpha=st.floats(0.0, 1.0),
        rf=st.floats(0.0, 0.1),
    )
    @settings(max_examples=200, deadline=None)
    def test_fused_mean_is_the_expected_gain(self, weights, mu, alpha, rf):
        # For a deterministic schedule each leg's mean multiplies out stage by
        # stage, E[V_L(j)] = E[V_L(j-1)]*(1 + w_j*mu + r_j) and E[V_S(j)] =
        # E[V_S(j-1)]*(1 - w_j*mu), and the engine's coefficients weight
        # those means into the expected gain, exactly.
        m = Fraction(mu)
        config = PolicyConfig(Fraction(alpha), BOUNDS, v0=Fraction(1), rf=Fraction(rf))
        w = np.array([Fraction(v) for v in weights], dtype=object)
        c0, a_long, a_short = _compensator_coefficients(config, w, m)
        long, short = [config.alpha], [1 - config.alpha]
        for wk in w:
            long.append(long[-1] * (1 + wk * m + (1 - wk) * config.rf))
            short.append(short[-1] * (1 - wk * m))
        mean = c0 + sum(a_long * long[:-1]) + sum(a_short * short[:-1])
        assert mean == long[-1] + short[-1] - 1


def test_gbm_mu_is_the_exact_per_period_mean():
    # The oracle forms E[G] - 1 by subtraction and so carries an absolute
    # error of a few ulp of 1: compare the gross returns 1 + mu.
    for mu_star in np.linspace(-0.95, 0.95, 41).tolist():
        for dt, lam in [(1.0 / 252.0, 0.2), (1.0 / 12.0, 3.0), (1.0, 0.0)]:
            params = GbmJumpParams(mu_star=mu_star, dt=dt, lam=lam)
            oracle = _per_period_moments(params).mu
            assert 1.0 + params.mu == pytest.approx(1.0 + oracle, rel=1e-14)


@given(
    mu_star=st.floats(allow_nan=False, allow_infinity=False),
    lam=st.floats(0.0, 1e300),
    dt=st.floats(1e-300, 1e300),
)
@settings(max_examples=300, deadline=None)
def test_gbm_mu_is_finite_or_rejected(mu_star, lam, dt):
    try:
        params = GbmJumpParams(mu_star=mu_star, lam=lam, dt=dt, n_periods=1)
    except ValueError:
        return
    assert math.isfinite(params.mu) and params.mu >= -1.0


def test_gbm_with_an_overflowing_mean_return_rejected():
    # exp(1000) overflows although the drift of the log price, and so
    # every simulated price, stays small
    with pytest.raises(ValueError, match="mean return of a period overflows"):
        GbmJumpParams(mu_star=1000.0, sigma_star=math.sqrt(2000.0), dt=1.0, n_periods=1)


def second_order_term(config, w, x, mu, v_long, v_short):
    """sum_j w_j*(x_j - mu)*(mu*S_j*V(j-1) + R_j*V_L(j-1)) over a path's legs,
    S_j and R_j the weights and riskless rates r_k = rf*(1 - w_k) of the stages
    after j."""
    total = 0.0
    for j in range(len(w)):
        ahead = sum(w[j + 1 :])
        r_ahead = sum(config.rf * (1.0 - wk) for wk in w[j + 1 :])
        v = v_long[j] + v_short[j]
        total += w[j] * (x[j] - mu) * (mu * ahead * v + r_ahead * v_long[j])
    return total


def loop_compensators(config, spec_text, params, n_paths, seed):
    """Per path, A = sum_k mu*w_k*D(k-1) + rf*(1 - w_k)*V_L(k-1) over evolve's
    legs, less second_order_term for a static schedule."""
    spec = parse_weight_spec(spec_text)
    out = []
    for i in range(n_paths):
        prices = simulate_path(params, seed, i)
        x = simulate_returns(params, seed, i)
        w = (
            ma_indicator_weights(prices[None, :], params.n_periods, spec.d, spec.w)[0]
            if spec.price_driven
            else eval_schedule(spec, params.n_periods)
        )
        traj = evolve(config, w, x)
        total = 0.0
        for k in range(params.n_periods):
            d = traj.v_long[k] - traj.v_short[k]
            total += params.mu * w[k] * d + config.rf * (1.0 - w[k]) * traj.v_long[k]
        if not spec.price_driven:
            total -= second_order_term(
                config, w.tolist(), x.tolist(), params.mu, traj.v_long, traj.v_short
            )
        out.append(total)
    return np.array(out)


class TestEngineCompensator:
    @pytest.mark.parametrize("spec_text", SPECS)
    @pytest.mark.parametrize("rf", [0.0, 2e-4])
    def test_matches_a_loop_over_evolve(self, spec_text, rf, monkeypatch):
        config = PolicyConfig(alpha=0.4, bounds=MarketBounds(-0.9, 1.0), rf=rf)
        params = gbm(n_periods=40)
        # on one CPU: a group of two blocks, the second partial; a full group of 4 blocks,
        # then a group of one partial block
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        for n_paths in (70, 300):
            reference = loop_compensators(config, spec_text, params, n_paths, seed=3)
            res = monte_carlo_gain_loss(config, parse_weight_spec(spec_text), params, n_paths, 3)
            assert res.cv_mean_gain == pytest.approx(float(np.mean(reference)), rel=1e-12)
            se = math.sqrt(float(np.var(reference, ddof=1)) / n_paths)
            assert res.cv_std_error == pytest.approx(se, rel=1e-9)

    def test_two_point_uses_the_model_mean(self):
        model = TwoPointModel(0.1, -0.05, 0.6)
        w = [0.5, 0.8, 0.3, 1.0]
        res = monte_carlo_gain_loss(
            CONFIG, WeightSpec("table", values=tuple(w)), model, 5, 2, n_periods=4
        )
        reference = []
        for i in range(5):
            x = simulate_two_point(model, 4, 2, i)
            traj = evolve(CONFIG, w, x)
            d = traj.v_long[:-1] - traj.v_short[:-1]
            first_order = sum(model.mu * wk * dk for wk, dk in zip(w, d.tolist()))
            reference.append(
                first_order
                - second_order_term(CONFIG, w, x.tolist(), model.mu, traj.v_long, traj.v_short)
            )
        assert res.cv_mean_gain == pytest.approx(float(np.mean(reference)), rel=1e-12)


class TestEstimate:
    @pytest.mark.parametrize("spec_text", SPECS)
    @pytest.mark.parametrize("rf", [0.0, 2e-4])
    def test_agrees_with_the_plain_mean_over_seeds(self, spec_text, rf):
        config = PolicyConfig(alpha=0.5, bounds=BOUNDS, rf=rf)
        spec = parse_weight_spec(spec_text)
        for seed in range(20):
            res = monte_carlo_gain_loss(config, spec, gbm(), 1000, seed)
            combined = math.hypot(res.std_error, res.cv_std_error)
            assert abs(res.cv_mean_gain - res.mean_gain) <= 5.0 * combined

    @pytest.mark.parametrize("spec_text", ["constant:0.8", "log_ramp"])
    def test_is_unbiased_for_the_closed_form(self, spec_text):
        spec = parse_weight_spec(spec_text)
        params = gbm()
        exact = expected_gain_loss(
            CONFIG, eval_schedule(spec, params.n_periods), params.mu, params.n_periods
        )
        for seed in range(20):
            res = monte_carlo_gain_loss(CONFIG, spec, params, 1000, seed)
            assert abs(res.cv_mean_gain - exact) <= 5.0 * res.cv_std_error

    def test_has_a_smaller_standard_error(self):
        res = monte_carlo_gain_loss(
            CONFIG, WeightSpec("constant", w=0.8), GbmJumpParams(mu_star=0.3), 2000, 1
        )
        assert res.cv_std_error < 0.5 * res.std_error

    @pytest.mark.parametrize("spec_text", ["constant:0.8", "log_ramp"])
    def test_second_order_standard_error_is_small_and_honest(self, spec_text):
        # the benchmark's mc-static model: a trading year of daily periods
        spec, params = parse_weight_spec(spec_text), GbmJumpParams(mu_star=0.3)
        res = monte_carlo_gain_loss(CONFIG, spec, params, 2000, 1)
        assert res.cv_std_error < res.std_error / 50
        runs = [monte_carlo_gain_loss(CONFIG, spec, params, 500, seed) for seed in range(30)]
        spread = float(np.std([r.cv_mean_gain for r in runs], ddof=1))
        reported = float(np.mean([r.cv_std_error for r in runs]))
        assert reported / 2 <= spread <= 2 * reported


class TestEdgeCases:
    def test_zero_drift_compensator_is_exactly_zero(self):
        model = TwoPointModel(0.1, -0.1, 0.5)
        assert model.mu == 0.0
        res = monte_carlo_gain_loss(
            CONFIG, WeightSpec("log_ramp"), model, 200, 4, n_periods=30
        )
        assert res.cv_mean_gain == 0.0 and res.cv_std_error == 0.0
        assert res.std_error > 0.0

    def test_one_path_has_no_standard_error(self):
        res = monte_carlo_gain_loss(CONFIG, WeightSpec("log_ramp"), gbm(), 1, 9)
        assert res.cv_std_error == 0.0 and res.std_error == 0.0
        assert math.isfinite(res.cv_mean_gain)

    @pytest.mark.parametrize("spec_text", SPECS)
    def test_clipped_returns_fall_back_to_the_plain_estimate(self, spec_text):
        config = PolicyConfig(alpha=0.5, bounds=MarketBounds(-0.01, 0.01))
        res = monte_carlo_gain_loss(
            config, parse_weight_spec(spec_text), gbm(), 150, 6, clip_returns=True
        )
        assert (res.cv_mean_gain, res.cv_std_error) == (res.mean_gain, res.std_error)


class TestCli:
    def run(self, capsys, outdir, *argv):
        code = main(["simulate", *argv, "--n", "30", "--outdir", str(outdir)])
        return code, capsys.readouterr()

    def test_reports_the_control_variate_with_the_sample_statistics(self, tmp_path, capsys):
        code, captured = self.run(
            capsys, tmp_path, "--grid", "-0.3,0.3", "--paths", "500", "--seed", "4"
        )
        assert code == 0
        rows = json.loads(captured.out)["results"]
        assert sorted(rows[0]) == [
            "mean_gain", "mu_star", "n_paths", "sample_mean_gain", "sample_std_error",
            "sample_variance", "seed", "std_error",
        ]
        for row in rows:
            assert row["std_error"] < row["sample_std_error"]
            assert row["sample_std_error"] == math.sqrt(row["sample_variance"] / 500)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
        assert lines == [f"{r['mu_star']},{r['mean_gain']},{r['std_error']}" for r in rows]

    def test_clip_reports_the_plain_estimate(self, tmp_path, capsys):
        code, captured = self.run(
            capsys, tmp_path, "--mu-star", "0.3", "--paths", "100", "--clip",
            "--x-min", "-0.01", "--x-max", "0.01",
        )
        assert code == 0
        (row,) = json.loads(captured.out)["results"]
        assert row["mean_gain"] == row["sample_mean_gain"]
        assert row["std_error"] == row["sample_std_error"]

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_worker_cap_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        outdir = tmp_path / "out"
        code, captured = self.run(capsys, outdir, "--mu-star", "0.1", "--threads", threads)
        assert code == 1
        assert captured.err.startswith("error:") and "--threads" in captured.err
        assert captured.out == ""
        assert not outdir.exists()
