"""Closed-form gain-loss moments against hand values, the enumeration
oracle and exact rational arithmetic."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublelinear import (
    AdmissibilityError,
    MarketBounds,
    PolicyConfig,
    ReturnMoments,
    TwoPointModel,
    WeightSpec,
    brute_force_moments,
    eval_schedule,
    expected_gain_loss,
    expected_gain_loss_constant,
    rpe_scan,
    second_moment_gain_loss,
    sign_condition_gain,
    variance_gain_loss,
)

BOUNDS = MarketBounds(-0.5, 1.0)


def make_config(alpha=0.5, v0=1.0, rf=0.0, bounds=BOUNDS):
    return PolicyConfig(alpha=alpha, bounds=bounds, v0=v0, rf=rf)


def random_model(rng):
    return TwoPointModel(
        x_up=rng.uniform(0.05, 0.9),
        x_down=rng.uniform(-0.45, -0.05),
        p_up=rng.uniform(0.1, 0.9),
    )


class TestExpectedGainLoss:
    def test_two_stage_hand_value(self):
        cfg = make_config()
        assert expected_gain_loss(cfg, [0.5, 0.5], 0.1, 2) == pytest.approx(
            0.0025, abs=1e-15
        )

    def test_constant_reduction_hand_value(self):
        cfg = make_config()
        # 0.5*(0.76^3 + 1.24^3) - 1 is exactly 0.1728
        assert expected_gain_loss_constant(cfg, 0.8, -0.3, 3) == pytest.approx(
            0.1728, abs=1e-15
        )

    def test_scales_with_v0(self):
        lo = expected_gain_loss(make_config(), [0.4, 0.6], 0.2, 2)
        hi = expected_gain_loss(make_config(v0=5.0), [0.4, 0.6], 0.2, 2)
        assert hi == pytest.approx(5.0 * lo, rel=1e-14)

    def test_mu_sign_symmetry_at_half(self):
        cfg = make_config()
        w = [0.3, 0.7, 0.5, 0.2, 0.9]
        for k in (2, 3, 4, 5):
            plus = expected_gain_loss(cfg, w, 0.23, k)
            minus = expected_gain_loss(cfg, w, -0.23, k)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_horizon_beyond_schedule_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            expected_gain_loss(make_config(), [0.5], 0.1, 2)

    def test_two_dimensional_weights_rejected(self):
        with pytest.raises(ValueError, match="weights must be one-dimensional"):
            expected_gain_loss(make_config(), [[0.5]], 0.1, 1)

    def test_inadmissible_weight_rejected(self):
        cfg = make_config(bounds=MarketBounds(-0.2, 2.0))
        with pytest.raises(AdmissibilityError):
            expected_gain_loss(cfg, [0.6], 0.1, 1)

    def test_riskless_rate_rejected(self):
        with pytest.raises(ValueError, match="rf"):
            expected_gain_loss(make_config(rf=0.01), [0.5], 0.1, 1)

    def test_mu_domain(self):
        with pytest.raises(ValueError):
            expected_gain_loss(make_config(), [0.5], 1.0, 1)

    @given(
        k=st.integers(1, 30),
        w=st.floats(0.0, 1.0),
        mu=st.floats(-0.9, 0.9),
        alpha=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_constant_schedule_equals_power_formula(self, k, w, mu, alpha):
        cfg = make_config(alpha=alpha)
        spread = expected_gain_loss(cfg, [w] * k, mu, k)
        power = expected_gain_loss_constant(cfg, w, mu, k)
        assert spread == pytest.approx(power, rel=1e-12, abs=1e-15)


class TestVariance:
    def test_collapses_at_stage_one(self):
        cfg = make_config(alpha=0.7)
        value = variance_gain_loss(cfg, [0.5], ReturnMoments(0.1, 0.04), 1)
        # v0^2 * w^2 * sigma2 * (2 alpha - 1)^2
        assert value == pytest.approx(0.0016, rel=1e-12)

    def test_zero_at_stage_one_when_alpha_half(self):
        value = variance_gain_loss(make_config(), [0.5], ReturnMoments(0.1, 0.04), 1)
        assert abs(value) <= 1e-12

    def test_zero_weights_give_zero_variance(self):
        value = variance_gain_loss(
            make_config(alpha=0.3), [0.0, 0.0, 0.0], ReturnMoments(0.1, 0.04), 3
        )
        assert abs(value) <= 1e-12

    def test_identity_with_second_moment(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 13))
            cfg = make_config(alpha=float(rng.choice([0.3, 0.5, 0.7])))
            w = rng.uniform(0.0, 1.0, size=k)
            moments = ReturnMoments(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(0.001, 0.09)))
            mean = expected_gain_loss(cfg, w, moments.mu, k)
            var = variance_gain_loss(cfg, w, moments, k)
            second = second_moment_gain_loss(cfg, w, moments, k)
            assert var == pytest.approx(second - mean * mean, rel=1e-10, abs=1e-13)
            assert var >= -1e-12

    def test_sigma2_must_be_positive(self):
        with pytest.raises(ValueError):
            ReturnMoments(0.1, 0.0)


@pytest.mark.parametrize(
    "moment, buffers",
    [(expected_gain_loss, 2.5), (variance_gain_loss, 3.5), (second_moment_gain_loss, 3.5)],
)
def test_closed_forms_hold_few_drift_by_stage_buffers(moment, buffers):
    # each series is summed in a buffer of its own, one at a time, and read only at the
    # horizons; stacking the five variance series peaked at about 15 buffers
    mu, k_max = np.linspace(-0.05, 0.05, 80), 5000
    w = np.log1p(np.arange(1, k_max + 1) / k_max * (np.e - 1.0))
    drifts = mu if moment is expected_gain_loss else ReturnMoments(mu, 0.0004)
    tracemalloc.start()
    try:
        moment(make_config(), w, drifts, np.arange(50, k_max + 1, 50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers * mu.size * k_max * 8


class TestBruteForce:
    def test_symmetric_model_mean_zero(self):
        cfg = make_config()
        model = TwoPointModel(x_up=0.1, x_down=-0.1, p_up=0.5)
        mean, var = brute_force_moments(cfg, [0.5, 0.5], model, 2)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var > 0.0

    def test_tilted_model_hand_value(self):
        cfg = make_config()
        model = TwoPointModel(x_up=0.1, x_down=-0.1, p_up=0.75)
        mean, _ = brute_force_moments(cfg, [0.5, 0.5], model, 2)
        assert mean == pytest.approx(0.000625, abs=1e-15)

    def test_stage_one_at_half_degenerate(self):
        cfg = make_config()
        model = TwoPointModel(x_up=0.2, x_down=-0.15, p_up=0.4)
        mean, var = brute_force_moments(cfg, [0.8], model, 1)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_enumeration_cap(self):
        cfg = make_config()
        model = TwoPointModel(x_up=0.1, x_down=-0.1, p_up=0.5)
        with pytest.raises(ValueError, match="cap"):
            brute_force_moments(cfg, [0.5] * 26, model, 26)

    @given(
        k=st.integers(1, 12),
        alpha=st.sampled_from([0.3, 0.5, 0.7]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_forms_match_enumeration(self, k, alpha, seed):
        rng = np.random.default_rng(seed)
        cfg = make_config(alpha=alpha)
        model = random_model(rng)
        w = rng.uniform(0.0, 1.0, size=k)
        mean_bf, var_bf = brute_force_moments(cfg, w, model, k)
        mean_cf = expected_gain_loss(cfg, w, model.mu, k)
        var_cf = variance_gain_loss(cfg, w, model.moments(), k)
        assert mean_cf == pytest.approx(mean_bf, rel=1e-10, abs=1e-14)
        assert var_cf == pytest.approx(var_bf, rel=1e-10, abs=1e-14)


class TestTwoPointModel:
    def test_moment_formulas(self):
        model = TwoPointModel(x_up=0.1, x_down=-0.1, p_up=0.75)
        assert model.mu == pytest.approx(0.05, abs=1e-15)
        assert model.sigma2 == pytest.approx(0.75 * 0.25 * 0.04, abs=1e-15)

    def test_degenerate_endpoints_allowed(self):
        assert TwoPointModel(0.1, -0.1, 1.0).sigma2 == 0.0
        assert TwoPointModel(0.1, -0.1, 0.0).mu == -0.1

    def test_support_ordering_enforced(self):
        with pytest.raises(ValueError):
            TwoPointModel(x_up=-0.1, x_down=0.1, p_up=0.5)
        with pytest.raises(ValueError):
            TwoPointModel(x_up=0.1, x_down=-1.2, p_up=0.5)


class TestRpeScan:
    GRID = [-0.5, -0.1, -0.01, 0.0, 0.01, 0.1, 0.5]

    def test_certifies_constant_half_schedule(self):
        report = rpe_scan(make_config(), [0.5] * 10, self.GRID, 10)
        assert report.certifiable and report.certified
        assert report.reason is None
        assert report.min_gain > 0.0
        # weakest point: smallest |mu|, shortest horizon
        assert report.argmin == (pytest.approx(0.01), 2) or report.argmin == (
            pytest.approx(-0.01),
            2,
        )
        assert report.entries.shape == (len(self.GRID), 9)

    def test_mu_zero_row_is_exactly_zero_and_excluded(self):
        report = rpe_scan(make_config(), [0.5] * 5, self.GRID, 5)
        zero_row = report.entries[self.GRID.index(0.0)]
        assert np.all(zero_row == 0.0)
        assert report.min_gain > 0.0

    def test_alpha_hypothesis_violation(self):
        report = rpe_scan(make_config(alpha=0.6), [0.5] * 5, self.GRID, 5)
        assert not report.certifiable and not report.certified
        assert "alpha" in report.reason
        assert report.entries.shape == (len(self.GRID), 4)

    def test_weight_count_hypothesis_violation(self):
        # only one strictly positive weight in the first three stages
        report = rpe_scan(make_config(), [0.5, 0.0, 0.0, 0.4], self.GRID, 4)
        assert not report.certifiable
        assert "strictly positive" in report.reason
        assert not report.certified

    def test_prefix_rule_counts_from_stage_two(self):
        # two positives by stage 2 certifies even with zeros afterwards
        report = rpe_scan(make_config(), [0.5, 0.4, 0.0, 0.0], self.GRID, 4)
        assert report.certifiable and report.certified

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            rpe_scan(make_config(), [0.5, 0.5], self.GRID, 1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rpe_scan(make_config(), [0.5, 0.5], [], 2)

    def test_entries_match_pointwise_evaluation(self):
        w = [0.3, 0.8, 0.1, 0.6]
        report = rpe_scan(make_config(), w, self.GRID, 4)
        for i, mu in enumerate(self.GRID):
            for j, k in enumerate(range(2, 5)):
                direct = expected_gain_loss(make_config(), w, mu, k)
                assert report.entries[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-15)


class TestSignCondition:
    def test_tilted_long_with_positive_drift(self):
        cfg = make_config(alpha=0.7)
        assert sign_condition_gain(cfg, [0.5], 0.1, 1)
        assert expected_gain_loss(cfg, [0.5], 0.1, 1) == pytest.approx(0.02, abs=1e-15)

    def test_half_alpha_never_satisfies(self):
        assert not sign_condition_gain(make_config(), [0.5], 0.3, 1)
        assert not sign_condition_gain(make_config(), [0.5], -0.3, 1)

    def test_short_tilt_with_negative_drift(self):
        assert sign_condition_gain(make_config(alpha=0.3), [0.5], -0.2, 1)

    def test_one_drift_only(self):
        with pytest.raises(ValueError, match="drift mu must be a float, got a 1-d grid"):
            sign_condition_gain(make_config(alpha=0.7), [0.5], np.array([0.1, 0.2]), 1)

    @given(
        alpha=st.floats(0.0, 1.0),
        mu=st.floats(-0.9, 0.9),
        k=st.integers(1, 30),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_condition_implies_positive_gain_at_every_horizon(self, alpha, mu, k, seed):
        # strict positivity is exact arithmetic; keep both tilt factors
        # above the f64 ulp horizon so 1 + w*mu does not round to 1
        assume(abs(mu) >= 1e-4)
        assume(abs(2.0 * alpha - 1.0) >= 1e-4)
        rng = np.random.default_rng(seed)
        cfg = make_config(alpha=alpha)
        w = rng.uniform(0.01, 1.0, size=k)  # all strictly positive
        if sign_condition_gain(cfg, w, mu, k):
            for kk in range(1, k + 1):
                assert expected_gain_loss(cfg, w, mu, kk) > 0.0


def exact_moments(alpha, weights, mu, sigma2):
    """Per horizon, from the float inputs in exact rationals (v0 = 1): the
    mean, the variance, the variance's three pairs' summed magnitude, and
    alpha*prod(1 + w mu) + (1-alpha)*prod(1 - w mu)."""
    a, m, s2 = Fraction(alpha), Fraction(mu), Fraction(sigma2)
    up = down = up2 = down2 = cross = even = Fraction(1)
    for w in map(Fraction, weights):
        x, q = w * m, w * w * s2
        up, down = up * (1 + x), down * (1 - x)
        up2, down2 = up2 * ((1 + x) ** 2 + q), down2 * ((1 - x) ** 2 + q)
        cross, even = cross * (1 - x * x - q), even * (1 - x * x)
        pairs = (a * a * (up2 - up * up), (1 - a) ** 2 * (down2 - down * down),
                 2 * a * (1 - a) * (cross - even))
        value = a * up + (1 - a) * down
        yield value - 1, sum(pairs), sum(map(abs, pairs)), value


TINY = Fraction(2.0**-1022)
unit_weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestExactOracle:
    @given(
        alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        weights=st.lists(unit_weights, min_size=1, max_size=40),
        mu=st.floats(1e-12, 0.99, exclude_max=True),
        negative=st.booleans(),
        sigma2=st.floats(1e-14, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_match_rational_arithmetic(self, alpha, weights, mu, negative, sigma2):
        """Mean: 1e-13 relative at alpha = 1/2, else 1e-13 of the legs' size.

        Variance: 1e-12 of its three pairs' summed magnitude, and 1e-9
        relative where mu^2 + sigma2 >= 1e-6 and the variance is at least
        1e-6 of that magnitude.  The pairs cancel to first order in
        w^2 (mu^2 + sigma2), so with weights of order one the first
        condition brings the second; tiny weights, or alpha = 1/2 at k = 1
        (exact variance 0), cancel further and only the first bound applies.
        Values below the normal float range get an absolute 2^-1022.
        """
        mu = -mu if negative else mu
        cfg = make_config(alpha=alpha)
        ks = np.arange(1, len(weights) + 1)
        means = expected_gain_loss(cfg, weights, mu, ks)
        variances = variance_gain_loss(cfg, weights, ReturnMoments(mu, sigma2), ks)
        exact = exact_moments(alpha, weights, mu, sigma2)
        for mean, variance, (mean_q, variance_q, pairs_q, value_q) in zip(means, variances, exact):
            mean_error = abs(Fraction(mean) - mean_q) - TINY
            if alpha == 0.5:
                assert mean_error <= Fraction(1e-13) * abs(mean_q)
            else:
                assert mean_error <= Fraction(1e-13) * (value_q + 1)
            variance_error = abs(Fraction(variance) - variance_q) - TINY
            assert variance_error <= Fraction(1e-12) * pairs_q
            if mu * mu + sigma2 >= 1e-6 and abs(variance_q) >= Fraction(1e-6) * pairs_q:
                assert variance_error <= Fraction(1e-9) * abs(variance_q)

    def test_variance_with_negative_cross_factors(self):
        # 1 - w^2 (sigma2 + mu^2) = -0.2251 at every stage
        moments = ReturnMoments(0.9, 0.5)
        *_, (_, exact, _, _) = exact_moments(0.5, [0.9] * 10, 0.9, 0.5)
        value = variance_gain_loss(make_config(), [0.9] * 10, moments, 10)
        assert abs(Fraction(value) - exact) <= Fraction(1e-13) * exact

    def test_benchmark_grid_argmin_cell(self):
        # closed-form benchmark workload at seed 1: log_ramp, k_max 5000
        mu = 0.0010007383509005557
        w = eval_schedule(WeightSpec("log_ramp"), 5000)
        report = rpe_scan(make_config(), w, [mu], 5000)
        exact = Fraction(w[0]) * Fraction(w[1]) * Fraction(mu) ** 2  # the k = 2 gain
        assert report.argmin == (mu, 2)
        assert abs(Fraction(report.min_gain) - exact) <= Fraction(1e-13) * exact
