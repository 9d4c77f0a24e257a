"""Account recursion, admissibility checks, survivability bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelinear import (
    AdmissibilityError,
    MarketBounds,
    PolicyConfig,
    derive_w_max,
    evolve,
    survivability_bound,
)

BOUNDS = MarketBounds(-0.5, 1.0)


def make_config(alpha=0.5, v0=1.0, rf=0.0, bounds=BOUNDS):
    return PolicyConfig(alpha=alpha, bounds=bounds, v0=v0, rf=rf)


class TestMarketBounds:
    def test_valid(self):
        b = MarketBounds(-0.2, 0.5)
        assert b.x_min == -0.2 and b.x_max == 0.5

    @pytest.mark.parametrize("x_min", [0.0, -1.0, -1.5, 0.3])
    def test_bad_x_min(self, x_min):
        with pytest.raises(ValueError):
            MarketBounds(x_min, 0.5)

    @pytest.mark.parametrize("x_max", [0.0, -0.5])
    def test_bad_x_max(self, x_max):
        with pytest.raises(ValueError):
            MarketBounds(-0.2, x_max)

    def test_w_max_is_min_of_one_and_inverse_x_max(self):
        assert derive_w_max(MarketBounds(-0.2, 0.5)) == 1.0
        assert derive_w_max(MarketBounds(-0.2, 2.0)) == 0.5
        assert derive_w_max(MarketBounds(-0.2, 1.0)) == 1.0


class TestPolicyConfig:
    def test_w_max_property(self):
        assert make_config(bounds=MarketBounds(-0.3, 4.0)).w_max == 0.25

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            make_config(alpha=alpha)

    def test_alpha_endpoints_allowed(self):
        assert make_config(alpha=0.0).alpha == 0.0
        assert make_config(alpha=1.0).alpha == 1.0

    def test_bad_v0_and_rf(self):
        with pytest.raises(ValueError, match="v0"):
            make_config(v0=0.0)
        with pytest.raises(ValueError, match="rf"):
            make_config(rf=-0.01)


class TestStepAccount:
    """One stage of the account from the stage-0 split: a one-stage evolve."""

    def test_symmetric_split_step(self):
        # long leg gains w*x, short leg loses it
        traj = evolve(make_config(), [0.5], [0.1])
        assert traj.v_long[-1] == pytest.approx(0.525, abs=1e-15)
        assert traj.v_short[-1] == pytest.approx(0.475, abs=1e-15)
        assert traj.horizon == 1

    def test_riskless_rate_accrues_on_unallocated_long_capital(self):
        traj = evolve(make_config(alpha=1.0, rf=0.01), [0.5], [0.0])
        assert traj.v_long[-1] == pytest.approx(1.005, abs=1e-15)
        assert traj.v_short[-1] == 0.0

    def test_rejects_inadmissible_weight(self):
        with pytest.raises(AdmissibilityError, match="weight"):
            evolve(make_config(bounds=MarketBounds(-0.2, 2.0)), [0.6], [0.1])
        with pytest.raises(AdmissibilityError, match="weight"):
            evolve(make_config(), [-0.1], [0.1])

    def test_rejects_out_of_bounds_return(self):
        with pytest.raises(AdmissibilityError, match="return"):
            evolve(make_config(), [0.5], [1.5])
        with pytest.raises(AdmissibilityError, match="return"):
            evolve(make_config(), [0.5], [-0.7])


class TestEvolve:
    def test_two_stage_hand_example(self):
        traj = evolve(make_config(), [0.5, 0.5], [0.1, 0.1])
        assert traj.values[-1] == pytest.approx(1.0025, abs=1e-15)
        assert traj.final_gain == pytest.approx(0.0025, abs=1e-15)
        assert traj.horizon == 2
        assert traj.values[0] == 1.0

    def test_gain_series_matches_totals(self):
        cfg = make_config(alpha=0.3, v0=2.0)
        traj = evolve(cfg, [0.2, 0.8, 0.5], [0.05, -0.1, 0.3])
        totals = traj.v_long + traj.v_short
        np.testing.assert_allclose(traj.gains, totals - cfg.v0, atol=1e-15)
        assert len(totals) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            evolve(make_config(), [0.5, 0.5], [0.1])

    def test_bad_element_cites_first_offending_stage(self):
        with pytest.raises(AdmissibilityError, match="stage 1"):
            evolve(make_config(), [0.5, 2.0, 3.0], [0.1, 0.1, 0.1])

    def test_stage_one_cancellation_at_half(self):
        # with alpha = 1/2 the two legs offset exactly after one step
        traj = evolve(make_config(), [0.73], [0.31])
        assert traj.final_gain == 0.0

    @given(
        alpha=st.floats(0.0, 1.0),
        w=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_account_stays_positive_under_admissible_play(self, alpha, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(BOUNDS.x_min, BOUNDS.x_max, size=len(w))
        cfg = make_config(alpha=alpha)
        traj = evolve(cfg, w, x)
        assert (traj.v_long + traj.v_short > 0.0).all()
        assert (traj.v_long >= 0.0).all() and (traj.v_short >= 0.0).all()


class TestSurvivabilityBound:
    def test_hand_example(self):
        cfg = make_config(bounds=MarketBounds(-0.2, 0.5))
        lo_long, lo_short = survivability_bound(cfg, 2)
        assert lo_long == pytest.approx(0.32, abs=1e-15)
        assert lo_short == pytest.approx(0.125, abs=1e-15)

    def test_k_zero_returns_the_split(self):
        cfg = make_config(alpha=0.7, v0=2.0)
        assert survivability_bound(cfg, 0) == (pytest.approx(1.4), pytest.approx(0.6))

    def test_short_floor_hits_zero_when_w_max_times_x_max_is_one(self):
        cfg = make_config(bounds=MarketBounds(-0.2, 2.0))
        _, lo_short = survivability_bound(cfg, 1)
        assert lo_short == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            survivability_bound(make_config(), -1)

    @given(
        alpha=st.floats(0.05, 0.95),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_is_respected_by_adversarial_paths(self, alpha, k, seed):
        rng = np.random.default_rng(seed)
        cfg = make_config(alpha=alpha, bounds=MarketBounds(-0.3, 1.5))
        w_max = cfg.w_max
        w = rng.uniform(0.0, w_max, size=k)
        # worst-case returns sit at the support endpoints
        x = rng.choice([cfg.bounds.x_min, cfg.bounds.x_max], size=k)
        traj = evolve(cfg, w, x)
        lo_long, lo_short = survivability_bound(cfg, k)
        assert traj.v_long[-1] >= lo_long - 1e-12
        assert traj.v_short[-1] >= lo_short - 1e-12
