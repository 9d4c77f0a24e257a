"""Account dynamics of the double linear long-short policy.

An account of initial value v0 is split once, at stage 0, into a long
sub-account alpha*v0 and a short sub-account (1-alpha)*v0.  At every
stage both sub-accounts scale linearly in the realized per-period
return x: the long leg by (1 + w*x), plus riskless accrual on its
uninvested fraction, and the short leg by (1 - w*x).  As long as the
weight w stays inside [0, w_max] with w_max = min(1, 1/x_max) and the
return stays inside the market bounds, the long leg remains strictly
positive and the short leg nonnegative, so the total account value
never reaches zero (survivability).

Inadmissible inputs are rejected, never clamped; an explicit clamp
utility lives in the weights module.  This keeps the hypotheses of the
positive-expectation results auditable: a run that completed was a run
whose inputs satisfied them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AdmissibilityError",
    "MarketBounds",
    "PolicyConfig",
    "AccountState",
    "Trajectory",
    "derive_w_max",
    "initial_state",
    "step_account",
    "account_legs",
    "evolve",
    "survivability_bound",
    "validate_weights",
    "validate_returns",
    "validate_prices",
    "check_mu",
    "leg_factors",
]


class AdmissibilityError(ValueError):
    """A weight or return fell outside the admissible set."""


@dataclass(frozen=True)
class MarketBounds:
    """Per-period return bounds, -1 < x_min < 0 < x_max < inf."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if not -1.0 < self.x_min < 0.0:
            raise ValueError(f"x_min must lie in (-1, 0), got {self.x_min}")
        if not 0.0 < self.x_max < np.inf:
            raise ValueError(f"x_max must lie in (0, inf), got {self.x_max}")


def derive_w_max(bounds: MarketBounds) -> float:
    """Largest admissible weight, min(1, 1/x_max)."""
    return min(1.0, 1.0 / bounds.x_max)


@dataclass(frozen=True)
class PolicyConfig:
    """Split fraction, market bounds, initial capital and riskless rate.

    alpha = 1 is a pure long position, alpha = 0 pure short; both are
    allowed here, although the positive-expectation guarantees in the
    analytics module only concern alpha strictly inside (0, 1).
    """

    alpha: float
    bounds: MarketBounds
    v0: float = 1.0
    rf: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.v0 < np.inf:
            raise ValueError(f"v0 must be positive and finite, got {self.v0}")
        if not 0.0 <= self.rf < np.inf:
            raise ValueError(f"rf must be nonnegative and finite, got {self.rf}")

    @property
    def w_max(self) -> float:
        return derive_w_max(self.bounds)


@dataclass(frozen=True)
class AccountState:
    """Long and short sub-account values after `stage` completed periods."""

    v_long: float
    v_short: float
    stage: int = 0

    @property
    def total(self) -> float:
        return self.v_long + self.v_short


@dataclass(frozen=True)
class Trajectory:
    """Per-leg account values for stages 0..k; totals, gains and states derive from them."""

    v_long: np.ndarray
    v_short: np.ndarray
    v0: float

    @property
    def values(self) -> np.ndarray:
        """Total account value per stage."""
        return self.v_long + self.v_short

    @property
    def gains(self) -> np.ndarray:
        """gains[j] = V(j) - v0."""
        return self.values - self.v0

    @property
    def states(self) -> tuple[AccountState, ...]:
        return tuple(
            AccountState(lo, sh, j)
            for j, (lo, sh) in enumerate(zip(self.v_long.tolist(), self.v_short.tolist()))
        )

    @property
    def horizon(self) -> int:
        return len(self.v_long) - 1

    @property
    def final_gain(self) -> float:
        return float(self.v_long[-1] + self.v_short[-1] - self.v0)


def initial_state(config: PolicyConfig) -> AccountState:
    """The stage-0 split: alpha*v0 long, (1-alpha)*v0 short."""
    return AccountState(config.alpha * config.v0, (1.0 - config.alpha) * config.v0, 0)


def _reject_outside(values, lo: float, hi: float, what: str) -> np.ndarray:
    # ~(inside) rather than (outside): NaN fails every comparison.
    v = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~((v >= lo) & (v <= hi)))
    if bad.size:
        where = f" at stage {int(bad[0])}" if v.ndim else ""
        raise AdmissibilityError(f"{what} {float(v.flat[bad[0]])} outside [{lo}, {hi}]{where}")
    return v


def validate_weights(weights, w_max: float) -> np.ndarray:
    """Weights (scalar or 1-d) as floats; AdmissibilityError, citing the
    first offending stage, unless all lie in [0, w_max] (so never NaN or inf)."""
    return _reject_outside(weights, 0, w_max, "weight")


def validate_returns(returns, bounds: MarketBounds) -> np.ndarray:
    """Returns as a float array; AdmissibilityError unless every one lies in the bounds."""
    return _reject_outside(returns, bounds.x_min, bounds.x_max, "return")


def validate_prices(prices) -> np.ndarray:
    """Prices as a float array; ValueError unless every one is positive and finite."""
    p = np.asarray(prices, dtype=float)
    if p.size and not 0.0 < p.min() <= p.max() < np.inf:  # NaN fails too
        raise ValueError("nonpositive or non-finite price")
    return p


def check_mu(mu: float) -> None:
    """ValueError unless |mu| < 1 (NaN included)."""
    if not abs(mu) < 1.0:
        raise ValueError(f"|mu| must be < 1, got {mu}")


def leg_factors(w, x, rf: float, out=None):
    """Per-stage growth factors (long, short): 1 + w*x + (1 - w)*rf and 1 - w*x.

    The long leg earns rf on its uninvested fraction; short proceeds earn
    nothing.  step_account and account_legs both use this one form, so
    they agree bit for bit.  out = (long, short), two arrays of the shape
    of w*x, receives the same factors in place.
    """
    if out is None:
        return 1.0 + w * x + (1.0 - w) * rf, 1.0 - w * x
    f_long, f_short = out
    np.multiply(w, x, out=f_short)
    np.add(f_short, 1.0, out=f_long)
    if rf:  # adding the zero (1 - w)*0 would change no factor
        f_long += (1.0 - w) * rf
    np.subtract(1.0, f_short, out=f_short)
    return f_long, f_short


def step_account(
    state: AccountState, w: float, x: float, config: PolicyConfig
) -> AccountState:
    """Advance one stage: each leg scales by its factor from leg_factors.

    Raises AdmissibilityError when w falls outside [0, w_max] or x
    outside the market bounds.
    """
    validate_weights(w, config.w_max)
    validate_returns(x, config.bounds)
    f_long, f_short = leg_factors(w, x, config.rf)
    return AccountState(state.v_long * f_long, state.v_short * f_short, state.stage + 1)


def account_legs(config: PolicyConfig, w, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-leg account values (long, short) at stages 0..n, validating nothing.

    w and x broadcast to (..., n), one path per row.  Each leg, (..., n+1), is
    the stage-0 split, then its leg_factors multiplied out in stage order."""
    shape = np.broadcast_shapes(np.shape(w), np.shape(x))
    v_long = np.empty(shape[:-1] + (shape[-1] + 1,))
    v_short = np.empty_like(v_long)
    start = initial_state(config)
    v_long[..., 0], v_short[..., 0] = start.v_long, start.v_short
    leg_factors(w, x, config.rf, out=(v_long[..., 1:], v_short[..., 1:]))
    np.multiply.accumulate(v_long, axis=-1, out=v_long)
    np.multiply.accumulate(v_short, axis=-1, out=v_short)
    return v_long, v_short


def evolve(
    config: PolicyConfig,
    weights: Sequence[float],
    returns: Sequence[float],
) -> Trajectory:
    """Run the policy over a full return path.

    weights[k] is applied to returns[k]; both sequences must have equal
    length.  Every element is validated up front so rejection errors
    cite the offending stage.  The legs come from account_legs, so with
    rf = 0 the terminal value is v0*(alpha*prod(1 + w*x) +
    (1-alpha)*prod(1 - w*x)) up to floating-point accumulation.
    """
    w = np.asarray(weights, dtype=float)
    x = np.asarray(returns, dtype=float)
    if w.ndim != 1 or x.ndim != 1 or w.size != x.size:
        raise ValueError(
            f"weights and returns must be equally long 1-d sequences, "
            f"got lengths {w.size} and {x.size}"
        )
    validate_weights(w, config.w_max)
    validate_returns(x, config.bounds)
    return Trajectory(*account_legs(config, w, x), v0=config.v0)


def survivability_bound(config: PolicyConfig, k: int) -> tuple[float, float]:
    """Worst-case lower bounds (long leg, short leg) after k stages.

    Long: v0*alpha*(1 + w_max*x_min)^k, strictly positive because
    w_max <= 1 and x_min > -1.  Short: v0*(1-alpha)*(1 - w_max*x_max)^k,
    which is >= 0 and touches 0 exactly when w_max = 1/x_max.
    """
    if not 0 <= k < np.inf:  # NaN fails too
        raise ValueError(f"k must be nonnegative and finite, got {k}")
    w_max = config.w_max
    lo_long = config.v0 * config.alpha * (1.0 + w_max * config.bounds.x_min) ** k
    lo_short = config.v0 * (1.0 - config.alpha) * (1.0 - w_max * config.bounds.x_max) ** k
    return lo_long, lo_short
