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
    "Trajectory",
    "derive_w_max",
    "evolve",
    "survivability_bound",
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

    @property
    def split(self) -> tuple:
        """The stage-0 legs (long, short), alpha*v0 and (1 - alpha)*v0; Fractions stay exact."""
        return self.alpha * self.v0, (1 - self.alpha) * self.v0


@dataclass(frozen=True)
class Trajectory:
    """Per-leg account values for stages 0..k; totals and gains derive from them."""

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
    def horizon(self) -> int:
        return len(self.v_long) - 1

    @property
    def final_gain(self) -> float:
        return float(self.v_long[-1] + self.v_short[-1] - self.v0)


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


def check_mu(mu) -> None:
    """ValueError unless |mu| < 1 (NaN included) for a drift or every drift
    of a grid; the first offender is named."""
    inside = np.abs(mu) < 1.0
    if not np.all(inside):
        raise ValueError(f"|mu| must be < 1, got {np.ravel(mu)[np.argmin(inside)]}")


def check_count(name: str, value, minimum: int = 1) -> int:
    """value as an int; ValueError naming the parameter unless it is a Python
    or numpy integer (not a bool, float or None) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def leg_factors(w, x, rf: float, out):
    """Write the per-stage growth factors (long, short), 1 + w*x + (1 - w)*rf and
    1 - w*x, into out = (long, short), two arrays of the shape of w*x; return them.

    The long leg earns rf on its uninvested fraction; short proceeds earn
    nothing.  evolve and every Monte Carlo group write their factors here
    and fold_legs multiplies them out, so they agree bit for bit; a factor
    past the float range passes without a warning.
    """
    f_long, f_short = out
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(w, x, out=f_short)
        np.add(f_short, 1.0, out=f_long)
        if rf:  # adding the zero (1 - w)*0 would change no factor
            f_long += (1.0 - w) * rf
        np.subtract(1.0, f_short, out=f_short)
    return f_long, f_short


def fold_legs(legs: np.ndarray, config: PolicyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Write config.split into the stage-0 slot of each row of legs, (2, ..., n+1),
    long then short, each slot followed by its n leg_factors, and multiply the rows
    out in place in one accumulate.  Returns the two folded legs; a leg past the
    float range is inf or nan, without a warning, for the caller to name."""
    legs[0, ..., 0], legs[1, ..., 0] = config.split
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply.accumulate(legs, axis=-1, out=legs)
    return legs[0], legs[1]


def check_values(values: np.ndarray) -> None:
    """ValueError naming the first stage of the account-value curve V(0..n) whose
    value is past the float range (inf or nan)."""
    finite = np.isfinite(values)
    if not finite.all():
        stage = int(np.argmin(finite))
        raise ValueError(
            f"the account value leaves the float range at stage {stage}: {values[stage]}"
        )


def evolve(
    config: PolicyConfig,
    weights: Sequence[float],
    returns: Sequence[float],
) -> Trajectory:
    """Run the policy over a full return path.

    weights[k] is applied to returns[k]; both sequences must have equal
    length.  Every element is validated up front so rejection errors
    cite the offending stage, and so does the ValueError of a stage whose
    account value leaves the float range.  The legs are leg_factors folded
    by fold_legs, so with rf = 0 the terminal value is v0*(alpha*prod(1 +
    w*x) + (1-alpha)*prod(1 - w*x)) up to floating-point accumulation.
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
    legs = np.empty((2, w.size + 1))
    leg_factors(w, x, config.rf, out=legs[:, 1:])
    v_long, v_short = fold_legs(legs, config)
    with np.errstate(over="ignore"):  # a total out of range is named
        check_values(v_long + v_short)
    return Trajectory(v_long, v_short, v0=config.v0)


def survivability_bound(config: PolicyConfig, k: int) -> tuple[float, float]:
    """Worst-case lower bounds (long leg, short leg) after k stages.

    Long: v0*alpha*(1 + w_max*x_min)^k, strictly positive because
    w_max <= 1 and x_min > -1.  Short: v0*(1-alpha)*(1 - w_max*x_max)^k,
    which is >= 0 and touches 0 exactly when w_max = 1/x_max.
    """
    check_count("k", k, 0)
    w_max = config.w_max
    v_long, v_short = config.split
    lo_long = v_long * (1.0 + w_max * config.bounds.x_min) ** k
    lo_short = v_short * (1.0 - w_max * config.bounds.x_max) ** k
    return lo_long, lo_short
