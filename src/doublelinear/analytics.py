"""Closed-form moments of the cumulative gain-loss, plus verification tools.

Setting: per-period returns are independent with a common mean mu (and,
where variances appear, a common variance sigma2), the riskless rate is
zero, and the weight schedule is admissible.  Expectations then factor
across stages, so the mean and variance of the terminal gain-loss
reduce to products over the schedule.  Each is evaluated as exp or expm1
of cumulative sums of logs and overflows only past the float range; the
variance keeps an error of about 1e-16 of its terms' summed magnitude.

Every operation here rejects configs with rf != 0 rather than silently
ignoring the rate: the formulas are only valid in the frictionless
setting.

The module also carries its own independent oracle, brute_force_moments,
which enumerates every path of a two-point return distribution, folds each
path's legs with policy.leg_factors and touches none of the closed forms;
triangulating the formulas against it is the basis of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .policy import PolicyConfig, check_count, check_mu, leg_factors, validate_weights

__all__ = [
    "BRUTE_FORCE_MAX_K",
    "ReturnMoments",
    "TwoPointModel",
    "RpeScanReport",
    "expected_gain_loss",
    "expected_gain_loss_constant",
    "variance_gain_loss",
    "second_moment_gain_loss",
    "brute_force_moments",
    "rpe_scan",
    "sign_condition_gain",
]

BRUTE_FORCE_MAX_K = 25  # 2^k paths are enumerated; keep the tree sane
_LOG_MAX = math.log(np.finfo(float).max)  # exp and expm1 overflow past it


@dataclass(frozen=True)
class ReturnMoments:
    """Common per-period mean (a float or a 1-d drift grid) and variance of the returns."""

    mu: float | np.ndarray
    sigma2: float

    def __post_init__(self):
        finite = np.isfinite(self.mu)
        if not np.all(finite):
            raise ValueError(f"mu must be finite, got {np.ravel(self.mu)[np.argmin(finite)]}")
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")


@dataclass(frozen=True)
class TwoPointModel:
    """Two-point return distribution: x_up with probability p_up, else x_down.

    The minimal bounded-support model with freely matchable first and
    second moments:

        mu     = p_up*x_up + (1 - p_up)*x_down
        sigma2 = p_up*(1 - p_up)*(x_up - x_down)^2

    p_up may sit at 0 or 1 (degenerate, sigma2 = 0); the closed-form
    variance comparisons need an interior p_up, the generators do not.
    """

    x_up: float
    x_down: float
    p_up: float

    def __post_init__(self):
        if not -1.0 < self.x_down < 0.0 < self.x_up < np.inf:
            raise ValueError(
                f"need -1 < x_down < 0 < x_up < inf, got x_down={self.x_down}, x_up={self.x_up}"
            )
        if not 0.0 <= self.p_up <= 1.0:
            raise ValueError(f"p_up must lie in [0, 1], got {self.p_up}")
        if not math.isfinite(self.sigma2):
            raise ValueError(f"x_up - x_down is too wide: sigma2 overflows, x_up={self.x_up}")

    @property
    def mu(self) -> float:
        return self.p_up * self.x_up + (1.0 - self.p_up) * self.x_down

    @property
    def sigma2(self) -> float:
        spread = self.x_up - self.x_down
        return self.p_up * (1.0 - self.p_up) * (spread * spread)  # ** 2 raises on overflow

    def moments(self) -> ReturnMoments:
        return ReturnMoments(mu=self.mu, sigma2=self.sigma2)


def _require_frictionless(config: PolicyConfig) -> None:
    if config.rf != 0.0:
        raise ValueError(
            f"closed-form gain-loss analytics assume rf = 0, got rf={config.rf}"
        )


def _schedule_head(config: PolicyConfig, weights: Sequence[float], k):
    """Weights up to the longest horizon in k (an int or a 1-d sequence of
    ints), validated admissible under a frictionless config, and k - 1."""
    _require_frictionless(config)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    ks = np.asarray(k)
    # np.asarray reads the bool of [True, 2] as an int, so a sequence is looked through
    held = () if isinstance(k, np.ndarray) else np.ravel(np.array(k, dtype=object))
    if ks.ndim > 1 or ks.size == 0 or ks.dtype.kind not in "iu" or any(
        isinstance(v, (bool, np.bool_)) for v in held
    ):
        raise ValueError(f"horizon k must be an int or a 1-d sequence of ints, got {k!r}")
    check_count("horizon k", ks.min())
    k_max = int(ks.max())
    if w.size < k_max:
        raise ValueError(f"horizon k={k_max} exceeds schedule length {w.size}")
    return validate_weights(w[:k_max], config.w_max), ks - 1


def _exposures(config: PolicyConfig, weights: Sequence[float], mu, k):
    """x = w*mu over (drift, stage), then _schedule_head's weights and k - 1."""
    if np.ndim(mu) > 1:
        raise ValueError(f"drift mu must be a float or a 1-d grid, got {np.ndim(mu)}-d")
    check_mu(mu)
    w, idx = _schedule_head(config, weights, k)
    return np.multiply.outer(np.asarray(mu, dtype=float), w), w, idx


def _at_k(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _log_value(alpha: float, x: np.ndarray) -> np.ndarray:
    """log(alpha*prod(1 + x) + (1-alpha)*prod(1 - x)) after each stage (last axis).

    The legs are exp(s +/- h), with even part s = sum(log1p(-x^2))/2 and
    odd part h = sum(atanh(x)); their mix grows at stage j by 1 + x_j*tanh(h + c),
    h over the earlier stages and tanh(c) = 2*alpha - 1, so s drops out.
    At alpha = 1/2 no term is negative and the sum does not cancel."""
    h = np.zeros_like(x)  # every step below runs in h's buffer
    np.arctanh(x[..., :-1], out=h[..., 1:])
    np.cumsum(h[..., 1:], axis=-1, out=h[..., 1:])
    with np.errstate(divide="ignore"):  # alpha = 0 or 1 puts c at -inf or inf
        h += 0.5 * (np.log(alpha) - np.log1p(-alpha))
    np.tanh(h, out=h)
    h *= x
    return _log1p_cumsum(h)


def _log1p_cumsum(a: np.ndarray) -> np.ndarray:
    """cumsum(log1p(a)) along the last axis, in a's buffer."""
    np.log1p(a, out=a)
    return np.cumsum(a, axis=-1, out=a)


def _scaled_expm1(a, r, sign=1.0):
    """exp(a) * (sign*e^r - 1), finite whenever the value is: for sign = 1
    and r < 1 as exp(a/2) * (exp(a/2) * expm1(r)), else as the exp of
    a + log|sign*e^r - 1|; each form gets a = -inf in the other's lanes."""
    near = (r < 1.0) & (sign > 0.0)
    r_far = np.maximum(r, 1.0)  # log(e^r - 1) = r + log1p(-e^-r) for r >= 1
    log_far = np.where(sign > 0.0, r_far + np.log1p(-np.exp(-r_far)), np.logaddexp(r, 0.0))
    with np.errstate(over="ignore"):  # a value past the float range is inf
        half = np.exp(0.5 * np.where(near, a, -np.inf))
        far = sign * np.exp(np.where(near, -np.inf, a) + log_far)
        return half * (half * np.expm1(np.minimum(r, 1.0))) + far


def expected_gain_loss(
    config: PolicyConfig, weights: Sequence[float], mu: float | np.ndarray, k: int | Sequence[int]
) -> float | np.ndarray:
    """Expected terminal gain-loss at horizon k.

        v0 * (alpha*prod(1 + w_j*mu) + (1-alpha)*prod(1 - w_j*mu) - 1)

    over the first k schedule entries.  With alpha = 1/2, k > 1, mu != 0
    and at least two strictly positive weights among the first k, the
    value is strictly positive regardless of the sign of mu.  mu may be a
    1-d drift grid and k a 1-d sequence of horizons; the result's axes
    are then (drift, horizon), from one cumulative sum of logs per drift,
    and it is a float when both are scalars.
    """
    x, _, idx = _exposures(config, weights, mu, k)
    return _at_k(_scaled_expm1(math.log(config.v0), _log_value(config.alpha, x)[..., idx]))


def expected_gain_loss_constant(
    config: PolicyConfig, w: float, mu: float, k: int
) -> float:
    """Constant-weight reduction: v0*(alpha*(1+w*mu)^k + (1-alpha)*(1-w*mu)^k - 1),
    inf past the float range; a leg whose coefficient is 0 adds 0 however it grows."""
    _require_frictionless(config)
    check_mu(mu)
    check_count("horizon k", k)
    validate_weights(w, config.w_max)
    a, x = config.alpha, w * mu
    near = far = 0.0
    for coefficient, log_growth in ((a, k * math.log1p(x)), (1.0 - a, k * math.log1p(-x))):
        if log_growth <= _LOG_MAX:
            near += coefficient * math.expm1(log_growth)
        elif coefficient > 0.0:  # past expm1's range the leg's -1 is below its rounding
            log_leg = math.log(config.v0) + math.log(coefficient) + log_growth
            far += math.exp(log_leg) if log_leg <= _LOG_MAX else math.inf
    return config.v0 * near + far


def _pair_logs(config, weights, moments: ReturnMoments, k):
    """Per variance pair, at each horizon in k: the log of coefficient
    times leg product (alpha^2 v0^2 prod(1+x)^2, (1-alpha)^2 v0^2
    prod(1-x)^2, 2 alpha(1-alpha) v0^2 prod(1-x^2); x = w mu), the log-sum
    r of its factors 1 + q/(1+x)^2, 1 + q/(1-x)^2, |1 - q/(1-x^2)| (q =
    w^2 s2), and the sign of the last product, negative where an odd
    number of stages puts moment mass beyond 1/w.  A pair with coefficient
    0 (alpha = 0 or 1) gets r = 0: an infinite factor cannot make it nan."""
    x, w, idx = _exposures(config, weights, moments.mu, k)
    q = w * w * moments.sigma2
    # Each series is made, summed and read at the horizons in the one buffer t, in turn;
    # x's own buffer goes last.  log 0 = -inf: alpha = 0 or 1, a cross factor of 0; a
    # ratio past the float range is inf
    with np.errstate(divide="ignore", over="ignore"):
        t = 1.0 - x
        t *= 1.0 + x
        np.divide(-q, t, out=t)  # the cross ratio
        negative = t < -1.0
        np.subtract(-2.0, t, out=t, where=negative)  # log1p of it is log|1 + ratio|
        sign = np.where(np.logical_xor.accumulate(negative, axis=-1)[..., idx], -1.0, 1.0)
        r_cross = _log1p_cumsum(t)[..., idx]
        t = 1.0 + x
        r_up = _log1p_cumsum(np.divide(q, np.square(t, out=t), out=t))[..., idx]
        t = 1.0 - x
        r_down = _log1p_cumsum(np.divide(q, np.square(t, out=t), out=t))[..., idx]
        t = np.negative(x)
        down = _log1p_cumsum(t)[..., idx]
        up = _log1p_cumsum(x)[..., idx]
        up += np.log(config.split[0])
        down += np.log(config.split[1])
    logs = (2.0 * up, 2.0 * down, math.log(2.0) + up + down)
    r = [np.where(a == -np.inf, 0.0, s) for a, s in zip(logs, (r_up, r_down, r_cross))]
    return logs, r, sign


def variance_gain_loss(
    config: PolicyConfig, weights: Sequence[float], moments: ReturnMoments, k: int | Sequence[int]
) -> float | np.ndarray:
    """Variance of the terminal gain-loss as three pairs.

        v0^2 * [ alpha^2     * (prod(w^2 s2 + (1+w mu)^2) - prod(1+w mu)^2)
               + (1-alpha)^2 * (prod(w^2 s2 + (1-w mu)^2) - prod(1-w mu)^2)
               + 2 alpha(1-alpha) * (prod(1 - w^2 (s2 + mu^2)) - prod(1 - w^2 mu^2)) ]

    Each pair is exp(log coefficient + log leg product) times expm1 of a
    cumulative sum of log1p terms, so alpha = 0 or 1 gives an exact 0.
    The pairs cancel to first order in the exposure: the error is about
    1e-16 of their summed magnitude, near 1e-16/(w^2 (mu^2 + s2)) relative.
    At k = 1 the whole expression collapses to v0^2 * w^2 * s2 * (2 alpha - 1)^2.
    mu and k may be 1-d grids, as in expected_gain_loss.
    """
    (a_up, a_down, a_cross), (r_up, r_down, r_cross), sign = _pair_logs(config, weights, moments, k)
    with np.errstate(over="ignore"):  # finite pairs may sum past the float range, to inf
        legs = _scaled_expm1(a_up, r_up) + _scaled_expm1(a_down, r_down)
        # |cross pair| <= the leg pairs' sum (Cauchy-Schwarz): it is infinite only with them
        return _at_k(legs + np.where(np.isinf(legs), 0.0, _scaled_expm1(a_cross, r_cross, sign)))


def second_moment_gain_loss(
    config: PolicyConfig, weights: Sequence[float], moments: ReturnMoments, k: int | Sequence[int]
) -> float | np.ndarray:
    """E[gain^2] at horizon k; mu and k may be 1-d grids, as in expected_gain_loss.

        v0^2 * [ alpha^2     * prod(w^2 s2 + (1+w mu)^2)
               + (1-alpha)^2 * prod(w^2 s2 + (1-w mu)^2)
               + 2 alpha(1-alpha) * prod(1 - w^2 (s2 + mu^2)) ] - v0^2 - 2 v0 * mean

    Satisfies variance == second_moment - mean^2 (an identity the test
    suite checks against variance_gain_loss, which is evaluated from a
    different grouping of the same products).
    """
    a, r, sign = _pair_logs(config, weights, moments, k)
    mean = expected_gain_loss(config, weights, moments.mu, k)
    with np.errstate(over="ignore"):  # past the float range is inf; the cross as in the variance
        legs = np.exp(a[0] + r[0]) + np.exp(a[1] + r[1])
        squares = legs + np.where(np.isinf(legs), 0.0, sign * np.exp(a[2] + r[2]))
        linear = config.v0 * (config.v0 + 2.0 * mean)
        # E[value^2] >= mean^2, so an infinite mean comes with infinite squares
        return _at_k(squares - np.where(np.isinf(squares), 0.0, linear))


def brute_force_moments(
    config: PolicyConfig, weights: Sequence[float], model: TwoPointModel, k: int
) -> tuple[float, float]:
    """Exact (mean, variance) of the terminal gain by path enumeration.

    Walks all 2^k return paths of the two-point model: path i assigns x_up to stage j
    when bit j of i is set, and carries probability p_up^(#up) * (1-p_up)^(k-#up).  Its
    legs fold leg_factors from config.split, as evolve does, and touch none of the closed
    forms above, so agreement with them is evidence, not circularity.  Exponential in k;
    capped at k = 25.  A variance past the float range is inf, a mean past it a ValueError.
    """
    if check_count("horizon k", k) > BRUTE_FORCE_MAX_K:
        raise ValueError(f"k={k} exceeds the 2^k enumeration cap of {BRUTE_FORCE_MAX_K}")
    w, _ = _schedule_head(config, weights, k)
    idx = np.arange(1 << k, dtype=np.uint32)
    legs, factors = np.empty((2, idx.size)), np.empty((2, idx.size))
    legs[0], legs[1] = config.split
    ups = np.zeros(idx.size, dtype=np.uint8)  # at most BRUTE_FORCE_MAX_K
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is refused below
        for j in range(k):
            bit = (idx >> j) & np.uint32(1)
            leg_factors(w[j], np.where(bit == 1, model.x_up, model.x_down), config.rf, out=factors)
            legs *= factors
            ups += bit
        prob = model.p_up ** ups * (1.0 - model.p_up) ** (k - ups)
        likely = prob > 0.0  # a path of probability 0 adds nothing, however large its gain
        gains = np.where(likely, legs[0] + legs[1] - config.v0, 0.0)
        mean = float(prob @ gains)
        variance = float(prob @ np.where(likely, (gains - mean) ** 2, 0.0))
    if not math.isfinite(mean):
        raise ValueError(f"an account value leaves the float range: the mean gain is {mean}")
    return mean, variance


@dataclass(frozen=True)
class RpeScanReport:
    """Outcome of a positivity scan of the expected gain-loss.

    certifiable: the hypotheses hold (alpha = 1/2 and every horizon in
    [2, k_max] sees at least two strictly positive weights); when they
    do not, `reason` says why and `certified` is necessarily False.
    certified: certifiable and the minimum over mu != 0 grid entries is
    strictly positive.  Entries at mu = 0 are evaluated (they are
    exactly 0) but never count toward the certificate.
    """

    certifiable: bool
    reason: Optional[str]
    certified: bool
    min_gain: float
    argmin: tuple[float, int]  # (mu, k) of the minimum, mu != 0 only
    mu_grid: tuple[float, ...]
    k_range: tuple[int, int]
    entries: np.ndarray  # shape (len(mu_grid), k_max - 1); [i, j] = gain at (mu_i, k=j+2)


def rpe_scan(
    config: PolicyConfig,
    weights: Sequence[float],
    mu_grid: Sequence[float],
    k_max: int,
) -> RpeScanReport:
    """Evaluate the expected gain-loss over a (mu, k) grid and certify positivity.

    The certificate covers every k in [2, k_max] and every nonzero mu in
    the grid, which must hold at least one.  Hypothesis violations (alpha
    != 1/2, or a horizon whose weight prefix has fewer than two strictly
    positive entries) are reported as "not certifiable", which is a
    different statement from a positivity failure: the grid is still
    evaluated and reported either way.  Grid entries are mutually independent, so evaluation order
    cannot change the result.
    """
    k_max = check_count("k_max", k_max, 2)
    grid = tuple(float(m) for m in mu_grid)
    if not grid:
        raise ValueError("mu_grid must be nonempty")
    if not any(grid):
        raise ValueError("mu_grid needs a nonzero mu: mu = 0 rows never count")
    # One row per mu, horizons 2..k_max.  An entry past the float range is
    # inf, which the report carries for the caller to reject.
    entries = expected_gain_loss(config, weights, grid, np.arange(2, k_max + 1))

    reason = None
    if config.alpha != 0.5:
        reason = f"alpha must equal 1/2 for the certificate, got {config.alpha}"
    elif not np.all(np.asarray(weights, dtype=float)[:2] > 0.0):  # two suffice for every k >= 2
        reason = "fewer than two strictly positive weights among the first 2 stages"

    nonzero = np.where(np.array(grid)[:, None] != 0.0, entries, np.inf)  # mu = 0 rows never count
    row, col = np.unravel_index(np.argmin(nonzero), nonzero.shape)
    min_gain = float(entries[row, col])

    certifiable = reason is None
    certified = certifiable and min_gain > 0.0
    return RpeScanReport(
        certifiable=certifiable,
        reason=reason,
        certified=certified,
        min_gain=min_gain,
        argmin=(grid[row], int(col) + 2),
        mu_grid=grid,
        k_range=(2, k_max),
        entries=entries,
    )


def sign_condition_gain(
    config: PolicyConfig, weights: Sequence[float], mu: float, k: int
) -> bool:
    """Whether (2*alpha - 1)*mu > 0 strictly, for one drift mu.

    The boolean depends only on alpha and mu; the inputs are refused as
    expected_gain_loss refuses them, so the guarantee holds on the same
    inputs: whenever the condition holds and some weight among the first
    k is strictly positive, expected_gain_loss is positive for every
    horizon from 1 on (both product terms sit on the profitable side).
    """
    _exposures(config, weights, mu, k)
    if np.ndim(mu):
        raise ValueError(f"drift mu must be a float, got a {np.ndim(mu)}-d grid")
    return (2.0 * config.alpha - 1.0) * mu > 0.0
