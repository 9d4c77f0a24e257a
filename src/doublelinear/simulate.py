"""Return-path generators and a seeded, reproducible Monte Carlo harness.

Price paths follow geometric Brownian motion with downward Poisson
jumps, discretized exactly one trading period at a time:

    S(k+1) = S(k) * exp(g(k)),
    g(k) = (mu_star - sigma_star^2/2)*dt + sigma_star*sqrt(dt)*Z(k)
           + dN(k)*log(1-delta)

with Z(k) standard normal and dN(k) ~ Poisson(lam*dt).  Sampling the
closed form (rather than an Euler scheme) means the per-period price
ratio has exactly the model's distribution at any dt.  Jumps within one
period aggregate multiplicatively; delta < 1 keeps prices positive.

Reproducibility contract: all randomness is numpy PCG64, drawn in
fixed blocks of B = 64 paths.  Block b of a run seeded s draws from
default_rng([s, b]), its own substream, in this order: a (B, n) matrix
of normals; one Poisson(lam*dt*n) jump total per path; then, for each
row whose total is nonzero, in row order, multinomial(total, [1/n]*n)
per-period jump counts.  Given its total, a Poisson process's counts
over equal periods are multinomial with equal cells, so the counts are
exactly those of the model (Glasserman, Monte Carlo Methods in
Financial Engineering, 3.5).  The two-point generator draws one (B, n)
matrix of uniforms instead.  Path i is row i mod B of block i // B.  A
run of n_paths draws its last block at full size and keeps the rows it
needs, so a path's draws depend on (s, i) alone, not on n_paths.  B and
the draw order are part of the contract.  monte_carlo_gain_loss trades
its blocks on one thread per CPU in the process's affinity set, each
into its own slice, and each thread folds the account legs of a group
of 4 blocks in one call, into one buffer it keeps, or one block at a
time past 1023 stages.  A row folds alike in any group, so no result
depends on the number of CPUs or on the group.

The engine trades the simple returns expm1(g) (simulate_returns) and
builds prices s0*exp(cumsum(g)) (simulate_path) only for price-driven
schedules and path dumps.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytics import TwoPointModel
from .policy import (
    PolicyConfig,
    check_count,
    fold_legs,
    leg_factors,
    validate_prices,
    validate_weights,
)
from .tables import CSV_ROWS, available_cpus, format_rows, write_text
from .weights import WeightSpec, eval_schedule

__all__ = [
    "GbmJumpParams",
    "MonteCarloResult",
    "path_rng",
    "simulate_path",
    "simulate_returns",
    "prices_to_returns",
    "simulate_two_point",
    "monte_carlo_gain_loss",
]

# Default sweep grid: evenly spaced drifts strictly inside (-1, 1).
DEFAULT_MU_STAR_GRID = tuple(np.linspace(-0.95, 0.95, 41).tolist())

# Paths per substream block; part of the reproducibility contract.
BLOCK = 64

# Blocks whose legs one fold multiplies out together.  NumPy releases the GIL for an
# accumulate over more than 500 rows and holds it for 500 or fewer; the two legs of 4
# blocks are 512 rows, so the threads of _run_blocks fold at once.  Part of no result:
# a group folds each row as a fold of its block alone would.
_GROUP = 4
# Largest legs buffer of a group: past it (n_periods > 1023) a range folds one block at
# a time, so a long horizon takes no more memory than a fold per block.
_GROUP_BYTES = 4 << 20

# Largest lam*dt*n_periods accepted: a path's jump total is one Poisson
# draw, which numpy can only take below the int64 range.
_MAX_EXPECTED_JUMPS = 1e18


@dataclass(frozen=True)
class GbmJumpParams:
    """Jump-diffusion parameters, annualized.

    Defaults other than mu_star describe a stressed trading year: daily
    periods (dt = 1/252), volatility 0.3563, jump intensity 0.2 per
    year, jump size 0.1.  sigma_star = 0 and lam = 0 are allowed and
    give the deterministic drift-only degeneracy.  A period's log drift
    and volatility must be finite, and a path's expected jump count
    lam*dt*n_periods at most 1e18.
    """

    mu_star: float
    sigma_star: float = 0.3563
    lam: float = 0.2
    delta: float = 0.1
    dt: float = 1.0 / 252.0
    n_periods: int = 252
    s0: float = 1.0

    def __post_init__(self):
        for name in ("mu_star", "sigma_star", "lam", "dt", "s0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_star < 0.0:
            raise ValueError(f"sigma_star must be >= 0, got {self.sigma_star}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "n_periods", check_count("n_periods", self.n_periods))
        if not self.s0 > 0.0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if not math.isfinite(self.horizon_years):
            raise ValueError(f"dt * n_periods overflows, got dt={self.dt}")
        if not (math.isfinite(self.log_drift) and math.isfinite(self.log_volatility)):
            raise ValueError(
                f"the log drift or volatility of a period overflows, got "
                f"mu_star={self.mu_star}, sigma_star={self.sigma_star}, dt={self.dt}"
            )
        if not self.lam * self.dt * self.n_periods <= _MAX_EXPECTED_JUMPS:
            raise ValueError(
                f"lam*dt*n_periods, a path's expected jump count, must be at most "
                f"{_MAX_EXPECTED_JUMPS:g}, got lam={self.lam}"
            )
        try:
            finite_mean = math.isfinite(self.mu)
        except OverflowError:
            finite_mean = False
        if not finite_mean:
            raise ValueError(
                f"the mean return of a period overflows, got mu_star={self.mu_star}, dt={self.dt}"
            )

    @property
    def horizon_years(self) -> float:
        """T = dt * n_periods."""
        return self.dt * self.n_periods

    @property
    def log_drift(self) -> float:
        """(mu_star - sigma_star^2/2)*dt, the drift of a period's log growth."""
        return (self.mu_star - 0.5 * self.sigma_star * self.sigma_star) * self.dt

    @property
    def log_volatility(self) -> float:
        """sigma_star*sqrt(dt), the standard deviation of a period's diffusion."""
        return self.sigma_star * math.sqrt(self.dt)

    @property
    def mu(self) -> float:
        """Mean simple return of one period, expm1((mu_star - lam*delta)*dt).

        The period's price ratio is lognormal with mean exp(mu_star*dt)
        times (1-delta)^dN with mean exp(-lam*dt*delta)."""
        return math.expm1((self.mu_star - self.lam * self.delta) * self.dt)


@dataclass(frozen=True)
class MonteCarloResult:
    """Terminal gain-loss statistics over n_paths paths.

    mean_gain, std_error and sample_variance are the plain sample
    statistics of the path gains.  cv_mean_gain and cv_std_error are the
    mean and standard error of the paths' compensators (see
    monte_carlo_gain_loss), which estimate the same expectation with less
    variance: the second-order A2 for a static schedule, the first-order
    A for a price-driven one.  With clipped returns they repeat the plain
    ones.
    """

    mean_gain: float
    std_error: float
    sample_variance: float
    n_paths: int
    seed: int
    cv_mean_gain: float
    cv_std_error: float


def path_rng(seed: int, block: int) -> np.random.Generator:
    """The dedicated PCG64 substream of one path block, seeded with [seed, block]."""
    return np.random.default_rng([check_count("seed", seed, 0), check_count("block", block, 0)])


def _unwarned():
    """Float overflow and inf - inf pass without a warning: the range checks
    of _returns and _prices name what left the float range, and a statistic
    past it is inf or nan, which no output accepts."""
    return np.errstate(over="ignore", invalid="ignore")


def _log_growth_block(params: GbmJumpParams, seed: int, block: int) -> np.ndarray:
    """Per-period log growth g of the BLOCK paths of one block: a (BLOCK, n_periods) matrix."""
    rng = path_rng(seed, block)
    n = params.n_periods
    g = rng.standard_normal((BLOCK, n))
    totals = rng.poisson(params.lam * params.dt * n, BLOCK)
    hit = np.flatnonzero(totals)
    # per-period counts of the rows with jumps: (rows, n) integers at any
    # intensity, where a uniform period drawn per jump would need memory per jump
    counts = rng.multinomial(totals[hit], np.full(n, 1.0 / n))
    with _unwarned():
        g *= params.log_volatility
        g += params.log_drift
        g[hit] += math.log1p(-params.delta) * counts
    return g


def _float_range_error(params: GbmJumpParams) -> ValueError:
    return ValueError(
        f"simulated prices reached 0 or inf: mu_star={params.mu_star}, "
        f"sigma_star={params.sigma_star}, dt={params.dt} and "
        f"n_periods={params.n_periods} leave the float range"
    )


def _returns(params: GbmJumpParams, g: np.ndarray) -> np.ndarray:
    """The simple returns expm1(g), computed in g's buffer; each must be > -1 and finite."""
    with _unwarned():
        x = np.expm1(g, out=g)
    if not (x.min() > -1.0 and x.max() < np.inf):  # NaN fails too
        raise _float_range_error(params)
    return x


def _prices(params: GbmJumpParams, g: np.ndarray) -> np.ndarray:
    """Prices s0 and s0*exp(cumsum(g)) per row of g: a (rows, n_periods+1) matrix, all
    positive and finite."""
    prices = np.empty((g.shape[0], g.shape[1] + 1))
    prices[:, 0] = params.s0
    with _unwarned():
        growth = np.exp(np.cumsum(g, axis=1))
        np.multiply(growth, params.s0, out=prices[:, 1:])
    try:
        return validate_prices(prices)
    except ValueError:
        raise _float_range_error(params) from None


def _two_point_block(model: TwoPointModel, seed: int, block: int, k: int) -> np.ndarray:
    """Returns of the BLOCK paths of one block: a (BLOCK, k) matrix."""
    u = path_rng(seed, block).random((BLOCK, k))
    return np.where(u < model.p_up, model.x_up, model.x_down)


def _row(draw, model, seed: int, path_index: int, *more) -> np.ndarray:
    """Row path_index mod BLOCK, as a one-row view, of block path_index // BLOCK as
    draw(model, seed, block, *more) draws it; path_index, then seed, is checked."""
    block, row = divmod(check_count("path_index", path_index, 0), BLOCK)
    return draw(model, seed, block, *more)[row : row + 1]


def simulate_path(params: GbmJumpParams, seed: int, path_index: int = 0) -> np.ndarray:
    """One price path: n_periods+1 prices starting at s0, all positive and finite.

    Row path_index mod BLOCK of block path_index // BLOCK.  A price of 0
    or inf is a ValueError naming the model.
    """
    return _prices(params, _row(_log_growth_block, params, seed, path_index))[0]


def simulate_returns(params: GbmJumpParams, seed: int, path_index: int = 0) -> np.ndarray:
    """One path's n_periods simple returns, expm1 of its log growth, each > -1 and finite.

    Bit for bit the row monte_carlo_gain_loss trades for this path; the
    returns of simulate_path's prices agree only up to rounding.  A return
    of -1 or inf is a ValueError naming the model.
    """
    return _returns(params, _row(_log_growth_block, params, seed, path_index)[0].copy())


def prices_to_returns(prices: Sequence[float]) -> np.ndarray:
    """Per-period simple returns (S(k+1) - S(k)) / S(k); each is > -1 and finite.

    A (paths, n+1) price matrix gives (paths, n) returns, row by row.  A
    price ratio that rounds to a return of -1 or inf is a ValueError.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < 2:
        raise ValueError("need a series (or rows) of at least two prices")
    validate_prices(p)
    with _unwarned():
        x = p[..., 1:] / p[..., :-1]
    x -= 1.0
    if x.size and not (x.min() > -1.0 and x.max() < np.inf):
        raise ValueError(
            f"a price ratio leaves the float range: returns must lie in (-1, inf), "
            f"got {x.min() if x.min() <= -1.0 else x.max()}"
        )
    return x


def simulate_two_point(
    model: TwoPointModel, k: int, seed: int, path_index: int = 0
) -> np.ndarray:
    """k i.i.d. draws from the two-point distribution: row path_index mod
    BLOCK of block path_index // BLOCK."""
    return _row(_two_point_block, model, seed, path_index, check_count("k", k))[0].copy()


def monte_carlo_gain_loss(
    config: PolicyConfig,
    spec: WeightSpec,
    generator: Union[GbmJumpParams, TwoPointModel],
    n_paths: int,
    seed: int,
    *,
    n_periods: Optional[int] = None,
    clip_returns: bool = False,
) -> MonteCarloResult:
    """Estimate the terminal gain-loss over simulated paths.

    generator decides the horizon: GbmJumpParams carries its own
    n_periods (passing a conflicting n_periods is an error), a
    TwoPointModel needs n_periods explicitly.  Price-driven weight specs
    require the price generator; a returns-only generator has no prices
    to drive them, which is reported as a mismatch.

    Paths are simulated and traded a block of BLOCK at a time, each
    block from its own substream into its own slice of a preallocated
    gain array.  The blocks are split into contiguous ranges, one per
    CPU in the process's affinity set and at most one per block; the
    calling thread trades the first and a thread each other one.  Every
    range runs one trade per group of 4 blocks: it draws the blocks,
    writes their leg factors into the range's legs buffer, which it
    keeps from group to group, and folds them in one call, as NumPy runs
    an accumulate over that many rows without the GIL, so the threads
    fold at once.  Past 1023 stages a group's legs would pass 4 MiB, and
    a group is one block.  The mean is a single deterministic reduction
    of the gain array once every thread has joined, so the result is
    bit-identical for a given (seed, n_paths) on any number of CPUs.  An
    error is that of the lowest failing block, as a loop over the blocks
    raises it: a block whose draw fails is raised only once the blocks
    before it in its group are folded.  No thread is left running when
    the call returns or raises, even when it is interrupted while it
    waits for the others.

    Beside the gain G, each path yields a compensator with G's mean and
    less variance (Glasserman, Monte Carlo Methods in Financial
    Engineering, 4.1); cv_mean_gain and cv_std_error are its sample mean
    and standard error.  With r_k = rf*(1 - w_k), D = V_L - V_S the
    difference of the legs, V = V_L + V_S and mu = generator.mu the mean
    return, the first-order compensator is

        A = sum_k mu*w_k*D(k-1) + r_k*V_L(k-1).

    A stage's weight and legs are fixed before its return is drawn (ma:
    weights are causal) and the return has mean mu, so G - A is a
    martingale.  A static schedule also fixes every later weight, so the
    drift the return x_j adds to the later terms of A is known when x_j
    is drawn, and the second-order compensator takes it out:

        A2 = A - sum_j w_j*(x_j - mu)*(mu*S_j*V(j-1) + R_j*V_L(j-1)),

    S_j and R_j summing w_k and r_k over the stages k > j.  The subtracted
    sum is a martingale, so A2 keeps A's mean; at 2000 paths of a trading
    year its standard error is about 1/180 of the plain one, against
    1/2.4 for A.  In terms of the legs entering each stage,

        A2 = c0 + V_L(:-1) @ a_L + V_S(:-1) @ a_S,
        a_S = mu^2*w*S,  a_L = a_S + mu*r*S + (mu*w + r)*R,
        c0 = mu*D(0)*sum(w) + V_L(0)*sum(r),

    two row dots a block once its group is folded, with coefficients
    computed once a run.  An ma: schedule's later weights depend on later
    prices, so it keeps A, in the same form with each block's own weights:
    c0 = 0, a_L = mu*w + r, a_S = -mu*w.

    clip_returns clamps simulated returns into the configured market
    bounds before trading.  It is off by default: the jump-diffusion
    model has unbounded return support and is traded as such, while the
    closed-form theory assumes bounded support.  Clipped returns no
    longer have mean mu, so the cv fields then repeat the plain ones.
    Weights are always validated against the config's w_max.
    """
    n_paths = check_count("n_paths", n_paths)
    seed = check_count("seed", seed, 0)
    if isinstance(generator, GbmJumpParams):
        if n_periods is not None and check_count("n_periods", n_periods) != generator.n_periods:
            raise ValueError(
                f"n_periods={n_periods} conflicts with generator.n_periods={generator.n_periods}"
            )
        horizon = generator.n_periods
        price_generator = True
    elif isinstance(generator, TwoPointModel):
        horizon = check_count("n_periods", n_periods)
        price_generator = False
    else:
        raise TypeError(f"unsupported generator {type(generator).__name__}")

    if spec.price_driven and not price_generator:
        raise ValueError(
            "price-driven weight spec needs a price generator; "
            "a two-point returns generator carries no prices"
        )

    static_w = None if spec.price_driven else eval_schedule(spec, horizon)
    validate_weights(spec.w if static_w is None else static_w, config.w_max)

    gains = np.empty(n_paths)
    compensators = None if clip_returns else np.empty(n_paths)
    if static_w is not None:
        with _unwarned():
            coefficients = _compensator_coefficients(config, static_w, generator.mu)

    group = _GROUP if 2 * _GROUP * BLOCK * (horizon + 1) * 8 <= _GROUP_BYTES else 1

    def trade(blocks: range, legs: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Draw each block of a group and write its leg factors into legs, the range's
        buffer, a row per path; fold them in one call; write their gains, then their
        compensators block by block.  legs is made once the range's first block is drawn
        and is returned for the next group.  Past the group bound it holds one block and
        is not returned, so its legs are freed before the next block is drawn."""
        lo, weights, failure = blocks.start * BLOCK, [], None
        for block in blocks:
            try:
                if price_generator:
                    g = _log_growth_block(generator, seed, block)[: n_paths - block * BLOCK]
                    # only a price-driven schedule needs prices; they come before
                    # the returns take over g's buffer
                    w = static_w if static_w is not None else eval_schedule(
                        spec, horizon, _prices(generator, g)
                    )
                    x = _returns(generator, g)
                else:
                    x = _two_point_block(generator, seed, block, horizon)[: n_paths - block * BLOCK]
                    w = static_w
                if clip_returns:
                    x = np.clip(x, config.bounds.x_min, config.bounds.x_max)
                if legs is None:
                    legs = np.empty((2, min(len(blocks) * BLOCK, n_paths - lo), horizon + 1))
                row = len(weights) * BLOCK
                leg_factors(w, x, config.rf, out=legs[:, row : row + len(x), 1:])
            except Exception as exc:  # raised once the blocks before it are folded
                failure = exc
                break
            weights.append(w)
        filled = min(len(weights) * BLOCK, n_paths - lo)
        if filled:  # each row folds as evolve folds it, a lower block's error first
            v_long, v_short = fold_legs(legs[:, :filled], config)
            with _unwarned():
                final = v_long[:, -1] + v_short[:, -1]
            if not np.isfinite(final).all():
                raise ValueError(
                    "the account value leaves the float range: a final value is "
                    f"{final[~np.isfinite(final)][0]}"
                )
        if failure is not None:
            raise failure
        gains[lo : lo + filled] = final - config.v0
        if compensators is not None:
            with _unwarned():  # per group: a thread starts with NumPy's default error state
                for first, w in zip(range(0, filled, BLOCK), weights):
                    c0, a_long, a_short = coefficients if static_w is not None else (
                        _compensator_coefficients(config, w, generator.mu)  # an ma: block's own
                    )
                    rows = slice(first, first + BLOCK)  # V(k-1), the legs entering stage k
                    compensators[lo + first : lo + first + BLOCK] = (
                        c0
                        + _row_dot(v_long[rows, :-1], a_long)
                        + _row_dot(v_short[rows, :-1], a_short)
                    )
        return legs if group > 1 else None

    _run_blocks(trade, -(-n_paths // BLOCK), group)
    mean, std_error, variance = _sample_stats(gains)
    cv_mean, cv_std_error, _ = _sample_stats(gains if compensators is None else compensators)
    return MonteCarloResult(
        mean_gain=mean,
        std_error=std_error,
        sample_variance=variance,
        n_paths=n_paths,
        seed=seed,
        cv_mean_gain=cv_mean,
        cv_std_error=cv_std_error,
    )


def _run_blocks(trade, n_blocks: int, group: int) -> None:
    """Trade blocks 0..n_blocks-1, split into contiguous ranges, one per CPU this
    process may run on and at most one per block.  The calling thread trades the first
    range and a threading.Thread each other one, all in the same loop: a range calls
    legs = trade(blocks, legs) on its blocks in order, group at a time (the last call
    may take fewer), legs starting as None; trade raises the error of the lowest
    failing block it was given.  The call returns once every thread has joined.  The
    error raised is that of the lowest failing block of all, as a loop over the blocks
    in order would raise it: a range stops at its first failure or, between groups,
    once a lower range has failed, and its exception is kept, never raised in its
    thread.  An interrupt of the calling thread, while it trades or while it joins,
    stops the others between groups and is raised once they have joined, so no thread
    is left running."""
    parts = min(available_cpus(), n_blocks)
    bounds = [n_blocks * part // parts for part in range(parts + 1)]
    failures = [None] * parts  # per range, the exception of its first failing group

    def run(part: int) -> None:
        legs, stop = None, bounds[part + 1]
        try:
            for first in range(bounds[part], stop, group):
                if any(failures[:part]):
                    return
                legs = trade(range(first, min(first + group, stop)), legs)
        except BaseException as exc:  # raised by the calling thread once all have joined
            failures[part] = exc

    started = []
    try:
        for part in range(1, parts):
            thread = threading.Thread(target=run, args=(part,), name=f"block range {part}")
            thread.start()
            started.append(thread)
        run(0)
        for thread in started:
            thread.join()
    except BaseException as exc:  # an interrupt, or a thread that would not start
        failures[0] = exc  # stops the other ranges between groups
        for thread in started:
            thread.join()
        raise
    for failure in failures:
        if failure is not None:
            raise failure


def _compensator_coefficients(config: PolicyConfig, w, mu):
    """(c0, a_long, a_short): a path's compensator is c0 + V_L(:-1) @ a_long +
    V_S(:-1) @ a_short, its legs entering each stage weighted stage by stage.

    A static schedule w (one row) gets the second-order compensator A2, an ma:
    weight matrix (a row per path) the first-order A: c0 = 0, a_long = mu*w + r,
    a_short = -mu*w, with r = (1 - w)*rf.  Exact arithmetic in, exact out: w
    may be an object array of Fractions, and config and mu Fractions."""
    r = (1 - w) * config.rf
    if w.ndim > 1:
        a_short = -mu * w
        return 0.0, r - a_short, a_short
    ahead, r_ahead = _suffix_sums(w), _suffix_sums(r)
    a_short = mu * w * ahead * mu  # mu last: 0, not nan, at the last stage if mu*mu overflows
    a_long = a_short + mu * r * ahead + (mu * w + r) * r_ahead
    v_long, v_short = config.split
    c0 = mu * (v_long - v_short) * w.sum() + v_long * r.sum()
    return c0, a_long, a_short


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """out[j] = sum(v[j+1:]): what the stages after stage j+1 add up to."""
    out = np.zeros_like(v)
    out[:-1] = np.cumsum(v[:0:-1])[::-1]
    return out


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of a, its dot product with b (a vector, or a matrix row by row).

    einsum rather than a matrix product: it takes an ma: weight matrix too,
    and it sums in its own loop, never in a threaded BLAS call."""
    return np.einsum("...j,...j->...", a, b)


def _sample_stats(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, standard error of the mean and unbiased variance (0 for one value).

    A statistic past the float range is inf or nan."""
    with _unwarned():
        variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
        mean = float(np.mean(values))
    return mean, math.sqrt(variance / values.size), variance


def dump_paths_csv(
    path,
    params: GbmJumpParams,
    seed: int,
    n_paths: int,
    comment: Optional[str] = None,
) -> None:
    """Write path_id,stage,price rows for paths 0..n_paths-1, one block draw per BLOCK paths."""
    check_count("n_paths", n_paths)

    def text():
        for block in range(-(-n_paths // BLOCK)):
            g = _log_growth_block(params, seed, block)[: n_paths - block * BLOCK]
            prices = _prices(params, g)  # a row per path, a column per stage
            yield from format_rows(prices, 1, *CSV_ROWS, block * BLOCK, prices.shape[1])

    write_text(path, [comment] if comment else [], ("path_id", "stage", "price"), text())
