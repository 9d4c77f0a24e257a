"""Return-path generators and a seeded, reproducible Monte Carlo harness.

Price paths follow geometric Brownian motion with downward Poisson
jumps, discretized exactly one trading period at a time:

    S(k+1) = S(k) * exp((mu_star - sigma_star^2/2)*dt
                        + sigma_star*sqrt(dt)*Z(k)) * (1-delta)^dN(k)

with Z(k) standard normal and dN(k) ~ Poisson(lam*dt).  Sampling the
closed form (rather than an Euler scheme) means the per-period price
ratio has exactly the model's distribution at any dt.  Jumps within one
period aggregate multiplicatively; delta < 1 keeps prices positive.

Reproducibility contract: all randomness is numpy PCG64, drawn in
fixed blocks of B = 64 paths.  Block b of a run seeded s draws from
default_rng([s, b]), its own substream: first a (B, n) matrix of
normals, then a (B, n) matrix of Poisson counts (the two-point
generator draws one (B, n) matrix of uniforms instead).  Path i is row
i mod B of block i // B.  A run of n_paths draws its last block at full
size and keeps the rows it needs, so a path's draws depend on (s, i)
alone: not on n_paths, on how many workers the harness uses, or on the
order in which blocks were scheduled.  B and the draw order are part of
the contract.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytics import TwoPointModel
from .policy import PolicyConfig, account_legs, validate_prices, validate_weights
from .tables import write_table
from .weights import WeightSpec, eval_schedule

__all__ = [
    "GbmJumpParams",
    "MonteCarloResult",
    "DEFAULT_MU_STAR_GRID",
    "BLOCK",
    "path_rng",
    "simulate_path",
    "prices_to_returns",
    "simulate_two_point",
    "monte_carlo_gain_loss",
    "sweep_mu_star",
    "dump_paths_csv",
]

# Default sweep grid: evenly spaced drifts strictly inside (-1, 1).
DEFAULT_MU_STAR_GRID = tuple(np.linspace(-0.95, 0.95, 41).tolist())

# Paths per substream block; part of the reproducibility contract.
BLOCK = 64


@dataclass(frozen=True)
class GbmJumpParams:
    """Jump-diffusion parameters, annualized.

    Defaults other than mu_star describe a stressed trading year: daily
    periods (dt = 1/252), volatility 0.3563, jump intensity 0.2 per
    year, jump size 0.1.  sigma_star = 0 and lam = 0 are allowed and
    give the deterministic drift-only degeneracy.
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
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods}")
        if not self.s0 > 0.0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if not math.isfinite(self.horizon_years):
            raise ValueError(f"dt * n_periods overflows, got dt={self.dt}")
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
    variance; with clipped returns they repeat the plain ones.
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
    return np.random.default_rng([seed, block])


def _price_block(params: GbmJumpParams, seed: int, block: int) -> np.ndarray:
    """Prices of the BLOCK paths of one block: a (BLOCK, n_periods+1) matrix."""
    rng = path_rng(seed, block)
    n = params.n_periods
    z = rng.standard_normal((BLOCK, n))
    jumps = rng.poisson(params.lam * params.dt, (BLOCK, n))
    drift = (params.mu_star - 0.5 * params.sigma_star**2) * params.dt
    # The log growth sigma*sqrt(dt)*z + drift + dN*log(1-delta), its running
    # sum and its exp are built in place in the normals' buffer: one exp
    # per price, (1-delta)^dN entering the exponent.
    z *= params.sigma_star * math.sqrt(params.dt)
    z += drift
    z += math.log1p(-params.delta) * jumps
    np.cumsum(z, axis=1, out=z)
    np.exp(z, out=z)
    prices = np.empty((BLOCK, n + 1))
    prices[:, 0] = params.s0
    np.multiply(z, params.s0, out=prices[:, 1:])
    return prices


def _two_point_block(model: TwoPointModel, k: int, seed: int, block: int) -> np.ndarray:
    """Returns of the BLOCK paths of one block: a (BLOCK, k) matrix."""
    u = path_rng(seed, block).random((BLOCK, k))
    return np.where(u < model.p_up, model.x_up, model.x_down)


def simulate_path(params: GbmJumpParams, seed: int, path_index: int = 0) -> np.ndarray:
    """One price path: n_periods+1 prices starting at s0, all positive.

    Row path_index mod BLOCK of block path_index // BLOCK.
    """
    block, row = divmod(path_index, BLOCK)
    return _price_block(params, seed, block)[row].copy()


def prices_to_returns(prices: Sequence[float]) -> np.ndarray:
    """Per-period simple returns (S(k+1) - S(k)) / S(k); each is > -1.

    A (paths, n+1) price matrix gives (paths, n) returns, row by row.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < 2:
        raise ValueError("need a series (or rows) of at least two prices")
    validate_prices(p)
    x = p[..., 1:] / p[..., :-1]
    x -= 1.0
    return x


def simulate_two_point(
    model: TwoPointModel, k: int, seed: int, path_index: int = 0
) -> np.ndarray:
    """k i.i.d. draws from the two-point distribution: row path_index mod
    BLOCK of block path_index // BLOCK."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    block, row = divmod(path_index, BLOCK)
    return _two_point_block(model, k, seed, block)[row].copy()


def monte_carlo_gain_loss(
    config: PolicyConfig,
    spec: WeightSpec,
    generator: Union[GbmJumpParams, TwoPointModel],
    n_paths: int,
    seed: int,
    *,
    n_periods: Optional[int] = None,
    workers: int = 1,
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
    gain array, so the result is bit-identical for a given
    (seed, n_paths) at any `workers` setting; the mean is then a single
    deterministic reduction of that array.  workers > 1 hands blocks to
    a thread pool of at most os.cpu_count() threads.

    Beside the gain G, each path yields its compensator A, the sum over
    stages k of mu*w_k*D(k-1) + rf*(1 - w_k)*V_L(k-1), with D = V_L - V_S
    the difference of the legs and mu = generator.mu the mean return.
    A stage's weight and legs are fixed before its return is drawn (ma:
    weights are causal) and the return has mean mu, so G - A is a
    martingale: A has G's mean and, removing that noise, less variance
    (Glasserman, Monte Carlo Methods in Financial Engineering, 4.1).
    cv_mean_gain and cv_std_error are its sample mean and standard error.

    clip_returns clamps simulated returns into the configured market
    bounds before trading.  It is off by default: the jump-diffusion
    model has unbounded return support and is traded as such, while the
    closed-form theory assumes bounded support.  Clipped returns no
    longer have mean mu, so the cv fields then repeat the plain ones.
    Weights are always validated against the config's w_max.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(generator, GbmJumpParams):
        if n_periods is not None and n_periods != generator.n_periods:
            raise ValueError(
                f"n_periods={n_periods} conflicts with generator.n_periods={generator.n_periods}"
            )
        horizon = generator.n_periods
        price_generator = True
    elif isinstance(generator, TwoPointModel):
        if n_periods is None:
            raise ValueError("a two-point generator needs an explicit n_periods")
        if n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {n_periods}")
        horizon = n_periods
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

    def run(block: int) -> None:
        lo = block * BLOCK
        rows = min(BLOCK, n_paths - lo)
        if price_generator:
            prices = _price_block(generator, seed, block)[:rows]
            x = prices_to_returns(prices)
            w = static_w if static_w is not None else eval_schedule(spec, horizon, prices)
        else:
            x = _two_point_block(generator, horizon, seed, block)[:rows]
            w = static_w
        if clip_returns:
            x = np.clip(x, config.bounds.x_min, config.bounds.x_max)
        v_long, v_short = account_legs(config, w, x)  # the fold evolve makes, one path per row
        gains[lo : lo + rows] = v_long[:, -1] + v_short[:, -1] - config.v0
        if compensators is not None:
            # The legs entering each stage: V(k-1) for k = 1..horizon.
            v_long, v_short = v_long[:, :-1], v_short[:, :-1]
            compensator = generator.mu * (_row_dot(v_long, w) - _row_dot(v_short, w))
            if config.rf:
                compensator += config.rf * _row_dot(v_long, 1.0 - w)
            compensators[lo : lo + rows] = compensator

    blocks = range(-(-n_paths // BLOCK))
    # map submits every block at once: more threads than CPUs only add threads
    threads = min(workers, len(blocks), os.cpu_count() or 1)
    if threads == 1:
        for block in blocks:
            run(block)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, blocks))

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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of a, its dot product with b (a vector, or a matrix row by row).

    einsum rather than a matrix product: it takes an ma: weight matrix too,
    and it sums in its own loop, never in a threaded BLAS call."""
    return np.einsum("...j,...j->...", a, b)


def _sample_stats(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, standard error of the mean and unbiased variance (0 for one value)."""
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    return float(np.mean(values)), math.sqrt(variance / values.size), variance


def sweep_mu_star(
    config: PolicyConfig,
    spec: WeightSpec,
    params: GbmJumpParams,
    mu_star_grid: Optional[Sequence[float]] = None,
    n_paths: int = 10_000,
    seed: int = 0,
    *,
    workers: int = 1,
    clip_returns: bool = False,
) -> list[tuple[float, MonteCarloResult]]:
    """Monte Carlo mean gain across a grid of annualized drifts.

    Every grid cell gets an independent family of substreams: the cell
    seed is derived from SeedSequence([seed, cell_index]), so for a
    fixed (seed, grid) the whole sweep is deterministic and cells do not
    share paths.  The default grid is DEFAULT_MU_STAR_GRID.
    """
    grid = DEFAULT_MU_STAR_GRID if mu_star_grid is None else tuple(float(m) for m in mu_star_grid)
    results = []
    for index, mu_star in enumerate(grid):
        cell = dataclasses.replace(params, mu_star=mu_star)
        cell_seed = int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])
        outcome = monte_carlo_gain_loss(
            config, spec, cell, n_paths, cell_seed,
            workers=workers, clip_returns=clip_returns,
        )
        results.append((mu_star, outcome))
    return results


def dump_paths_csv(
    path,
    params: GbmJumpParams,
    seed: int,
    n_paths: int,
    comment: Optional[str] = None,
) -> None:
    """Write path_id,stage,price rows for paths 0..n_paths-1, one block draw per BLOCK paths."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")

    def lines():
        for block in range(-(-n_paths // BLOCK)):
            prices = _price_block(params, seed, block)[: n_paths - block * BLOCK].tolist()
            for i, row in enumerate(prices, start=block * BLOCK):
                for stage, price in enumerate(row):
                    yield f"{i},{stage},{price!r}"

    write_table(path, [comment] if comment else [], ("path_id", "stage", "price"), lines())
