"""Return-path generators and a seeded, reproducible Monte Carlo harness.

Price paths follow geometric Brownian motion with downward Poisson
jumps, discretized exactly one trading period at a time:

    S(k+1) = S(k) * exp((mu_star - sigma_star^2/2)*dt
                        + sigma_star*sqrt(dt)*Z(k)) * (1-delta)^dN(k)

with Z(k) standard normal and dN(k) ~ Poisson(lam*dt).  Sampling the
closed form (rather than an Euler scheme) means the per-period price
ratio has exactly the model's distribution at any dt.  Jumps within one
period aggregate multiplicatively; delta < 1 keeps prices positive.

Reproducibility contract: all randomness is numpy PCG64.  Path i of a
run seeded s draws from default_rng([s, i]), its own substream, so a
path's draws do not depend on how many workers the harness uses or in
which order paths were scheduled.  Within a path the normals are drawn
first, then the Poisson counts; the draw order is part of the contract.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytics import TwoPointModel
from .policy import PolicyConfig, derive_w_max, initial_state, leg_factors, validate_weights
from .weights import WeightSpec, eval_schedule

__all__ = [
    "GbmJumpParams",
    "MonteCarloResult",
    "DEFAULT_MU_STAR_GRID",
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

    @property
    def horizon_years(self) -> float:
        """T = dt * n_periods."""
        return self.dt * self.n_periods


@dataclass(frozen=True)
class MonteCarloResult:
    """Terminal gain-loss sample statistics over n_paths paths."""

    mean_gain: float
    std_error: float
    sample_variance: float
    n_paths: int
    seed: int


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """The dedicated PCG64 substream of one path, seeded with [seed, path_index]."""
    return np.random.default_rng([seed, path_index])


def simulate_path(params: GbmJumpParams, seed: int, path_index: int = 0) -> np.ndarray:
    """One price path: n_periods+1 prices starting at s0, all positive."""
    rng = path_rng(seed, path_index)
    n = params.n_periods
    z = rng.standard_normal(n)
    jumps = rng.poisson(params.lam * params.dt, n)
    drift = (params.mu_star - 0.5 * params.sigma_star**2) * params.dt
    log_growth = drift + params.sigma_star * math.sqrt(params.dt) * z
    jump_factor = (1.0 - params.delta) ** np.cumsum(jumps)
    prices = np.empty(n + 1)
    prices[0] = params.s0
    prices[1:] = params.s0 * np.exp(np.cumsum(log_growth)) * jump_factor
    return prices


def prices_to_returns(prices: Sequence[float]) -> np.ndarray:
    """Per-period simple returns (S(k+1) - S(k)) / S(k); each is > -1."""
    p = np.asarray(prices, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need a one-dimensional series of at least two prices")
    if not 0.0 < p.min() <= p.max() < np.inf:  # NaN fails too
        raise ValueError("nonpositive or non-finite price")
    return p[1:] / p[:-1] - 1.0


def simulate_two_point(
    model: TwoPointModel, k: int, seed: int, path_index: int = 0
) -> np.ndarray:
    """k i.i.d. draws from the two-point distribution, own substream."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = path_rng(seed, path_index)
    u = rng.random(k)
    return np.where(u < model.p_up, model.x_up, model.x_down)


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

    Each path draws from its own substream and lands in its own slot of
    a preallocated gain array, so the result is bit-identical for a
    given (seed, n_paths) at any `workers` setting; the mean is then a
    single deterministic reduction of that array.

    clip_returns clamps simulated returns into the configured market
    bounds before trading.  It is off by default: the jump-diffusion
    model has unbounded return support and is traded as such, while the
    closed-form theory assumes bounded support.  Weights are always
    validated against the config's w_max.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
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
    validate_weights(spec.w if static_w is None else static_w, derive_w_max(config.bounds))

    start = initial_state(config)
    gains = np.empty(n_paths)

    def run(i: int) -> None:
        if price_generator:
            prices = simulate_path(generator, seed, i)
            x = prices_to_returns(prices)
            w = static_w if static_w is not None else eval_schedule(spec, horizon, prices=prices)
        else:
            x = simulate_two_point(generator, horizon, seed, i)
            w = static_w
        if clip_returns:
            x = np.clip(x, config.bounds.x_min, config.bounds.x_max)
        # The same stage-order fold as evolve, without keeping the prefixes.
        f_long, f_short = leg_factors(w, x, config.rf)
        gains[i] = (
            np.multiply.reduce(f_long, initial=start.v_long)
            + np.multiply.reduce(f_short, initial=start.v_short)
            - config.v0
        )

    if workers <= 1:
        for i in range(n_paths):
            run(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, n_paths // (workers * 8))
            list(pool.map(run, range(n_paths), chunksize=chunk))

    mean = float(np.mean(gains))
    variance = float(np.var(gains, ddof=1)) if n_paths > 1 else 0.0
    return MonteCarloResult(
        mean_gain=mean,
        std_error=math.sqrt(variance / n_paths),
        sample_variance=variance,
        n_paths=n_paths,
        seed=seed,
    )


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
    """Write path_id,stage,price rows for the first n_paths substreams."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "stage", "price"])
        for i in range(n_paths):
            for stage, price in enumerate(simulate_path(params, seed, i)):
                writer.writerow([i, stage, float(price)])
