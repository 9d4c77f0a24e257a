"""Sweep the annualized drift and watch the expected gain turn positive.

Prices follow a jump-diffusion: lognormal growth plus Poisson downward
jumps.  The mean per-period return vanishes at mu* = lam*delta, and the
balanced policy earns nothing there; away from that flat point the
expected gain rises on both sides.  A small Monte Carlo sweep makes the
V-shaped profile visible in a terminal table.

Each cell shows two estimates of the same expected gain from the same
paths: the control variate (the mean of each path's compensator, the sum
of its expected gain increments given the past) and the plain sample
mean of the gains.  The control variate's band is the narrower one.

Every cell is the single Monte Carlo run at seed 11, so the cells share
their paths' draws (common random numbers): the differences between
neighbouring drifts carry much less noise than any one cell's band.
"""

import dataclasses

import numpy as np

from doublelinear import (
    GbmJumpParams,
    MarketBounds,
    PolicyConfig,
    WeightSpec,
    monte_carlo_gain_loss,
)


def main():
    config = PolicyConfig(alpha=0.5, bounds=MarketBounds(-0.5, 1.0))
    params = GbmJumpParams(mu_star=0.0)  # drift is swept, the rest stays put
    grid = np.linspace(-0.8, 0.8, 9).tolist()
    n_paths = 2000
    specs = {
        "constant 0.8": WeightSpec("constant", w=0.8),
        "log ramp": WeightSpec("log_ramp"),
    }

    flat = params.lam * params.delta
    print(f"jump drag lam*delta = {flat:g}; the gain profile bottoms out near mu* = {flat:g}")
    print(f"{n_paths} paths per cell, {params.n_periods} daily periods\n")

    for name, spec in specs.items():
        print(f"{name}\n{'mu*':>6} {'control variate':>22} {'plain sample mean':>22}")
        for mu_star in grid:
            cell = dataclasses.replace(params, mu_star=mu_star)
            result = monte_carlo_gain_loss(config, spec, cell, n_paths, seed=11)
            cv = f"{result.cv_mean_gain:+10.4f} +-{2 * result.cv_std_error:8.4f}"
            plain = f"{result.mean_gain:+10.4f} +-{2 * result.std_error:8.4f}"
            print(f"{mu_star:>6.2f} {cv} {plain}")
        print()

    print("cells show mean terminal gain +- two standard errors")


if __name__ == "__main__":
    main()
