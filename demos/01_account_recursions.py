"""Walk the two-leg account through a short return path.

The policy splits v0 into a long sub-account (fraction alpha) and a
short sub-account, then applies the same weight to both on every
period: the long leg multiplies by 1 + w*x, the short leg by 1 - w*x.
This script steps through a hand-sized path and shows the guaranteed
worst-case floors next to the realized values.
"""

import numpy as np

from doublelinear import (
    MarketBounds,
    PolicyConfig,
    derive_w_max,
    evolve,
    survivability_bound,
)


def main():
    bounds = MarketBounds(x_min=-0.3, x_max=0.8)
    config = PolicyConfig(alpha=0.5, bounds=bounds, v0=100.0)
    w_max = derive_w_max(bounds)
    print(f"bounds: [{bounds.x_min}, {bounds.x_max}]  ->  w_max = {w_max}")

    rng = np.random.default_rng(7)
    k = 10
    weights = rng.uniform(0.2, w_max, size=k)
    returns = rng.uniform(bounds.x_min, bounds.x_max, size=k)

    # one array per leg: the stage-0 split followed by the running products
    trajectory = evolve(config, weights, returns)
    v_long, v_short, total = trajectory.v_long, trajectory.v_short, trajectory.values
    print(f"\n{'stage':>5} {'w':>7} {'x':>8} {'long':>10} {'short':>10} {'total':>10}")
    for stage in range(k + 1):
        w = f"{weights[stage - 1]:7.3f}" if stage else " " * 7
        x = f"{returns[stage - 1]:+8.3f}" if stage else " " * 8
        legs = f"{v_long[stage]:10.3f} {v_short[stage]:10.3f} {total[stage]:10.3f}"
        print(f"{stage:>5} {w} {x} {legs}")

    long_floor, short_floor = survivability_bound(config, k)
    print(f"\nguaranteed floors after {k} stages (weights at w_max, returns at the bounds):")
    print(f"  long  >= {long_floor:.6f}   realized {v_long[-1]:.3f}")
    print(f"  short >= {short_floor:.6f}   realized {v_short[-1]:.3f}")
    print("the account total stays positive on every admissible path, not just this one")


if __name__ == "__main__":
    main()
