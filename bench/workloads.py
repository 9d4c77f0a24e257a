"""The benchmark's workloads: generated inputs, CLI calls and output checks.

Every workload makes its inputs from the benchmark seed alone and checks
the program's outputs against numbers it computes itself, never against
the engine's random-number layout, so the checks keep holding when the
engine changes how it draws paths.  All outputs are parsed with a strict
JSON parser that rejects NaN and Infinity.

Monte Carlo workloads give invocation j of a run the program seed
2*(1000*seed + j).  Those seeds are even; the mc-ma reference estimate
was made with an odd seed, so no workload reuses its paths.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# The jump-diffusion model of both Monte Carlo workloads, given to the
# CLI explicitly so that the checks do not depend on its defaults.
MODEL = {
    "--alpha": "0.5", "--v0": "1.0", "--sigma-star": "0.3563", "--lambda": "0.2",
    "--delta": "0.1", "--n": "252", "--dt": repr(1.0 / 252.0),
}
# A Monte Carlo mean may sit this many standard errors from its reference.
Z_MAX = 5.0
# Backtest gains must match the NumPy recomputation to this share of the
# account value.
BACKTEST_RTOL = 1e-9
# Closed-form cells must match the product formula to this share of the
# summed magnitudes of the products they combine.
CLOSED_FORM_RTOL = 1e-9
VARIANCE_FLOOR = -1e-12


class CheckError(Exception):
    """An output failed a check."""


def strict_json(path: Path):
    """Parse JSON, rejecting NaN and +-Infinity."""

    def reject(token):
        raise CheckError(f"{path.name}: non-finite JSON value {token}")

    try:
        return json.loads(path.read_text(), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name}: not JSON: {exc}") from None
    except OSError as exc:
        raise CheckError(f"missing output: {exc}") from None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def program_seed(seed: int, j: int) -> int:
    return 2 * (1000 * seed + j)


def _model_args() -> list[str]:
    return [token for pair in MODEL.items() for token in pair]


class Workload:
    """One CLI workload.

    prepare() writes the inputs for a seed into a work directory; calls(j)
    gives the argument lists of invocation j, each run from that
    directory with outputs under out/; check() raises CheckError on a
    wrong output.
    """

    name = ""
    why = ""
    # Standard error the time-to-accuracy projection aims at; None for
    # the exact engines.
    se_target = None

    def prepare(self, workdir: Path, seed: int) -> None:
        self.seed = seed

    def calls(self, j: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, outdir: Path, j: int) -> None:
        raise NotImplementedError

    @property
    def stages(self) -> int:
        """Account stages one invocation evaluates."""
        raise NotImplementedError

    def std_error(self, outdir: Path):
        """Largest standard error in the output, for Monte Carlo workloads."""
        return None


class _MonteCarlo(Workload):
    def std_error(self, outdir: Path) -> float:
        return max(r["std_error"] for r in strict_json(outdir / "simulate.json")["results"])

    def _rows(self, outdir: Path, j: int, cells: list[float]) -> list[dict]:
        payload = strict_json(outdir / "simulate.json")
        rows = payload["results"]
        _expect([r["mu_star"] for r in rows] == cells, f"drift cells {[r['mu_star'] for r in rows]}")
        for r in rows:
            _expect(r["n_paths"] == self.paths, f"n_paths {r['n_paths']} != {self.paths}")
            _expect(r["std_error"] > 0.0, f"std_error {r['std_error']} at mu*={r['mu_star']}")
        if len(cells) == 1:
            _expect(rows[0]["seed"] == program_seed(self.seed, j), "seed not echoed")
        return rows


class McStatic(_MonteCarlo):
    name = "mc-static"
    why = ("jump-diffusion MC with a constant schedule: time goes to RNG substreams, "
           "draws and account math, the weights layer runs once")
    se_target = 2e-4
    mu_star = 0.3
    w = 0.8

    def __init__(self, paths: int = 20_000):
        self.paths = paths

    def calls(self, j: int) -> list[list[str]]:
        return [[
            "simulate", "--mu-star", repr(self.mu_star), "--paths", str(self.paths),
            "--w", f"constant:{self.w}", "--threads", "1",
            "--seed", str(program_seed(self.seed, j)), *_model_args(), "--outdir", "out",
        ]]

    @property
    def stages(self) -> int:
        return self.paths * int(MODEL["--n"])

    def exact_mean(self) -> float:
        """E[gain] from the exact per-period mean exp(mu* dt - lam dt delta) - 1."""
        dt = float(MODEL["--dt"])
        lam, delta = float(MODEL["--lambda"]), float(MODEL["--delta"])
        mu = math.exp(self.mu_star * dt - lam * dt * delta) - 1.0
        n = int(MODEL["--n"])
        return 0.5 * (1.0 + self.w * mu) ** n + 0.5 * (1.0 - self.w * mu) ** n - 1.0

    def check(self, outdir: Path, j: int) -> None:
        (row,) = self._rows(outdir, j, [self.mu_star])
        exact = self.exact_mean()
        z = abs(row["mean_gain"] - exact) / row["std_error"]
        _expect(z <= Z_MAX, f"mean {row['mean_gain']} is {z:.1f} std errors from {exact}")


class McMa(_MonteCarlo):
    name = "mc-ma"
    why = ("the same MC engine with a price-driven ma:20 schedule: the weights layer "
           "takes most of the time")
    se_target = 1e-3
    grid = [-0.5, 0.0, 0.5]
    reference_file = HERE / "reference_mc_ma.json"

    def __init__(self, paths: int = 300):
        self.paths = paths

    def calls(self, j: int) -> list[list[str]]:
        return [[
            "simulate", "--grid", ",".join(repr(m) for m in self.grid),
            "--paths", str(self.paths), "--w", "ma:20", "--threads", "1",
            "--seed", str(program_seed(self.seed, j)), *_model_args(), "--outdir", "out",
        ]]

    @property
    def stages(self) -> int:
        return len(self.grid) * self.paths * int(MODEL["--n"])

    def check(self, outdir: Path, j: int) -> None:
        reference = json.loads(self.reference_file.read_text())
        _expect(reference["model"] == MODEL, "reference made under another model")
        ref_rows = {r["mu_star"]: r for r in reference["results"]}
        for row in self._rows(outdir, j, self.grid):
            ref = ref_rows[row["mu_star"]]
            se = math.hypot(row["std_error"], ref["std_error"])
            z = abs(row["mean_gain"] - ref["mean_gain"]) / se
            _expect(z <= Z_MAX, f"mu*={row['mu_star']}: mean {row['mean_gain']} is "
                                f"{z:.1f} combined std errors from {ref['mean_gain']}")


def ma_indicator(prices: np.ndarray, d: int, w: float) -> np.ndarray:
    """Weight over return i: w when prices[i] > mean(prices[i-d+1..i]), else 0."""
    n = prices.size - 1
    out = np.zeros(n)
    means = np.lib.stride_tricks.sliding_window_view(prices[:n], d).mean(axis=1)
    out[d - 1:] = np.where(prices[d - 1:n] > means, w, 0.0)
    return out


class BacktestLong(Workload):
    name = "backtest-long"
    why = ("one long price series: CSV ingest, ma: evaluation, evolve and large curve "
           "writes; the only workload that runs the backtest and policy layers")
    specs = {"ma:20": (20, 0.8), "constant:0.5": (None, 0.5)}

    def __init__(self, rows: int = 100_000):
        self.rows = rows

    def prepare(self, workdir: Path, seed: int) -> None:
        super().prepare(workdir, seed)
        rng = np.random.default_rng([seed, 3])
        log_returns = rng.normal(0.0, 0.01, self.rows - 1)
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(log_returns)]))
        lines = ["timestamp,price"]
        lines += [f"{1_600_000_000 + 86_400 * i},{p!r}" for i, p in enumerate(prices.tolist())]
        (workdir / "prices.csv").write_text("\n".join(lines) + "\n")
        x = prices[1:] / prices[:-1] - 1.0
        self.expected = {"buy_and_hold": (prices[-1] / prices[0] - 1.0, prices[-1] / prices[0])}
        for name, (d, w) in self.specs.items():
            weights = np.full(x.size, w) if d is None else ma_indicator(prices, d, w)
            value = 0.5 * np.prod(1.0 + weights * x) + 0.5 * np.prod(1.0 - weights * x)
            self.expected[name] = (value - 1.0, value)

    def calls(self, j: int) -> list[list[str]]:
        specs = [token for name in self.specs for token in ("--w", name)]
        return [["backtest", "--csv", "prices.csv", *specs, "--with-buy-hold", "--curves",
                 "--alpha", "0.5", "--v0", "1.0", "--outdir", "out"]]

    @property
    def stages(self) -> int:
        return (self.rows - 1) * (len(self.specs) + 1)  # with buy-and-hold

    def check(self, outdir: Path, j: int) -> None:
        reports = strict_json(outdir / "backtest.json")["reports"]
        _expect(sorted(reports) == sorted(self.expected), f"strategies {sorted(reports)}")
        curves = {}
        for position in range(1, len(self.expected) + 1):
            curve = (outdir / f"curve_{position}.csv").read_bytes()
            spec = curve.split(b"\n", 2)[1].decode().removeprefix("# spec: ")
            curves[spec] = curve
        _expect(sorted(curves) == sorted(self.expected), f"curves of {sorted(curves)}")
        for name, (gain, value) in self.expected.items():
            got = reports[name]["gain_loss"]
            _expect(reports[name]["n_periods"] == self.rows - 1, f"{name}: n_periods")
            _expect(abs(got - gain) <= BACKTEST_RTOL * value,
                    f"{name}: gain {got} differs from the recomputed {gain}")
            curve = curves[name]
            _expect(curve.count(b"\n") == self.rows + 3, f"curve of {name}: row count")
            last = curve.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")
            _expect(float(last[1]) == got, f"curve of {name} ends off the reported gain")


class ClosedForm(Workload):
    name = "closed-form"
    why = ("analyze and verify-rpe on a grid of daily-size drifts: the only workload "
           "that exercises the analytics layer")
    sigma2 = 0.0004

    def __init__(self, n_mu: int = 80, horizons: int = 100, k_step: int = 50):
        self.n_mu = n_mu
        self.horizons = [k_step * i for i in range(1, horizons + 1)]
        self.k_max = self.horizons[-1]

    def prepare(self, workdir: Path, seed: int) -> None:
        super().prepare(workdir, seed)
        rng = np.random.default_rng([seed, 4])
        size = rng.uniform(0.001, 0.05, self.n_mu)
        self.mus = (size * rng.choice([-1.0, 1.0], self.n_mu)).tolist()
        self.expected = [self._reference(mu) for mu in self.mus]

    def calls(self, j: int) -> list[list[str]]:
        mus = ",".join(repr(m) for m in self.mus)
        common = ["--w", "log_ramp", "--alpha", "0.5", "--v0", "1.0", "--outdir", "out"]
        return [
            ["analyze", "--mu", mus, "--k", ",".join(map(str, self.horizons)),
             "--sigma2", repr(self.sigma2), *common],
            ["verify-rpe", "--mu-grid", mus, "--k-max", str(self.k_max), *common],
        ]

    @property
    def stages(self) -> int:
        return self.n_mu * (sum(self.horizons) + self.k_max)

    def _reference(self, mu: float):
        """Mean and variance at horizons 1..k_max from the product formulas,
        each with its tolerance."""
        k = np.arange(1, self.k_max + 1, dtype=float)
        w = np.log1p((k / self.k_max) * (math.e - 1.0))
        ws2 = w * w * self.sigma2
        up, down = np.cumprod(1.0 + w * mu), np.cumprod(1.0 - w * mu)
        mean_terms = np.stack([0.5 * up, 0.5 * down, np.full_like(up, -1.0)])
        var_terms = np.stack([
            0.25 * np.cumprod(ws2 + (1.0 + w * mu) ** 2),
            0.25 * np.cumprod(ws2 + (1.0 - w * mu) ** 2),
            0.5 * np.cumprod(1.0 - w * w * (self.sigma2 + mu * mu)),
            -0.5 * np.cumprod(1.0 - (w * mu) ** 2),
            -0.25 * up * up,
            -0.25 * down * down,
        ])
        return tuple(
            (terms.sum(axis=0), CLOSED_FORM_RTOL * np.abs(terms).sum(axis=0))
            for terms in (mean_terms, var_terms)
        )

    def check(self, outdir: Path, j: int) -> None:
        cells = strict_json(outdir / "analyze.json")["results"]
        _expect(len(cells) == self.n_mu * len(self.horizons), f"{len(cells)} analyze cells")
        rpe = strict_json(outdir / "rpe.json")
        _expect(rpe["certifiable"] and rpe["certified"], f"not certified: {rpe['reason']}")
        _expect(rpe["mu_grid"] == self.mus and rpe["k_range"] == [2, self.k_max], "rpe grid")
        entries = np.array(rpe["entries"], dtype=float)
        _expect(entries.shape == (self.n_mu, self.k_max - 1), f"rpe entries {entries.shape}")
        _expect(rpe["min_gain"] == float(entries.min()), "rpe min_gain is not the grid minimum")
        cell = iter(cells)
        for row, mu in enumerate(self.mus):
            (mean, mean_tol), (variance, var_tol) = self.expected[row]
            _expect(bool(np.all(np.abs(entries[row] - mean[1:]) <= mean_tol[1:])),
                    f"rpe entries off the product formula at mu={mu}")
            for k in self.horizons:
                c = next(cell)
                i = k - 1
                _expect(c["mu"] == mu and c["k"] == k, f"analyze cell order at mu={mu}, k={k}")
                _expect(abs(c["mean"] - mean[i]) <= mean_tol[i],
                        f"mean {c['mean']} off the product formula at mu={mu}, k={k}")
                _expect(c["variance"] >= VARIANCE_FLOOR, f"variance {c['variance']} < -1e-12")
                _expect(abs(c["variance"] - variance[i]) <= var_tol[i],
                        f"variance {c['variance']} off the product formula at mu={mu}, k={k}")


WORKLOADS = {w.name: w for w in (McStatic, McMa, BacktestLong, ClosedForm)}
