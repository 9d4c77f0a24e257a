"""Command line over the analytics, simulation and backtest engines.

Subcommands: analyze, simulate, backtest, verify-rpe, weights.

Exit codes: 0 success (for verify-rpe: certificate granted), 1 usage or
runtime error, 2 certificate not grantable.  Configuration precedence
is flags over config-file values over built-in defaults, and every
output file embeds the effective configuration (plus the seed where one
exists).  Outputs are byte-deterministic for a fixed configuration:
JSON is written with sorted keys, CSVs carry a leading provenance
comment, nothing is timestamped, and results do not depend on
--threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .analytics import ReturnMoments, expected_gain_loss, rpe_scan, variance_gain_loss
from .backtest import batch_backtest, ingest_csv
from .policy import MarketBounds, PolicyConfig, derive_w_max
from .simulate import (
    GbmJumpParams,
    dump_paths_csv,
    monte_carlo_gain_loss,
    sweep_mu_star,
)
from .tables import write_table
from .weights import dump_weight_table, eval_schedule, parse_weight_spec

__all__ = ["main", "build_parser"]

OUTDIR_ENV = "DOUBLELINEAR_OUTDIR"

# mu values used by verify-rpe when no grid is given.
DEFAULT_RPE_MU_GRID = (
    -0.9, -0.5, -0.3, -0.1, -0.05, -0.01, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this surface reserves 2
    # for "not certifiable", so parse errors become exceptions that
    # main() maps to exit 1.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # tokens like "-0.1,0.0,0.1" (comma lists starting with a minus)
        # must read as values, not unknown flags
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise _UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--outdir", help=f"output directory (default: ${OUTDIR_ENV} or '.')")


def _add_market(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="long fraction in [0, 1]")
    p.add_argument("--v0", type=float, help="initial account value")
    p.add_argument("--x-min", type=float, help="per-period return lower bound, in (-1, 0)")
    p.add_argument("--x-max", type=float, help="per-period return upper bound, > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doublelinear",
        description="Double linear long-short policy: closed forms, simulation, backtests.",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="command")
    sub.required = True

    p = sub.add_parser("analyze", help="closed-form mean/variance over a (mu, k) grid")
    _add_common(p)
    _add_market(p)
    p.add_argument("--w", help="weight spec (constant:<w> | log_ramp | sin_burst | edge_sin | table:<path>)")
    p.add_argument("--mu", help="per-period mean return, single value or comma list")
    p.add_argument("--k", help="horizon, single value or comma list")
    p.add_argument("--sigma2", type=float, help="per-period return variance (enables the variance column)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo gain-loss under the jump-diffusion model")
    _add_common(p)
    _add_market(p)
    p.add_argument("--w", help="weight spec")
    p.add_argument("--rf", type=float, help="riskless per-period rate (default 0)")
    p.add_argument("--mu-star", type=float, help="annualized drift; omit to sweep a grid")
    p.add_argument("--grid", help="comma list of mu_star values for the sweep")
    p.add_argument("--sigma-star", type=float, help="annualized volatility")
    p.add_argument("--lambda", dest="lam", type=float, help="jump intensity per year")
    p.add_argument("--delta", type=float, help="downward jump fraction in [0, 1)")
    p.add_argument("--dt", type=float, help="period length in years")
    p.add_argument("--n", type=int, help="periods per path")
    p.add_argument("--s0", type=float, help="initial price")
    p.add_argument("--paths", type=int, help="Monte Carlo paths")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--threads", type=int, help="worker cap (results do not depend on it)")
    p.add_argument("--clip", action="store_true", default=None,
                   help="clip simulated returns into the market bounds before trading")
    p.add_argument("--dump-paths", type=int,
                   help="also write the first N price paths (single-run mode only)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("backtest", help="run the policy over a timestamp,price CSV")
    _add_common(p)
    _add_market(p)
    p.add_argument("--csv", help="input price CSV (header: timestamp,price)")
    p.add_argument("--w", action="append",
                   help="weight spec; repeat for a batch table (ma:<d>[:<w>] allowed here)")
    p.add_argument("--rf", type=float, help="riskless per-period rate (default 0)")
    p.add_argument("--bounds-from-data", action="store_true", default=None,
                   help="widen market bounds to cover the observed returns")
    p.add_argument("--with-buy-hold", action="store_true", default=None,
                   help="add the alpha=1, w=1 buy-and-hold column")
    p.add_argument("--curves", action="store_true", default=None,
                   help="also write one stage,gain curve CSV per spec")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("verify-rpe", help="certify positive expected gain-loss over a grid")
    _add_common(p)
    _add_market(p)
    p.add_argument("--w", help="weight spec (stage-indexed)")
    p.add_argument("--k-max", type=int, help="certify horizons 2..k_max")
    p.add_argument("--mu-grid", help="comma list of nonzero mu values")
    p.set_defaults(func=cmd_verify_rpe)

    p = sub.add_parser("weights", help="evaluate a schedule to a stage,weight CSV")
    _add_common(p)
    p.add_argument("--w", help="weight spec")
    p.add_argument("--n", type=int, help="number of stages")
    p.add_argument("--w-max", type=float, help="admissible cap in (0, 1]")
    p.add_argument("--out", help="output file name")
    p.set_defaults(func=cmd_weights)

    return parser


# ---------------------------------------------------------------- plumbing


def _merge(args, defaults: dict) -> dict:
    """Effective config: defaults, overlaid by config file, overlaid by flags."""
    effective = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _UsageError(f"bad JSON in config file {cfg_path}: {exc}")
        if not isinstance(loaded, dict):
            raise _UsageError(f"config file {cfg_path} must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise _UsageError(f"unknown config key(s) in {cfg_path}: {', '.join(unknown)}")
        effective.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    return effective


def _float_list(value, what: str) -> list[float]:
    try:
        if isinstance(value, str):
            return [float(tok) for tok in value.split(",") if tok.strip()]
        if isinstance(value, (int, float)):
            return [float(value)]
        return [float(v) for v in value]
    except (TypeError, ValueError):
        raise _UsageError(f"{what} must be a number or comma list, got {value!r}") from None


def _int_list(value, what: str) -> list[int]:
    try:
        if isinstance(value, str):
            return [int(tok) for tok in value.split(",") if tok.strip()]
        if isinstance(value, int):
            return [value]
        return [int(v) for v in value]
    except (TypeError, ValueError):
        raise _UsageError(f"{what} must be an integer or comma list, got {value!r}") from None


def _outdir(args) -> Path:
    out = getattr(args, "outdir", None) or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _leaf(obj) -> str:
    """JSON text of a scalar or an empty container, as the json module writes it."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return "[]"
    if isinstance(obj, dict):
        return "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode(obj, indent: str, out: list[str]) -> None:
    """Append the pieces of ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` to out; their concatenation is that text exactly.

    With an indent the json module always runs its pure-Python encoder,
    one generator step per token.  Here a list of plain floats, the bulk
    of every large output, is one piece: one finiteness check, then its
    float.__repr__ values joined (a list holding nan or inf takes the
    item-by-item path, which raises the json module's error).  Pieces are
    appended, never nested into larger strings, so a caller can write
    them without holding the text twice.  Dict keys must be str.
    """
    if isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            out.append("[" + inner + ("," + inner).join(map(float.__repr__, obj)) + indent + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _encode(value, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        out.append(_leaf(obj))


def _write_json(path: Path, payload: dict) -> list[str]:
    """Write payload as strict, indented, key-sorted JSON and return its pieces.

    It is serialized before the file is opened, so a result strict JSON
    cannot hold (nan, inf) leaves no file.
    """
    pieces: list[str] = []
    try:
        _encode(payload, "\n", pieces)
    except ValueError as exc:
        raise ValueError(f"{path.name} not written, a result is inf or nan: {exc}") from None
    pieces.append("\n")
    with open(path, "w") as fh:
        fh.writelines(pieces)
    return pieces


def _require_finite(name: str, quantities, ks, tables) -> None:
    """Raise naming the first inf or nan cell in output order; tables yields
    (mu, values) with values[j, q] = quantities[q] at horizon ks[j]."""
    for mu, values in tables:
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            j, q = bad[0]
            raise ValueError(
                f"{name} not written, a result is inf or nan: the {quantities[q]} "
                f"at mu={mu}, k={ks[j]} is {values[j, q]}"
            )


def _provenance_comment(command: str, effective: dict) -> str:
    return "config: " + json.dumps({"command": command, **effective}, sort_keys=True)


def _policy(effective: dict) -> tuple[PolicyConfig, float]:
    bounds = MarketBounds(effective["x_min"], effective["x_max"])
    config = PolicyConfig(
        alpha=effective["alpha"],
        bounds=bounds,
        v0=effective["v0"],
        rf=effective.get("rf", 0.0),
    )
    return config, derive_w_max(bounds)


# ---------------------------------------------------------------- commands


DEF_ANALYZE = {
    "alpha": 0.5, "v0": 1.0, "w": "constant:0.8", "mu": "0.1", "k": "10",
    "sigma2": None, "x_min": -0.5, "x_max": 1.0,
}


def cmd_analyze(args) -> int:
    effective = _merge(args, DEF_ANALYZE)
    config, w_max = _policy(effective)
    spec = parse_weight_spec(str(effective["w"]), w_max=w_max)
    if spec.price_driven:
        raise _UsageError(
            "analyze evaluates stage-indexed schedules; "
            "price-driven specs belong to the backtest and simulate commands"
        )
    mus = _float_list(effective["mu"], "--mu")
    ks = _int_list(effective["k"], "--k")
    if not mus or not ks:
        raise _UsageError("--mu and --k must be nonempty")
    schedule = eval_schedule(spec, max(ks))
    sigma2 = effective["sigma2"]
    tables = []  # per mu: [k, (mean, variance if sigma2 is given)]
    with np.errstate(over="ignore"):  # overflowed cells are named below
        for mu in mus:
            variance = [] if sigma2 is None else [
                variance_gain_loss(config, schedule, ReturnMoments(mu, sigma2), ks)
            ]
            mean = expected_gain_loss(config, schedule, mu, ks)
            tables.append(np.column_stack([mean, *variance]))
    _require_finite("analyze.json", ("mean", "variance"), ks, zip(mus, tables))
    results = [
        {"mu": mu, "k": k, "mean": cell[0], "variance": cell[1] if sigma2 is not None else None}
        for mu, table in zip(mus, tables)
        for k, cell in zip(ks, table.tolist())
    ]
    payload = {"command": "analyze", "config": effective, "results": results}
    sys.stdout.writelines(_write_json(_outdir(args) / "analyze.json", payload))
    return 0


DEF_SIMULATE = {
    "alpha": 0.5, "v0": 1.0, "rf": 0.0, "w": "constant:0.8",
    "mu_star": None, "grid": None,
    "sigma_star": 0.3563, "lam": 0.2, "delta": 0.1,
    "dt": 1.0 / 252.0, "n": 252, "s0": 1.0,
    "paths": 10_000, "seed": 0, "threads": 1, "clip": False,
    "dump_paths": 0, "x_min": -0.5, "x_max": 1.0,
}


def cmd_simulate(args) -> int:
    effective = _merge(args, DEF_SIMULATE)
    config, w_max = _policy(effective)
    spec = parse_weight_spec(str(effective["w"]), w_max=w_max)
    base = GbmJumpParams(
        mu_star=0.0,
        sigma_star=effective["sigma_star"],
        lam=effective["lam"],
        delta=effective["delta"],
        dt=effective["dt"],
        n_periods=int(effective["n"]),
        s0=effective["s0"],
    )
    outdir = _outdir(args)
    seed = int(effective["seed"])
    single = effective["mu_star"] is not None

    if single:
        params = dataclasses.replace(base, mu_star=float(effective["mu_star"]))
        result = monte_carlo_gain_loss(
            config, spec, params, int(effective["paths"]), seed,
            workers=int(effective["threads"]), clip_returns=bool(effective["clip"]),
        )
        cells = [(params.mu_star, result)]
    else:
        if effective["dump_paths"]:
            raise _UsageError("--dump-paths needs a single --mu-star run, not a sweep")
        grid = _float_list(effective["grid"], "--grid") if effective["grid"] else None
        cells = sweep_mu_star(
            config, spec, base, grid, int(effective["paths"]), seed,
            workers=int(effective["threads"]), clip_returns=bool(effective["clip"]),
        )

    rows = [
        {
            "mu_star": mu_star,
            "mean_gain": r.mean_gain,
            "std_error": r.std_error,
            "sample_variance": r.sample_variance,
            "n_paths": r.n_paths,
            "seed": r.seed,
        }
        for mu_star, r in cells
    ]
    payload = {"command": "simulate", "config": effective, "results": rows}
    pieces = _write_json(outdir / "simulate.json", payload)

    if not single:
        lines = (f"{r['mu_star']},{r['mean_gain']},{r['std_error']}" for r in rows)
        comments = [_provenance_comment("simulate", effective)]
        write_table(outdir / "sweep.csv", comments, ("mu_star", "mean_gain", "std_error"), lines)

    if single and effective["dump_paths"]:
        dump_paths_csv(
            outdir / "paths.csv",
            params,
            seed,
            int(effective["dump_paths"]),
            comment=_provenance_comment("simulate", effective),
        )

    sys.stdout.writelines(pieces)
    return 0


DEF_BACKTEST = {
    "csv": None, "w": None, "alpha": 0.5, "v0": 1.0, "rf": 0.0,
    "x_min": -0.5, "x_max": 1.0,
    "bounds_from_data": False, "with_buy_hold": False, "curves": False,
}


def cmd_backtest(args) -> int:
    effective = _merge(args, DEF_BACKTEST)
    if not effective["csv"]:
        raise _UsageError("--csv is required")
    config, w_max = _policy(effective)
    texts = effective["w"] or ["constant:0.8"]
    if isinstance(texts, str):
        texts = [texts]
    effective["w"] = list(texts)
    specs = {text: parse_weight_spec(text, w_max=w_max) for text in texts}
    series = ingest_csv(effective["csv"])
    reports = batch_backtest(
        config, specs, series,
        include_buy_hold=bool(effective["with_buy_hold"]),
        bounds_from_data=bool(effective["bounds_from_data"]),
    )
    payload = {
        "command": "backtest",
        "config": effective,
        "symbol": series.symbol,
        "reports": {name: report.to_dict() for name, report in reports.items()},
    }
    outdir = _outdir(args)
    pieces = _write_json(outdir / "backtest.json", payload)

    comment = _provenance_comment("backtest", effective)
    summaries = list(payload["reports"].values())
    # one row per report field; json.dumps writes a finite float as its repr, a bool as true/false
    lines = (",".join([m, *(json.dumps(s[m]) for s in summaries)]) for m in summaries[0])
    write_table(outdir / "backtest.csv", [comment], ["metric", *reports], lines)

    if effective["curves"]:
        for position, (name, report) in enumerate(reports.items(), start=1):
            # curve rows are stages 0..n in order
            lines = (f"{stage},{gain!r}" for stage, gain in enumerate(report.curve[:, 1].tolist()))
            comments = [comment, f"spec: {name}"]
            write_table(outdir / f"curve_{position}.csv", comments, ("stage", "gain"), lines)

    sys.stdout.writelines(pieces)
    return 0


DEF_VERIFY = {
    "alpha": 0.5, "v0": 1.0, "w": "constant:0.5", "k_max": 20,
    "mu_grid": None, "x_min": -0.5, "x_max": 1.0,
}


def cmd_verify_rpe(args) -> int:
    effective = _merge(args, DEF_VERIFY)
    config, w_max = _policy(effective)
    spec = parse_weight_spec(str(effective["w"]), w_max=w_max)
    if spec.price_driven:
        raise _UsageError("verify-rpe evaluates stage-indexed schedules, not price-driven ones")
    k_max = int(effective["k_max"])
    grid = (
        _float_list(effective["mu_grid"], "--mu-grid")
        if effective["mu_grid"]
        else list(DEFAULT_RPE_MU_GRID)
    )
    schedule = eval_schedule(spec, k_max)
    report = rpe_scan(config, schedule, grid, k_max)
    _require_finite(
        "rpe.json", ("expected gain",), range(2, k_max + 1),
        zip(report.mu_grid, report.entries[:, :, None]),
    )
    payload = {
        "command": "verify-rpe",
        "config": effective,
        "certifiable": report.certifiable,
        "certified": report.certified,
        "reason": report.reason,
        "min_gain": report.min_gain,
        "argmin": list(report.argmin) if report.argmin else None,
        "mu_grid": list(report.mu_grid),
        "k_range": list(report.k_range),
        "entries": report.entries.tolist(),
    }
    _write_json(_outdir(args) / "rpe.json", payload)
    if not report.certifiable:
        print(f"not certifiable: {report.reason}")
        return 2
    mu, k = report.argmin
    if report.certified:
        print(f"certified: min gain {report.min_gain} at mu={mu}, k={k}")
        return 0
    print(f"positivity failed: min gain {report.min_gain} at mu={mu}, k={k}")
    return 1


DEF_WEIGHTS = {"w": "constant:0.8", "n": 252, "w_max": 1.0, "out": "weights.csv"}


def cmd_weights(args) -> int:
    effective = _merge(args, DEF_WEIGHTS)
    spec = parse_weight_spec(str(effective["w"]), w_max=float(effective["w_max"]))
    if spec.price_driven:
        raise _UsageError(
            "price-driven schedules need prices; run the backtest command with --csv "
            "or simulate them"
        )
    values = eval_schedule(spec, int(effective["n"]))
    out = Path(str(effective["out"]))
    path = out if out.is_absolute() else _outdir(args) / out
    path.parent.mkdir(parents=True, exist_ok=True)
    dump_weight_table(path, values, comment=_provenance_comment("weights", effective))
    print(str(path))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
