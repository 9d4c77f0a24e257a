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
import json
import math
import os
import re
import sys
import types
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .analytics import ReturnMoments, expected_gain_loss, rpe_scan, variance_gain_loss
from .backtest import batch_backtest, ingest_csv
from .policy import MarketBounds, PolicyConfig
from .simulate import (
    GbmJumpParams,
    dump_paths_csv,
    monte_carlo_gain_loss,
    sweep_mu_star,
)
from .tables import write_table
from .weights import WeightSpec, dump_weight_table, eval_schedule, parse_weight_spec

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


MARKET = {
    "alpha": (float, 0.5, "long fraction in [0, 1]"),
    "v0": (float, 1.0, "initial account value"),
    "x_min": (float, -0.5, "per-period return lower bound, in (-1, 0)"),
    "x_max": (float, 1.0, "per-period return upper bound, > 0"),
}

# Every option of every command, once: command -> (summary, {name: (type,
# default, help)}).  The flag is --name with - for _ (lam is --lambda), a
# config-file key is the name, and its value must have the type: a float
# takes any JSON number, a list[...] takes a string (comma-split by the
# command), one item or a JSON list of items, and an option whose default
# is None also takes null.  A list[str] flag is repeated instead.
COMMANDS = {
    "analyze": ("closed-form mean/variance over a (mu, k) grid", {
        **MARKET,
        "w": (str, "constant:0.8",
              "weight spec (constant:<w> | log_ramp | sin_burst | edge_sin | table:<path>)"),
        "mu": (list[float], "0.1", "per-period mean return, single value or comma list"),
        "k": (list[int], "10", "horizon, single value or comma list"),
        "sigma2": (float, None, "per-period return variance (enables the variance column)"),
    }),
    "simulate": ("Monte Carlo gain-loss under the jump-diffusion model", {
        **MARKET,
        "w": (str, "constant:0.8", "weight spec"),
        "rf": (float, 0.0, "riskless per-period rate (default 0)"),
        "mu_star": (float, None, "annualized drift; omit to sweep a grid"),
        "grid": (list[float], None, "comma list of mu_star values for the sweep"),
        "sigma_star": (float, 0.3563, "annualized volatility"),
        "lam": (float, 0.2, "jump intensity per year"),
        "delta": (float, 0.1, "downward jump fraction in [0, 1)"),
        "dt": (float, 1.0 / 252.0, "period length in years"),
        "n": (int, 252, "periods per path"),
        "s0": (float, 1.0, "initial price"),
        "paths": (int, 10_000, "Monte Carlo paths"),
        "seed": (int, 0, "base seed"),
        "threads": (int, 1, "worker cap (results do not depend on it)"),
        "clip": (bool, False, "clip simulated returns into the market bounds before trading"),
        "dump_paths": (int, 0, "also write the first N price paths (single-run mode only)"),
    }),
    "backtest": ("run the policy over a timestamp,price CSV", {
        **MARKET,
        "csv": (str, None, "input price CSV (header: timestamp,price)"),
        "w": (list[str], None,
              "weight spec; repeat for a batch table (ma:<d>[:<w>] allowed here)"),
        "rf": (float, 0.0, "riskless per-period rate (default 0)"),
        "bounds_from_data": (bool, False, "widen market bounds to cover the observed returns"),
        "with_buy_hold": (bool, False, "add the alpha=1, w=1 buy-and-hold column"),
        "curves": (bool, False, "also write one stage,gain curve CSV per spec"),
    }),
    "verify-rpe": ("certify positive expected gain-loss over a grid", {
        **MARKET,
        "w": (str, "constant:0.5", "weight spec (stage-indexed)"),
        "k_max": (int, 20, "certify horizons 2..k_max"),
        "mu_grid": (list[float], None, "comma list of nonzero mu values"),
    }),
    "weights": ("evaluate a schedule to a stage,weight CSV", {
        "w": (str, "constant:0.8", "weight spec"),
        "n": (int, 252, "number of stages"),
        "w_max": (float, 1.0, "admissible cap in (0, 1]"),
        "out": (str, "weights.csv", "output file name"),
    }),
}

# What a config-file value of each type must be.
_EXPECTED = {
    float: "a number", int: "an integer", bool: "true or false", str: "a string",
    list[float]: "a number, a list of numbers or a comma-list string",
    list[int]: "an integer, a list of integers or a comma-list string",
    list[str]: "a string or a list of strings",
}


def _defaults(command: str) -> dict:
    return {name: default for name, (_, default, _) in COMMANDS[command][1].items()}


DEF_WEIGHTS = _defaults("weights")


def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doublelinear",
        description="Double linear long-short policy: closed forms, simulation, backtests.",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="command")
    sub.required = True
    for command, (summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--outdir", help=f"output directory (default: ${OUTDIR_ENV} or '.')")
        for name, (kind, _, text) in options.items():
            if kind is bool:
                p.add_argument(_flag(name), dest=name, action="store_true", default=None, help=text)
            elif kind == list[str]:
                p.add_argument(_flag(name), dest=name, action="append", help=text)
            else:
                numeric = kind if kind in (float, int) else None
                p.add_argument(_flag(name), dest=name, type=numeric, help=text)
    return parser


# ---------------------------------------------------------------- plumbing


def _json_typed(value, kind):
    """value, as a config file gives it, held to kind; TypeError if it has another
    type, OverflowError for an integer past the float range given for a float."""
    if isinstance(kind, types.GenericAlias):  # list[item]
        if type(value) is str:
            return value
        item = kind.__args__[0]
        if type(value) is list:
            return [_json_typed(v, item) for v in value]
        return _json_typed(value, item)
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise TypeError
    return value


def _merge(args) -> dict:
    """Effective config: defaults, overlaid by config file, overlaid by flags.

    A config-file value must have the type its flag parses (see COMMANDS).
    """
    options = COMMANDS[args.cmd][1]
    effective = _defaults(args.cmd)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _UsageError(f"bad JSON in config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise _UsageError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise _UsageError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
        for key, value in loaded.items():
            kind, default, _ = options[key]
            try:
                effective[key] = (
                    value if value is None and default is None else _json_typed(value, kind)
                )
            except (TypeError, OverflowError):
                raise _UsageError(
                    f"config key {key} in {args.config} must be {_EXPECTED[kind]}, got {value!r}"
                ) from None
    for key in options:
        value = getattr(args, key)
        if value is not None:
            effective[key] = value
    return effective


def _items(effective: dict, name: str, kind):
    """A comma-list option as a list of kind (a string is split at commas), or None."""
    value = effective[name]
    if type(value) is not str:
        return value if value is None or type(value) is list else [value]
    try:
        return [kind(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(
            f"{_flag(name)} takes a comma list of {kind.__name__}s, got {value!r}"
        ) from None


def _outdir(args) -> Path:
    out = args.outdir or os.environ.get(OUTDIR_ENV) or "."
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


def _policy(effective: dict) -> PolicyConfig:
    return PolicyConfig(
        alpha=effective["alpha"],
        bounds=MarketBounds(effective["x_min"], effective["x_max"]),
        v0=effective["v0"],
        rf=effective.get("rf", 0.0),
    )


def _stage_indexed(command: str, text: str, w_max: float) -> WeightSpec:
    """The weight spec text, refused when price-driven: command has no prices."""
    spec = parse_weight_spec(text, w_max=w_max)
    if spec.price_driven:
        raise _UsageError(
            f"{command} evaluates stage-indexed schedules; "
            "price-driven specs belong to the backtest and simulate commands"
        )
    return spec


# ---------------------------------------------------------------- commands


def cmd_analyze(args, effective: dict) -> int:
    config = _policy(effective)
    spec = _stage_indexed("analyze", effective["w"], config.w_max)
    mus = _items(effective, "mu", float)
    ks = _items(effective, "k", int)
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


def cmd_simulate(args, effective: dict) -> int:
    config = _policy(effective)
    spec = parse_weight_spec(effective["w"], w_max=config.w_max)
    single = effective["mu_star"] is not None
    params = GbmJumpParams(
        mu_star=effective["mu_star"] if single else 0.0,
        sigma_star=effective["sigma_star"],
        lam=effective["lam"],
        delta=effective["delta"],
        dt=effective["dt"],
        n_periods=effective["n"],
        s0=effective["s0"],
    )
    dump = effective["dump_paths"]
    if dump < 0:
        raise _UsageError(f"--dump-paths must be >= 0, got {dump}")
    if effective["seed"] < 0:
        raise _UsageError(f"--seed must be >= 0, got {effective['seed']}")
    if effective["threads"] < 1:
        raise _UsageError(f"--threads must be >= 1, got {effective['threads']}")
    if dump and not single:
        raise _UsageError("--dump-paths needs a single --mu-star run, not a sweep")
    grid = _items(effective, "grid", float)
    if grid is not None and single:
        raise _UsageError("--grid sweeps drifts; it cannot be combined with --mu-star")
    if grid == []:
        raise _UsageError("--grid must be nonempty")
    seed = effective["seed"]
    mc = {"workers": effective["threads"], "clip_returns": effective["clip"]}

    if single:
        result = monte_carlo_gain_loss(config, spec, params, effective["paths"], seed, **mc)
        cells = [(params.mu_star, result)]
    else:
        cells = sweep_mu_star(config, spec, params, grid, effective["paths"], seed, **mc)

    # The answer is the control-variate estimate; the plain sample
    # statistics ride along under sample_*.
    rows = [
        {
            "mu_star": mu_star,
            "mean_gain": r.cv_mean_gain,
            "std_error": r.cv_std_error,
            "sample_mean_gain": r.mean_gain,
            "sample_std_error": r.std_error,
            "sample_variance": r.sample_variance,
            "n_paths": r.n_paths,
            "seed": r.seed,
        }
        for mu_star, r in cells
    ]
    payload = {"command": "simulate", "config": effective, "results": rows}
    outdir = _outdir(args)
    pieces = _write_json(outdir / "simulate.json", payload)
    comments = [_provenance_comment("simulate", effective)]

    if not single:
        lines = (f"{r['mu_star']},{r['mean_gain']},{r['std_error']}" for r in rows)
        write_table(outdir / "sweep.csv", comments, ("mu_star", "mean_gain", "std_error"), lines)

    if dump:
        dump_paths_csv(outdir / "paths.csv", params, seed, dump, comment=comments[0])

    sys.stdout.writelines(pieces)
    return 0


def cmd_backtest(args, effective: dict) -> int:
    if not effective["csv"]:
        raise _UsageError("--csv is required")
    config = _policy(effective)
    texts = effective["w"] or ["constant:0.8"]
    effective["w"] = texts = [texts] if isinstance(texts, str) else texts
    repeated = [text for i, text in enumerate(texts) if text in texts[:i]]
    if repeated:
        raise _UsageError(f"--w {repeated[0]} is repeated; each spec is one report column")
    specs = {text: parse_weight_spec(text, w_max=config.w_max) for text in texts}
    series = ingest_csv(effective["csv"])
    reports = batch_backtest(
        config, specs, series,
        include_buy_hold=effective["with_buy_hold"],
        bounds_from_data=effective["bounds_from_data"],
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


def cmd_verify_rpe(args, effective: dict) -> int:
    config = _policy(effective)
    spec = _stage_indexed("verify-rpe", effective["w"], config.w_max)
    k_max = effective["k_max"]
    grid = _items(effective, "mu_grid", float)
    schedule = eval_schedule(spec, k_max)
    report = rpe_scan(config, schedule, DEFAULT_RPE_MU_GRID if grid is None else grid, k_max)
    _require_finite(
        "rpe.json", ("expected gain",), range(2, k_max + 1),
        zip(report.mu_grid, report.entries[:, :, None]),
    )
    payload = {
        "command": "verify-rpe", "config": effective, **vars(report),
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
    # At alpha = 1/2 every entry is v0*expm1 of a sum of log1p(x*tanh(h))
    # terms, x and h of mu's sign, so >= 0: a failed entry underflowed to 0.
    print(
        f"underflow: the expected gain at mu={mu}, k={k} underflows to {report.min_gain}, "
        "so float64 cannot show its sign"
    )
    return 1


def cmd_weights(args, effective: dict) -> int:
    spec = _stage_indexed("weights", effective["w"], effective["w_max"])
    values = eval_schedule(spec, effective["n"])
    out = Path(effective["out"])
    path = out if out.is_absolute() else _outdir(args) / out
    path.parent.mkdir(parents=True, exist_ok=True)
    dump_weight_table(path, values, comment=_provenance_comment("weights", effective))
    print(str(path))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()["cmd_" + args.cmd.replace("-", "_")](args, _merge(args))
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
