"""Command line over the analytics, simulation and backtest engines.

Subcommands: analyze, simulate, backtest, verify-rpe, weights.

Exit codes: 0 success (for verify-rpe: certificate granted), 1 usage or
runtime error, 2 certificate not grantable.  Configuration precedence
is flags over config-file values over built-in defaults, and every
output file embeds the effective configuration (plus the seed where one
exists).  Outputs are byte-deterministic for a fixed configuration:
JSON is written with sorted keys, CSVs carry a leading provenance
comment, nothing is timestamped, and the Monte Carlo engine runs one
thread per CPU in the process's affinity set, whatever --threads says;
no result depends on either.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .policy import MarketBounds, PolicyConfig, check_count
from .simulate import (
    DEFAULT_MU_STAR_GRID,
    GbmJumpParams,
    dump_paths_csv,
    monte_carlo_gain_loss,
)
from .tables import CSV_ROWS, format_rows, output, outputs, write_rows, write_series, write_text
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

# The model defaults, which the simulate options take.
_MODEL = {field.name: field.default for field in dataclasses.fields(GbmJumpParams)}

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
        "sigma_star": (float, _MODEL["sigma_star"], "annualized volatility"),
        "lam": (float, _MODEL["lam"], "jump intensity per year"),
        "delta": (float, _MODEL["delta"], "downward jump fraction in [0, 1)"),
        "dt": (float, _MODEL["dt"], "period length in years"),
        "n": (int, _MODEL["n_periods"], "periods per path"),
        "s0": (float, _MODEL["s0"], "initial price"),
        "paths": (int, 10_000, "Monte Carlo paths"),
        "seed": (int, 0, "base seed"),
        "threads": (int, 1, "no effect: the engine runs one thread per CPU it may run on, "
                            "and results never depend on it"),
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
            with open(args.config, encoding="utf-8-sig") as fh:
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
    """The output directory; the first file written into it creates it."""
    return Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")


def _encode(obj, indent: str, out: list) -> None:
    """Append the pieces of ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` to out; their concatenation is that text exactly.

    Dicts, which hold the bulk values, are walked.  A list of records (see
    _records) is one %-template per record, and a nonempty 2-d float64 array,
    its values checked finite here, is the piece (array, width, cell, sep,
    lead, end): the arguments of tables.write_rows that lay its rows out as
    the json module does.  The json module's pure-Python encoder, which an
    indent selects, is slower on both.  Any other value is
    the json module's text (an array's tolist()), its newlines turned into
    indent; json escapes every newline inside a string.  Pieces are
    appended, never nested into larger strings, so a caller can write them
    without holding the text twice.  Dict keys must be str.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif (records := _records(obj, inner)) is not None:
        out.append("[" + inner + ("," + inner).join(records) + indent + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64 and obj.size:
        bad = ~np.isfinite(obj)
        if bad.any():  # raises the json module's error
            json.dumps(float(obj.flat[np.argmax(bad)]), indent=2, allow_nan=False)
        opening, closing = inner + "[" + inner + "  ", inner + "]"  # around each row
        layout = (obj.shape[1], "," + inner + "  ", closing + "," + opening)  # width, cell, sep
        out.append((np.ascontiguousarray(obj), *layout, "[" + opening, closing + indent + "]"))
    else:
        value = obj.tolist() if isinstance(obj, np.ndarray) else obj
        text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        out.append(text.replace("\n", indent))


def _records(obj, indent: str):
    """The JSON texts of the records in obj, each at indent, when obj is a nonempty
    list or tuple of dicts with the same nonempty str keys whose values under each key
    are all finite plain floats or all plain ints (bools excluded); None for any other
    value."""
    if not isinstance(obj, (list, tuple)) or not obj:
        return None
    first = obj[0]
    if type(first) is not dict or not first or not all(type(key) is str for key in first):
        return None
    if not all(type(record) is dict and record.keys() == first.keys() for record in obj):
        return None
    keys = sorted(first)
    columns = [[record[key] for record in obj] for key in keys]
    for column in columns:  # the json module writes a plain int or a finite float as its repr
        kinds = set(map(type, column))
        if kinds != {int} and (kinds != {float} or not all(map(math.isfinite, column))):
            return None
    inner = indent + "  "
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %r" for key in keys
    ) + indent + "}"
    return [template % values for values in zip(*columns)]


def _write_json(path: Path, payload: dict) -> list:
    """Write payload as strict, indented, key-sorted JSON and return its pieces.

    It is serialized before the file or its directory is made, so a result
    strict JSON cannot hold (nan, inf) leaves neither; a 2-d float64 array
    stays a tuple piece, tables.write_rows's arguments, formatted into the
    file alone.  A file whose writing fails is removed: each JSON output
    is whole or absent.
    """
    pieces: list = []
    try:
        _encode(payload, "\n", pieces)
    except ValueError as exc:
        raise ValueError(f"{path.name} not written, a result is inf or nan: {exc}") from None
    pieces.append("\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    with output(path) as fh:
        for piece in pieces:
            if isinstance(piece, str):
                fh.write(piece)
            else:
                write_rows(fh, path, *piece)
    return pieces


def _require_finite(name: str, quantities, mus, ks, values) -> None:
    """Raise naming the first inf or nan cell in output order, where
    values[i, j, q] is quantities[q] at drift mus[i] and horizon ks[j]."""
    bad = ~np.isfinite(values)
    if bad.any():
        i, j, q = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"{name} not written, a result is inf or nan: the {quantities[q]} "
            f"at mu={mus[i]}, k={ks[j]} is {values[i, j, q]}"
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
    check_count("--k", min(ks))
    schedule = eval_schedule(spec, max(ks))
    sigma2 = effective["sigma2"]
    variance = [] if sigma2 is None else [
        variance_gain_loss(config, schedule, ReturnMoments(mus, sigma2), ks)
    ]
    table = np.stack([expected_gain_loss(config, schedule, mus, ks), *variance], axis=-1)
    _require_finite("analyze.json", ("mean", "variance"), mus, ks, table)  # [mu, k, quantity]
    results = [
        {"mu": mu, "k": k, "mean": cell[0], "variance": cell[1] if sigma2 is not None else None}
        for mu, rows in zip(mus, table.tolist())
        for k, cell in zip(ks, rows)
    ]
    payload = {"command": "analyze", "config": effective, "results": results}
    sys.stdout.writelines(_write_json(_outdir(args) / "analyze.json", payload))
    return 0


# The GbmJumpParams fields its error texts name, and the simulate flags that set them.
_MODEL_FLAGS = {
    **{name: _flag(name) for name in ("mu_star", "sigma_star", "lam", "delta", "dt", "s0")},
    "n_periods": "--n",
}
_MODEL_FIELD = re.compile(r"\b(" + "|".join(_MODEL_FLAGS) + r")\b")


def cmd_simulate(args, effective: dict) -> int:
    config = _policy(effective)
    spec = parse_weight_spec(effective["w"], w_max=config.w_max)
    single = effective["mu_star"] is not None
    check_count("--paths", effective["paths"])
    check_count("--n", effective["n"])
    grid = _items(effective, "grid", float)
    if grid is not None and single:
        raise _UsageError("--grid sweeps drifts; it cannot be combined with --mu-star")
    if grid == []:
        raise _UsageError("--grid must be nonempty")
    if single:
        drifts, flags = [effective["mu_star"]], _MODEL_FLAGS
    else:
        drifts = DEFAULT_MU_STAR_GRID if grid is None else grid
        flags = {**_MODEL_FLAGS, "mu_star": "--grid"}
    try:  # every cell's model is built, and so checked, before any path is drawn
        models = [
            GbmJumpParams(
                mu_star=mu_star,
                sigma_star=effective["sigma_star"],
                lam=effective["lam"],
                delta=effective["delta"],
                dt=effective["dt"],
                n_periods=effective["n"],
                s0=effective["s0"],
            )
            for mu_star in drifts
        ]
    except ValueError as exc:  # the model names its fields; name the flags that set them
        raise _UsageError(_MODEL_FIELD.sub(lambda m: flags[m[1]], str(exc))) from None
    dump = check_count("--dump-paths", effective["dump_paths"], 0)
    check_count("--seed", effective["seed"], 0)
    check_count("--threads", effective["threads"])  # checked and echoed, never used
    if dump and not single:
        raise _UsageError("--dump-paths needs a single --mu-star run, not a sweep")
    seed = effective["seed"]
    cells = [  # one seed rule: a sweep's cell is the --mu-star run at its drift
        (m.mu_star, monte_carlo_gain_loss(
            config, spec, m, effective["paths"], seed, clip_returns=effective["clip"]
        ))
        for m in models
    ]

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
    comments = [_provenance_comment("simulate", effective)]
    with outputs() as written:  # each CSV is whole or absent, and simulate.json goes with it
        pieces = _write_json(outdir / "simulate.json", payload)
        written.append(outdir / "simulate.json")
        if not single:
            header = ("mu_star", "mean_gain", "std_error")
            values = np.array([[r[name] for name in header] for r in rows])
            write_text(outdir / "sweep.csv", comments, header, format_rows(values, 3, *CSV_ROWS))
        if dump:
            dump_paths_csv(outdir / "paths.csv", models[0], seed, dump, comment=comments[0])
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
    comment = _provenance_comment("backtest", effective)
    summaries = list(payload["reports"].values())
    # one row per report field; json.dumps writes a finite float as its repr, a bool as true/false
    lines = (",".join([m, *(json.dumps(s[m]) for s in summaries)]) + "\n" for m in summaries[0])
    with outputs() as written:  # a failed write removes the files written before it
        pieces = _write_json(outdir / "backtest.json", payload)
        written.append(outdir / "backtest.json")
        write_text(outdir / "backtest.csv", [comment], ["metric", *reports], lines)
        written.append(outdir / "backtest.csv")
        if effective["curves"]:
            curves = (
                (outdir / f"curve_{position}.csv", [comment, f"spec: {name}"], ("stage", "gain"),
                 report.curve[:, 1])
                for position, (name, report) in enumerate(reports.items(), start=1)
            )
            write_series(curves, first=0)  # curve rows are stages 0..n in order

    sys.stdout.writelines(pieces)
    return 0


def cmd_verify_rpe(args, effective: dict) -> int:
    config = _policy(effective)
    spec = _stage_indexed("verify-rpe", effective["w"], config.w_max)
    k_max = check_count("--k-max", effective["k_max"], 2)
    grid = _items(effective, "mu_grid", float)
    schedule = eval_schedule(spec, k_max)
    report = rpe_scan(config, schedule, DEFAULT_RPE_MU_GRID if grid is None else grid, k_max)
    ks = range(2, k_max + 1)
    _require_finite("rpe.json", ("expected gain",), report.mu_grid, ks, report.entries[..., None])
    payload = {"command": "verify-rpe", "config": effective, **vars(report)}
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
    values = eval_schedule(spec, check_count("--n", effective["n"]))
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
