"""Weight schedules: named generators, a moving-average indicator, tables.

A schedule assigns one exposure weight to every trading stage.  The
named generators are pure functions of the stage index, evaluated on
the lattice k = 1..N with horizon parameter N (so the log ramp reaches
exactly 1 at the last stage and the oscillatory generators hit their
k = N/2 singular stage inside the lattice; pinned values below).  The
moving-average indicator instead reads prices causally.  Tabulated
schedules come from the user and are validated strictly.

Everything emitted by eval_schedule lies in [0, w_max].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .policy import validate_prices, validate_weights
from .tables import read_rows, write_table

__all__ = [
    "WeightSpec",
    "KINDS",
    "DEFAULT_MA_W",
    "eval_schedule",
    "ma_value",
    "ma_indicator_weight",
    "ma_indicator_weights",
    "clamp_admissible",
    "load_weight_table",
    "dump_weight_table",
    "parse_weight_spec",
]

KINDS = ("constant", "log_ramp", "sin_burst", "edge_sin", "ma_indicator", "table")

# Indicator multiplier used when a spec does not name one.
DEFAULT_MA_W = 0.8


@dataclass(frozen=True)
class WeightSpec:
    """Recipe for a weight schedule.

    kind: one of KINDS.  constant and ma_indicator need w; ma_indicator
    needs the window d; table needs the values themselves (validated
    against [0, w_max] at construction, strictly: out-of-range table
    values are an error, not a clamp).
    """

    kind: str
    w: Optional[float] = None
    d: Optional[int] = None
    values: Optional[tuple[float, ...]] = None
    w_max: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.w_max <= 1.0:
            raise ValueError(f"w_max must lie in (0, 1], got {self.w_max}")
        # w and values are validated whenever given, even by a kind that ignores them
        for given in (self.w, self.values):
            if given is not None:
                validate_weights(given, self.w_max)
        if self.kind in ("constant", "ma_indicator") and self.w is None:
            raise ValueError(f"{self.kind} spec needs a weight value w")
        if self.kind == "ma_indicator" and (self.d is None or self.d < 1):
            raise ValueError("ma_indicator spec needs a window d >= 1")
        if self.kind == "table" and not self.values:
            raise ValueError("table spec needs a nonempty value sequence")

    @property
    def price_driven(self) -> bool:
        return self.kind == "ma_indicator"


def eval_schedule(
    spec: WeightSpec, n: int, prices: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Evaluate a spec to n per-stage weights.

    Named generators use the stage lattice k = 1..n with N = n:

        constant   w
        log_ramp   log(1 + (k/N)(e - 1))            0 at k=0, exactly 1 at k=N
        sin_burst  (sin(1/((0.02/N)k - 0.01)) + 1)/2 pinned to 0.5 at k=N/2,
                                                     where the argument vanishes
        edge_sin   f(k) sin(1/f(k)) on f >= 0 lobes, f(k) = (4/N)k - 2;
                   0 where f*sin(1/f) < 0 and at the removable f=0 point

    The ma_indicator spec is price-driven: weight i is computed from
    prices[0..i] only (needs len(prices) >= n), covering returns 0..n-1
    causally; a (paths, n+1) price matrix gives one weight row per path.
    Named-generator output is clamped into [0, w_max] (with a warning
    when the clamp changed anything); table values are already validated
    and pass through.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spec.kind == "constant":
        return np.full(n, float(spec.w))
    if spec.kind == "table":
        if len(spec.values) < n:
            raise ValueError(f"table has {len(spec.values)} values, need {n}")
        return np.asarray(spec.values[:n], dtype=float)
    if spec.kind == "ma_indicator":
        if prices is None:
            raise ValueError("ma_indicator schedules are price-driven: prices required")
        return ma_indicator_weights(prices, n, spec.d, spec.w)

    k = np.arange(1, n + 1, dtype=float)
    if spec.kind == "log_ramp":
        raw = np.log1p((k / n) * (np.e - 1.0))
    elif spec.kind == "sin_burst":
        arg = (0.02 / n) * k - 0.01
        raw = np.empty(n)
        regular = arg != 0.0
        raw[regular] = 0.5 * (np.sin(1.0 / arg[regular]) + 1.0)
        raw[~regular] = 0.5  # envelope midpoint at the singular stage
    else:  # edge_sin
        f = (4.0 / n) * k - 2.0
        raw = np.zeros(n)
        regular = f != 0.0
        g = f[regular] * np.sin(1.0 / f[regular])
        raw[regular] = np.where(g >= 0.0, g, 0.0)

    clamped = clamp_admissible(raw, spec.w_max)
    if np.any(clamped != raw):
        warnings.warn(
            f"{spec.kind} schedule clamped into [0, {spec.w_max}]",
            RuntimeWarning,
            stacklevel=2,
        )
    return clamped


def ma_value(prices: Sequence[float], k: int, d: int) -> float:
    """Trailing d-period simple moving average at index k."""
    if d < 1:
        raise ValueError(f"window d must be >= 1, got {d}")
    p = validate_prices(prices)
    if k < d - 1:
        raise ValueError(f"insufficient history: k={k} < d-1={d - 1}")
    if not 0 <= k < p.size:
        raise ValueError(f"k={k} outside the price history of length {p.size}")
    return float(p[k - d + 1 : k + 1].mean())


def ma_indicator_weight(prices: Sequence[float], k: int, d: int, w: float) -> float:
    """w when prices[k] strictly exceeds its trailing d-average, else 0.

    Warm-up stages (k < d-1) get 0: no full window, no position.  Ties
    also give 0 (the comparison is strict).  The value uses nothing past index k.
    """
    validate_weights(w, 1.0)
    if d < 1:
        raise ValueError(f"window d must be >= 1, got {d}")
    p = validate_prices(prices)
    if k < d - 1:
        return 0.0
    return w if float(p[k]) > ma_value(p, k, d) else 0.0


def ma_indicator_weights(prices, n: int, d: int, w: float) -> np.ndarray:
    """ma_indicator_weight for stages 0..n-1 of a price series or of each
    row of a price matrix, in one pass over sliding d-windows.

    Bit-identical to the scalar oracle: each window mean is the same
    reduction ma_value makes, and the comparison is the same strict >.
    """
    validate_weights(w, 1.0)
    if d < 1:
        raise ValueError(f"window d must be >= 1, got {d}")
    p = validate_prices(prices)
    if p.shape[-1] < n:
        raise ValueError(f"need at least {n} prices, got {p.shape[-1]}")
    weights = np.zeros(p.shape[:-1] + (n,))
    if n >= d:
        ma = sliding_window_view(p[..., :n], d, axis=-1).mean(axis=-1)
        weights[..., d - 1 :] = np.where(p[..., d - 1 : n] > ma, float(w), 0.0)
    return weights


def clamp_admissible(values: Sequence[float], w_max: float) -> np.ndarray:
    """Map every finite value into [0, w_max].  Idempotent and order preserving;
    ValueError on NaN or an infinity, which have no admissible image."""
    if not 0.0 < w_max <= 1.0:
        raise ValueError(f"w_max must lie in (0, 1], got {w_max}")
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("cannot clamp a non-finite value")
    return np.clip(v, 0.0, w_max)


def dump_weight_table(path, values: Sequence[float], comment: Optional[str] = None) -> None:
    """Write a stage,weight CSV (stages numbered 1..n)."""
    lines = (f"{stage},{float(value)!r}" for stage, value in enumerate(values, start=1))
    write_table(path, [comment] if comment else [], ("stage", "weight"), lines)


def load_weight_table(path) -> np.ndarray:
    """Read a stage,weight table (see doublelinear.tables) into a weight
    vector; the stages must run 1..n in order."""
    weights = []
    try:
        for line, row in read_rows(path, ("stage", "weight")):
            try:
                stage, weight = int(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"row {line}: malformed data row {row[:2]!r}") from None
            if stage != len(weights) + 1:
                raise ValueError(f"row {line}: stage {stage}, expected {len(weights) + 1}")
            weights.append(weight)
    except ValueError as exc:
        raise ValueError(f"weight table {path}: {exc}") from None
    return np.array(weights)


def parse_weight_spec(text: str, w_max: float = 1.0) -> WeightSpec:
    """Parse the command-line mini-grammar.

        constant:<w> | log_ramp | sin_burst | edge_sin | ma:<d>[:<w>] | table:<path>

    ma without an explicit multiplier uses DEFAULT_MA_W.
    """
    grammar = "constant:<w> | log_ramp | sin_burst | edge_sin | ma:<d>[:<w>] | table:<path>"
    parts = text.strip().split(":")
    kind, args = parts[0], parts[1:]

    def number(token, cast):
        try:
            return cast(token)
        except ValueError:
            raise ValueError(f"bad weight spec {text!r}: {token!r} is not a number") from None

    if kind == "constant" and len(args) == 1:
        return WeightSpec("constant", w=number(args[0], float), w_max=w_max)
    if kind in ("log_ramp", "sin_burst", "edge_sin") and not args:
        return WeightSpec(kind, w_max=w_max)
    if kind == "ma" and len(args) in (1, 2):
        w = number(args[1], float) if len(args) == 2 else DEFAULT_MA_W
        return WeightSpec("ma_indicator", w=w, d=number(args[0], int), w_max=w_max)
    if kind == "table" and args:
        path = Path(":".join(args))  # tolerate ':' inside paths
        values = tuple(load_weight_table(path).tolist())
        return WeightSpec("table", values=values, w_max=w_max)
    raise ValueError(f"bad weight spec {text!r}: expected {grammar}")
