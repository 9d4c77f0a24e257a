"""Backtests: run the policy over ingested price history and report metrics.

Reporting conventions, fixed here on purpose and surfaced in the docs:

* "variance" is the sample variance (ddof=1) of the per-period account
  returns r(k) = V(k+1)/V(k) - 1, not of the price returns;
* "sharpe" is mean(r)/sd(r) with a zero riskless rate, sample standard
  deviation, not annualized;
* a zero standard deviation makes the ratio degenerate: it is reported
  as 0.0 with degenerate_sharpe set, so batch runs never abort on a
  flat series.

Weights are evaluated causally: the weight holding over return X(k)
is computed from information up to and including S(k).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import PurePath
from typing import Optional, Sequence

import numpy as np

from .policy import MarketBounds, PolicyConfig, evolve, validate_prices
from .simulate import prices_to_returns
from .tables import read_rows
from .weights import WeightSpec, eval_schedule

__all__ = [
    "PriceSeries",
    "BacktestReport",
    "ingest_csv",
    "run_backtest",
    "buy_and_hold_report",
    "batch_backtest",
    "sharpe_ratio",
]

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class PriceSeries:
    """Validated price history: positive finite prices at strictly increasing times."""

    timestamps: np.ndarray
    prices: np.ndarray
    symbol: str = ""

    def __post_init__(self):
        try:
            ts = np.asarray(self.timestamps, dtype=np.int64)
        except OverflowError:
            raise ValueError("timestamps must fit in int64") from None
        px = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)
        if ts.ndim != 1 or px.ndim != 1 or ts.size != px.size:
            raise ValueError("timestamps and prices must be equally long 1-d sequences")
        if ts.size == 0:
            raise ValueError("empty series")
        validate_prices(px)
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("nonmonotone timestamps")

    def __len__(self) -> int:
        return int(self.prices.size)


@dataclass(frozen=True)
class BacktestReport:
    """Metrics of one policy run over one series."""

    gain_loss: float
    variance: float
    sharpe: float
    degenerate_sharpe: bool
    n_periods: int
    curve: np.ndarray  # shape (n_periods+1, 2): stage, cumulative gain
    weights_used: np.ndarray

    def to_dict(self) -> dict:
        """JSON-shaped summary, one backtest.csv row per key; the curve has its own CSV."""
        return {
            "gain_loss": self.gain_loss,
            "variance": self.variance,
            "sharpe": self.sharpe,
            "degenerate_sharpe": self.degenerate_sharpe,
            "n_periods": self.n_periods,
        }


def ingest_csv(source, symbol: Optional[str] = None) -> PriceSeries:
    """Parse a `timestamp,price` CSV into a validated PriceSeries.

    timestamp is an integer (epoch seconds or a plain ordinal), price a
    positive finite decimal.  source is a path or an open text file in
    the table format of doublelinear.tables ('#' and blank lines are
    skipped).  Bad rows are rejected with their 1-based line number,
    among them a timestamp outside int64 or not above the one before.
    """
    name = getattr(source, "name", "") if hasattr(source, "read") else str(source)
    timestamps: list[int] = []
    prices: list[float] = []
    last = _INT64_MIN - 1
    for rownum, row in read_rows(source, ("timestamp", "price")):
        try:
            ts = int(row[0])
            price = float(row[1])
        except ValueError:
            raise ValueError(f"row {rownum}: could not parse {row[:2]!r}") from None
        if not math.isfinite(price):
            raise ValueError(f"row {rownum}: non-finite price {price}")
        if price <= 0.0:
            raise ValueError(f"row {rownum}: nonpositive price {price}")
        if not last < ts <= _INT64_MAX:
            fault = "does not increase" if _INT64_MIN <= ts <= _INT64_MAX else "is outside int64"
            raise ValueError(f"row {rownum}: timestamp {ts} {fault}")
        last = ts
        timestamps.append(ts)
        prices.append(price)
    label = symbol if symbol is not None else PurePath(name).stem  # "" without a name
    return PriceSeries(np.array(timestamps, np.int64), np.array(prices), label)


def sharpe_ratio(period_returns: Sequence[float]) -> float:
    """mean/sd of per-period returns: rf = 0, sample sd, unannualized.

    A zero sd would divide by zero; that degenerate case maps to 0.0
    (run_backtest additionally flags it).
    """
    r = np.asarray(period_returns, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two period returns")
    if not np.isfinite(r).all():
        raise ValueError("non-finite period return")
    return _return_stats(r)[1]


def _return_stats(r: np.ndarray) -> tuple[float, float, bool]:
    """(variance, sharpe, degenerate) as the module docstring defines them.

    Fewer than two returns have no spread to measure: degenerate."""
    if r.size < 2:
        return 0.0, 0.0, True
    sd = float(r.std(ddof=1))
    if sd == 0.0:
        return 0.0, 0.0, True
    return sd * sd, float(r.mean()) / sd, False


def _report(values: np.ndarray, v0: float, weights_used) -> BacktestReport:
    """Report of one account-value curve V(0..n)."""
    variance, sharpe, degenerate = _return_stats(values[1:] / values[:-1] - 1.0)
    gains = values - v0
    return BacktestReport(
        gain_loss=float(gains[-1]),
        variance=variance,
        sharpe=sharpe,
        degenerate_sharpe=degenerate,
        n_periods=len(values) - 1,
        curve=np.column_stack([np.arange(len(values), dtype=float), gains]),
        weights_used=weights_used,
    )


def _bounds_covering(base: MarketBounds, returns: np.ndarray) -> MarketBounds:
    # Widen, never shrink: x_min stays < 0 and x_max > 0 because the base
    # bounds satisfy that already; observed returns exceed -1 by construction.
    lo = min(base.x_min, float(np.min(returns)))
    hi = max(base.x_max, float(np.max(returns)))
    return MarketBounds(lo, hi)


def run_backtest(
    config: PolicyConfig,
    spec: WeightSpec,
    series: PriceSeries,
    *,
    bounds_from_data: bool = False,
) -> BacktestReport:
    """Trade the schedule over the series and summarize.

    Strict by default: any observed return outside the configured market
    bounds aborts the run (the survivability guarantees are tied to the
    bounds).  bounds_from_data widens the bounds to cover the observed
    returns instead; note that an observed return above 1 then lowers
    w_max below 1, and a schedule exceeding it is still rejected.
    """
    if len(series) < 2:
        raise ValueError("series must contain at least two prices")
    x = prices_to_returns(series.prices)
    n = int(x.size)
    cfg = config
    if bounds_from_data:
        cfg = dataclasses.replace(config, bounds=_bounds_covering(config.bounds, x))
    w = eval_schedule(spec, n, prices=series.prices)

    return _report(evolve(cfg, w, x).values, cfg.v0, w)


def buy_and_hold_report(config: PolicyConfig, series: PriceSeries) -> BacktestReport:
    """Long-only baseline: the whole account rides the price, v(k) = v0*S(k)/S(0).

    This is the policy at alpha = 1 with w = 1 at every stage.  The
    short leg then holds nothing, so the short-side cap w <= 1/x_max is
    vacuous; computing the curve directly from price relatives lets the
    baseline run on any ingested series, including ones with a
    single-period return above +100%.  On data where w = 1 passes the
    generic admissibility check, run_backtest(alpha=1, constant w=1)
    reproduces this report to floating-point accuracy.
    """
    if len(series) < 2:
        raise ValueError("series must contain at least two prices")
    values = config.v0 * series.prices / series.prices[0]
    return _report(values, config.v0, np.ones(len(series) - 1))


def batch_backtest(
    config: PolicyConfig,
    specs: dict[str, WeightSpec],
    series: PriceSeries,
    *,
    include_buy_hold: bool = False,
    bounds_from_data: bool = False,
) -> dict[str, BacktestReport]:
    """One report per named spec, in input order; optional buy-and-hold column."""
    reports: dict[str, BacktestReport] = {}
    if include_buy_hold:
        reports["buy_and_hold"] = buy_and_hold_report(config, series)
    for name, spec in specs.items():
        reports[name] = run_backtest(
            config, spec, series, bounds_from_data=bounds_from_data
        )
    return reports
