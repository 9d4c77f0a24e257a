"""End-to-end and per-layer benchmark of the doublelinear CLI.

    python3 bench/run.py --workload mc-static --seed 1 --seconds 40 --trace 0
    for w in mc-static mc-ma backtest-long closed-form; do
        python3 bench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done
    python3 -m pytest bench -q          # self-tests, about 20 s

BENCHMARK.json lists mc-static, backtest-long and closed-form.  mc-ma runs
the same way but is left out of it: its time_to_accuracy_s rests on the
variance of a heavy-tailed (kurtosis about 26) 300-path estimate, and
spread across seeds by more than the 0.25 bound (measured on a 2-core VM).

Run it from anywhere inside a source checkout; it imports the package
from the checkout's src/ and writes only under .bench_work/ there.

--trace 0 runs the CLI as a user does: one fresh subprocess per
invocation, one invocation at a time (a closed loop with one client),
`--threads 1`.  It reports the end-to-end metrics of BENCHMARK.json.
--trace 1 calls cli.main in-process instead, alternating untraced and
traced invocations, and reports the per-layer metrics: each layer's
public function is wrapped where its caller looks it up, and every call
records a span.  The spans of the traced invocation with the median
cli.main time are written to .bench_work/<workload>-seed<n>/spans.csv.

End-to-end metrics, each the median over the run's invocations:
  wall_s              spawn to exit of one invocation (closed-form: both calls)
  setup_s             a subprocess that only imports doublelinear.cli; one
                      is timed before every invocation
  stages_per_s        account stages / compute_s, where compute_s is wall_s
                      less setup_s for every subprocess of the invocation
  peak_rss_mb         ru_maxrss of the CLI child, from os.wait4
  time_to_accuracy_s  Monte Carlo: compute_s * (se / se_target)^2, se being
                      the largest std_error of an invocation, root-mean-
                      squared over the run's distinct seeds.  The exact
                      engines reach their answer in one invocation, so
                      there it is compute_s.
  success_rate        1 - failed / attempted invocations.  It stands in for
                      an error rate, which would read 0 on a healthy run.

Every invocation's outputs are checked (see workloads.py), and repeated
invocations with the same arguments must write byte-identical outputs.
--holdout-seed also runs each invocation of a second seed twice, checks
those outputs, and checks that they differ from the main seed's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records
the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracing import SpanRecorder
from workloads import WORKLOADS, CheckError, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fewest timed invocations (or traced/untraced pairs) in one run.
MIN_INVOCATIONS = 3
# A subprocess still running this long after the run started is killed
# and counts as failed, so that a hung program cannot hang the benchmark.
HARD_LIMIT_S = 150.0

# Traced layers: (layer, modules whose global the caller looks up,
# attribute, work counter (name, f(args, kwargs, result)) or None).
LAYERS = [
    ("simulate.path_rng", ("simulate",), "path_rng", None),
    ("simulate.simulate_path", ("simulate",), "simulate_path", None),
    ("simulate.prices_to_returns", ("simulate", "backtest"), "prices_to_returns", None),
    ("simulate.monte_carlo_gain_loss", ("cli", "simulate"), "monte_carlo_gain_loss", None),
    ("weights.eval_schedule", ("cli", "simulate", "backtest"), "eval_schedule",
     ("weights.eval_schedule.stages", lambda a, k, r: len(r))),
    ("weights.ma_indicator_weight", ("weights",), "ma_indicator_weight", None),
    ("policy.evolve", ("backtest",), "evolve",
     ("policy.evolve.stages", lambda a, k, r: len(r.gains) - 1)),
    ("backtest.ingest_csv", ("cli",), "ingest_csv",
     ("backtest.ingest_csv.rows", lambda a, k, r: len(r))),
    ("backtest.run_backtest", ("backtest",), "run_backtest", None),
    ("backtest.buy_and_hold_report", ("backtest",), "buy_and_hold_report", None),
    ("analytics.expected_gain_loss", ("cli",), "expected_gain_loss", None),
    ("analytics.variance_gain_loss", ("cli",), "variance_gain_loss", None),
    ("analytics.rpe_scan", ("cli",), "rpe_scan",
     ("analytics.rpe_scan.entries", lambda a, k, r: int(r.entries.size))),
]


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}_cache"] = (index / "size").read_text().strip()
    return facts


class Ledger:
    """Attempted and failed invocations, errors, and output digests per (seed, calls)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[tuple, str] = {}

    def record(self, key: tuple, ok: bool, error: str, outdir: Path) -> str:
        self.attempted += 1
        digest = digest_outputs(outdir)
        if ok and self.digests.setdefault(key, digest) != digest:
            ok, error = False, "outputs differ from an earlier invocation with the same arguments"
        if not ok:
            self.failed += 1
            self.errors.append(error)
        return digest

    def fail(self, error: str) -> None:
        """A check of the whole run failed."""
        self.errors.append(error)


def digest_outputs(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _check_invocation(workload: Workload, outdir: Path, j: int,
                      codes: list[int]) -> tuple[bool, str]:
    if any(codes):
        return False, f"{workload.name} invocation {j}: exit codes {codes}"
    try:
        workload.check(outdir, j)
    except CheckError as exc:
        return False, f"{workload.name} invocation {j}: {exc}"
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, f"{workload.name} invocation {j}: malformed output: {exc!r}"
    return True, ""


# ------------------------------------------------------------ subprocesses


class Spawner:
    """Runs the CLI of the checkout in fresh subprocesses."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))

    def spawn(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MB) of one subprocess."""
        stderr_path = self.workdir / f"{stdout_path.stem}.err"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def import_time(self) -> float:
        wall, code, _ = self.spawn(
            [sys.executable, "-c", "import doublelinear.cli"], self.workdir / "import.out")
        if code != 0:
            raise RuntimeError("cannot import doublelinear.cli from the checkout")
        return wall

    def invoke(self, workload: Workload, j: int, ledger: Ledger):
        """Run invocation j; returns (wall, peak RSS MB, std error or None, digest)."""
        outdir = fresh_dir(self.workdir / "out")
        calls = workload.calls(j)
        wall, rss, codes = 0.0, 0.0, []
        for position, call in enumerate(calls, start=1):
            seconds, code, peak = self.spawn(
                [sys.executable, "-m", "doublelinear", *call], outdir / f"stdout_{position}.txt")
            wall, rss = wall + seconds, max(rss, peak)
            codes.append(code)
        ok, error = _check_invocation(workload, outdir, j, codes)
        digest = ledger.record((workload.seed, *map(tuple, calls)), ok, error, outdir)
        se = workload.std_error(outdir) if ok else None
        return wall, rss, se, digest


def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   holdout_seed=None) -> tuple[Ledger, dict]:
    deadline = time.perf_counter() + HARD_LIMIT_S
    workdir = fresh_dir(ROOT / ".bench_work" / f"{workload.name}-seed{seed}")
    spawner = Spawner(workdir, deadline)
    spawner.import_time()  # compiles bytecode and fills the file cache
    workload.prepare(workdir, seed)
    ledger = Ledger()
    setups, walls, rsses = [], [], []
    first_digest = None
    ses = {}  # invocation index -> largest standard error
    started = time.perf_counter()
    # Every timed invocation follows a timed import, so that set-up and
    # invocation times are sampled under the same machine load.  The first
    # two invocations share their arguments, to check determinism.
    while time.perf_counter() < deadline and (len(walls) < MIN_INVOCATIONS or (
        time.perf_counter() - started + statistics.median(setups) + statistics.median(walls)
        <= seconds
    )):
        setups.append(spawner.import_time())
        j = max(0, len(walls) - 1)
        wall, rss, se, digest = spawner.invoke(workload, j, ledger)
        walls.append(wall)
        rsses.append(rss)
        first_digest = first_digest or digest
        if se is not None:
            ses[j] = se

    if holdout_seed is not None:
        holdout_dir = fresh_dir(ROOT / ".bench_work" / f"{workload.name}-seed{holdout_seed}")
        workload.prepare(holdout_dir, holdout_seed)
        holdout = Spawner(holdout_dir, deadline)
        if first_digest in [holdout.invoke(workload, 0, ledger)[3] for _ in range(2)]:
            ledger.fail(f"hold-out seed {holdout_seed} reproduced the outputs of seed {seed}")

    setup_s = statistics.median(setups)
    wall_s = statistics.median(walls)
    compute_s = wall_s - len(workload.calls(0)) * setup_s
    if workload.se_target is None:
        # An exact engine reaches its answer in one invocation.
        time_to_accuracy = compute_s
    else:
        # Glasserman's work-normalised error: the compute time that brings
        # the largest standard error down to se_target, with that error
        # pooled over the run's invocations (each has its own seed).
        se_rms = math.sqrt(statistics.fmean(se * se for se in ses.values())) if ses else math.inf
        time_to_accuracy = compute_s * (se_rms / workload.se_target) ** 2
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "stages_per_s": (workload.stages / compute_s, "1/s"),
        "peak_rss_mb": (statistics.median(rsses), "MB"),
        "time_to_accuracy_s": (time_to_accuracy, "s"),
        "success_rate": (1.0 - ledger.failed / ledger.attempted, "ratio"),
    }
    detail = {"wall_samples_s": walls, "setup_samples_s": setups}
    return ledger, {"metrics": metrics, "detail": detail}


# ------------------------------------------------------------ in process


def _install(recorder: SpanRecorder, modules: dict) -> list:
    """Wrap every traced layer; returns what uninstall needs to restore."""
    saved = []
    for layer, owners, attr, counter in LAYERS:
        for owner in owners:
            module = modules[owner]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(layer, original, counter))
    return saved


def _uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def _import_package() -> dict:
    sys.path.insert(0, str(SRC))
    import doublelinear.analytics
    import doublelinear.backtest
    import doublelinear.cli
    import doublelinear.simulate
    import doublelinear.weights

    return {name: getattr(doublelinear, name)
            for name in ("analytics", "backtest", "cli", "simulate", "weights")}


def run_in_process(workload: Workload, j: int, modules: dict, workdir: Path,
                   ledger: Ledger, recorder=None) -> float:
    """One in-process invocation, traced when a recorder is given; returns its wall time."""
    main = modules["cli"].main
    saved = []
    if recorder is not None:
        saved = _install(recorder, modules)
        main = recorder.wrap("cli.main", main)
    outdir = fresh_dir(workdir / "out")
    calls = workload.calls(j)
    codes = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        wall = 0.0
        for position, call in enumerate(calls, start=1):
            with open(outdir / f"stdout_{position}.txt", "w") as fh, \
                    contextlib.redirect_stdout(fh):
                start = time.perf_counter()
                codes.append(main(call))
                wall += time.perf_counter() - start
    finally:
        os.chdir(previous)
        _uninstall(saved)
    ok, error = _check_invocation(workload, outdir, j, codes)
    ledger.record((workload.seed, *map(tuple, calls)), ok, error, outdir)
    return wall


def per_layer_metrics(recorder: SpanRecorder, outdir_bytes: int) -> dict:
    totals = recorder.totals()
    metrics = {}
    for layer, _, _, counter in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        if counter is not None:
            metrics[counter[0]] = (recorder.counters.get(counter[0], 0), "count")
    metrics["cli.main.s"] = (sum(recorder.end[s] - recorder.start[s]
                                 for s in range(len(recorder)) if recorder.parent[s] < 0), "s")
    metrics["cli.self_s"] = (totals["cli.main"][1], "s")
    metrics["cli.output_bytes"] = (outdir_bytes, "bytes")
    return metrics


def run_traced(workload: Workload, seed: int, seconds: float) -> tuple[Ledger, dict]:
    workdir = fresh_dir(ROOT / ".bench_work" / f"{workload.name}-seed{seed}")
    modules = _import_package()
    workload.prepare(workdir, seed)
    ledger = Ledger()
    run_in_process(workload, 0, modules, workdir, ledger)  # warm-up
    plain, traced = [], []
    started = time.perf_counter()
    j = 0
    while len(traced) < MIN_INVOCATIONS or (
        time.perf_counter() - started
        + statistics.median(plain) + statistics.median(w for w, _, _ in traced) <= seconds
    ):
        # Alternate which side goes first so drift in machine load cancels.
        recorder = SpanRecorder()
        pair = [None, recorder] if j % 2 == 0 else [recorder, None]
        for rec in pair:
            wall = run_in_process(workload, j, modules, workdir, ledger, rec)
            if rec is None:
                plain.append(wall)
            else:
                traced.append((wall, rec, output_bytes(workdir / "out")))
        j += 1

    traced.sort(key=lambda item: item[0])
    wall, recorder, nbytes = traced[(len(traced) - 1) // 2]
    recorder.write_csv(workdir / "spans.csv")
    metrics = per_layer_metrics(recorder, nbytes)
    metrics["trace.overhead_s"] = (statistics.median(w for w, _, _ in traced)
                                   - statistics.median(plain), "s")
    layer_sum = sum(v for name, (v, _) in metrics.items() if name.endswith("self_s"))
    if not math.isclose(layer_sum, metrics["cli.main.s"][0], rel_tol=1e-9, abs_tol=1e-9):
        ledger.fail(f"layer self times sum to {layer_sum}, cli.main.s is {metrics['cli.main.s'][0]}")
    detail = {"pairs": len(traced), "spans": len(recorder)}
    return ledger, {"metrics": metrics, "detail": detail}


# ------------------------------------------------------------ entry point


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seed", type=int,
                        help="also check determinism and correctness on this seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "doublelinear" / "cli.py").is_file():
        print(f"error: no doublelinear sources under {SRC}", file=sys.stderr)
        return 2
    seeds = [args.seed] if args.holdout_seed is None else [args.seed, args.holdout_seed]
    if min(seeds) < 0 or len(set(seeds)) != len(seeds):
        print("error: seeds must be nonnegative and the hold-out seed distinct", file=sys.stderr)
        return 2
    facts = machine_facts()
    workload = WORKLOADS[args.workload]()
    if args.trace:
        ledger, result = run_traced(workload, args.seed, args.seconds)
    else:
        ledger, result = run_end_to_end(workload, args.seed, args.seconds, args.holdout_seed)

    for error in ledger.errors:
        print(f"FAILED {error}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload.name:14s} {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      **result["detail"], "machine": facts}))
    report = {
        "correct": not ledger.errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        # A metric that could not be measured (no invocation succeeded) is
        # null, and the run is already marked incorrect.
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
