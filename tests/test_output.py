"""Output writer: JSON identical to the json module's, curve CSV rows, stdout.

The CLI's JSON must be exactly json.dumps(payload, indent=2,
sort_keys=True, allow_nan=False); the json module is the oracle.
"""

import bisect
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import doublelinear.cli as cli
from doublelinear import tables
from doublelinear import MarketBounds, PolicyConfig, batch_backtest, ingest_csv, parse_weight_spec
from doublelinear.cli import main


def dumps(obj) -> str:
    pieces = []
    cli._encode(obj, "\n", pieces)
    return "".join(pieces)


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 1.7976931348623157e308])
text = st.one_of(st.text(), st.sampled_from(['"', "\\", '"\\"', "\n\t\x00\x1f", "é", "日本", "😀"]))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    finite_floats,
    edge_floats,
    finite_floats.map(np.float64),
    text,
)
float_lists = st.lists(st.one_of(finite_floats, edge_floats), min_size=1)
# The kinds of value one key of a list of same-key records holds; only all finite plain
# floats and all plain ints take the writer's one-template path.
COLUMN_KINDS = [
    st.one_of(finite_floats, edge_floats),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    finite_floats.map(np.float64),
    st.one_of(finite_floats, st.integers(), st.booleans()),
]
NON_FINITE_KINDS = [st.one_of(finite_floats, st.sampled_from([math.nan, math.inf, -math.inf]))]


@st.composite
def record_lists(draw, kinds=COLUMN_KINDS):
    """A list of dicts with the same keys, one kind of value per key; now and then one
    item is spoiled: a value of another kind, a key more, or not a dict at all."""
    keys = draw(st.lists(text, max_size=4, unique=True))
    columns = [draw(st.sampled_from(kinds)) for _ in keys]
    records = [
        {key: draw(column) for key, column in zip(keys, columns)}
        for _ in range(draw(st.integers(1, 5)))
    ]
    spoiled = draw(st.integers(0, len(records) - 1))
    spoil = draw(st.sampled_from(["none", "value", "key", "item"]))
    if spoil == "value" and keys:
        records[spoiled][draw(st.sampled_from(keys))] = draw(leaves)
    elif spoil == "key":
        records[spoiled][draw(text)] = 0.5
    elif spoil == "item":
        records[spoiled] = draw(leaves)
    return records


trees = st.recursive(
    st.one_of(leaves, float_lists, record_lists()),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(text, children),
    ),
    max_leaves=40,
)


class TestJsonOracle:
    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_matches_json_dumps(self, tree):
        assert dumps(tree) == oracle(tree)

    def test_edge_values(self):
        tree = {
            "empty": [[], {}, ()],
            "floats": [-0.0, 5e-324, 1e16, 1e-5, 0.1],
            "mixed": [1, 2.5, True, None, "x", np.float64(-0.0)],
            "big": 2**100,
            'q"uo\\te': "ünï ",
        }
        assert dumps(tree) == oracle(tree)
        assert dumps([]) == "[]" and dumps({}) == "{}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "shape",
        [
            lambda b: [0.5, b, 0.25],  # an all-float list
            lambda b: [[0.5, 0.25], [0.125, b]],
            lambda b: {"mixed": [1, "a", b]},
            lambda b: {"leaf": b},
            lambda b: [np.float64(b)],
            lambda b: b,
        ],
        ids=["float-list", "float-rows", "mixed-list", "dict-leaf", "float64-list", "bare"],
    )
    def test_non_finite_raises_like_json(self, bad, shape):
        tree = shape(bad)
        with pytest.raises(ValueError) as expected:
            oracle(tree)
        with pytest.raises(ValueError) as got:
            dumps(tree)
        assert str(got.value) == str(expected.value)

    @settings(max_examples=200, deadline=None)
    @given(record_lists(COLUMN_KINDS + NON_FINITE_KINDS))
    def test_records_match_json_dumps_or_its_error(self, records):
        try:
            expected = oracle(records)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                dumps(records)
            assert str(got.value) == str(exc)
        else:
            assert dumps(records) == expected

    @pytest.mark.parametrize(
        "records",
        [
            [{"%r": 0.5, "a%%d": 1}, {"%r": -0.0, "a%%d": -(2**70)}],
            [{"mu": 1e16, "k": 2, "x": 5e-324}],
            [{"": None}, None],
            [{"a": 1}, {"a": True}],
            [{"a": 1.5}, {"a": np.float64(2.5)}],
            [{}, {}],
        ],
    )
    def test_record_edges(self, records):
        assert dumps(records) == oracle(records)

    def test_unserializable_type_raises(self):
        with pytest.raises(TypeError):
            dumps({"x": {1, 2}})


def write_prices(tmp_path, prices):
    path = tmp_path / "prices.csv"
    path.write_text("timestamp,price\n" + "".join(f"{i},{p}\n" for i, p in enumerate(prices, 1)))
    return path


def curve_body(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ") and lines[1].startswith("# spec: ")
    assert lines[2] == "stage,gain"
    return lines[3:]


class TestCurveCsv:
    def test_rows_are_stage_and_round_trip_gain(self, tmp_path, capsys):
        csv_path = write_prices(tmp_path, [100, 100.001, 99.999, 100, 180, 100.001])
        code = main([
            "backtest", "--csv", str(csv_path), "--w", "constant:0.5", "--w", "ma:2",
            "--with-buy-hold", "--bounds-from-data", "--curves", "--outdir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 0
        reports = batch_backtest(
            PolicyConfig(0.5, MarketBounds(-0.5, 1.0)),
            {t: parse_weight_spec(t) for t in ("constant:0.5", "ma:2")},
            ingest_csv(csv_path),
            include_buy_hold=True,
            bounds_from_data=True,
        )
        for position, report in enumerate(reports.values(), start=1):
            expected = [f"{int(s)},{float(g)!r}" for s, g in report.curve]
            assert curve_body(tmp_path / f"curve_{position}.csv") == expected

    def test_a_failing_helper_leaves_no_partial_curve(self, tmp_path, capsys, monkeypatch):
        csv_path = write_prices(tmp_path, [100, 110, 99, 104])
        argv = ["backtest", "--csv", str(csv_path), "--w", "constant:0.5", "--w", "ma:2",
                "--with-buy-hold", "--curves", "--outdir"]
        assert main([*argv, str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(tables, "_HELPER_ROWS", 0)
        monkeypatch.setattr(tables, "_FORMATTER", "raise SystemExit(3)")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        capsys.readouterr()
        outdir = tmp_path / "failed"
        assert main([*argv, str(outdir)]) == 1
        captured = capsys.readouterr()
        path = outdir / "curve_2.csv"
        assert captured.err == f"error: {path}: its helper interpreter exited with status 3\n"
        assert list(outdir.iterdir()) == []  # the files written before the curve go with it

    def test_negative_zero_and_exponent_gains(self, tmp_path, capsys, monkeypatch):
        gains = [0.0, -0.0, 1e-7, -2.5e-05, 1.5e16, 0.1, 5e-324]
        real = cli.batch_backtest

        def with_crafted_curve(*args, **kwargs):
            (name, report), = real(*args, **kwargs).items()
            curve = np.column_stack([np.arange(len(gains), dtype=float), gains])
            return {name: dataclasses.replace(report, curve=curve)}

        monkeypatch.setattr(cli, "batch_backtest", with_crafted_curve)
        csv_path = write_prices(tmp_path, [100, 110, 99])
        code = main([
            "backtest", "--csv", str(csv_path), "--w", "constant:0.5",
            "--curves", "--outdir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 0
        assert curve_body(tmp_path / "curve_1.csv") == [
            "0,0.0", "1,-0.0", "2,1e-07", "3,-2.5e-05", "4,1.5e+16", "5,0.1", "6,5e-324",
        ]


class TestStdout:
    @pytest.mark.parametrize("sigma2", [None, "0.0004"])
    def test_analyze_stdout_is_the_json_file(self, tmp_path, capsys, sigma2):
        argv = ["analyze", "--w", "log_ramp", "--mu", "0.01,-0.02,1e-5", "--k", "1,7,40",
                "--outdir", str(tmp_path)]
        code = main(argv + (["--sigma2", sigma2] if sigma2 else []))
        out = capsys.readouterr().out
        assert code == 0
        written = (tmp_path / "analyze.json").read_text()
        assert out == written
        assert written == oracle(json.loads(written)) + "\n"

    def test_rpe_json_is_the_oracle_text(self, tmp_path, capsys):
        code = main(["verify-rpe", "--w", "log_ramp", "--k-max", "60", "--outdir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        written = (tmp_path / "rpe.json").read_text()
        assert written == oracle(json.loads(written)) + "\n"


def first_horizon_past_float_range(v0, w, mu):
    """The first k whose exact alpha = 1/2 expected gain at constant weight
    w exceeds the largest float; that gain grows with k, so bisect finds it."""
    x = Fraction(w) * Fraction(mu)
    past = lambda k: v0 * (((1 + x) ** k + (1 - x) ** k) / 2 - 1) > Fraction(sys.float_info.max)
    return bisect.bisect_left(range(10_000), True, key=past)


class TestOverflowingCertificate:
    @pytest.mark.parametrize(
        "argv, v0, mu, k",
        [
            (["--mu-grid", "0.9"], 1, 0.9, 1913),
            (["--mu-grid", "0.01,0.5,-0.9"], 1, 0.5, 3184),
            (["--mu-grid", "0.9", "--v0", "0.25"], Fraction(1, 4), 0.9, 1916),
        ],
    )
    def test_names_the_first_non_finite_cell_without_warning(
        self, tmp_path, capsys, argv, v0, mu, k
    ):
        assert first_horizon_past_float_range(v0, 0.5, mu) == k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "verify-rpe", "--w", "constant:0.5", "--k-max", "5000", *argv,
                "--outdir", str(tmp_path),
            ])
        err = capsys.readouterr().err
        assert code == 1
        assert "rpe.json not written, a result is inf or nan" in err
        assert f"the expected gain at mu={mu}, k={k} is inf" in err
        assert list(tmp_path.iterdir()) == []

    def test_short_only_scan_is_exact_at_every_horizon(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "verify-rpe", "--w", "constant:0.5", "--k-max", "5000", "--mu-grid", "0.9",
                "--alpha", "0", "--outdir", str(tmp_path),
            ])
        assert code == 2
        assert capsys.readouterr().out.startswith("not certifiable: alpha must equal 1/2")
        (entries,) = json.loads((tmp_path / "rpe.json").read_text())["entries"]
        short_factor = 1 - Fraction(0.5) * Fraction(0.9)
        short = short_factor
        for entry in entries:  # horizons 2..5000; the gain is short - 1
            short *= short_factor
            exact = float(short)  # correctly rounded; 1.0 - exact loses at most 2^-53
            assert abs(entry - (exact - 1.0)) <= 1e-13 * (exact + 1.0)


class TestOverflowingClosedForms:
    @pytest.mark.parametrize(
        "argv, cell",
        [
            (["--mu", "0.9", "--k", "2000", "--sigma2", "0.01"], "the mean at mu=0.9, k=2000 is inf"),
            (["--mu", "0.9", "--k", "2000"], "the mean at mu=0.9, k=2000 is inf"),
            # results order: mu = 0.1 comes first, and only its variance overflows
            (
                ["--mu", "0.1,0.9", "--k", "10,1500,2000", "--sigma2", "0.5"],
                "the variance at mu=0.1, k=2000 is inf",
            ),
        ],
    )
    def test_names_the_first_non_finite_cell_without_warning(self, tmp_path, capsys, argv, cell):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--w", "constant:0.9", *argv, "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: analyze.json not written, a result is inf or nan: {cell}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sigma2", [[], ["--sigma2", "0.01"]], ids=["mean", "variance"])
    def test_short_only_cells_are_finite(self, tmp_path, capsys, sigma2):
        # the long leg overflows, but alpha = 0 puts no weight on it: the exact
        # mean is 0.19^2000 - 1 and the variance 0.0442^2000 - 0.0361^2000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "analyze", "--w", "constant:0.9", "--mu", "0.9", "--k", "2000", "--alpha", "0",
                *sigma2, "--outdir", str(tmp_path),
            ])
        assert code == 0
        (cell,) = json.loads(capsys.readouterr().out)["results"]
        assert cell["mean"] == -1.0
        assert cell["variance"] == (0.0 if sigma2 else None)


# _write_json hands the leading rows of a 2-d float64 matrix to helper interpreters from
# tables._HELPER_ROWS values on; the tests lower that constant to reach the helpers.
MATRIX_EDGES = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]


@pytest.fixture
def matrix_helpers(monkeypatch):
    """Every helper started, on a process allowed cpus(n) CPUs (two until told)."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    def cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(tables, "_HELPER_ROWS", 0)
    cpus(2)
    return started, cpus


def with_matrix(matrix, depth):
    payload = {"a": [1, 2.5], "entries": matrix, "z": "x"}
    for _ in range(depth):
        payload = {"inner": payload, "n": None}
    return payload


class TestJsonMatrix:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        matrix=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
            elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(MATRIX_EDGES),
        ),
        depth=st.integers(0, 2),
        cpus=st.sampled_from([2, 3, 4]),
    )
    def test_helpers_write_the_json_module_bytes(self, tmp_path, matrix_helpers, matrix, depth, cpus):
        started, set_cpus = matrix_helpers
        started.clear()
        set_cpus(cpus)
        path = tmp_path / "m.json"
        cli._write_json(path, with_matrix(matrix, depth))
        assert path.read_text() == oracle(with_matrix(matrix.tolist(), depth)) + "\n"
        assert len(started) == min(cpus, len(matrix)) - 1
        assert all(helper.returncode == 0 for helper in started)

    @pytest.mark.parametrize("cpus, least, helpers", [(2, 3, 1), (4, 3, 3), (4, 11, 0), (4, 0, 3)])
    def test_helpers_are_bounded_by_the_cpus_and_the_values(
        self, tmp_path, monkeypatch, matrix_helpers, cpus, least, helpers
    ):
        started, set_cpus = matrix_helpers
        set_cpus(cpus)
        monkeypatch.setattr(tables, "_HELPER_ROWS", least)
        matrix = np.arange(20.0).reshape(10, 2) / 3
        cli._write_json(tmp_path / "m.json", {"m": matrix})
        assert len(started) == helpers and all(helper.returncode == 0 for helper in started)
        assert (tmp_path / "m.json").read_text() == oracle({"m": matrix.tolist()}) + "\n"

    @pytest.mark.parametrize("setting", ["one cpu", "no interpreter"])
    def test_everything_runs_here_without_room_for_a_helper(self, tmp_path, monkeypatch, setting):
        def refuse(*args, **kwargs):
            raise AssertionError("a helper was started")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(tables, "_HELPER_ROWS", 0)
        if setting == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            monkeypatch.setattr(sys, "executable", "")
        matrix = np.array([[0.5, -0.0], [1e16, 5e-324], [0.1, 2.0]])
        cli._write_json(tmp_path / "m.json", {"m": matrix})
        assert (tmp_path / "m.json").read_text() == oracle({"m": matrix.tolist()}) + "\n"

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_a_failing_helper_leaves_no_file_and_is_waited_for(
        self, tmp_path, monkeypatch, capsys, matrix_helpers, cpus
    ):
        started, set_cpus = matrix_helpers
        set_cpus(cpus)
        monkeypatch.setattr(tables, "_FORMATTER", "raise SystemExit(3)")
        code = main([
            "verify-rpe", "--w", "log_ramp", "--k-max", "6", "--mu-grid", "0.01,-0.02,0.03,-0.04",
            "--outdir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        path = tmp_path / "rpe.json"
        assert captured.err == f"error: {path}: its helper interpreter exited with status 3\n"
        assert not path.exists() and list(tmp_path.iterdir()) == []
        assert [helper.returncode for helper in started] == [3] * (cpus - 1)

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def full(fh, path, matrix, *layout):
            fh.write("[")
            raise OSError(f"{path}: no space left")

        monkeypatch.setattr(cli, "write_rows", full)
        code = main(["verify-rpe", "--w", "log_ramp", "--k-max", "6", "--outdir", str(tmp_path)])
        assert code == 1 and "no space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_file_that_cannot_be_opened_is_left_alone(self, tmp_path, capsys):
        (tmp_path / "rpe.json").mkdir()
        (tmp_path / "rpe.json" / "kept").write_text("x")
        code = main(["verify-rpe", "--w", "log_ramp", "--k-max", "6", "--outdir", str(tmp_path)])
        assert code == 1 and "Is a directory" in capsys.readouterr().err
        assert (tmp_path / "rpe.json" / "kept").read_text() == "x"

    def test_non_finite_cells_raise_like_json(self):
        matrix = np.array([[0.5, 1.0], [-np.inf, np.nan]])
        with pytest.raises(ValueError) as expected:
            oracle(matrix.tolist())
        with pytest.raises(ValueError) as got:
            dumps(matrix)
        assert str(got.value) == str(expected.value)

    def test_other_arrays_are_their_lists(self):
        for array in (np.arange(3), np.zeros((0, 2)), np.zeros((2, 0)), np.ones((2, 2, 2)),
                      np.ones((2, 2), dtype=np.float32)):
            assert dumps(array) == oracle(array.tolist())

    def test_helpers_leave_no_resource_warning(self, tmp_path):
        script = f"""
import gc, os
import numpy as np
import doublelinear.cli as cli
from doublelinear import tables
from pathlib import Path
tables._HELPER_ROWS = 0
os.sched_getaffinity = lambda pid: {{0, 1, 2, 3}}
cli._write_json(Path({str(tmp_path)!r}) / "m.json", {{"m": np.ones((8, 3)) / 7}})
gc.collect()
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", script],
            env=env, capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        expected = oracle({"m": (np.ones((8, 3)) / 7).tolist()}) + "\n"
        assert (tmp_path / "m.json").read_text() == expected


class TestBulkRouting:
    """The two bulk values bypass the json module, whose indented encoder runs in pure
    Python: records as one templated piece, a float matrix as one (array, *layout) piece."""

    @pytest.fixture
    def dumped(self, monkeypatch):
        """Every value _encode hands to json.dumps."""
        seen = []

        def spy(value, **kwargs):
            seen.append(value)
            return json.dumps(value, **kwargs)

        monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=spy))
        return seen

    def test_analyze_results_are_one_piece(self, dumped):
        rng = np.random.default_rng(0)
        mus, ks = rng.uniform(-0.05, 0.05, 80).tolist(), list(range(50, 5001, 50))
        cells = rng.normal(size=(80, 100, 2)).tolist()  # [mu, k, (mean, variance)]
        results = [
            {"mu": mu, "k": k, "mean": mean, "variance": abs(variance)}
            for mu, row in zip(mus, cells) for k, (mean, variance) in zip(ks, row)
        ]
        payload = {"command": "analyze", "config": {"alpha": 0.5, "mu": "0.1"}, "results": results}
        pieces = []
        cli._encode(payload, "\n", pieces)
        at = pieces.index(',\n  "results": ') + 1
        assert pieces[at] == oracle(results).replace("\n", "\n  ")
        assert pieces[at + 1:] == ["\n}"]
        assert all(value is not results for value in dumped)
        assert "".join(pieces) == oracle(payload)

    def test_rpe_entries_are_one_matrix_piece(self, dumped):
        config = PolicyConfig(0.5, MarketBounds(-0.5, 1.0))
        schedule = cli.eval_schedule(parse_weight_spec("log_ramp"), 60)
        report = cli.rpe_scan(config, schedule, cli.DEFAULT_RPE_MU_GRID, 60)
        payload = {"command": "verify-rpe", "config": {"k_max": 60}, **vars(report)}
        pieces = []
        cli._encode(payload, "\n", pieces)
        (matrix,) = [piece for piece in pieces if not isinstance(piece, str)]
        assert matrix[0].tolist() == report.entries.tolist()
        assert "".join(tables.format_rows(*matrix)) == oracle(matrix[0].tolist()).replace("\n", "\n  ")
        assert pieces[pieces.index(matrix) - 1] == ',\n  "entries": '
        assert all(np.ndim(value) < 2 for value in dumped)  # entries never went to json
