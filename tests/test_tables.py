"""CSV tables: one format for every CSV the CLI writes, one reader for every CSV it reads."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import doublelinear.cli as cli
from doublelinear import ingest_csv, load_weight_table
from doublelinear.cli import main
from doublelinear import tables
from doublelinear.tables import read_columns, write_series, write_text

PROVENANCE = "# config: "


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestWrittenTables:
    @pytest.mark.parametrize(
        "argv, tables",
        [
            (["weights", "--w", "log_ramp", "--n", "7"], {"weights.csv": "stage,weight"}),
            (
                ["simulate", "--grid", "-0.1,0.2", "--paths", "5", "--n", "6"],
                {"sweep.csv": "mu_star,mean_gain,std_error"},
            ),
            (
                ["simulate", "--mu-star", "0.1", "--paths", "5", "--n", "6", "--dump-paths", "3"],
                {"paths.csv": "path_id,stage,price"},
            ),
            (
                [
                    "backtest", "--csv", "{prices}", "--w", "constant:0.5", "--w", "ma:2",
                    "--with-buy-hold", "--curves",
                ],
                {
                    "backtest.csv": "metric,buy_and_hold,constant:0.5,ma:2",
                    "curve_1.csv": "stage,gain",
                    "curve_2.csv": "stage,gain",
                    "curve_3.csv": "stage,gain",
                },
            ),
        ],
    )
    def test_every_csv_has_provenance_header_and_newline_ends(self, tmp_path, capsys, argv, tables):
        prices = tmp_path / "prices.csv"
        prices.write_text("timestamp,price\n1,100\n2,110\n3,99\n4,104\n5,103\n")
        outdir = tmp_path / "out"
        argv = [token.format(prices=prices) for token in argv]
        assert main([*argv, "--outdir", str(outdir)]) == 0
        capsys.readouterr()
        command = argv[0]
        if command == "weights":
            config = {**cli._defaults("weights"), "w": "log_ramp", "n": 7}
        else:
            config = read_json(outdir / f"{command}.json")["config"]
        for name, header in tables.items():
            raw = (outdir / name).read_bytes()
            assert b"\r" not in raw, name
            assert raw.endswith(b"\n"), name
            lines = raw.decode().split("\n")[:-1]
            assert lines[0].startswith(PROVENANCE), name
            assert json.loads(lines[0][len(PROVENANCE):]) == {"command": command, **config}
            body = [line for line in lines if not line.startswith("#")]
            assert body[0] == header, name
            width = header.count(",") + 1
            assert len(body) > 1 and all(line.count(",") + 1 == width for line in body[1:]), name


class TestTableModule:
    def test_round_trip_with_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_text(path, ["one", "two"], ("a", "b"), (f"{i},{i / 4!r}\n" for i in range(3)))
        assert path.read_bytes() == b"# one\n# two\na,b\n0,0.0\n1,0.25\n2,0.5\n"
        ints, floats = read_columns(path, ("a", "b"), no_fault)
        assert (ints.dtype, floats.dtype) == (np.int64, np.float64)
        assert (ints.tolist(), floats.tolist()) == ([0, 1, 2], [0.0, 0.25, 0.5])
        for index, line in enumerate([4, 5, 6]):
            with pytest.raises(ValueError, match=f"^row {line}: flagged$"):
                read_columns(path, ("a", "b"), lambda ints, floats, i=index: (i, "flagged"))

    def test_writes_a_list_longer_than_one_block(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = [f"{i},{i * 0.1!r}\n" for i in range(10_000)]
        write_text(path, [], ["a", "b"], lines)
        assert path.read_text() == "a,b\n" + "".join(lines)

    def test_a_table_whose_lines_fail_is_removed(self, tmp_path):
        def lines():
            yield from (f"{i},0.5\n" for i in range(5000))
            raise OSError("no space left")

        with pytest.raises(OSError, match="^no space left$"):
            write_text(tmp_path / "t.csv", ["one"], ("a", "b"), lines())
        assert list(tmp_path.iterdir()) == []

    def test_reads_an_open_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with open(path, newline="") as fh:
            ints, floats = read_columns(fh, ("a", "b"), no_fault)
            assert (ints.tolist(), floats.tolist()) == ([1], [2.0])

    def test_reads_a_pipe(self):
        read, write = os.pipe()
        with open(write, "w") as fh:
            fh.write("a,b\n1,2\n3,4\n")
        with open(read) as fh:
            ints, floats = read_columns(fh, ("a", "b"), no_fault)
        assert (ints.tolist(), floats.tolist()) == ([1, 3], [2.0, 4.0])

    def test_crlf_and_comment_lines_take_one_bulk_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        body = "".join(f"{i},{i / 8!r}\r\n# note {i}\r\n\r\n" for i in range(1, 2001))
        path.write_bytes(f"# provenance\r\nA , B\r\n{body}".encode())

        def no_scan(*args):
            raise AssertionError("the table was read row by row")

        monkeypatch.setattr("doublelinear.tables._scan", no_scan)
        ints, floats = read_columns(path, ("a", "b"), no_fault)
        assert ints.tolist() == list(range(1, 2001))
        assert floats.tolist() == [i / 8 for i in range(1, 2001)]


def no_fault(ints, floats):
    return None


# Each text is given once per reader, with {header} filled in with that
# reader's two column names as written by `columns`.
READER_CASES = {
    "plain": ("{header}\n1,0.25\n2,0.5\n", [0.25, 0.5]),
    "crlf line ends": ("# made on windows\r\n{header}\r\n1,0.25\r\n2,0.5\r\n", [0.25, 0.5]),
    "comments between rows": ("# a\n{header}\n# b\n1,0.25\n  # c\n2,0.5\n# d\n", [0.25, 0.5]),
    "blank lines": ("\n{header}\n\n1,0.25\n\n\n2,0.5\n\n", [0.25, 0.5]),
    "upper-case header with spaces": ("{upper}\n1,0.25\n2,0.5\n", [0.25, 0.5]),
    "header only": ("# provenance\n{header}\n", None),
    "comments only": ("# provenance\n# more\n", None),
    "empty file": ("", None),
    "wrong header": ("first,second\n1,0.25\n", None),
    "short row": ("{header}\n1,0.25\n2\n", None),
    "empty first cell": ("{header}\n1,100\n,999\n3,101\n", None),
}


def columns(names, text):
    return text.format(header=",".join(names), upper=" , ".join(n.upper() for n in names) + " ")


@pytest.mark.parametrize("case", list(READER_CASES))
def test_price_and_weight_readers_agree(tmp_path, case):
    text, expected = READER_CASES[case]
    prices = tmp_path / "prices.csv"
    prices.write_bytes(columns(("timestamp", "price"), text).encode())
    weights = tmp_path / "weights.csv"
    weights.write_bytes(columns(("stage", "weight"), text).encode())
    if expected is not None:
        assert ingest_csv(prices).prices.tolist() == expected
        assert load_weight_table(weights).tolist() == expected
        return
    with pytest.raises(ValueError) as price_error:
        ingest_csv(prices)
    with pytest.raises(ValueError) as weight_error:
        load_weight_table(weights)
    # the same complaint, prefixed with the table's name; headers name their own columns
    price_text = str(price_error.value).replace("timestamp,price", "stage,weight")
    assert str(weight_error.value) == f"weight table {weights}: {price_text}"


@pytest.mark.parametrize("note", ["", "# naïve\n"], ids=["bulk pass", "row scan"])
def test_readers_drop_a_leading_byte_order_mark(tmp_path, monkeypatch, note):
    # a non-ASCII comment sends the table to the row scan; without one the bulk pass reads it
    def no_scan(*args):
        raise AssertionError("the table was read row by row")

    if not note:
        monkeypatch.setattr("doublelinear.tables._scan", no_scan)
    prices = tmp_path / "prices.csv"
    prices.write_bytes(b"\xef\xbb\xbf" + f"{note}timestamp,price\n1,0.25\n2,0.5\n".encode())
    weights = tmp_path / "weights.csv"
    weights.write_bytes(b"\xef\xbb\xbf" + f"{note}stage,weight\n1,0.25\n2,0.5\n".encode())
    assert ingest_csv(prices).prices.tolist() == [0.25, 0.5]
    assert load_weight_table(weights).tolist() == [0.25, 0.5]


@pytest.mark.parametrize(
    "cells",
    [
        ["2", "2.5#"], ["2", "2.5 # note"], ["2", "2.5\x1c"], ["2", "\x1f2.5"],
        ["3\x1e", "101"], ["ݡ1", "101"], ["1ǿ", "101"],
    ],
)
def test_cells_only_numpy_would_read_are_refused(tmp_path, cells):
    # np.loadtxt cuts a cell at '#', skips \x1c-\x1f as spaces and reads some
    # letters as digits; int() and float() refuse all of these
    path = tmp_path / "prices.csv"
    path.write_text(f"timestamp,price\n1,100\n{','.join(cells)}\n", encoding="utf-8")
    with pytest.raises(ValueError) as error:
        ingest_csv(path)
    assert str(error.value) == f"row 3: could not parse {cells!r}"


def test_cell_past_the_csv_field_limit_is_named(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "prices.csv"
    path.write_text(f'timestamp,price\n"{"1" * (limit + 1)}",100\n')
    with pytest.raises(ValueError) as error:
        ingest_csv(path)
    assert str(error.value) == f"row 2: could not parse: field larger than field limit ({limit})"


@pytest.mark.parametrize(
    "text", ["timestamp,price\n", "# provenance\n# more\n", "timestamp,price\n# note\n\n  \n"]
)
def test_tables_without_data_warn_nothing(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^(no data rows|empty file)$"):
            read_columns(path, ("timestamp", "price"), no_fault)
    assert caught == []


# The reader as it stood before the bulk pass: a per-row csv reader and the
# two loops over its rows, copied as they were apart from these deliberate
# differences, each marked below:
#   1. only a blank line or one whose first non-space character is '#' is
#      skipped; the old reader also dropped any row whose first cell was blank
#      or started with '#' (",999" or '"#x",1' were lost, not refused);
#   2. a weight table names a cell that does not parse as a price table does,
#      "could not parse [...]" (it said "malformed data row [...]");
#   3. (below) a quoted cell ends with its line;
#   4. a file is read as UTF-8 with a leading byte order mark dropped; the old
#      reader used the locale's encoding and kept the mark in the header.
# Difference 3 the tables below avoid: a quoted cell now ends with its line,
# where csv let it run on over line ends.  Underscores and non-ASCII digits
# read as int() and float() read them: the bulk pass hands such tables to the
# row scan, so the readers accept no less than before.

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def old_read_rows(source, header):
    width = len(header)
    seen = 0  # header and data rows
    raw = []  # difference 1: the line each row came from

    def lines(fh):
        for line in fh:
            raw.append(line)
            yield line

    with open(source, newline="", encoding="utf-8-sig") as fh:  # difference 4
        reader = csv.reader(lines(fh))
        for row in reader:
            if raw[-1].lstrip()[:1] in ("", "#"):  # difference 1
                continue
            seen += 1
            if seen == 1:
                if [c.strip().lower() for c in row[:width]] != list(header):
                    raise ValueError(f"expected header {','.join(header)!r}, got {','.join(row)!r}")
            elif len(row) < width:
                raise ValueError(f"row {reader.line_num}: expected {width} columns, got {len(row)}")
            else:
                yield reader.line_num, row
    if seen < 2:
        raise ValueError("no data rows" if seen else "empty file")


def old_ingest_csv(source):
    timestamps, prices = [], []
    last = _INT64_MIN - 1
    for rownum, row in old_read_rows(source, ("timestamp", "price")):
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
    return np.array(timestamps, np.int64), np.array(prices)


def old_load_weight_table(path):
    weights = []
    try:
        for line, row in old_read_rows(path, ("stage", "weight")):
            try:
                stage, weight = int(row[0]), float(row[1])
            except ValueError:
                # difference 2
                raise ValueError(f"row {line}: could not parse {row[:2]!r}") from None
            if stage != len(weights) + 1:
                raise ValueError(f"row {line}: stage {stage}, expected {len(weights) + 1}")
            weights.append(weight)
    except ValueError as exc:
        raise ValueError(f"weight table {path}: {exc}") from None
    return np.array(weights)


# Cells that int() or float() may or may not read, NumPy's parser may or may
# not read (it skips \x1c-\x1f as spaces, reads some non-ASCII letters as
# digits and stops at a '#' comment), or that are read but refused by a check.
_ODD_CELLS = [
    "", " ", "1_000", "٣", "1.0", "1e3", "0x10", "nan", "-inf", "inf", "1e999", "0", "-0.0",
    "-5", " 7 ", "\t8", "9\x1c", "\x1f2", "1.5\x1d", "\x0b4", "5\x85", "ݡ1", "1ǿ", "#", "2#",
    "3 #4", "4.5#x", "1 2",
    "+", "--1", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
]
# Digits mixed with what the two parsers may disagree on.
_EDGE = st.text(alphabet="0123456789+-.e_# \t\x1c\x1f٣ݡǿ", min_size=1, max_size=5)
_NOT_IN_CELLS = '\r\n",\x00'  # line ends, quotes, commas; csv refuses NUL before 3.11
_TOKEN = st.text(
    alphabet=st.characters(exclude_characters=_NOT_IN_CELLS, exclude_categories=("Cs",)),
    max_size=6,
)
_PRINTABLE = st.text(alphabet=st.characters(codec="ascii", min_codepoint=32), max_size=6).map(
    lambda text: text.translate({ord(c): None for c in _NOT_IN_CELLS})
)


@st.composite
def tables_text(draw, names):
    """A table with the given column names: comment and blank lines anywhere, header
    case and spaces, LF, CRLF or CR line ends, extra and quoted cells, odd cells, and
    stages or timestamps 1, 2, 3, ... that may repeat, fall back or leave int64.

    Half the tables are plain: printable ASCII apart from odd cells, empty blank
    lines, '#' first on its line, no quotes.  The bulk pass reads those itself
    unless an odd cell stops it; the others mostly go row by row."""
    plain = draw(st.booleans())
    token = _PRINTABLE.map(lambda text: text.replace("#", "")) if plain else _TOKEN | _PRINTABLE
    blanks = [""] if plain else ["", " ", "\t", "  \x0b"]
    notes = ["#", "# note"] if plain else ["#", "#a # b", "  # indented", "\t#"]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    header = [draw(st.sampled_from([n, n.upper(), f" {n} ", n.title()])) for n in names]
    if draw(st.booleans()):
        header.append(draw(token))
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.lists(token, min_size=1, max_size=3))
    lines = [",".join(header)]
    k = 0  # data rows so far
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(blanks)))
            continue
        if kind == 1:
            lines.append(draw(st.sampled_from(notes)))
            continue
        k += 1
        cells = [str(k), repr(draw(st.floats(0.01, 1e4)))] + draw(st.lists(token, max_size=2))
        for column in (0, 1):
            if draw(st.integers(0, 5)) == 0:
                near = [str(k - 1), str(k + 1), str(-k)] if column == 0 else ["-1.5", "0.0"]
                cells[column] = draw(
                    st.sampled_from(_ODD_CELLS + near) | _EDGE
                    | st.integers(-(2**64), 2**64).map(str) | st.floats().map(repr) | token
                )
        if not plain and draw(st.integers(0, 5)) == 0:
            cells = [f'"{cell}"' for cell in cells]
        if not plain and draw(st.integers(0, 9)) == 0:
            cells = cells[:1]
        lines.append(",".join(cells))
    if draw(st.booleans()):
        lines.insert(0, "# provenance")
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    return text if draw(st.integers(0, 4)) else text.rstrip("\r\n")


# The properties write each example to the same tmp_path file.
EXAMPLES = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def same(new, old):
    if isinstance(old, str) or isinstance(new, str):
        return new == old
    return len(new) == len(old) and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(new, old)
    )


@EXAMPLES
@given(prices=tables_text(("timestamp", "price")), weights=tables_text(("stage", "weight")))
def test_readers_match_the_row_by_row_reader(tmp_path, prices, weights):
    price_path = tmp_path / "prices.csv"
    price_path.write_bytes(prices.encode())
    new = outcome(lambda p: (lambda s: (s.timestamps, s.prices))(ingest_csv(p)), price_path)
    assert same(new, outcome(old_ingest_csv, price_path))
    weight_path = tmp_path / "weights.csv"
    weight_path.write_bytes(weights.encode())
    new = outcome(lambda p: (load_weight_table(p),), weight_path)
    assert same(new, outcome(lambda p: (old_load_weight_table(p),), weight_path))


@EXAMPLES
@given(text=st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
def test_readers_raise_only_value_error_on_any_text(tmp_path, text):
    path = tmp_path / "any.csv"
    path.write_bytes(text.encode())
    for read in (ingest_csv, load_weight_table):
        try:
            read(path)
        except ValueError:
            pass


def test_a_header_the_csv_module_refuses_is_a_value_error():
    # a handle that splits lines at "\n" only leaves bare "\r" inside the header row
    text = io.StringIO('a,b\r\r\r""', newline="\n")
    with pytest.raises(ValueError, match="^row 1: could not parse: new-line character"):
        read_columns(text, ("a", "b"), no_fault)


# write_series hands a table to a helper interpreter from _HELPER_ROWS rows on; the
# tests lower that constant to reach the helpers with small tables.
SERIES_EDGES = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, math.nan, -math.inf]


@pytest.fixture
def started(monkeypatch):
    """Every helper write_series starts, on a process allowed two CPUs."""
    helpers = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            helpers.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return helpers


def series(tmp_path, values, count=2):
    return [(tmp_path / f"s{i}.csv", ["made here"], ("stage", "v"), values) for i in range(count)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=hnp.arrays(
        np.float64, st.integers(0, 300),
        elements=st.floats(width=64) | st.sampled_from(SERIES_EDGES),
    ),
    first=st.integers(0, 10**12),
)
def test_helpers_write_the_bytes_this_process_writes(tmp_path, monkeypatch, started, values, first):
    monkeypatch.setattr(tables, "_HELPER_ROWS", 0)
    started.clear()
    (here, *_), (helped, *_) = tables_ = series(tmp_path, values)
    write_series(tables_, first)
    assert len(started) == 1  # the first table is always written here
    expected = "# made here\nstage,v\n" + "".join(
        f"{first + i},{v!r}\n" for i, v in enumerate(values.tolist())
    )
    assert here.read_bytes() == helped.read_bytes() == expected.encode()


def test_helpers_are_bounded_by_the_cpus(tmp_path, monkeypatch, started):
    monkeypatch.setattr(tables, "_HELPER_ROWS", 3)
    values = np.arange(4) / 3
    write_series(series(tmp_path, values, count=6), first=1)
    assert len(started) == 2 and all(helper.returncode == 0 for helper in started)
    texts = {path.read_text() for path in tmp_path.iterdir()}
    assert texts == {"# made here\nstage,v\n1,0.0\n2,0.3333333333333333\n3,0.6666666666666666\n4,1.0\n"}


@pytest.mark.parametrize("setting", ["one cpu", "no interpreter", "short tables"])
def test_everything_runs_here_without_room_for_a_helper(tmp_path, monkeypatch, started, setting):
    def refuse(*args, **kwargs):
        raise AssertionError("a helper was started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    if setting == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif setting == "no interpreter":
        monkeypatch.setattr(sys, "executable", "")
    if setting != "short tables":
        monkeypatch.setattr(tables, "_HELPER_ROWS", 0)
    write_series(series(tmp_path, [0.5, -2.0], count=3), first=0)
    for path in tmp_path.iterdir():
        assert path.read_text() == "# made here\nstage,v\n0,0.5\n1,-2.0\n"


@pytest.mark.parametrize("rows", [1, 100_000])  # the larger table outgrows the pipe
def test_a_failing_helper_names_its_table_and_is_waited_for(tmp_path, monkeypatch, started, rows):
    monkeypatch.setattr(tables, "_HELPER_ROWS", 0)
    monkeypatch.setattr(tables, "_FORMATTER", "raise SystemExit(3)")
    tables_ = series(tmp_path, np.ones(rows), count=3)
    with pytest.raises(OSError, match=f"^{tables_[1][0]}: its helper interpreter exited with status 3$"):
        write_series(tables_, first=0)
    assert len(started) == 2 and [helper.returncode for helper in started] == [3, 3]


def test_a_failing_helper_leaves_no_helped_table(tmp_path, monkeypatch, started):
    monkeypatch.setattr(tables, "_HELPER_ROWS", 0)
    monkeypatch.setattr(tables, "_FORMATTER", "raise SystemExit(3)")
    tables_ = series(tmp_path, [0.5, -2.0], count=3)
    with pytest.raises(OSError, match="its helper interpreter exited with status 3"):
        write_series(tables_, first=0)
    assert list(tmp_path.iterdir()) == []  # the table written here goes with the failed one


def helped_text(values, *args):
    """What a helper interpreter writes for tables.format_rows(values, *args)."""
    with contextlib.ExitStack() as stack:
        return "".join(tables._start(stack, "helped", np.ascontiguousarray(values), *args))


@settings(max_examples=30, deadline=None)
@given(
    values=hnp.arrays(
        np.float64, st.integers(7, 40), elements=st.floats(width=64) | st.sampled_from(SERIES_EDGES)
    ),  # one row at least: a dump has a path, a sweep a drift
    first=st.integers(0, 10**12),
    stages=st.integers(1, 7),
)
def test_path_and_sweep_rows_are_their_f_strings_here_and_in_a_helper(values, first, stages):
    paths = values[: values.size // stages * stages].reshape(-1, stages)
    sweep = values[: values.size // 3 * 3].reshape(-1, 3)
    layouts = [
        (paths, (1, *tables.CSV_ROWS, first, stages), "".join(
            f"{first + i},{j},{p!r}\n" for i, row in enumerate(paths.tolist()) for j, p in enumerate(row)
        )),
        (sweep, (3, *tables.CSV_ROWS), "".join(f"{a},{b},{c}\n" for a, b, c in sweep.tolist())),
    ]
    for matrix, args, expected in layouts:
        assert "".join(tables.format_rows(matrix, *args)) == expected
        assert helped_text(matrix, *args) == expected


def test_rows_that_span_pieces_are_whole():
    values = np.arange(10_120) / 7  # pieces of about 4096 values: three of each layout
    paths = values.reshape(-1, 253)
    assert "".join(tables.format_rows(values, 1, *tables.CSV_ROWS, 5)) == "".join(
        f"{5 + i},{v!r}\n" for i, v in enumerate(values.tolist())
    )
    assert "".join(tables.format_rows(paths, 1, *tables.CSV_ROWS, 3, 253)) == "".join(
        f"{3 + i},{j},{p!r}\n" for i, row in enumerate(paths.tolist()) for j, p in enumerate(row)
    )
    matrix, out, pieces = values[:9000].reshape(3, 3000), io.StringIO(), []
    cli._encode(matrix, "\n", pieces)  # one piece: the matrix and its JSON layout
    tables.write_rows(out, "m.json", *pieces[0])
    assert out.getvalue() == json.dumps(matrix.tolist(), indent=2)


def test_helpers_leave_no_resource_warning(tmp_path):
    script = f"""
import gc
import numpy as np
from doublelinear import tables
tables._HELPER_ROWS = 0
path = {str(tmp_path)!r}
tables.write_series([(f"{{path}}/{{i}}.csv", [], ("stage", "v"), np.ones(5)) for i in range(3)], 0)
gc.collect()
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script],
        env=env, capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert len(list(tmp_path.iterdir())) == 3


@pytest.mark.parametrize(
    "shape, args",
    [((0, 3), (3, *tables.CSV_ROWS)), ((0, 4), (1, *tables.CSV_ROWS, 0, 4)), ((0,), (1, *tables.CSV_ROWS, 0))],
    ids=["sweep", "paths", "series"],
)
def test_no_rows_are_no_text_here_and_in_a_helper(shape, args):
    values = np.zeros(shape)
    assert list(tables.format_rows(values, *args)) == []
    assert helped_text(values, *args) == ""
