"""CSV tables: the one reader and the writers of every CSV the package handles, and
the writer of the float matrices in its JSON outputs.

A table is '# ' comment lines, a header row and data rows, each line ending in "\\n".
The reader skips every line that is blank or whose first non-space character is
'#', accepts any line end, and matches the header regardless of case and
surrounding spaces.  A quoted cell ends with its line.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import ExitStack, nullcontext
from itertools import islice

import numpy as np

_COLUMNS = np.dtype([("int", np.int64), ("float", np.float64)])
# Characters NumPy's number parser skips as spaces and Python's int() and float() refuse.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"
_CHUNK = 1 << 18  # characters per read of the check before the bulk parse
# Rows from which a table goes to a helper interpreter: at about 1 us a row, formatting
# them here takes longer than the helper's start, about 14 ms.
_HELPER_ROWS = 20_000
# A helper's program: the float64 values on stdin, as rows "stage,repr" on stdout.
_HELPER = """
import sys
from array import array
first, values, out = int(sys.argv[1]), array("d", sys.stdin.buffer.read()), sys.stdout.buffer
for start in range(0, len(values), 4096):
    rows = enumerate(values[start:start + 4096], first + start)
    out.write("".join([f"{i},{v!r}\\n" for i, v in rows]).encode("ascii"))
"""
# A helper's program for write_matrix: rows of int(argv[1]) float64 values on stdin, laid
# out at an inner indent of "\n" and int(argv[2]) spaces, the first row led by argv[3].
_MATRIX_HELPER = """
import sys
from array import array
columns, inner, lead = int(sys.argv[1]), "\\n" + " " * int(sys.argv[2]), sys.argv[3]
values, out, cells = array("d", sys.stdin.buffer.read()), sys.stdout.buffer, "," + inner + "  "
for start in range(0, len(values), columns):
    row = cells.join(map(repr, values[start:start + columns]))
    out.write(f"{lead}{inner}[{inner}  {row}{inner}]".encode("ascii"))
    lead = ","
"""


def read_columns(source, header, fault):
    """The first two columns of the table at source, a path or an open text file: an
    int64 array of integers and a float64 array of decimals, each cell read as Python's
    int() and float() read it.

    fault(ints, floats) returns (index, complaint) for the first bad row, or None.  The
    row scan also calls it on the rows before one that does not parse, with ints an
    object array that may hold integers outside int64; fault must name those.
    ValueError "row N: complaint" names the 1-based line of the first bad row: a fault,
    fewer columns than the header, or a cell that does not parse.  ValueError also on
    a wrong header, no header ("empty file") and no data rows.

    One np.loadtxt pass reads the table.  Where its parse could differ from int() and
    float() (non-ASCII text, '#' after the start of a line), where it fails, or where
    fault finds a bad row, the table is read again row by row.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source) as fh:
        if not fh.seekable():
            return _scan(fh, header, fault)
        start = fh.tell()
        columns = _bulk(fh, header)
        if columns is not None and fault(*columns) is None:
            return columns
        fh.seek(start)
        return _scan(fh, header, fault)


def _skipped(line: str) -> bool:
    return line.lstrip()[:1] in ("", "#")


def _cells(line: str) -> list[str]:
    line = line.rstrip("\r\n")
    return next(csv.reader([line])) if '"' in line else line.split(",")


def _header(fh, header) -> int:
    """Read through the header row, checking it; the number of lines read."""
    for number, line in enumerate(iter(fh.readline, ""), start=1):
        if _skipped(line):
            continue
        try:
            cells = _cells(line)
        except csv.Error as exc:
            raise ValueError(f"row {number}: could not parse: {exc}") from None
        if [c.strip().lower() for c in cells[: len(header)]] != list(header):
            raise ValueError(f"expected header {','.join(header)!r}, got {','.join(cells)!r}")
        return number
    raise ValueError("empty file")


def _bulk(fh, header):
    """The columns from one np.loadtxt pass, or None where it cannot vouch for them."""
    _header(fh, header)
    data = fh.tell()
    last = "\n"
    try:
        while chunk := fh.read(_CHUNK):
            if not chunk.isascii() or any(c in chunk for c in _NUMPY_ONLY_SPACES):
                return None  # NumPy reads some non-ASCII letters as digits
            if "#" in chunk and (last + chunk).count("\n#") != chunk.count("#"):
                return None  # np.loadtxt would cut a data row at its '#'
            last = chunk[-1]
        fh.seek(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no data, or an integer read via a float
            table = np.loadtxt(
                fh, dtype=_COLUMNS, delimiter=",", comments="#", quotechar=None,
                usecols=(0, 1), ndmin=1,
            )
    except (ValueError, Warning):
        return None
    return np.ascontiguousarray(table["int"]), np.ascontiguousarray(table["float"])


def _scan(fh, header, fault):
    """read_columns one row at a time: the same columns, or the same complaint."""
    rows = []  # (line number, int, float) per data row
    stop = None  # (line number, complaint) of the first row that does not parse
    for number, line in enumerate(fh, start=_header(fh, header) + 1):
        if _skipped(line):
            continue
        try:
            cells = _cells(line)
            if len(cells) < len(header):
                stop = number, f"expected {len(header)} columns, got {len(cells)}"
                break
            rows.append((number, int(cells[0]), float(cells[1])))
        except csv.Error as exc:
            stop = number, f"could not parse: {exc}"
            break
        except ValueError:
            stop = number, f"could not parse {cells[:2]!r}"
            break
    if not rows and stop is None:
        raise ValueError("no data rows")
    lines, ints, floats = zip(*rows) if rows else ((), (), ())
    # the rows before the stop are checked first: a row's faults need only the rows up to it
    found = fault(np.array(ints, dtype=object), np.array(floats, dtype=float))
    if found is not None:
        stop = lines[found[0]], found[1]
    if stop is not None:
        raise ValueError("row {}: {}".format(*stop))
    return np.array(ints, dtype=np.int64), np.array(floats, dtype=float)


def write_table(path, comments, header, lines) -> None:
    """Write '# ' comments, the header (csv-quoted where needed) and the data lines, each
    ending in "\\n".  Lines are joined 4096 at a time; a generator never sits in memory whole."""
    lines = iter(lines)
    with open(path, "w", newline="") as fh:
        _head(fh, comments, header)
        while block := list(islice(lines, 4096)):
            fh.write("\n".join(block) + "\n")


def write_series(tables, first) -> None:
    """Write each (path, comments, header, values) table as write_table does, with the
    row "{first + i},{values[i]!r}" per value.

    The first table, tables under _HELPER_ROWS rows and those past one per CPU this
    process may run on are formatted here.  Each other table goes to a helper
    interpreter, this same Python without numpy, which formats it while this process
    formats the rest; float repr is the same in both, so are the bytes.  OSError names
    a table whose helper failed; no helper outlives the call."""
    spare = _spare_cpus()
    local, helped = [], []
    with ExitStack() as stack:
        for position, (path, comments, header, values) in enumerate(tables):
            values = np.asarray(values, dtype=np.float64)
            if position and values.size >= _HELPER_ROWS and len(helped) < spare:
                with open(path, "w", newline="") as fh:
                    _head(fh, comments, header)
                    helped.append((path, _start(stack, _HELPER, [first], values, fh)))
            else:
                local.append((path, comments, header, values))
        for path, comments, header, values in local:
            rows = (f"{i},{v!r}" for i, v in enumerate(values.tolist(), first))
            write_table(path, comments, header, rows)
        for path, helper in helped:
            _wait(helper, path)


def write_matrix(fh, path, matrix, indent) -> None:
    """Write a 2-d float64 matrix of finite values into fh, the open file at path, as
    json.dumps(matrix.tolist(), indent=2) lays it out where the indent before its
    closing bracket is indent, "\\n" and spaces.

    Split by rows into at most one part per CPU this process may run on, each part of
    at least _HELPER_ROWS values: helper interpreters format the leading parts, the
    first straight into fh and each other into a file of its own, while this process
    formats the last; the parts are then written in order.  OSError names the file when
    a helper fails; no helper outlives the call."""
    rows, columns = matrix.shape
    inner = indent + "  "
    least = max(1, -(-_HELPER_ROWS // columns))  # rows in the smallest part
    parts = max(1, min(_spare_cpus(), rows // least))
    bounds = [rows * part // parts for part in range(parts + 1)]
    with ExitStack() as stack:
        outs = [fh, *(stack.enter_context(tempfile.TemporaryFile()) for _ in range(parts - 2))]
        helpers = [
            _start(stack, _MATRIX_HELPER, [columns, len(inner) - 1, "," if part else "["],
                   matrix[bounds[part] : bounds[part + 1]], out)
            for part, out in enumerate(outs[: parts - 1])
        ]
        text = _json_rows(matrix[bounds[-2] :], inner, "," if helpers else "[")
        for helper, out in zip(helpers, outs):
            _wait(helper, path)
            if out is not fh:
                out.seek(0)
                shutil.copyfileobj(out, fh.buffer)
        fh.write(text + indent + "]")


def _json_rows(rows, inner, lead) -> str:
    """The matrix rows as write_matrix lays them out, each led by "," and inner, the first by lead."""
    cells = "," + inner + "  "
    return lead + inner + ("," + inner).join(
        f"[{inner}  {cells.join(map(float.__repr__, row))}{inner}]" for row in rows.tolist()
    )


def _head(fh, comments, header) -> None:
    fh.writelines(f"# {comment}\n" for comment in comments)
    csv.writer(fh, lineterminator="\n").writerow(header)


def _spare_cpus() -> int:
    """Helpers this process may start: one per CPU it may run on, none when it may run
    on one or has no interpreter to start."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus if cpus > 1 and sys.executable else 0


def _start(stack, program, args, values, out):
    """A helper interpreter, entered into stack, running program with args: it reads
    values as raw float64 from its stdin and writes to out, an open file, from out's
    position on.  Nothing is buffered in out by the time it returns."""
    import subprocess  # here only: a command that starts no helper does not load it

    out.flush()
    with tempfile.TemporaryFile() as data:  # a file, not a pipe: this process never waits to feed it
        data.write(np.ascontiguousarray(values, dtype=np.float64))
        data.seek(0)
        command = [sys.executable, "-I", "-S", "-c", program, *map(str, args)]
        return stack.enter_context(subprocess.Popen(command, stdin=data, stdout=out))


def _wait(helper, path) -> None:
    if helper.wait():
        raise OSError(f"{path}: its helper interpreter exited with status {helper.returncode}")
