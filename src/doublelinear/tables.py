"""CSV tables: the one reader and the writers of every CSV the package handles, and
the one row formatter of every bulk float output.

A table is '# ' comment lines, a header row and data rows, each line ending in "\\n".
The reader skips every line that is blank or whose first non-space character is
'#', accepts any line end, and matches the header regardless of case and
surrounding spaces.  A quoted cell ends with its line.

format_rows writes every bulk float output, here and in helper interpreters alike, so a
row's bytes do not depend on where it was formatted; output() makes each file whole or absent,
and outputs() a command's files together.
"""

from __future__ import annotations

import csv
import os
import sys
import tempfile
import warnings
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

import numpy as np

_COLUMNS = np.dtype([("int", np.int64), ("float", np.float64)])
# Characters NumPy's number parser skips as spaces and Python's int() and float() refuse.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"
_CHUNK = 1 << 18  # characters per read of the check before the bulk parse
# Values from which a job goes to a helper interpreter: at about 1 us a value, formatting
# them here takes longer than the helper's start, about 14 ms.
_HELPER_ROWS = 20_000
# The row formatter, stdlib only: this module runs it once, at import; a helper runs it
# as __main__, with format_rows's arguments in argv and values as raw float64 on stdin.
_FORMATTER = '''
def format_rows(values, width, cell, sep, lead, end, *index):
    """Pieces of text, each of about 4096 values and one %: lead, rows of width float reprs
    joined by cell, the rows joined by sep, then end.  values: raw float64, C-contiguous.
    index leads rows of one value with (first,) their number from first, or (first, stages)
    that of their group of stages rows and their place in it, each followed by cell."""
    values = memoryview(values)
    values = values.cast("B").cast("d") if values.nbytes else ()  # no cast of a (0, n) view
    row = cell.join(["%r"] * width)
    places = [cell + str(place) for place in range(index[1])] if len(index) > 1 else [""]
    group = ["%d" + place + cell + row for place in places] if index else [row]
    size = len(group) * width  # values per group
    count, step = len(values) // size, max(1, 4096 // size)  # groups, groups per piece
    for start in range(0, count, step):
        stop = min(start + step, count)
        text = (sep if start else lead) + sep.join(group * (stop - start))
        cells = values[start * size : stop * size]
        if index:  # rows of one value, each after its group's number
            numbers = list(range(index[0] + start, index[0] + stop))
            args = [None] * (2 * len(cells))
            args[1::2] = cells
            for place in range(len(group)):
                args[2 * place :: 2 * len(group)] = numbers
            cells = args
        yield (text + (end if stop == count else "")) % tuple(cells)


if __name__ == "__main__":
    import sys

    width, cell, sep, lead, end, *index = sys.argv[1:]
    texts = format_rows(sys.stdin.buffer.read(), int(width), cell, sep, lead, end, *map(int, index))
    sys.stdout.buffer.writelines(text.encode("ascii") for text in texts)
'''
exec(_FORMATTER, _formatter := {"__name__": __name__})
format_rows = _formatter["format_rows"]
CSV_ROWS = (",", "\n", "", "\n")  # format_rows's cell, sep, lead and end for a CSV's rows


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


def write_text(path, comments, header, text) -> None:
    """Write '# ' comments, the header (csv-quoted where needed), then text's str pieces."""
    with output(path) as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(text)


@contextmanager
def output(path):
    """path opened for writing, and removed if the block raises: whole or absent."""
    with outputs() as written, open(path, "w", newline="") as fh:
        written.append(path)
        yield fh


@contextmanager
def outputs():
    """A list for the block to add each path it has written to; if the block raises,
    every path in it is removed, so the block's outputs are whole or absent together."""
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


def write_series(tables, first) -> None:
    """Write each (path, comments, header, values) table as write_text does, with the row
    "{first + i},{values[i]!r}" per value; each table is one _texts job.  If one table
    fails, none is left."""
    tables = list(tables)
    jobs = [(path, np.ascontiguousarray(values, dtype=np.float64), 1, *CSV_ROWS, first)
            for path, *_, values in tables]
    with ExitStack() as stack, outputs() as written:
        for (path, comments, header, _), text in zip(tables, _texts(stack, jobs)):
            write_text(path, comments, header, text)
            written.append(path)


def write_rows(fh, path, values, width, cell, sep, lead, end) -> None:
    """Write format_rows(values, width, cell, sep, lead, end) into fh, the open file at path,
    values a C-contiguous float64 array of one or more rows of width values.  The rows are
    cut into _texts jobs of at least _HELPER_ROWS values, at most one per CPU."""
    rows = len(values)
    least = max(1, -(-_HELPER_ROWS // width))  # rows in the smallest part
    n_parts = max(1, min(_spare_cpus(), rows // least))
    bounds = [rows * part // n_parts for part in range(n_parts + 1)]
    jobs = [  # the parts' texts join into the one text of all rows
        (path, values[start:stop], width, cell, sep,
         sep if start else lead, end if stop == rows else "")
        for start, stop in zip(bounds, bounds[1:])
    ]
    with ExitStack() as stack:
        for text in _texts(stack, jobs):
            fh.writelines(text)


def _texts(stack, jobs) -> list:
    """The text of each (path, *format_rows's arguments) job, in order.  Helper
    interpreters, this Python without numpy, started here and entered into stack, format
    the last jobs of at least _HELPER_ROWS values, one per CPU this process may run on,
    never the first; this process formats each other job as its text is read."""
    big = [at for at, job in enumerate(jobs) if at and job[1].size >= _HELPER_ROWS]
    helped = big[::-1][: _spare_cpus()]
    return [
        _start(stack, *job) if at in helped else format_rows(*job[1:])
        for at, job in enumerate(jobs)
    ]


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _spare_cpus() -> int:
    """Helpers this process may start: one per CPU it may run on, none when it may run
    on one or has no interpreter to start."""
    cpus = available_cpus()
    return cpus if cpus > 1 and sys.executable else 0


def _start(stack, path, values, *args):
    """Start a helper interpreter, entered into stack, on format_rows(values, *args), values
    a C-contiguous float64 array; its text in pieces once it exits, or OSError naming path."""
    import subprocess  # here only: a command that starts no helper does not load it

    out = stack.enter_context(tempfile.TemporaryFile())
    with tempfile.TemporaryFile() as data:  # a file, not a pipe: this process never waits to feed it
        data.write(values)
        data.seek(0)
        command = [sys.executable, "-I", "-S", "-c", _FORMATTER, *map(str, args)]
        helper = stack.enter_context(subprocess.Popen(command, stdin=data, stdout=out))
    return _pieces(helper, out, path)


def _pieces(helper, out, path):
    if helper.wait():
        raise OSError(f"{path}: its helper interpreter exited with status {helper.returncode}")
    out.seek(0)
    yield from iter(lambda: out.read(1 << 20).decode("ascii"), "")
