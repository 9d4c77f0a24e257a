"""CSV tables: the one reader and the one writer of every CSV the package handles.

A table is '# ' comment lines, a header row and data rows, each line ending in "\\n".
The reader also skips blank and '#' lines anywhere, accepts any line end, and
matches the header regardless of case and surrounding spaces.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from itertools import islice


def read_rows(source, header):
    """Yield (line number, row) per data row of the table at source, a path or open file;
    ValueError on no header row, a wrong header, a row with fewer columns or no data rows."""
    width = len(header)
    seen = 0  # header and data rows
    with nullcontext(source) if hasattr(source, "read") else open(source, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip() or row[0].lstrip().startswith("#"):
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


def write_table(path, comments, header, lines) -> None:
    """Write '# ' comments, the header and the data lines, each ending in "\\n".  Lines
    are joined 4096 at a time, so a generator of them never sits in memory whole."""
    lines = iter(lines)
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        fh.write(",".join(header) + "\n")
        while block := list(islice(lines, 4096)):
            fh.write("\n".join(block) + "\n")
