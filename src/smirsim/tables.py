"""The CSV table format every smirsim text artifact shares.

A table is a header row, then data rows, with ``\r\n`` line ends. Cells are
Python values: ``int`` and ``str`` as text, ``float`` as its ``repr`` (the
shortest text that reads back to the same float), ``None`` as an empty cell
(unknown). Convert NumPy scalars first (``.tolist()``, ``float(x)``): the
``csv`` module writes a ``numpy.float64`` as ``np.float64(...)``.

Readers get raw string cells and convert them inline: the large tables are
read row by row, where a per-cell converter call would cost more than the
parse itself.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator, Sequence

from .errors import ParseError


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header` and then every row of `rows` to `path`."""
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(header)
        out.writerows(rows)


def read_csv(path, n_columns: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) for each data row of the table at `path`.

    The header row is required and skipped; blank rows are skipped; a row
    with other than `n_columns` cells raises ``ParseError``.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) is None:
            raise ParseError(path, 1, "empty file, expected a header row")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_columns:
                raise ParseError(path, line_no, f"expected {n_columns} columns, got {len(row)}")
            yield line_no, row
