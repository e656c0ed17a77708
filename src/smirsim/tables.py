"""The CSV table format every smirsim text artifact shares.

A table is UTF-8 text: a header row, then data rows, with ``\r\n`` line ends.
Integers and strings are written as text, a float as its ``repr`` (the
shortest text that reads back to the same float), an unknown value as an
empty cell. Every table is written by ``write_columns`` from one NumPy array
per column, a float NaN standing for unknown; numeric tables are formatted
without ``csv.writer``, and a table with a str column, whose cells may need
quoting, goes through ``write_csv``.

``read_columns`` reads a table into one NumPy array per column. The result
is always the row path's: ``csv.reader`` rows, each cell converted by
``int()`` (which must fit in int64) or ``float()``. A file whose bytes are
printable ASCII, tabs and ``\n`` or ``\r\n`` line ends, with no ``"`` and
no very long line, is parsed in bulk by NumPy's C reader instead, where
``csv`` and that reader split cells alike; any error or warning from the
bulk parse sends the file to the row path, which accepts or rejects it, so
the bulk parse never widens what a table may hold. ``lookup`` (where is each id) and ``has_duplicates``
(is an id repeated) answer the loaders' and value objects' key questions by
sorting, not by dicts or hashing.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .errors import ParseError

# A column kind beside str, int and float: float(), with an empty cell NaN.
FLOAT_OR_NAN = "float or NaN"
_DTYPE = {str: str, int: np.int64, float: np.float64, FLOAT_OR_NAN: np.float64}
# Bytes whose cells csv.reader and np.loadtxt split and strip alike.
_BULK_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n\r"


def _int64(cell: str) -> int:
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {cell.strip()} does not fit in int64")
    return value


# Rows per write of write_columns: about 1 MB of text in an edge table.
_CHUNK_ROWS = 1 << 16

_CONVERT = {str: str, int: _int64, float: float, FLOAT_OR_NAN: lambda c: float(c) if c else np.nan}


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header` and then every row of `rows` to `path`."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f)
        out.writerow(header)
        out.writerows(rows)


def write_columns(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write `header` and then the table whose columns are `columns`, a float
    NaN as an empty cell. Integer and float columns are ``%``-formatted in
    chunks of rows to the bytes ``write_csv`` writes; any other column (str
    ids may need quoting) sends the table to ``write_csv``."""
    if any(c.dtype.kind not in "iuf" for c in columns):
        write_csv(path, header, zip(*(_cells(c, None) for c in columns)))
        return
    row = ",".join("%d" if c.dtype.kind in "iu" else "%s" for c in columns) + "\r\n"
    unknown = '""' if len(columns) == 1 else ""  # as csv quotes a row of one empty cell
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(header)
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [_cells(c[start : start + _CHUNK_ROWS], unknown) for c in columns]
            cells = [None] * (len(chunk) * len(chunk[0]))
            for k, column in enumerate(chunk):
                cells[k :: len(chunk)] = column
            f.write(row * len(chunk[0]) % tuple(cells))


def _cells(column: np.ndarray, unknown) -> list:
    """The entries of `column` as Python values, a float NaN as `unknown`."""
    if column.dtype.kind != "f" or not np.isnan(column).any():
        return column.tolist()
    cells = column.astype(object)
    cells[np.isnan(column)] = unknown
    return cells.tolist()


def utf8_text(path, data: bytes) -> str:
    """`data`, the bytes of the file at `path`, decoded as UTF-8; a ParseError
    names the line of the first byte that is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise ParseError(path, line_no, f"not UTF-8 text: {e.reason}") from e


def read_columns(path, kinds: Sequence) -> tuple[list[np.ndarray], np.ndarray]:
    """Read the table at `path` as one array per column, and each row's line.

    `kinds` gives each column's kind: ``str`` (the cell text, a ``<U``
    array as wide as its longest cell), ``int`` (int64), ``float`` or
    ``FLOAT_OR_NAN`` (float64). The line numbers let
    callers name the line of a row that fails a later check. The header
    row is required and skipped; blank rows are skipped; a row with other
    than ``len(kinds)`` cells, a cell that does not convert and text that
    is not UTF-8 raise ``ParseError``.
    """
    lines = _scan_lines(Path(path).read_bytes())
    if lines is not None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return _read_bulk(path, kinds, *lines)
        except (ValueError, TypeError, OverflowError, Warning):
            pass  # the row path names the row at fault, or reads what the bulk parse cannot
    return _read_rows(path, kinds)


def _scan_lines(data: bytes) -> tuple[np.ndarray, int] | None:
    """Line numbers of the data rows and the longest line's length.

    None (the row path) when `data` is empty, holds a byte outside
    ``_BULK_BYTES`` or a ``\r`` not followed by ``\n``, or has a line so
    long that cells as wide as it would take far more memory than the text,
    or that a cell may pass csv's field size limit.
    """
    if not data or data.translate(None, _BULK_BYTES) or data.count(b"\r") != data.count(b"\r\n"):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if raw[-1] != ord("\n"):
        ends = np.append(ends, len(raw))  # the last line has no line break
    starts = np.concatenate([[0], ends[:-1] + 1])
    lengths = ends - starts
    blank = (lengths == 0) | ((lengths == 1) & (raw[starts] == ord("\r")))
    rows, width = np.flatnonzero(~blank[1:]) + 2, max(int(lengths[1:].max(initial=1)), 1)
    too_wide = len(rows) * width > 8 * len(data) or width > csv.field_size_limit()
    return None if too_wide else (rows, width)


def _read_bulk(path, kinds: Sequence, line_numbers: np.ndarray, width: int):
    """np.loadtxt of a file `_scan_lines` admits; no cell is longer than `width`."""
    dtype = [(f"c{k}", f"S{width}" if kind in (str, FLOAT_OR_NAN) else _DTYPE[kind])
             for k, kind in enumerate(kinds)]
    table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                       skiprows=1, ndmin=1, encoding="utf-8")
    if len(table) != len(line_numbers):
        raise ValueError("the bulk parse and the line scan count different rows")
    rows = table.view(np.uint8).reshape(len(table), table.itemsize)
    columns = []
    for k, kind in enumerate(kinds):
        column = table[f"c{k}"]
        if kind is str:  # ASCII bytes to code points
            start = table.dtype.fields[f"c{k}"][1]
            codes = rows[:, start : start + width]
            cells = int(np.flatnonzero(codes.any(axis=0)).max(initial=0)) + 1
            column = codes[:, :cells].astype(np.uint32).view(f"<U{cells}").ravel()
        elif kind == FLOAT_OR_NAN:
            known, column = column != b"", np.full(len(table), np.nan)
            column[known] = table[f"c{k}"][known].astype(np.float64)
        columns.append(np.ascontiguousarray(column))
    return columns, line_numbers


def _read_rows(path, kinds: Sequence) -> tuple[list[np.ndarray], np.ndarray]:
    """The row path: ``csv.reader`` rows, each cell converted on its own."""
    data = Path(path).read_bytes()
    text = utf8_text(path, data)
    reader = csv.reader(io.StringIO(text, newline=""))
    converters = [_CONVERT[kind] for kind in kinds]
    cells, line_numbers = [[] for _ in kinds], []
    try:
        if next(reader, None) is None:
            raise ParseError(path, 1, "empty file, expected a header row")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(kinds):
                raise ParseError(path, line_no, f"expected {len(kinds)} columns, got {len(row)}")
            try:
                for out, convert, cell in zip(cells, converters, row):
                    out.append(convert(cell))
            except ValueError as e:
                raise ParseError(path, line_no, str(e)) from e
            line_numbers.append(line_no)
    except csv.Error as e:  # such as a cell beyond csv's field size limit
        raise ParseError(path, reader.line_num, str(e)) from e
    for c in (c for c, kind in zip(cells, kinds) if kind is str and c):
        row = max(range(len(c)), key=lambda r: len(c[r]))
        if 4 * len(c[row]) * len(c) > max(16 * len(data), 2**28):  # bytes as a <U array
            raise ParseError(path, line_numbers[row], f"a {len(c[row])}-character cell makes "
                             f"its column of {len(c)} rows too large to hold")
    columns = [np.asarray(c, dtype=_DTYPE[kind]) for c, kind in zip(cells, kinds)]
    return columns, np.asarray(line_numbers, dtype=np.int64)


def has_duplicates(values: np.ndarray) -> bool:
    """True when some entry of `values` occurs more than once."""
    ordered = np.sort(_packed(values)[0])
    return bool(np.any(ordered[1:] == ordered[:-1]))


def lookup(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index in `keys` of each entry of `values` (any one, if it repeats), -1 if absent."""
    if keys.dtype.kind == values.dtype.kind == "U" and values.itemsize > keys.itemsize:
        # A value longer than every key matches none; searchsorted would widen the keys to it.
        too_long = np.char.str_len(values) > keys.itemsize // 4
        return np.where(too_long, -1, lookup(keys, values.astype(keys.dtype)))
    keys, values = _packed(keys, values)
    by_key = np.argsort(keys, kind="stable")
    by_value = np.argsort(values)  # sorted queries walk the keys with few cache misses
    keys, values = keys[by_key], values[by_value]
    pos = np.searchsorted(keys, values)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == values[found]
    index = np.full(len(values), -1, dtype=np.int64)
    index[by_value[found]] = by_key[pos[found]]
    return index


def _packed(*columns: np.ndarray) -> list[np.ndarray]:
    """The columns, or, when all are strings of at most 8 characters below
    U+0100, uint64 numbers that compare alike: one character per byte, zero
    padded (a ``<U`` string never ends in U+0000, so the packing is one-to-one).
    """
    width = max(c.itemsize for c in columns) // 4
    if width > 8 or any(c.dtype.kind != "U" for c in columns):
        return list(columns)
    codes = [np.ascontiguousarray(c, f"<U{width}").view(np.uint32).reshape(len(c), width)
             for c in columns]
    if any(c.max(initial=0) > 0xFF for c in codes):
        return list(columns)
    packed = [np.zeros(len(c), dtype=np.uint64) for c in codes]
    for p, c in zip(packed, codes):
        for k in range(width):
            p <<= np.uint64(8)
            p |= c[:, k]
    return packed
