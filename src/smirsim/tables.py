"""The CSV table format every smirsim text artifact shares.

A table is UTF-8 text: a header row, then data rows, with ``\r\n`` line ends.
Integers and strings are written as text, a float as its ``repr`` (the
shortest text that reads back to the same float), an unknown value as an
empty cell. Every table is written by ``write_columns`` from one NumPy array
per column, a float NaN standing for unknown, to the bytes ``csv.writer``
writes: a str cell holding ``,``, ``"``, ``\r`` or ``\n`` is quoted, its
quotes doubled, and the empty cell of a one-column table is written ``""``.

``read_columns`` reads a table into one NumPy array per column. The result
is always the row path's: ``csv.reader`` rows, each cell converted by
``int()`` (which must fit in int64) or ``float()``. A file whose bytes are
printable ASCII, tabs and ``\n`` or ``\r\n`` line ends, with no ``"`` and
no very long line, is parsed in bulk by NumPy's C reader instead, where
``csv`` and that reader split cells alike; any error or warning from the
bulk parse sends the file to the row path, which accepts or rejects it, so
the bulk parse never widens what a table may hold. An ``ID`` column holds
ids: when every cell of its table is a canonical decimal (digits, no sign,
space or leading zero, within int64), the table is parsed once as int64,
else the ids are text. ``lookup`` (where is each id) and ``has_duplicates``
(is an id repeated) match canonical decimal ids as integers, through a dense
table where they span a small range, and any other id as text, so "007" is
never "7".
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import ParseError

# A column kind beside str, int and float: float(), with an empty cell NaN.
FLOAT_OR_NAN = "float or NaN"
# A column kind for ids: int64 if the table is all canonical decimals, else str.
ID = "id"
_DTYPE = {str: str, int: np.int64, float: np.float64, FLOAT_OR_NAN: np.float64}
# Bytes whose cells csv.reader and np.loadtxt split and strip alike.
_BULK_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n\r"
# A non-negative int64 v has one decimal digit more than the entries of _POW10 it reaches.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _int64(cell: str) -> int:
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {cell.strip()} does not fit in int64")
    return value


# Rows per write of write_columns: about 1 MB of text in an edge table.
_CHUNK_ROWS = 1 << 16

# csv.writer quotes a cell that holds the delimiter, the quote or a line break.
_NEEDS_QUOTES = frozenset(',"\r\n')

_CONVERT = {str: str, int: _int64, float: float, FLOAT_OR_NAN: lambda c: float(c) if c else np.nan}


def write_columns(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write `header` and then the table whose columns are `columns` (int,
    float or ``<U``), a float NaN as an empty cell, ``%``-formatted in chunks
    of rows."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%s" for c in columns) + "\r\n"
    unknown = '""' if len(columns) == 1 else ""  # as csv quotes a row of one empty cell
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(_cells(np.array(header), unknown)) + "\r\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [_cells(c[start : start + _CHUNK_ROWS], unknown) for c in columns]
            cells = [None] * (len(chunk) * len(chunk[0]))
            for k, column in enumerate(chunk):
                cells[k :: len(chunk)] = column
            f.write(row * len(chunk[0]) % tuple(cells))


def _cells(column: np.ndarray, unknown) -> list:
    """The entries of `column` as Python values: a float NaN and an empty str as
    `unknown`, a str holding ``,``, ``"``, ``\r`` or ``\n`` quoted as csv quotes it."""
    if column.dtype.kind == "U":
        return [s or unknown if _NEEDS_QUOTES.isdisjoint(s) else '"%s"' % s.replace('"', '""')
                for s in column.tolist()]
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
    ``FLOAT_OR_NAN`` (float64), or ``ID`` (int64 if the table has only ``ID``
    and ``int`` columns and every cell is a canonical decimal, else ``str``).
    The line numbers let callers name the line of a row that fails a later
    check. The header row is required and skipped; blank rows are skipped; a
    row with other than ``len(kinds)`` cells, a cell that does not convert
    and text that is not UTF-8 raise ``ParseError``.
    """
    data = Path(path).read_bytes()
    for read in (_read_decimal, _read_bulk):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                columns = read(path, data, kinds)
            if columns:
                return columns
        except (ValueError, TypeError, OverflowError, Warning):
            pass  # the row path names the row at fault, or reads what the bulk parse cannot
        kinds = [str if kind == ID else kind for kind in kinds]  # ids not all int64: text
    return _read_rows(path, kinds)


def _read_decimal(path, data: bytes, kinds: Sequence):
    """The int64 columns of a table of ``ID`` and ``int`` columns, or None. Past
    the header line the bytes must be digits, commas and line breaks (``\r``
    only in ``\r\n``), np.loadtxt must parse one row per line, and the bytes
    must count the values' digits, the commas and the breaks: a leading zero
    would add a byte, so every cell is a canonical decimal."""
    header, _, body = data.partition(b"\n")
    if (set(kinds) - {ID, int} or not body or header.translate(None, _BULK_BYTES)
            or body.translate(None, b"0123456789,\r\n") or _lone_cr(data)):
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    breaks, crlf = np.count_nonzero(raw == ord("\n")), np.count_nonzero(raw == ord("\r"))
    table = np.loadtxt(path, dtype=np.int64, delimiter=",", comments=None, quotechar=None,
                       skiprows=1, ndmin=2, encoding="utf-8")
    powers = _POW10[_POW10 <= table.max(initial=0)]
    digits = table.size + sum(int(np.count_nonzero(table >= p)) for p in powers)
    if (table.shape != (breaks + (body[-1:] != b"\n"), len(kinds))
            or len(body) != digits + len(table) * (len(kinds) - 1) + breaks + crlf):
        return None
    return list(np.ascontiguousarray(table.T)), np.arange(2, len(table) + 2, dtype=np.int64)


def _read_bulk(path, data: bytes, kinds: Sequence):
    """np.loadtxt of `data`, the bytes at `path`; None (the row path) when they are
    empty, hold a byte outside ``_BULK_BYTES`` or a lone ``\r``, or have a line so
    long that cells as wide would take far more memory than the text, or that a
    cell may pass csv's field size limit."""
    if not data or data.translate(None, _BULK_BYTES) or _lone_cr(data):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if raw[-1] != ord("\n"):
        ends = np.append(ends, len(raw))  # the last line has no line break
    starts = np.concatenate([[0], ends[:-1] + 1])
    lengths = ends - starts
    blank = (lengths == 0) | ((lengths == 1) & (raw[starts] == ord("\r")))
    line_numbers, width = np.flatnonzero(~blank[1:]) + 2, max(int(lengths[1:].max(initial=1)), 1)
    if len(line_numbers) * width > 8 * len(data) or width > csv.field_size_limit():
        return None
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


def _lone_cr(data: bytes) -> bool:
    """Whether `data` holds a ``\r`` not followed by ``\n``."""
    raw = np.frombuffer(data, dtype=np.uint8)
    cr = raw == ord("\r")
    return np.count_nonzero(cr) != np.count_nonzero(cr[:-1] & (raw[1:] == ord("\n")))


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
    ints, canonical = _decimal(values)
    ordered = np.sort(ints if canonical.all() else values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def lookup(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index in `keys` of each entry of `values` (the first, if it repeats), -1 if absent;
    as int64 when every value is an integer or canonical decimal, else as text."""
    ints, canonical = _decimal(values)
    if canonical.all():  # a key that is no canonical decimal, as "007", equals no value
        key_ints, key_canonical = _decimal(keys)
        where = np.append(np.flatnonzero(key_canonical), -1)  # index -1 (absent) stays -1
        return where[_find(key_ints[where[:-1]], ints)]
    if keys.dtype.kind == values.dtype.kind == "U" and values.itemsize > keys.itemsize:
        # A value longer than every key matches none; searchsorted would widen the keys to it.
        too_long = np.char.str_len(values) > keys.itemsize // 4
        return np.where(too_long, -1, lookup(keys, values.astype(keys.dtype)))
    return _find(keys, values)


def _find(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``lookup`` of values in keys that compare as they are."""
    if keys.dtype == values.dtype == np.int64 and len(keys):
        lo, hi = int(keys.min()), int(keys.max())
        if hi - lo < 4 * (len(keys) + len(values)):  # a dense table: table[key - lo] = index
            table = np.full(hi - lo + 1, -1, dtype=np.int64)
            table[keys[::-1] - lo] = np.arange(len(keys) - 1, -1, -1)  # the first of a repeat last
            index = table[np.clip(values, lo, hi) - lo]  # at most two arrays of len(values)
            index[(values < lo) | (values > hi)] = -1
            return index
    by_key = np.argsort(keys, kind="stable")
    by_value = np.argsort(values)  # sorted queries walk the keys with few cache misses
    keys, values = keys[by_key], values[by_value]
    pos = np.searchsorted(keys, values)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == values[found]
    index = np.full(len(values), -1, dtype=np.int64)
    index[by_value[found]] = by_key[pos[found]]
    return index


def _decimal(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry of `column` as int64, and whether it is one: all of an int
    column, the canonical decimals of a str column (whose code points past a
    string's end are U+0000, as a ``<U`` string never ends in one)."""
    if column.dtype.kind != "U":
        return column, np.ones(len(column), dtype=bool)
    codes = np.ascontiguousarray(column).view(np.uint32).reshape(-1, column.itemsize // 4).T.copy()
    digits = codes - np.uint32(ord("0"))
    is_digit = digits < 10
    value = np.zeros(len(column), dtype=np.uint64)
    for k in range(min(len(codes), 19)):  # 19 digits fit in uint64
        value = np.where(is_digit[k], value * 10 + digits[k], value)
    length = is_digit.sum(axis=0)
    canonical = ((is_digit | (codes == 0)).all(axis=0) & (is_digit[:-1] >= is_digit[1:]).all(axis=0)
                 & (length > 0) & (length < 20) & (value < 2**63) & ((digits[0] > 0) | (length == 1)))
    return value.astype(np.int64), canonical
