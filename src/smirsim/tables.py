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
ids: int64 when every cell of the column is a canonical decimal (digits, no
sign, space or leading zero, within int64), else text; a table whose every
cell is one is parsed once as int64. ``lookup`` (where is each id) matches
ints with ints, through a dense table where they span a small range, and
text with text; text matched against ints is the int it is the canonical
decimal of, and otherwise matches none, so "007" is never 7.
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
_DTYPE = {str: str, ID: str, int: np.int64, float: np.float64, FLOAT_OR_NAN: np.float64}
# Bytes whose cells csv.reader and np.loadtxt split and strip alike.
_BULK_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n\r"
_DECIMAL_BYTES = b"0123456789,\r\n"  # of a table body whose every cell is a canonical decimal
# A non-negative int64 v has one decimal digit more than the entries of _POW10 it reaches.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _int64(cell: str) -> int:
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {cell.strip()} does not fit in int64")
    return value


# Rows per write of write_columns: about 1 MB of text in an edge table.
_CHUNK_ROWS = 1 << 16
_BLOCK_BYTES = 1 << 20  # of a byte scan

# csv.writer quotes a cell that holds the delimiter, the quote or a line break.
_NEEDS_QUOTES = frozenset(',"\r\n')

_CONVERT = {str: str, ID: str, int: _int64, float: float,
            FLOAT_OR_NAN: lambda c: float(c) if c else np.nan}


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


def read_columns(path, kinds: Sequence) -> tuple[list[np.ndarray], Sequence[int]]:
    """Read the table at `path` as one array per column, and each row's line.

    `kinds` gives each column's kind: ``str`` (the cell text, a ``<U``
    array as wide as its longest cell), ``int`` (int64), ``float`` or
    ``FLOAT_OR_NAN`` (float64), or ``ID`` (int64 if every cell of the column
    is a canonical decimal, else ``str``).
    The line numbers let callers name the line of a row that fails a later
    check. The header row is required and skipped; blank rows are skipped; a
    row with other than ``len(kinds)`` cells, a cell that does not convert
    and text that is not UTF-8 raise ``ParseError``.
    """
    data = bytearray(Path(path).read_bytes())
    for read in (_read_decimal, _read_bulk):  # each clears `data` to parse
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = read(path, data or bytearray(Path(path).read_bytes()), kinds)
            if table:
                break
        except (ValueError, TypeError, OverflowError, Warning):
            pass  # the row path names the row at fault, or reads what the bulk parse cannot
    else:
        table = _read_rows(path, kinds)
    columns, line_numbers = table
    for k in (k for k, kind in enumerate(kinds) if kind == ID and columns[k].dtype.kind == "U"):
        if columns[k].itemsize <= 19 * 4:  # else too wide to be all canonical decimals
            value, canonical = _decimals(columns[k])
            columns[k] = value if canonical.all() else columns[k]
    return columns, line_numbers


def _read_decimal(path, data: bytearray, kinds: Sequence):
    """The int64 columns of a table of ``ID`` and ``int`` columns, or None. Past the
    header line `data`, the bytes at `path`, must be digits, commas and line ends
    (``\r`` only in ``\r\n``), and count exactly the values' digits, the commas, the
    ``\r``s and a ``\n`` per row but the last: a leading zero or a blank line would
    add a byte, so every cell is canonical and every line a row. `data` is
    cleared before the parse."""
    start = data.find(b"\n") + 1  # of the body, past the header line
    header = data[:start]
    if (set(kinds) - {ID, int} or not 0 < start < len(data) or header.translate(None, _BULK_BYTES)
            or data.translate(None, _DECIMAL_BYTES) != header.translate(None, _DECIMAL_BYTES)
            or (crs := _crlf_count(data)) is None):
        return None
    size, crs, final_break = len(data) - start, crs - header.count(b"\r"), data.endswith(b"\n")
    data.clear()
    table = np.loadtxt(path, dtype=np.int64, delimiter=",", comments=None, quotechar=None,
                       skiprows=1, ndmin=2, encoding="utf-8")
    powers = _POW10[_POW10 <= table.max(initial=0)]
    digits = table.size + sum(int(np.count_nonzero(table >= p)) for p in powers)
    if table.shape[1] != len(kinds) or size != digits + table.size - (not final_break) + crs:
        return None
    columns = [table[:, k].copy() for k in range(len(kinds))]
    del table
    return columns, range(2, len(columns[0]) + 2)  # every line a row


def _crlf_count(data: bytearray) -> int | None:
    """The number of ``\r\n`` in `data`, or None if some ``\r`` is not one's; counted in
    blocks of about 1 MB, so that no transient holds a bool per byte of `data`."""
    raw, pairs = np.frombuffer(data, dtype=np.uint8), 0
    for start in range(0, len(raw), _BLOCK_BYTES):
        block = raw[start : start + _BLOCK_BYTES + 1]  # and the next block's first byte
        cr = block[:_BLOCK_BYTES] == ord("\r")
        crlf = np.count_nonzero(cr[: len(block) - 1] & (block[1:] == ord("\n")))
        if crlf != np.count_nonzero(cr):
            return None
        pairs += crlf
    return pairs


def _read_bulk(path, data: bytearray, kinds: Sequence):
    """np.loadtxt of the table at `path` once `data`, its bytes, is cleared; None
    when they are empty, hold a byte outside ``_BULK_BYTES`` or a lone ``\r``, or
    have a line whose width as cells would take far more memory than the text or
    pass csv's field size limit. ``FLOAT_OR_NAN`` is float64, text if a cell is empty."""
    if not data or data.translate(None, _BULK_BYTES) or _crlf_count(data) is None:
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
    comma = raw == ord(",")  # beside a comma, \r, \n (or \t) or the file's end: an empty cell
    bound = comma | (raw <= ord("\r"))
    empty_cell = comma[-1] or np.any(comma[:-1] & bound[1:]) or np.any(bound[:-1] & comma[1:])
    del raw, ends, starts, lengths, blank, comma, bound
    data.clear()
    dtype = [(f"c{k}", f"S{width}" if _DTYPE[kind] is str or kind == FLOAT_OR_NAN and empty_cell
              else _DTYPE[kind]) for k, kind in enumerate(kinds)]
    table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                       skiprows=1, ndmin=1, encoding="utf-8")
    if len(table) != len(line_numbers):
        raise ValueError("the bulk parse and the line scan count different rows")
    rows = table.view(np.uint8).reshape(len(table), table.itemsize)
    columns = []
    for k, kind in enumerate(kinds):
        column = table[f"c{k}"]
        if _DTYPE[kind] is str:  # ASCII bytes to code points
            start = table.dtype.fields[f"c{k}"][1]
            codes = rows[:, start : start + width]
            cells = int(np.flatnonzero(codes.any(axis=0)).max(initial=0)) + 1
            column = codes[:, :cells].astype(np.uint32).view(f"<U{cells}").ravel()
        elif kind == FLOAT_OR_NAN and empty_cell:
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
    for c in (c for c, kind in zip(cells, kinds) if _DTYPE[kind] is str and c):
        row = max(range(len(c)), key=lambda r: len(c[r]))
        if 4 * len(c[row]) * len(c) > max(16 * len(data), 2**28):  # bytes as a <U array
            raise ParseError(path, line_numbers[row], f"a {len(c[row])}-character cell makes "
                             f"its column of {len(c)} rows too large to hold")
    columns = [np.asarray(c, dtype=_DTYPE[kind]) for c, kind in zip(cells, kinds)]
    return columns, np.asarray(line_numbers, dtype=np.int64)


def has_duplicates(values: np.ndarray) -> bool:
    """True when some entry of `values` occurs more than once."""
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def lookup(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index in `keys` of each entry of `values` (the first, if it repeats), -1 if absent.
    Ints match ints and text text; against ints, text matches as the int it is the
    canonical decimal of (an int's decimal text always is one), and otherwise not."""
    if keys.dtype.kind == "U" and values.dtype.kind != "U":
        ints, canonical = _decimals(keys)
        at = np.append(np.flatnonzero(canonical), -1)  # at[-1]: where no key is found
        return at[lookup(ints[at[:-1]], values)]
    if values.dtype.kind == "U" and keys.dtype.kind != "U":
        ints, canonical = _decimals(values)
        return np.where(canonical, lookup(keys, ints), -1)
    if keys.dtype.kind == "U" and values.itemsize > keys.itemsize:  # so values are text too
        # A value longer than every key matches none; searchsorted would widen the keys to it.
        too_long = np.char.str_len(values) > keys.itemsize // 4
        return np.where(too_long, -1, lookup(keys, values.astype(keys.dtype)))
    if keys.dtype == values.dtype == np.int64 and len(keys):
        lo, hi = int(keys.min()), int(keys.max())
        if hi - lo < 4 * (len(keys) + len(values)):  # a dense table: table[key - lo] = index
            table = np.full(hi - lo + 1, -1, dtype=np.int64)
            table[keys[::-1] - lo] = np.arange(len(keys) - 1, -1, -1)  # the first of a repeat last
            index = np.clip(values, lo, hi)
            index -= lo
            for block in np.split(index, range(_CHUNK_ROWS, len(index), _CHUNK_ROWS)):
                block[:] = table[block]  # in place: one array of len(values)
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


def _decimals(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, canonical) per entry of the ``<U`` array `column`: whether it is a
    canonical decimal within int64, and if so its int64 value. Code points past a
    string's end are U+0000, as a ``<U`` string never ends in one."""
    codes = np.ascontiguousarray(column).view(np.uint32).reshape(-1, column.itemsize // 4).T
    is_digit = (codes >= ord("0")) & (codes <= ord("9"))
    value = np.zeros(len(column), dtype=np.uint64)
    for k in range(min(len(codes), 19)):  # 19 digits fit in uint64
        value = np.where(is_digit[k], value * 10 + (codes[k] - ord("0")), value)
    length = is_digit.sum(axis=0)
    canonical = ((is_digit | (codes == 0)).all(axis=0) & (is_digit[:-1] >= is_digit[1:]).all(axis=0)
                 & (length > 0) & (length < 20) & (value < 2**63)
                 & ((codes[0] > ord("0")) | (length == 1)))  # no leading zero
    return value.view(np.int64), canonical
