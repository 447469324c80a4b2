"""Every CSV table the package reads or writes: read in byte blocks under one
error contract, written a block of rows per ``%``.

``write_table`` writes every CSV the package writes: the CLI's tables and
``--format csv`` reports, ``grid.RequestModel.to_csv``,
``ingest.write_replay`` and ``ingest.make_fixture``.  A table body is
``Columns``, a printf row format and its column arrays; string cells are
passed through ``quote`` first.  The bytes are those of ``csv.writer``
with the same line terminator: ``\\n`` for the CLI's tables, ``\\r\\n`` for
model, replay and fixture files.  Within a block of ``CSV_BLOCK_ROWS``
rows, a float64 ``%.17g`` column whose distinct values (told apart by
bit pattern, as -0.0 prints ``-0`` and 0.0 ``0``) are at most half its
rows is formatted once per value; a column of mostly distinct values is
formatted cell by cell, which is cheaper there.

``read_table`` serves ``grid.RequestModel.from_csv``, ``ingest.read_replay``
and ``cli``'s ``resolve_weights`` (``--weights file:``) and ``cmd_fit``;
``ingest.parse_trips`` walks ``CsvBlocks.chunks`` itself, skipping the short
rows and bad cells that the others refuse.

The reading contract: a file is UTF-8, and its header (line 1) must hold the
named columns, a repeated name reading as its last occurrence.  Blank lines
are not rows; a long row is fine.  In file order, the first line that is
short, holds a cell its column's dtype refuses (``int()`` into int64, or
``float()``), holds bytes that are not UTF-8 or holds a field longer than
``csv.field_size_limit()`` raises ``SchemaError("{path}: line {N}: ...")``,
N counting physical lines; an oversize field's N is the line its row starts
on.

The header line is one ``csv.reader`` run; the rest of a file is read in
binary blocks of ``BLOCK_BYTES`` cut after their last line break, each on
its own.  Each column of a plain block (``PlainBlock.of``) is one
fixed-width bytes array, cast whole; ``csv.reader`` reads any other block,
and the next ones only while a quoted field is open.  A plain block's line
numbers are computed only where it fails.

A plain block's numeric cells are read by ``decimals``.  A canonical
decimal ``[-]digits[.digits]`` of at most 15 digits is M / 10**k, its
digits' integer M < 2**53 over a power of ten that float64 holds exactly,
so one correctly rounded division gives the double nearest the decimal,
which is what ``float()`` gives (Clinger, *How to Read Floating Point
Numbers Accurately*, PLDI 1990).  Other cells take numpy's cast, which
raises where ``int()``/``float()`` would.
"""

from __future__ import annotations

import csv
import io
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import SchemaError

#: Bytes read per block; a block ends at its last line break.
BLOCK_BYTES = 1 << 20

#: Rows that ``write_table`` formats per ``%``.
CSV_BLOCK_ROWS = 4096

_COMMA, _LF, _CR = b",\n\r"


class PlainBlock:
    """Whole plain lines of one block, handing out each field column as a bytes array."""

    short = 0  # every line has the header's field count

    def __init__(self, data: np.ndarray, fields: int, seps: np.ndarray, line: int):
        self._data, self._fields, self._seps, self.line = data, fields, seps, line

    @classmethod
    def of(cls, raw: bytes, fields: int, line: int) -> PlainBlock | None:
        """The block of these whole lines, the first of them line ``line``, or None unless they are plain.

        Plain lines hold no ``"``, NUL, byte of 0x80 or above or ``\\r``
        outside a ``\\r\\n`` ending, have ``fields`` fields and fit
        ``csv.field_size_limit()``: their fields are then exactly
        ``line.split(",")``, as ``csv.reader`` gives them.
        """
        if b'"' in raw or b"\0" in raw or not raw.isascii():
            return None
        if not raw.endswith(b"\n"):  # the file's last line counts as ended
            raw += b"\n"
        data = np.frombuffer(raw, np.uint8)
        mask = data == _LF
        lines = np.count_nonzero(mask)
        seps = np.flatnonzero(np.logical_or(mask, data == _COMMA, out=mask))
        ends = seps[fields - 1::fields]
        # fields - 1 commas, then the line break, on every line
        if len(seps) != lines * fields or not (data[ends] == _LF).all():
            return None
        # a \r only before a line break, no line blank, no line longer than the longest field csv reads
        crlf = np.zeros(lines, bool)
        if b"\r" in raw:
            crlf = data[ends - 1] == _CR
            if np.count_nonzero(np.equal(data, _CR, out=mask)) != np.count_nonzero(crlf):
                return None
        length = np.diff(ends, prepend=-1)
        if (length - 1 == crlf).any() or int(length.max()) > csv.field_size_limit():
            return None
        return cls(data, fields, seps, line)

    def __len__(self) -> int:
        return len(self._seps) // self._fields

    def column(self, j: int) -> np.ndarray:
        """Field ``j`` of every line, as an ``S`` array as wide as its longest value."""
        f, seps, data = self._fields, self._seps, self._data
        ends = seps[j::f]
        starts = seps[j - 1::f] + 1 if j else np.concatenate([[0], seps[f - 1:-1:f] + 1])
        if j == f - 1:  # the last field stops before a \r\n ending's \r
            ends = ends - (data[ends - 1] == _CR)
        length = ends - starts
        width = max(int(length.max(initial=0)), 1)
        if len(starts) and starts[-1] + width > len(data):  # a short field of the last line: pad the block
            data = np.concatenate([data, np.zeros(width, np.uint8)])
        # every window of width bytes, as a read-only view of the block
        chars = np.ndarray((len(data) - width + 1, width), np.uint8, data, 0, (1, 1))[starts]
        if (length < width).any():
            chars[np.arange(width) >= length[:, None]] = 0
        return chars.view(f"S{width}").ravel()

    def rows(self, where: Sequence[int]) -> Iterator[tuple[int, list]]:
        """Each line's number and its fields ``where``, as strings."""
        cells = zip(*(self.column(j).astype(str).tolist() for j in where))
        return zip(range(self.line, self.line + len(self)), map(list, cells))


class RowChunk:
    """Non-blank ``csv.reader`` rows with the lines they start on; ``short`` counts those below ``width`` fields."""

    def __init__(self, rows: list[tuple[int, list[str]]], width: int):
        self._rows = rows
        self._full = [row for _, row in rows if len(row) >= width]
        self.short = len(rows) - len(self._full)

    def column(self, j: int) -> list[str]:
        return [row[j] for row in self._full]

    def rows(self, where: Sequence[int]) -> Iterator[tuple[int, list]]:
        """Each row's line and its fields ``where``, None past the end of a short row."""
        return ((line, [row[j] if j < len(row) else None for j in where]) for line, row in self._rows)


class CsvBlocks:
    """A CSV file's header row, then its rows in chunks; a context manager."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        self._pending = b""  # read past the last whole line
        self._line = 0  # lines handed out
        try:
            rows, error = self._read(self._fh.readline())
            if error is not None and not rows:
                raise error
            (_, self.header), *rest = rows or [(1, [])]
            self._rest = rest, error  # the rows of the header's run after it
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> CsvBlocks:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def where(self, names: Sequence[str]) -> list[int]:
        """Each name's column: its last occurrence in the header, which must hold them all."""
        missing = [name for name in names if name not in self.header]
        if missing:
            raise SchemaError(f"{self.path}: line 1: header lacks columns {missing}")
        return [len(self.header) - 1 - self.header[::-1].index(name) for name in names]

    def chunks(self, width: int) -> Iterator[PlainBlock | RowChunk]:
        """The rows after the header, a chunk per block: a plain block, or else one ``csv.reader`` run's rows.

        A run's rows are short below ``width`` fields.  Bad bytes or an
        oversize field raise after the chunk of the rows before their line.
        """
        rows, error = self._rest
        while True:
            if rows := [(line, row) for line, row in rows if row]:  # a blank line is no row
                yield RowChunk(rows, width)
            if error is not None:
                raise error
            if not (block := self._block()):
                return
            plain = PlainBlock.of(block, len(self.header), self._line + 1)
            if plain is None:
                rows, error = self._read(block)
            else:
                self._line, rows = self._line + len(plain), []
                yield plain

    def _block(self) -> bytes:
        """The next whole lines (the file's last line may lack its line break); empty at the end of the file."""
        parts = [self._pending]
        while more := self._fh.read(BLOCK_BYTES):
            cut = more.rfind(b"\n") + 1
            if cut:  # one copy of the block, not one per concatenation and cut
                self._pending = more[cut:]
                return b"".join([*parts, memoryview(more)[:cut]])
            parts.append(more)
        self._pending = b""
        return b"".join(parts)

    def _read(self, block: bytes) -> tuple[list[tuple[int, list[str]]], SchemaError | None]:
        """A ``csv.reader`` run from the block's first line: its rows with the lines they start on, and its error.

        The run reads on into the next block only while a quoted field is open,
        and stops at the first row that ends where the lines read so far end.
        """
        read = [0]  # lines of the blocks handed to the reader whole

        def lines(block: bytes) -> Iterator[str]:
            while block:
                try:
                    text = block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    cut = max(block.rfind(b"\n", 0, exc.start), block.rfind(b"\r", 0, exc.start)) + 1
                    yield from io.StringIO(block[:cut].decode("utf-8"), newline="")
                    raise exc
                more = io.StringIO(text, newline="").readlines()
                read[0] += len(more)
                yield from more
                block = self._block()

        offset, rows, error, before = self._line, [], None, 0
        reader = csv.reader(lines(block))
        try:
            for row in reader:
                rows.append((offset + before + 1, row))
                before = reader.line_num
                if before == read[0]:
                    break
        except csv.Error as exc:  # a field past csv.field_size_limit(): named by the line its row starts on
            error = SchemaError(f"{self.path}: line {offset + before + 1}: {exc}")
        except UnicodeDecodeError:
            error = SchemaError(f"{self.path}: line {offset + reader.line_num + 1}: bytes that are not UTF-8")
        self._line = offset + reader.line_num
        return rows, error


def decimals(texts: np.ndarray, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` or ``float()`` of each canonical value of an ASCII ``S`` array, and where a value is not canonical.

    A canonical int is ``[-]digits``, 1 to 18 of them, and a canonical float
    ``[-]digits[.digits]`` with 1 to 15 digits in all, read exactly as the
    module docstring says; ``-0`` reads as -0.0.  Any other value (an
    exponent, a ``+``, spaces, ``inf``, ``_``, more digits) reads as 0 and
    is marked.  A column whose values share one layout (their bytes with
    each digit taken as ``0``, which fixes each digit's place value), as a
    fixed ``%f`` format writes, is one matrix-vector product; any other
    column is read digit by digit.  The array holds no NUL but its padding.
    """
    real = dtype.kind == "f"
    longest = 17 if real else 19  # a sign, the most digits and a point
    value, odd = np.zeros(len(texts), np.float64 if real else np.int64), np.ones(len(texts), bool)
    codes = texts.view(np.uint8).reshape(len(texts), texts.dtype.itemsize)
    rows = slice(None)
    if codes.shape[1] > longest:  # a longer value is not canonical
        rows = np.flatnonzero(codes[:, longest] == 0)
        codes = codes[rows, :longest]
    if len(codes):
        value[rows], odd[rows] = _digits(codes, real)
    return value.astype(dtype, copy=False), odd


def _digits(codes: np.ndarray, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """``decimals`` of NUL-padded values as a 2-d uint8 array, as float64 or int64."""
    n, width = codes.shape
    digits = codes - np.uint8(ord("0"))
    layout = codes - digits * (digits < 10)
    flat = layout.ravel()
    if not (flat[width:] == flat[:-width]).all():  # more than one layout
        return _digit_by_digit(codes, real)
    dtype = np.float64 if real else np.int64
    read = _places(layout[0].tobytes(), real)
    if read is None:
        return np.zeros(n, dtype), np.ones(n, bool)
    at, places, scale, negative = read
    value = digits[:, at].astype(dtype) @ np.array(places, dtype)
    if real:
        value /= scale
    return -value if negative else value, np.zeros(n, bool)


# 10**k, exact in float64, for the k digits after the point of a value of at most 17 bytes
_TENS = np.array([float(10 ** k) for k in range(17)])


def _digit_by_digit(codes: np.ndarray, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """``_digits`` of values of any layouts: each value's digits in turn, its sign and point skipped."""
    value = np.zeros(len(codes), np.float64 if real else np.int64)
    codes = np.ascontiguousarray(codes.T)  # one byte position of every value per row
    digits = codes - np.uint8(ord("0"))
    digit, point = digits < 10, codes == ord(".")
    negative = codes[0] == ord("-")
    stray = ~(digit | point | (codes == 0))  # neither a digit, a point, the padding...
    stray[0] &= ~negative  # ...nor a leading sign
    count, points = digit.sum(axis=0, dtype=np.uint8), point.sum(axis=0, dtype=np.uint8)
    odd = stray.any(axis=0) | (count == 0) | (count > (15 if real else 18)) | (points > (1 if real else 0))
    after, past = np.zeros(len(value), np.uint8), np.zeros(len(value), bool)  # digits past the point
    for column, is_digit, is_point in zip(digits, digit, point):
        value = np.where(is_digit, value * 10 + column, value)
        past |= is_point
        after += is_digit & past
    if real:
        value /= _TENS[after]
    return np.where(negative, -value, value), odd


def _places(layout: bytes, real: bool) -> tuple[list[int], list[int], int, bool] | None:
    """Where a layout's digits lie, their place values, ``10**k`` for its k digits after the point, and its sign.

    None for a layout whose values are not canonical.
    """
    body = layout.rstrip(b"\0")
    negative = body.startswith(b"-")
    whole, point, fraction = body[negative:].partition(b".")
    count = len(whole) + len(fraction)
    if (point and not real) or (whole + fraction).strip(b"0") or not 0 < count <= (15 if real else 18):
        return None
    at = [j for j, byte in enumerate(layout) if byte == ord("0")]
    return at, [10 ** k for k in reversed(range(count))], 10 ** len(fraction), negative


def _cast(texts: np.ndarray | list[str], dtype: np.dtype, refused: float | None = None) -> np.ndarray:
    """``int()`` or ``float()`` of every value, csv strings or a plain block's ``S`` array at once.

    ``S`` values are read by ``decimals``; those it leaves take numpy's
    cast, which raises where ``int()``/``float()`` would.  With ``refused``
    None that ``ValueError`` is raised; else the values the cast took are
    read one by one, ``refused`` standing for each that fails.  An integer
    past int64 raises ``OverflowError``.
    """
    read = int if dtype.kind == "i" else float
    if isinstance(texts, list):
        value, odd, rest = np.empty(len(texts), dtype), slice(None), texts
    else:
        value, odd = decimals(texts, dtype)
        rest = texts[odd]
    try:
        with np.errstate(over="ignore"):  # "1e999" is inf, as float() gives it
            value[odd] = [*map(read, rest)] if isinstance(rest, list) else rest.astype(dtype)
    except ValueError:
        if refused is None:
            raise
        out = np.full(len(rest), refused, dtype)
        for i, text in enumerate(rest):
            with suppress(ValueError):
                out[i] = read(_text(text))
        value[odd] = out
    return value


def _text(field: bytes | str) -> str:
    """A field as ``str``: float() strips str whitespace (``\\x1c``...) that it keeps in bytes."""
    return field.decode("ascii") if isinstance(field, bytes) else field


def _columns(path, chunk: PlainBlock | RowChunk, names: Sequence[str], where: Sequence[int],
             dtypes: Sequence[np.dtype]) -> list[np.ndarray]:
    """A chunk's named columns cast whole, or else cell by cell up to its first bad line."""
    if not chunk.short:
        with suppress(ValueError, OverflowError):
            return [_cast(chunk.column(j), t) for j, t in zip(where, dtypes)]
    columns: list[list[np.ndarray]] = [[np.zeros(0, t)] for t in dtypes]
    for line, cells in chunk.rows(where):
        if None in cells:
            raise SchemaError(f"{path}: line {line}: short row, no {names[cells.index(None)]} cell")
        for column, name, text, dtype in zip(columns, names, cells, dtypes):
            try:
                column.append(_cast([text], dtype))
            except (ValueError, OverflowError):
                raise SchemaError(f"{path}: line {line}: {name} cell {text!r} is not {dtype}") from None
    return [np.concatenate(column) for column in columns]


def read_table(path, names: Sequence[str], dtypes: Sequence) -> list[np.ndarray]:
    """The named columns of a CSV file in file order, each cast to its dtype, under the module's contract."""
    dtypes = [np.dtype(t) for t in dtypes]
    parts: list[list[np.ndarray]] = [[np.zeros(0, t)] for t in dtypes]
    with CsvBlocks(path) as blocks:
        where = blocks.where(names)
        for chunk in blocks.chunks(max(where) + 1):
            for part, column in zip(parts, _columns(path, chunk, names, where, dtypes)):
                part.append(column)
    return [np.concatenate(part) for part in parts]


def quote(cell: str) -> str:
    """A string cell as ``csv.writer`` writes it with line terminator ``\\n``.

    A cell holding a comma, a double quote or a ``\\n`` is quoted, its double
    quotes doubled; any other cell is written as it is.  Only the CLI's
    tables hold cells that need quoting.
    """
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


@dataclass(frozen=True)
class Columns:
    """A CSV table body: one printf-style row format, without its line break, over equal-length columns.

    A string column's cells must already be ``quote``d; ``%.17g`` writes
    a float's 17 significant digits, as ``cli.g17`` does.
    """

    row: str
    columns: Sequence

    def lines(self, end: str) -> Iterator[str]:
        """The rows, ``CSV_BLOCK_ROWS`` per string, each block's slice of every column converted on its own.

        A block's float64 ``%.17g`` cells are formatted once per distinct
        value (``_repeated_g17``) when at most half of them are distinct.
        """
        head, *specs = self.row.split("%")  # a row format holds no "%%"
        for a in range(0, len(self.columns[0]), CSV_BLOCK_ROWS):
            cells, row = [], [head]
            for column, spec in zip(self.columns, specs):
                block = np.asarray(column[a:a + CSV_BLOCK_ROWS])
                if spec.startswith(".17g") and block.dtype == np.float64 and (texts := _repeated_g17(block)):
                    cells.append(texts)
                    spec = "s" + spec[4:]
                else:
                    cells.append(block.tolist())
                row.append(spec)
            yield ("%".join(row) + end) * len(cells[0]) % tuple(chain.from_iterable(zip(*cells)))


def _repeated_g17(values: np.ndarray) -> list[str] | None:
    """``%.17g`` of each value, formatted once per distinct bit pattern; None if over half of them are distinct.

    Bit patterns, as ``np.unique`` on the floats would merge -0.0, which
    prints ``-0``, with 0.0; NaNs of every payload print ``nan``.
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(distinct) > len(values):
        return None
    texts = np.array(["%.17g" % value for value in distinct.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def write_table(path, header: Sequence[str], table: Columns | Iterable[Columns], end: str = "\n") -> None:
    """Write a header row and then a table body (or several, one after another), each line ended by ``end``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(quote, header)) + end)
        for body in [table] if isinstance(table, Columns) else table:
            fh.writelines(body.lines(end))
