"""CSV files read in byte blocks: plain lines cut up by numpy, the rest by ``csv.reader``.

A file is read in binary blocks of ``BLOCK_BYTES``, each cut after its last
line break (a block grows past that size only to finish a longer line, and
the file's last line counts as ended).  A block is *plain* when it holds
no ``"``, no NUL, no byte of 0x80 or above and no ``\\r`` outside a ``\\r\\n``
ending, and every line has the header's field count (so no line is
blank) and is no longer than ``csv.field_size_limit()``.  A plain
line's fields are then exactly ``line.split(",")`` less its line break,
as ``csv.reader`` gives them, and a plain block hands out each field
column as one fixed-width bytes array.  From the first block that is not
plain, ``csv.reader`` reads the rest of the file in text mode, so a quoted
field may still span lines.  Only one block and its offset arrays are
alive at a time.
"""

from __future__ import annotations

import csv
from itertools import islice
from typing import Iterator

import numpy as np

#: Bytes read per block; a block ends at its last line break.
BLOCK_BYTES = 1 << 20

_COMMA, _LF, _CR = b",\n\r"


class PlainBlock:
    """Whole plain lines of one block, handing out each field column as a bytes array."""

    def __init__(self, raw: bytes, fields: int, seps: np.ndarray, widest: int):
        self._fields, self._seps = fields, seps
        # padded so that a window as wide as the longest line fits at every offset
        self._windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(raw + bytes(widest), np.uint8), widest)

    @classmethod
    def of(cls, raw: bytes, fields: int) -> PlainBlock | None:
        """The block of these whole lines, or None unless they are plain."""
        if b'"' in raw or b"\0" in raw or not raw.isascii():
            return None
        data = np.frombuffer(raw, np.uint8)
        lf = data == _LF
        seps = np.flatnonzero(lf | (data == _COMMA))
        ends = seps[fields - 1::fields]
        # fields - 1 commas, then the line break, on every line
        if len(seps) != np.count_nonzero(lf) * fields or not lf[ends].all():
            return None
        # a \r only before a line break, no line blank, no line longer than the longest field csv reads
        crlf = data[ends - 1] == _CR
        length = np.diff(ends, prepend=-1)
        widest = int(length.max())
        if (np.count_nonzero(data == _CR) != np.count_nonzero(crlf) or (length - 1 == crlf).any()
                or widest > csv.field_size_limit()):
            return None
        return cls(raw, fields, seps, widest)

    def __len__(self) -> int:
        return len(self._seps) // self._fields

    def column(self, j: int) -> np.ndarray:
        """Field ``j`` of every line, as an ``S`` array as wide as its longest value."""
        f, seps = self._fields, self._seps
        ends = seps[j::f]
        starts = seps[j - 1::f] + 1 if j else np.r_[0, seps[f - 1:-1:f] + 1]
        if j == f - 1:  # the last field stops before a \r\n ending's \r
            ends = ends - (self._windows[ends - 1, 0] == _CR)
        length = ends - starts
        width = max(int(length.max(initial=0)), 1)
        chars = self._windows[starts, :width]
        if (length < width).any():
            chars[np.arange(width) >= length[:, None]] = 0
        return chars.view(f"S{width}").ravel()


class CsvBlocks:
    """A CSV file's header row, then its lines: plain blocks while they last, then ``csv.reader`` rows.

    Use it as a context manager.  Read ``plain()`` before ``rows()``; the
    rows start at the first line that no plain block handed out.  ``ended``
    tells whether the plain blocks reached the end of the file.
    """

    def __init__(self, path):
        self._path = path
        self._fh = open(path, "rb")
        self._pending = b""  # read past the last whole line
        self._taken = 0  # lines handed out: the header and plain blocks
        self._reader: Iterator[list[str]] | None = None
        self.ended = False
        try:
            line = self._fh.readline()
            if line and not line.endswith(b"\n"):
                line += b"\n"
            if line and PlainBlock.of(line, line.count(b",") + 1) is not None:
                self.header = line.decode("ascii").removesuffix("\n").removesuffix("\r").split(",")
                self._taken = 1
            else:
                self._reader = None if line else iter(())
                self.header = next(self.rows(), [])
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> CsvBlocks:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def _block(self) -> bytes:
        """The next whole lines, ending in a line break; empty at the end of the file."""
        buf = self._pending
        while more := self._fh.read(BLOCK_BYTES):
            buf += more
            cut = buf.rfind(b"\n") + 1
            if cut:
                self._pending = buf[cut:]
                return buf[:cut]
        self._pending = b""
        return buf + b"\n" if buf and not buf.endswith(b"\n") else buf

    def plain(self) -> Iterator[PlainBlock]:
        """Plain blocks in file order, up to the end of the file or the first block that is not plain."""
        while self._reader is None:
            block = self._block()
            plain = PlainBlock.of(block, len(self.header)) if block else None
            if plain is None:
                if not block:
                    self._reader, self.ended = iter(()), True
                return
            self._taken += len(plain)
            yield plain

    def rows(self) -> Iterator[list[str]]:
        """``csv.reader`` rows of the lines no plain block handed out.

        The text file is read from its start, so a decoding error is raised
        as reading it whole would raise it.
        """
        if self._reader is None:
            self._fh.close()
            self._fh = open(self._path, newline="")
            self._reader = csv.reader(islice(self._fh, self._taken, None))
        return self._reader
