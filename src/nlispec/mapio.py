"""Reading and writing angular-wavelength intensity maps, and the text
table codec that `.csv` maps and retrieval result tables share.

Three map forms, chosen by file suffix:

  .nlm   native container: the ASCII magic line ``NLIMAP1``, an 8-byte
         little-endian header length, a UTF-8 JSON header holding both
         axes and free-form metadata, then the intensity as row-major
         little-endian float64.  Lossless and compact.

  .csv   text table with the header row ``wavelength_nm,<angles>`` and
         one row per wavelength: the wavelength, then the intensities.

  .pgm   16-bit binary PGM for eyeballing in an image viewer, with a
         ``<name>.pgm.json`` sidecar carrying axes, metadata and the
         affine intensity scale.  Quantized to 1/65535 of the range.

A text table is UTF-8 lines: a magic comment (``# nlispec map 1``,
``# nlispec retrieval 1``), ``# meta: <json>`` with sorted keys, a
header row, then one comma-separated line per row with floats printed
as %.17g, so values and NaNs survive bit-exactly.  Readers take the
meta from the leading comments, skip every line that is blank or
starts with ``#`` after stripping, accept CRLF and leave the magic to
the caller (hand-made maps have none).  Bytes that are not UTF-8 fail
as MapFormatError naming the file (`errors.text_input`).

Each form has one reader, a `MapReader` that `open_map` returns: it
opens the file once and reads and checks the header (magic, axes,
meta, data size), then hands out rows in increasing order, reading the
file one block of rows at a time.  It reads and checks every row of
the file, also the rows not asked for (finite intensity in every form,
and the cells of every `.csv` line, named by file line), so a caller
that fits every 4th row fails on exactly the files that `load_map`
rejects.  `load_map` is "open and read every row".  A `.csv` reader
counts the cells of every line and takes its wavelength axis from the
first cells in one pass over the file on open, rewinds and parses the
rows in a second.

Each form has one writer too, fed by blocks of rows: `save_map_blocks`
takes the axes, the meta and a block source, a function that yields
the map's rows as blocks in row order each time it is called, and
encodes and writes one block at a time.  A `.nlm` or `.csv` map is
written in one pass over the blocks; a `.pgm` map in two, because its
16-bit levels scale to the intensity range, which the first pass
finds.  `save_map` feeds an in-memory map's row blocks to the same
writers, so a map streamed from `simulate` and the same map saved
whole are the same bytes.

All writes are atomic (temp file in the destination directory, then
rename), so a crash never leaves a half-written file behind; a `.pgm`
save that fails removes the image it already wrote.  A file is created
as `open` creates it, mode 0666 less the umask.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import MapFormatError, text_input
from .interferometer import BLOCK_ROWS, MapAxes, row_blocks

_MAGIC = b"NLIMAP1\n"
_PGM_MAXVAL = 65535
_PGM_LINE = 80   # the longest PGM header line read
_CELL = "%.17g"
_F8 = np.dtype("<f8")   # the .nlm payload
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


@dataclass(frozen=True)
class IntensityMap:
    """One detected map: axes, intensity, and how it was made."""

    axes: MapAxes
    intensity: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.intensity, dtype=float)
        if arr.shape != self.axes.shape:
            raise ValueError(
                f"intensity shape {arr.shape} != axes shape {self.axes.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("intensity must be finite")
        object.__setattr__(self, "intensity", arr)


def _atomic_write_bytes(path, payload):
    """Write `payload`, one bytes-like object or an iterable of them in
    file order, to `path` atomically; an OSError names `path`."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = (payload,)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        # an exclusive create under a random name, as tempfile.mkstemp
        # does, but with open()'s mode rather than mkstemp's 0600
        while tmp is None:
            name = os.path.join(directory, f"tmp{os.urandom(6).hex()}.part")
            with contextlib.suppress(FileExistsError):
                fd = os.open(name, _CREATE, 0o666)
                tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno:  # name `path`, not `tmp`
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _header_dict(axes: MapAxes, meta: dict) -> dict:
    return {
        "rows": int(axes.shape[0]),
        "cols": int(axes.shape[1]),
        "wavelength_nm": axes.wavelength_nm.tolist(),
        "angle_rad": axes.angle_rad.tolist(),
        "meta": meta,
    }


def _checked_blocks(axes: MapAxes, blocks):
    """(first row, rows) of each block of rows that `blocks()` yields,
    checked to be finite and to cover `axes` exactly, in order."""
    start = 0
    for block in blocks():
        block = np.asarray(block, dtype=float)
        if (block.ndim != 2 or block.shape[1] != axes.shape[1]
                or start + len(block) > axes.shape[0]):
            raise ValueError(f"row block of shape {block.shape} does not "
                             f"fit a {axes.shape} map at row {start}")
        if not np.all(np.isfinite(block)):
            raise ValueError("intensity must be finite")
        yield start, block
        start += len(block)
    if start != axes.shape[0]:
        raise ValueError(f"row blocks end at row {start} of {axes.shape[0]}")


def _axes_from_header(head: dict, source) -> MapAxes:
    try:
        axes = MapAxes(np.asarray(head["wavelength_nm"], dtype=float),
                       np.asarray(head["angle_rad"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{source}: bad axes in header: {exc}") from None
    if axes.shape != (head.get("rows"), head.get("cols")):
        raise MapFormatError(f"{source}: header rows/cols disagree with axes")
    return axes


# ---------------------------------------------------------------- readers

class MapReader:
    """One open map: its axes and meta, checked when it is opened, and
    its rows, read in increasing order one block of file rows at a time.

    Every block of the file is read and checked (finite intensity, and
    the cells of every line of a `.csv` map), also the blocks that hold
    no row asked for, so a defect anywhere in a file fails here as it
    does in `load_map`; `read_to_end` checks the blocks after the last
    row asked for.  No block outlives the call that reads it.  A reader
    is closed by `close` or at the end of a `with` block.
    """

    _fh = None   # the open file of a reader that reads one
    _open_args = {"mode": "rb"}   # how that file is opened
    _next = 0   # the first file row not read yet

    def __init__(self, path):
        self._fh = open(path, **self._open_args)
        try:
            self.axes, self.meta = self._check(path)
        except BaseException:   # no file is left open
            self._fh.close()
            raise
        self.source = path

    def _check(self, path) -> tuple[MapAxes, dict]:
        """The axes and meta of the file just opened, read and checked."""
        raise NotImplementedError

    def rows(self, idx) -> np.ndarray:
        """A copy of rows `idx`: non-decreasing indices, none of them
        before a row that an earlier call read."""
        idx = np.asarray(idx, dtype=int)
        if idx.size and idx[0] < self._next:
            raise ValueError("map rows must be read in increasing order")
        if idx.size and idx[-1] >= self.axes.shape[0]:
            raise IndexError(f"{self.source}: no row {idx[-1]}")
        out = np.empty((idx.size, self.axes.shape[1]))
        for start, block in self._read_until(idx[-1] + 1 if idx.size else 0):
            lo, hi = np.searchsorted(idx, (start, start + len(block)))
            out[lo:hi] = block[idx[lo:hi] - start]
        return out

    def read_to_end(self) -> None:
        """Read and check the rows after the last one read."""
        for _ in self._read_until(self.axes.shape[0]):
            pass

    def _read_until(self, stop):
        """(first row, rows) of each block of the file rows from the
        first unread one up to `stop`, read and checked."""
        for start in range(self._next, stop, BLOCK_ROWS):
            block = slice(start, min(start + BLOCK_ROWS, stop))
            rows = np.empty((block.stop - start, self.axes.shape[1]))
            self._fill(block, rows)
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():
                raise MapFormatError(
                    f"{self.source}: intensity must be finite; row "
                    f"{start + np.argmin(finite)} is not")
            self._next = block.stop
            yield start, rows

    def _fill(self, block: slice, rows) -> None:
        """Put the file rows `block`, the next ones unread, into `rows`."""
        raise NotImplementedError

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _MemoryReader(MapReader):
    def __init__(self, m: IntensityMap):
        self.source, self.axes, self.meta = "map", m.axes, m.meta
        self._intensity = m.intensity

    def _fill(self, block, rows):
        rows[...] = self._intensity[block]


# ---------------------------------------------------------------- native

def _save_native(path, axes: MapAxes, meta: dict, blocks):
    header = json.dumps(_header_dict(axes, meta)).encode("utf-8")

    def chunks():
        yield _MAGIC + struct.pack("<Q", len(header)) + header
        for _, block in _checked_blocks(axes, blocks):
            # a view of the block if it can
            yield memoryview(np.ascontiguousarray(block, dtype="<f8"))

    _atomic_write_bytes(path, chunks())


class _NativeReader(MapReader):
    def _check(self, path):
        # every length is checked against the file size before anything
        # of that length is allocated
        fh = self._fh
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise MapFormatError(f"{path}: bad magic; not a native map file")
        raw = fh.read(8)
        if len(raw) < 8:
            raise MapFormatError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<Q", raw)
        off = len(_MAGIC) + 8
        if size < off + hlen:
            raise MapFormatError(f"{path}: truncated header")
        try:
            head = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MapFormatError(f"{path}: unreadable header: {exc}") \
                from None
        axes = _axes_from_header(head, path)
        expected = axes.shape[0] * axes.shape[1] * 8
        found = size - off - hlen
        if found != expected:
            raise MapFormatError(
                f"{path}: expected {expected} data bytes, found {found}"
            )
        return axes, head.get("meta", {})

    def _fill(self, block, rows):
        # the rows go straight into place, decoded from little-endian
        if self._fh.readinto(rows) != rows.nbytes:
            raise MapFormatError(f"{self.source}: truncated data")
        if not _F8.isnative:
            rows.byteswap(inplace=True)


# ---------------------------------------------------------------- text tables

def _text_table(magic: str, meta: dict, header, blocks):
    """The encoded lines of a text table whose body is `blocks`, an
    iterable of 2-D blocks of rows, encoded one line at a time."""
    meta_line = "# meta: " + json.dumps(meta, sort_keys=True)
    yield "\n".join((magic, meta_line, ",".join(header), "")).encode("utf-8")
    for block in blocks:
        # np.savetxt's own line format
        line = ",".join([_CELL] * block.shape[1]) + "\n"
        for row in block:
            yield (line % tuple(row)).encode("utf-8")


def write_text_table(path, magic: str, meta: dict, header, *columns) -> None:
    """Write `columns`, 1-D or 2-D arrays of equal length set side by
    side, below the magic, meta and header lines, one block of rows at
    a time: no whole table is ever stacked."""
    _atomic_write_bytes(path, _text_table(magic, meta, header, (
        np.column_stack([c[blk] for c in columns])
        for blk in row_blocks(len(columns[0])))))


def _is_data_line(line: str) -> bool:
    """A text table line that holds cells: not blank, not a # comment."""
    text = line.strip()
    return bool(text) and not text.startswith("#")


def _read_head(fh, path):
    """(magic or None, meta, header cells, data lines) of the text
    table open as `fh`, read through its header row; data lines yields
    (file line number, line) for each data line below it."""
    magic, meta = None, {}
    for n, line in enumerate(fh, 1):
        text = line.strip()
        if n == 1 and line.startswith("#"):
            magic = text
        if _is_data_line(line):
            header = [cell.strip() for cell in text.split(",")]
            break
        body = text.lstrip("#").strip()
        if body.startswith("meta:"):
            try:
                meta = json.loads(body[5:])
            except json.JSONDecodeError as exc:
                raise MapFormatError(
                    f"{path}:{n}: bad meta json: {exc}") from None
    else:
        raise MapFormatError(f"{path}: no data rows")
    return magic, meta, header, ((k, line) for k, line in enumerate(fh, n + 1)
                                 if _is_data_line(line))


def _parse_rows(fh, path, lines, width) -> np.ndarray:
    """The cells of `lines`, (file line number, line) pairs of data
    lines of `fh`, as a (lines x width) array, parsed as they are read."""
    numbers = []

    def text():
        for number, line in lines:
            numbers.append(number)
            yield line

    try:
        table = np.loadtxt(text(), delimiter=",", comments=None, ndmin=2)
    except UnicodeDecodeError:   # from reading the file, not a cell
        raise
    except ValueError:
        table = None
    if table is None or table.shape[1] != width:
        raise _cell_error(fh, path, numbers, width)
    return table


def _cell_error(fh, path, numbers, width) -> MapFormatError:
    """The error for the first of the file lines `numbers` of `fh`, read
    from the start, that is not `width` numbers; numpy's own message
    counts the lines it was given, not file lines."""
    wanted = set(numbers)
    fh.seek(0)
    for number, line in enumerate(fh, 1):
        if number not in wanted:
            continue
        try:
            cells = np.loadtxt([line], delimiter=",", comments=None,
                               ndmin=2).shape[1]
        except ValueError:
            cells = None
        if cells != width:
            return MapFormatError(
                f"{path}:{number}: bad cells: expected {width} numbers")
    return MapFormatError(f"{path}: bad cells")


def read_text_table(path):
    """(magic or None, meta, header cells, 2-D float array) of a text
    table; every defect raises MapFormatError.  The body is parsed as
    it is read, never held as text."""
    with open(path, encoding="utf-8") as fh, \
            text_input(path, MapFormatError):
        magic, meta, header, lines = _read_head(fh, path)
        first = next(lines, None)
        if first is None:
            raise MapFormatError(f"{path}: no data rows")
        table = _parse_rows(fh, path, itertools.chain((first,), lines),
                            len(header))
    return magic, meta, header, table


def _save_csv(path, axes: MapAxes, meta: dict, blocks):
    header = ["wavelength_nm"] + [_CELL % a for a in axes.angle_rad]
    lam = axes.wavelength_nm
    _atomic_write_bytes(path, _text_table("# nlispec map 1", meta, header, (
        np.column_stack((lam[start:start + len(block)], block))
        for start, block in _checked_blocks(axes, blocks))))


class _CsvReader(MapReader):
    _open_args = {"encoding": "utf-8"}

    def _check(self, path):
        # one pass counts every line's cells (the data size) and reads
        # the wavelength axis from the first cells; the file is then
        # rewound, and the rows are parsed as they are asked for
        with text_input(path, MapFormatError):
            _, meta, header, lines = _read_head(self._fh, path)
            wavelength = [self._first_cell(path, n, line, len(header))
                          for n, line in lines]
            self._fh.seek(0)
            self._lines = _read_head(self._fh, path)[3]
        if not wavelength:
            raise MapFormatError(f"{path}: no data rows")
        if header[0] != "wavelength_nm":
            raise MapFormatError(
                f"{path}: expected header row, got {header[0]!r}")
        try:
            axes = MapAxes(np.array(wavelength),
                           np.array(header[1:], dtype=float))
        except ValueError as exc:
            raise MapFormatError(f"{path}: {exc}") from None
        return axes, meta

    @staticmethod
    def _first_cell(path, number, line, width) -> float:
        try:
            if line.count(",") + 1 == width:
                return float(line.split(",", 1)[0])
        except ValueError:
            pass
        raise MapFormatError(
            f"{path}:{number}: bad cells: expected {width} numbers")

    def _fill(self, block, rows):
        with text_input(self.source, MapFormatError):
            table = _parse_rows(self._fh, self.source, itertools.islice(
                self._lines, len(rows)), rows.shape[1] + 1)
        rows[...] = table[:, 1:]


# ---------------------------------------------------------------- pgm

def _save_pgm(path, axes: MapAxes, meta: dict, blocks):
    # the levels scale to the map's range, so one pass over the rows
    # finds it and a second writes them
    lo, hi = math.inf, -math.inf
    for _, block in _checked_blocks(axes, blocks):
        lo, hi = block.min(initial=lo), block.max(initial=hi)
    lo = float(lo)
    span = float(hi) - lo
    rows, cols = axes.shape

    def levels():
        yield f"P5\n{cols} {rows}\n{_PGM_MAXVAL}\n".encode("ascii")
        for _, block in _checked_blocks(axes, blocks):
            norm = block - lo   # all zero if span == 0
            if span:
                norm /= span
            norm *= _PGM_MAXVAL
            yield memoryview(np.rint(norm, out=norm).astype(">u2"))

    _atomic_write_bytes(path, levels())
    side = dict(_header_dict(axes, meta), intensity_offset=lo,
                intensity_span=span, maxval=_PGM_MAXVAL)
    try:
        _atomic_write_bytes(path + ".json",
                            json.dumps(side, indent=1).encode("utf-8"))
    except BaseException:
        with contextlib.suppress(OSError):   # no image without a sidecar
            os.unlink(path)
        raise


class _PgmReader(MapReader):
    def _check(self, path):
        sidecar = path + ".json"
        try:
            with open(sidecar, encoding="utf-8") as fh:
                side = json.load(fh)
        except FileNotFoundError:
            raise MapFormatError(f"{path}: missing sidecar {sidecar}") \
                from None
        except ValueError as exc:  # not UTF-8, or not JSON
            raise MapFormatError(f"{sidecar}: {exc}") from None
        axes = _axes_from_header(side, sidecar)
        try:
            self._offset = float(side["intensity_offset"])
            self._span = float(side["intensity_span"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MapFormatError(f"{sidecar}: bad intensity scale: {exc!r}") \
                from None
        if not np.all(np.isfinite((self._offset, self._span))):
            raise MapFormatError(f"{sidecar}: intensity scale is not finite")
        # three newline-ended lines: P5, the width and height, the maxval
        fh = self._fh
        lines = [fh.readline(_PGM_LINE) for _ in range(3)]
        if lines[0] != b"P5\n" or not all(line.endswith(b"\n")
                                          for line in lines[1:]):
            raise MapFormatError(f"{path}: not a binary 16-bit PGM")
        try:
            cols, rows = (int(t) for t in lines[1].split())
            maxval = int(lines[2])
        except ValueError as exc:
            raise MapFormatError(f"{path}: bad PGM header: {exc}") from None
        if maxval != _PGM_MAXVAL or (rows, cols) != axes.shape:
            raise MapFormatError(f"{path}: PGM header disagrees with sidecar")
        if os.fstat(fh.fileno()).st_size - fh.tell() != rows * cols * 2:
            raise MapFormatError(f"{path}: truncated pixel data")
        return axes, side.get("meta", {})

    def _fill(self, block, rows):
        levels = np.empty(rows.shape, dtype=">u2")
        if self._fh.readinto(levels) != levels.nbytes:
            raise MapFormatError(f"{self.source}: truncated pixel data")
        np.divide(levels, _PGM_MAXVAL, out=rows)
        rows *= self._span
        rows += self._offset


# ---------------------------------------------------------------- front door

_FORMATS = {
    ".nlm": (_save_native, _NativeReader),
    ".csv": (_save_csv, _CsvReader),
    ".pgm": (_save_pgm, _PgmReader),
}


def _format_for(path):
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _FORMATS:
        raise MapFormatError(
            f"{path}: unsupported map suffix {ext!r}; use one of "
            + ", ".join(sorted(_FORMATS))
        )
    return _FORMATS[ext]


def save_map(path, m: IntensityMap) -> None:
    """Write a map in the format implied by the file suffix."""
    save_map_blocks(path, m.axes, m.meta, lambda: (
        m.intensity[blk] for blk in row_blocks(m.axes.shape[0])))


def save_map_blocks(path, axes: MapAxes, meta: dict, blocks) -> None:
    """Write the map on `axes` whose rows `blocks()` yields, as blocks
    of rows in row order, in the format implied by the file suffix.

    `blocks` is called once for each pass over the rows, and each call
    must yield the same rows: `.nlm` and `.csv` maps are written in one
    pass, a `.pgm` in two, the first of which finds the intensity range
    its levels scale to.  No more than a block of rows is held.
    """
    json.dumps(meta)  # fail fast on unserializable metadata
    _format_for(path)[0](str(path), axes, meta, blocks)


def open_map(source) -> MapReader:
    """A MapReader of an IntensityMap or of a map file written by
    save_map; a file's header is read and checked here."""
    if isinstance(source, IntensityMap):
        return _MemoryReader(source)
    if not os.path.exists(str(source)):
        raise FileNotFoundError(str(source))
    return _format_for(source)[1](str(source))


def load_map(path) -> IntensityMap:
    """Read a map written by save_map: open it and read every row."""
    with open_map(path) as reader:
        data = reader.rows(np.arange(reader.axes.shape[0]))
    return IntensityMap(reader.axes, data, reader.meta)
