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
the caller (hand-made maps have none).

All writes are atomic (temp file in the destination directory, then
rename), so a crash never leaves a half-written file behind.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import MapFormatError
from .interferometer import MapAxes, row_blocks

_MAGIC = b"NLIMAP1\n"
_PGM_MAXVAL = 65535
_CELL = "%.17g"


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
    file order, to `path` atomically."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = (payload,)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in payload:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_dict(m: IntensityMap) -> dict:
    return {
        "rows": int(m.axes.shape[0]),
        "cols": int(m.axes.shape[1]),
        "wavelength_nm": m.axes.wavelength_nm.tolist(),
        "angle_rad": m.axes.angle_rad.tolist(),
        "meta": m.meta,
    }


def _axes_from_header(head: dict, source) -> MapAxes:
    try:
        axes = MapAxes(np.asarray(head["wavelength_nm"], dtype=float),
                       np.asarray(head["angle_rad"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{source}: bad axes in header: {exc}") from None
    if axes.shape != (head.get("rows"), head.get("cols")):
        raise MapFormatError(f"{source}: header rows/cols disagree with axes")
    return axes


def _checked_map(source, axes, data, meta) -> IntensityMap:
    """IntensityMap of loaded parts, its checks failing as MapFormatError."""
    try:
        return IntensityMap(axes, data, meta)
    except ValueError as exc:
        raise MapFormatError(f"{source}: {exc}") from None


# ---------------------------------------------------------------- native

def _save_native(path, m: IntensityMap):
    header = json.dumps(_header_dict(m)).encode("utf-8")
    data = np.ascontiguousarray(m.intensity, dtype="<f8")  # a view if it can
    _atomic_write_bytes(path, (_MAGIC + struct.pack("<Q", len(header))
                               + header, memoryview(data)))


def _load_native(path) -> IntensityMap:
    # every length is checked against the file size before anything of
    # that length is allocated, and the data is read straight into place
    with open(path, "rb") as fh:
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
        if found == expected:
            data = np.empty(axes.shape, dtype="<f8")
            found = fh.readinto(data)
        if found != expected:
            raise MapFormatError(
                f"{path}: expected {expected} data bytes, found {found}"
            )
    return _checked_map(path, axes, data, head.get("meta", {}))


# ---------------------------------------------------------------- text tables

def write_text_table(path, magic: str, meta: dict, header, *columns) -> None:
    """Write `columns`, 1-D or 2-D arrays of equal length set side by
    side, below the magic, meta and header lines, one block of rows at
    a time: no whole table is ever stacked."""
    meta_line = "# meta: " + json.dumps(meta, sort_keys=True)

    def chunks():
        yield "\n".join((magic, meta_line, ",".join(header), "")).encode(
            "utf-8")
        for blk in row_blocks(len(columns[0])):
            block = np.column_stack([c[blk] for c in columns])
            # np.savetxt's own line format, one encoded line at a time
            line = ",".join([_CELL] * block.shape[1]) + "\n"
            for row in block:
                yield (line % tuple(row)).encode("utf-8")

    _atomic_write_bytes(path, chunks())


def _is_data_line(line: str) -> bool:
    """A text table line that holds cells: not blank, not a # comment."""
    text = line.strip()
    return bool(text) and not text.startswith("#")


def read_text_table(path):
    """(magic or None, meta, header cells, 2-D float array) of a text
    table; every defect raises MapFormatError.  The body is parsed as
    it is read, never held as text."""
    try:
        with open(path, encoding="utf-8") as fh:
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
            rows = filter(_is_data_line, fh)
            # np.loadtxt only warns on an empty body
            first = next(rows, None)
            if first is None:
                raise MapFormatError(f"{path}: no data rows")
            try:
                table = np.loadtxt(itertools.chain((first,), rows),
                                   delimiter=",", comments=None, ndmin=2)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise _cell_error(path, len(header), exc) from None
    except UnicodeDecodeError as exc:
        raise MapFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if table.shape[1] != len(header):
        raise MapFormatError(f"{path}: expected {len(header)} cells per row, "
                             f"got {table.shape[1]}")
    return magic, meta, header, table


def _cell_error(path, width, exc) -> MapFormatError:
    """The error for the first data line of `path` below the header that
    is not `width` numbers; numpy's own message counts data rows only."""
    with open(path, encoding="utf-8") as fh:
        lines = ((n, line) for n, line in enumerate(fh, 1)
                 if _is_data_line(line))
        next(lines)   # the header
        for number, line in lines:
            try:
                cells = np.loadtxt([line], delimiter=",", comments=None,
                                   ndmin=2).shape[1]
            except ValueError:
                cells = None
            if cells != width:
                return MapFormatError(
                    f"{path}:{number}: bad cells: expected {width} numbers")
    return MapFormatError(f"{path}: bad cells: {exc}")


def _save_csv(path, m: IntensityMap):
    header = ["wavelength_nm"] + [_CELL % a for a in m.axes.angle_rad]
    write_text_table(path, "# nlispec map 1", m.meta, header,
                     m.axes.wavelength_nm, m.intensity)


def _load_csv(path) -> IntensityMap:
    _, meta, header, table = read_text_table(path)
    if header[0] != "wavelength_nm":
        raise MapFormatError(f"{path}: expected header row, got {header[0]!r}")
    try:
        # a copy: a view would keep the whole table alive with the axes
        axes = MapAxes(table[:, 0].copy(), np.array(header[1:], dtype=float))
        return IntensityMap(axes, table[:, 1:], meta)
    except ValueError as exc:
        raise MapFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- pgm

def _save_pgm(path, m: IntensityMap):
    lo = float(m.intensity.min())
    hi = float(m.intensity.max())
    span = hi - lo
    if span == 0.0:
        levels = np.zeros(m.axes.shape, dtype=">u2")
    else:
        norm = (m.intensity - lo) / span
        levels = np.rint(norm * _PGM_MAXVAL).astype(">u2")
    rows, cols = m.axes.shape
    header = f"P5\n{cols} {rows}\n{_PGM_MAXVAL}\n".encode("ascii")
    _atomic_write_bytes(path, header + levels.tobytes(order="C"))
    side = dict(_header_dict(m), intensity_offset=lo,
                intensity_span=span, maxval=_PGM_MAXVAL)
    _atomic_write_bytes(str(path) + ".json",
                        json.dumps(side, indent=1).encode("utf-8"))


def _load_pgm(path) -> IntensityMap:
    sidecar = str(path) + ".json"
    try:
        with open(sidecar, encoding="utf-8") as fh:
            side = json.load(fh)
    except FileNotFoundError:
        raise MapFormatError(f"{path}: missing sidecar {sidecar}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise MapFormatError(f"{sidecar}: {exc}") from None
    axes = _axes_from_header(side, sidecar)
    try:
        offset = float(side["intensity_offset"])
        span = float(side["intensity_span"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{sidecar}: bad intensity scale: {exc!r}") \
            from None
    if not np.all(np.isfinite((offset, span))):
        raise MapFormatError(f"{sidecar}: intensity scale is not finite")
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise MapFormatError(f"{path}: not a binary 16-bit PGM")
    try:
        cols, rows = (int(t) for t in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise MapFormatError(f"{path}: bad PGM header: {exc}") from None
    if maxval != _PGM_MAXVAL or (rows, cols) != axes.shape:
        raise MapFormatError(f"{path}: PGM header disagrees with sidecar")
    body = parts[3]
    if len(body) != rows * cols * 2:
        raise MapFormatError(f"{path}: truncated pixel data")
    levels = np.frombuffer(body, dtype=">u2").reshape(rows, cols)
    data = offset + levels / maxval * span
    return _checked_map(path, axes, data, side.get("meta", {}))


# ---------------------------------------------------------------- front door

_FORMATS = {
    ".nlm": (_save_native, _load_native),
    ".csv": (_save_csv, _load_csv),
    ".pgm": (_save_pgm, _load_pgm),
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
    json.dumps(m.meta)  # fail fast on unserializable metadata
    _format_for(path)[0](str(path), m)


def load_map(path) -> IntensityMap:
    """Read a map written by save_map."""
    if not os.path.exists(str(path)):
        raise FileNotFoundError(str(path))
    return _format_for(path)[1](str(path))
