"""Binary trace files, profile CSV exports, and JSON detection reports.

Trace file layout (little-endian throughout):

    offset  size  field
    0       8     magic "HOCDVS01"
    8       4     u32 version (currently 1)
    12      4     u32 num_traces (W)
    16      4     u32 fiber_points (M)
    20      8     f64 meters_per_point
    28      8     f64 trace_rate_hz
    36      1     u8 provenance: written 0, read as 0 or 1 and not kept
    37      ...   W * M float32 amplitudes, trace-major row order

Amplitudes are stored as float32: acquisition hardware is 8-14 bit, so
single precision loses nothing while halving file size; every TraceMatrix
holds float32. Metadata stays float64. The payload is written in row
chunks, a profile CSV in pieces of rows. Every file is rewritten in place
and trimmed to its length; a failed write of any file leaves no file.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
import struct
from dataclasses import asdict

import numpy as np

from .detect import DetectionReport, HocProfile
from .errors import PersistenceError
from .synth import TraceMatrix, _chunk_rows

__all__ = [
    "export_profile_csv",
    "read_profile_csv",
    "read_traces",
    "write_report_json",
    "write_traces",
]

MAGIC = b"HOCDVS01"
VERSION = 1
_HEADER = struct.Struct("<8sIIIddB")
HEADER_SIZE = _HEADER.size
# rows per profile CSV piece, about 100 KB of text
_CSV_PIECE_ROWS = 4096


def write_traces(path, traces: TraceMatrix) -> None:
    """Write a trace matrix; read_traces inverts it exactly."""
    write_trace_rows(path, traces.amplitudes.shape, traces.meters_per_point,
                     traces.trace_rate_hz, [traces.amplitudes])


def write_trace_rows(path, shape, meters_per_point, trace_rate_hz, chunks) -> None:
    """Write a W x M trace file from row chunks; a failed chunk or write leaves no file."""
    header = _header_bytes(shape, meters_per_point, trace_rate_hz)
    with _written(path, "traces", binary=True) as fh:
        fh.write(header)
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk, dtype="<f4"))


@contextlib.contextmanager
def _written(path, what: str, binary: bool = False):
    """Yield path open for writing (text as UTF-8, \\n newlines), rewritten in place.

    An existing file is opened without O_TRUNC, as a truncate-then-rewrite of a
    file makes ext4 free its blocks and start its writeback at close; once every
    write is flushed, a regular file is trimmed to the written length. A failure
    empties and removes the file written, the target of a symlink path, if fstat
    shows a regular file, so /dev/null stays; it is re-raised (OSError as
    PersistenceError)."""
    mode, text = ("wb", {}) if binary else ("w", {"encoding": "utf-8", "newline": "\n"})
    try:
        with open(path, mode, opener=_open_in_place, **text) as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                yield fh
                fh.flush()
                if regular:
                    fh.truncate()
            except BaseException:
                if regular:
                    with contextlib.suppress(OSError):
                        fh.flush()  # so closing writes nothing after the truncation
                    os.ftruncate(fh.fileno(), 0)  # no hard link reads old and new bytes
                    os.unlink(os.path.realpath(path))
                raise
    except OSError as exc:
        raise PersistenceError(f"cannot write {what} to {path}: {exc}") from exc


def _open_in_place(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _header_bytes(shape, meters_per_point, trace_rate_hz) -> bytes:
    """The header of a W x M trace file, as write_trace_rows writes it (provenance 0)."""
    return _HEADER.pack(MAGIC, VERSION, *shape, meters_per_point, trace_rate_hz, 0)


def read_traces(path, digest=None) -> TraceMatrix:
    """Read a trace matrix written by write_traces, keeping its float32 payload.

    The header is checked against the file size before the payload is
    allocated, and the payload is read in row chunks of its float32 rows
    (synth._chunk_rows) straight into the W x M matrix. A hashlib-like digest
    is fed the header, then each chunk as it lands, in file order, so it
    sees every byte of the file.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(HEADER_SIZE)
            (num_traces, fiber_points), mpp, rate = _parse_header(header, path)
            expected = num_traces * fiber_points * 4
            _check_payload_size(os.fstat(fh.fileno()).st_size - HEADER_SIZE, expected, path)
            amplitudes = np.empty((num_traces, fiber_points), dtype="<f4")
            feed = (lambda data: None) if digest is None else digest.update
            feed(header)
            step = _chunk_rows(4 * fiber_points)
            for start in range(0, num_traces, step):
                chunk = amplitudes[start : start + step]
                got = fh.readinto(chunk)
                if got != chunk.nbytes:  # the file shrank since its size was checked
                    _check_payload_size(start * 4 * fiber_points + got, expected, path)
                feed(chunk)
            _check_payload_size(expected + len(fh.read(1)), expected, path)
    except OSError as exc:
        raise PersistenceError(f"cannot read traces from {path}: {exc}") from exc
    amplitudes.setflags(write=False)  # hand the fresh matrix over without a copy
    try:
        return TraceMatrix(amplitudes=amplitudes, meters_per_point=mpp, trace_rate_hz=rate)
    except ValueError as exc:
        raise PersistenceError(f"{path}: {exc}") from exc


def _parse_header(header: bytes, source):
    if len(header) < len(MAGIC) or header[: len(MAGIC)] != MAGIC:
        raise PersistenceError(f"{source} does not start with the trace-file magic")
    if len(header) < HEADER_SIZE:
        raise PersistenceError(f"{source} ends inside the header")
    _, version, num_traces, fiber_points, mpp, rate, prov_code = _HEADER.unpack(header)
    if version != VERSION:
        raise PersistenceError(f"unsupported version {version}")
    if num_traces < 1 or fiber_points < 1:
        raise PersistenceError(
            f"bad dimensions {num_traces} x {fiber_points} in header"
        )
    if prov_code > 1:  # 1 marked a recorded file; both read alike
        raise PersistenceError(f"unknown provenance code {prov_code}")
    return (num_traces, fiber_points), mpp, rate


def _check_payload_size(payload_size: int, expected: int, source) -> None:
    if payload_size != expected:
        raise PersistenceError(
            f"{source}: payload is {payload_size} bytes, header promises {expected}"
        )


@functools.lru_cache(maxsize=1, typed=True)
def _row_templates(fiber_points: int, meters_per_point) -> tuple[str, ...]:
    """A profile's CSV rows as `%` templates of up to _CSV_PIECE_ROWS rows, each with
    its position rendered and %.12g left for its value. Memoized for the last
    geometry, as a monitor repeats it."""
    return tuple(
        "".join("%.12g,%%.12g\n" % (idx * meters_per_point)
                for idx in range(start, min(start + _CSV_PIECE_ROWS, fiber_points)))
        for start in range(0, fiber_points, _CSV_PIECE_ROWS)
    )


def export_profile_csv(profile: HocProfile, path) -> None:
    """Write `position_m,value` rows, one per fiber point, 12 significant digits.

    Each piece of _CSV_PIECE_ROWS rows is one `%` of its row template over the
    piece's values, written as it is made, so the text in memory is one piece
    long and other threads run between writes. A failed export leaves no file."""
    values = profile.values
    templates = _row_templates(values.size, profile.meters_per_point)
    with _written(path, "profile") as fh:
        fh.write("position_m,value\n")
        for start, template in zip(range(0, values.size, _CSV_PIECE_ROWS), templates):
            fh.write(template % tuple(values[start : start + _CSV_PIECE_ROWS].tolist()))


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a profile CSV back into (positions, values) arrays, all finite."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise PersistenceError(f"cannot read profile from {path}: {exc}") from exc
    if not lines or lines[0] != "position_m,value":
        raise PersistenceError(f"{path} is not a profile CSV")
    positions = np.empty(len(lines) - 1)
    values = np.empty(len(lines) - 1)
    for i, line in enumerate(lines[1:]):
        pos_text, _, val_text = line.partition(",")
        try:
            positions[i] = float(pos_text)
            values[i] = float(val_text)
        except ValueError:
            raise PersistenceError(f"{path}: line {i + 2} is not a row: {line!r}") from None
        if not (math.isfinite(positions[i]) and math.isfinite(values[i])):
            raise PersistenceError(f"{path}: line {i + 2} holds a non-finite number: {line!r}")
    return positions, values


def write_report_json(path, report: DetectionReport, *, window: int, config_digest: str) -> None:
    """Serialize a detection report deterministically (sorted keys); a failed
    write leaves no file."""
    payload = {**asdict(report), "window": window, "config_digest": config_digest}
    with _written(path, "report") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
