"""Binary trace files, profile CSV exports, and JSON detection reports.

Trace file layout (little-endian throughout):

    offset  size  field
    0       8     magic "HOCDVS01"
    8       4     u32 version (currently 1)
    12      4     u32 num_traces (W)
    16      4     u32 fiber_points (M)
    20      8     f64 meters_per_point
    28      8     f64 trace_rate_hz
    36      1     u8 provenance (0 = synthetic, 1 = recorded)
    37      ...   W * M float32 amplitudes, trace-major row order

Amplitudes are stored as float32: acquisition hardware is 8-14 bit, so
single precision loses nothing while halving file size. Metadata stays
float64.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .detect import DetectionReport, HocProfile
from .errors import PersistenceError
from .synth import PROVENANCE_RECORDED, PROVENANCE_SYNTHETIC, TraceMatrix

MAGIC = b"HOCDVS01"
VERSION = 1
_HEADER = struct.Struct("<8sIIIddB")
HEADER_SIZE = _HEADER.size

_PROVENANCE_CODES = {PROVENANCE_SYNTHETIC: 0, PROVENANCE_RECORDED: 1}
_PROVENANCE_NAMES = {code: name for name, code in _PROVENANCE_CODES.items()}
# Bytes per readinto call; Linux returns at most ~2 GiB from one read.
_READ_CHUNK = 1 << 30


def write_traces(path, traces: TraceMatrix) -> None:
    """Write a trace matrix; read_traces inverts it within float32 rounding."""
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        traces.num_traces,
        traces.fiber_points,
        traces.meters_per_point,
        traces.trace_rate_hz,
        _PROVENANCE_CODES[traces.provenance],
    )
    payload = np.ascontiguousarray(traces.amplitudes, dtype="<f4").tobytes()
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise PersistenceError(f"cannot write traces to {path}: {exc}") from exc


def read_traces(path, digest=None) -> TraceMatrix:
    """Read a trace matrix written by write_traces, keeping its float32 payload.

    The header is checked against the file size before the payload is
    allocated, and the payload is read straight into the matrix. A
    hashlib object passed as digest is fed every byte of the file.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            header = fh.read(HEADER_SIZE)
            shape, mpp, rate, prov_code = _parse_header(header, path)
            expected = shape[0] * shape[1] * 4
            _check_payload_size(os.fstat(fh.fileno()).st_size - HEADER_SIZE, expected, path)
            amplitudes = np.empty(shape, dtype="<f4")
            payload = memoryview(amplitudes).cast("B")
            done = 0
            while done < expected:
                got = fh.readinto(payload[done : done + _READ_CHUNK])
                if not got:
                    break
                done += got
            _check_payload_size(done + len(fh.read(1)), expected, path)
    except OSError as exc:
        raise PersistenceError(f"cannot read traces from {path}: {exc}") from exc
    if digest is not None:
        digest.update(header)
        digest.update(payload)
    amplitudes.setflags(write=False)  # hand the fresh matrix over without a copy
    try:
        return TraceMatrix(
            amplitudes=amplitudes,
            meters_per_point=mpp,
            trace_rate_hz=rate,
            provenance=_PROVENANCE_NAMES[prov_code],
        )
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
    if prov_code not in _PROVENANCE_NAMES:
        raise PersistenceError(f"unknown provenance code {prov_code}")
    return (num_traces, fiber_points), mpp, rate, prov_code


def _check_payload_size(payload_size: int, expected: int, source) -> None:
    if payload_size != expected:
        raise PersistenceError(
            f"{source}: payload is {payload_size} bytes, header promises {expected}"
        )


def export_profile_csv(profile: HocProfile, path) -> None:
    """Write `position_m,value` rows, one per fiber point, 12 significant digits."""
    values = profile.values.tolist()
    mpp = profile.meters_per_point
    cells = [0.0] * (2 * len(values))
    cells[0::2] = [idx * mpp for idx in range(len(values))]
    cells[1::2] = values
    text = "position_m,value\n" + "%.12g,%.12g\n" * len(values) % tuple(cells)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise PersistenceError(f"cannot write profile to {path}: {exc}") from exc


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a profile CSV back into (positions, values) arrays."""
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
    return positions, values


def write_report_json(path, report: DetectionReport, *, window: int, config_digest: str) -> None:
    """Serialize a detection report deterministically (sorted keys)."""
    payload = {
        "method": report.method,
        "peak_index": report.peak_index,
        "peak_position_m": report.peak_position_m,
        "location_snr_db": report.location_snr_db,
        "spatial_resolution_m": report.spatial_resolution_m,
        "window": window,
        "config_digest": config_digest,
    }
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise PersistenceError(f"cannot write report to {path}: {exc}") from exc
