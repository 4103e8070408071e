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
import struct

import numpy as np

from .detect import DetectionReport, HocProfile
from .errors import (
    CorruptHeaderError,
    IoError,
    NotATraceFileError,
    TruncatedPayloadError,
)
from .synth import PROVENANCE_RECORDED, PROVENANCE_SYNTHETIC, TraceMatrix

MAGIC = b"HOCDVS01"
VERSION = 1
_HEADER = struct.Struct("<8sIIIddB")
HEADER_SIZE = _HEADER.size

_PROVENANCE_CODES = {PROVENANCE_SYNTHETIC: 0, PROVENANCE_RECORDED: 1}
_PROVENANCE_NAMES = {code: name for name, code in _PROVENANCE_CODES.items()}


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
        raise IoError(f"cannot write traces to {path}: {exc}") from exc


def read_trace_bytes(path) -> bytes:
    """The raw bytes of a trace file, for parse_traces."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read traces from {path}: {exc}") from exc


def parse_traces(blob: bytes, source) -> TraceMatrix:
    """Decode the bytes of a trace file; source names it in error messages."""
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise NotATraceFileError(f"{source} does not start with the trace-file magic")
    if len(blob) < HEADER_SIZE:
        raise TruncatedPayloadError(f"{source} ends inside the header")
    _, version, num_traces, fiber_points, mpp, rate, prov_code = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise CorruptHeaderError(f"unsupported version {version}")
    if num_traces < 1 or fiber_points < 1:
        raise CorruptHeaderError(
            f"bad dimensions {num_traces} x {fiber_points} in header"
        )
    if prov_code not in _PROVENANCE_NAMES:
        raise CorruptHeaderError(f"unknown provenance code {prov_code}")

    expected = num_traces * fiber_points * 4
    payload_size = len(blob) - HEADER_SIZE
    if payload_size < expected:
        raise TruncatedPayloadError(
            f"{source}: payload is {payload_size} bytes, header promises {expected}"
        )
    if payload_size > expected:
        raise CorruptHeaderError(
            f"{source}: payload is {payload_size} bytes, header promises {expected}"
        )
    amplitudes = (
        np.frombuffer(blob, dtype="<f4", offset=HEADER_SIZE)
        .reshape(num_traces, fiber_points)
        .astype(float)
    )
    amplitudes.setflags(write=False)  # hand the fresh matrix over without a copy
    try:
        return TraceMatrix(
            amplitudes=amplitudes,
            meters_per_point=mpp,
            trace_rate_hz=rate,
            provenance=_PROVENANCE_NAMES[prov_code],
        )
    except ValueError as exc:
        raise CorruptHeaderError(f"{source}: {exc}") from exc


def read_traces(path) -> TraceMatrix:
    """Read a trace matrix written by write_traces."""
    return parse_traces(read_trace_bytes(path), path)


def export_profile_csv(profile: HocProfile, path) -> None:
    """Write `position_m,value` rows, one per fiber point, 12 significant digits."""
    lines = ["position_m,value"]
    mpp = profile.meters_per_point
    for idx, value in enumerate(profile.values):
        lines.append(f"{idx * mpp:.12g},{value:.12g}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write profile to {path}: {exc}") from exc


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a profile CSV back into (positions, values) arrays."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read profile from {path}: {exc}") from exc
    if not lines or lines[0] != "position_m,value":
        raise IoError(f"{path} is not a profile CSV")
    positions = np.empty(len(lines) - 1)
    values = np.empty(len(lines) - 1)
    for i, line in enumerate(lines[1:]):
        pos_text, _, val_text = line.partition(",")
        positions[i] = float(pos_text)
        values[i] = float(val_text)
    return positions, values


def report_to_dict(report: DetectionReport, *, window: int, config_digest: str) -> dict:
    """Wire-format dict for a detection report."""
    return {
        "method": report.method,
        "peak_index": report.peak_index,
        "peak_position_m": report.peak_position_m,
        "location_snr_db": report.location_snr_db,
        "spatial_resolution_m": report.spatial_resolution_m,
        "window": window,
        "config_digest": config_digest,
    }


def write_report_json(path, report: DetectionReport, *, window: int, config_digest: str) -> None:
    """Serialize a detection report deterministically (sorted keys)."""
    payload = report_to_dict(report, window=window, config_digest=config_digest)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc


def read_report_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read report from {path}: {exc}") from exc
