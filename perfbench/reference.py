"""Output checks that do not go through the program under test.

The benchmark parses `HOCDVS01` trace files, profile CSVs and report JSON
itself and recomputes the `hoc` profile in float64, so a fast but wrong
program cannot pass its own checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<8sIIIddB")
_MAGIC = b"HOCDVS01"
HEADER_BYTES = _HEADER.size

# The hoc profile must match the float64 reference to this share of the
# reference's largest magnitude. Profile CSVs carry 12 significant digits
# (5e-12 relative rounding), so 1e-9 leaves room for summation order only.
HOC_REL_TOL = 1e-9


def preset_rows(preset: str, num_seeds: int) -> int:
    """Data rows of a preset CSV as documented in the README.

    K1..K6 for fig1, 4 duties x 5 lengths for fig2a, 4 duties x 5 input
    SNRs for fig2b, and one row per (duty, seed) for e2e.
    """
    if preset == "e2e_localization":
        return 4 * num_seeds
    return {"fig1_asymmetry": 6, "fig2a_length_sweep": 20, "fig2b_snr_sweep": 20}[preset]


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def trace_shape(path) -> tuple[int, int]:
    """(num_traces, fiber_points) from a trace file header."""
    with open(path, "rb") as fh:
        magic, _, num_traces, fiber_points, *_ = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != _MAGIC:
        raise CheckFailed(f"{path} is not a HOCDVS01 trace file")
    return num_traces, fiber_points


def reference_hoc(path, window: int, block_rows: int = 64) -> np.ndarray:
    """Mean cube of the first `window` residuals per point, in float64.

    Residuals are taken about each point's mean over all traces. The file
    is read in blocks of rows, so memory stays at a few blocks even for
    the long-fiber file.
    """
    num_traces, points = trace_shape(path)
    if not 1 <= window <= num_traces:
        raise CheckFailed(f"window {window} outside 1..{num_traces}")

    def blocks(rows: int):
        with open(path, "rb") as fh:
            fh.seek(_HEADER.size)
            done = 0
            while done < rows:
                take = min(block_rows, rows - done)
                block = np.fromfile(fh, dtype="<f4", count=take * points)
                if block.size != take * points:
                    raise CheckFailed(f"{path} is shorter than its header says")
                yield block.reshape(take, points).astype(np.float64)
                done += take

    total = np.zeros(points)
    for block in blocks(num_traces):
        total += block.sum(axis=0)
    mean = total / num_traces
    cubes = np.zeros(points)
    for block in blocks(window):
        resid = block - mean
        cubes += (resid * resid * resid).sum(axis=0)
    return cubes / window


def read_profile_values(path) -> np.ndarray:
    """Value column of a `position_m,value` profile CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "position_m,value":
        raise CheckFailed(f"{path} lacks the profile CSV header")
    return np.array([float(line.partition(",")[2]) for line in lines[1:]])


def check_hoc_profile(profile_csv, ref: np.ndarray) -> None:
    """Profile CSV against a reference_hoc result, to HOC_REL_TOL."""
    values = read_profile_values(profile_csv)
    if values.shape != ref.shape:
        raise CheckFailed(f"{profile_csv}: {values.size} points, expected {ref.size}")
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(values - ref)))
    if not err <= HOC_REL_TOL * scale:
        raise CheckFailed(
            f"{profile_csv}: max |profile - reference| = {err:.3e} exceeds "
            f"{HOC_REL_TOL:g} x {scale:.3e}"
        )


class Localization:
    """Counts hoc reports whose peak lands within one pulse width of the event.

    The detector is statistical: acceptance test c06 asks for 95% hits per
    duty over 100 seeds, and about 1% of trace-scale files miss (14 of 1600
    seeded configs when this benchmark was written). A check fails when more than a fifth of the
    reports miss, which a systematic mislocation always does and chance
    does with probability below 1e-7 for 32 reports at a 1% miss rate.
    """

    MAX_MISS_SHARE = 0.2

    def __init__(self, event_point: int, pulse_points: int) -> None:
        self.event_point = event_point
        self.pulse_points = pulse_points
        self.reports = 0
        self.misses = 0

    def record(self, peak_index: int) -> None:
        self.reports += 1
        self.misses += abs(peak_index - self.event_point) > self.pulse_points

    def check(self, where) -> None:
        if self.misses > self.MAX_MISS_SHARE * self.reports:
            raise CheckFailed(
                f"{where}: {self.misses} of {self.reports} hoc reports peak more than "
                f"{self.pulse_points} points from the event at {self.event_point}"
            )


def check_hoc_report(report_json, localization: Localization, ref=None) -> None:
    """A hoc report's peak; with a reference profile it must also be the
    profile's largest magnitude, to the profile tolerance."""
    report = json.loads(Path(report_json).read_text(encoding="utf-8"))
    if report.get("method") != "hoc":
        raise CheckFailed(f"{report_json}: method is {report.get('method')!r}, not hoc")
    peak = int(report["peak_index"])
    if ref is not None:
        top = float(np.max(np.abs(ref)))
        if not 0 <= peak < ref.size or abs(ref[peak]) < top * (1 - 2 * HOC_REL_TOL):
            raise CheckFailed(f"{report_json}: peak_index {peak} is not the profile maximum")
    localization.record(peak)


def check_preset_csv(path, expected_rows: int) -> list[list[str]]:
    """Row count and finiteness of one preset CSV; returns the data rows.

    Empty fields are allowed: e2e writes an empty spatial resolution when
    the profile has no rising edge.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected_rows:
        raise CheckFailed(f"{path}: {len(rows)} data rows, expected {expected_rows}")
    for row in rows:
        for field in row:
            try:
                finite = not field or math.isfinite(float(field))
            except ValueError:
                finite = False
            if not finite:
                raise CheckFailed(f"{path}: non-finite value {field!r}")
    return rows


def digest_tree(root) -> dict[str, str]:
    """sha256 of every file below root, keyed by relative path."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_same_outputs(first: dict[str, str], again: dict[str, str], where) -> None:
    if first != again:
        changed = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
        raise CheckFailed(f"{where}: repeat of the same op changed {changed}")
