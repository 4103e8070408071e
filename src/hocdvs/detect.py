"""Detection pipeline: per-point cumulant profile, localization.

hoc_profile removes the static trend by subtracting each fiber point's
across-trace mean, then reduces the windowed residual history at every
point to a single statistic: the zero-lag third cumulant (mean cube),
which stays near zero for symmetric residuals and responds strongly to
the skewed residuals a non-50%-duty drive produces. The baseline methods
reduce the same window with consecutive-trace absolute differences
instead. Every profile is finite: a TraceMatrix keeps to the float32
range, so a centred residual is at most 6.8e38 and its cube at most 3.2e116.

Three qualifications. Symmetric residuals average out of the cumulant's
mean, not its spread: the spread grows as sigma**3, so a symmetric event
of high variance still leaves a peak. Location SNR in dB scales with the
statistic's degree: the cube root of hoc's profile reads about a third
of hoc's dB (23-26 against 65-75 dB at trace scale). The ~0.63 ratio of
hoc's 10-90% rise to mdiff's is the cube reshaping one edge: the cube
root of the same profile gives 1.000 on noise-free traces.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoDetectionError, NoEdgeError
from .stats import mean_cube_axis0 as _mean_cube_axis0  # private, so a tracer wraps no helper call
from .synth import TraceMatrix, _finite_positive, _freeze, _helper_threads, _real_array

__all__ = [
    "DetectionReport",
    "HocProfile",
    "METHOD_HOC",
    "METHOD_MOVING_AVERAGE",
    "METHOD_MOVING_DIFFERENTIAL",
    "hoc_profile",
    "locate_peak",
    "location_snr",
    "moving_average_profile",
    "moving_differential_profile",
    "spatial_resolution",
]

METHOD_HOC = "hoc"
METHOD_MOVING_DIFFERENTIAL = "moving_differential"
METHOD_MOVING_AVERAGE = "moving_average"
# CLI alias -> the method name that profiles and reports carry
METHOD_ALIASES = {
    "hoc": METHOD_HOC,
    "mdiff": METHOD_MOVING_DIFFERENTIAL,
    "mavg": METHOD_MOVING_AVERAGE,
}

# Fiber points per block of every profile: a float64 block of 500 traces
# is 2 MB, which stays in cache while it is reduced.
BLOCK_POINTS = 512


@dataclass(frozen=True, eq=False)
class HocProfile:
    """Finite per-fiber-point statistic over a window of consecutive traces."""

    values: np.ndarray
    meters_per_point: float

    def __post_init__(self) -> None:
        arr = _real_array(self.values, "values")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"values must be a non-empty vector, got shape {arr.shape}")
        if not (-math.inf < arr.min() and arr.max() < math.inf):  # NaN fails both
            raise ValueError("values must be finite")
        if not _finite_positive(self.meters_per_point):
            raise ValueError("meters_per_point must be finite and > 0")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def fiber_points(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class DetectionReport:
    """Localization result for one profile."""

    peak_index: int
    peak_position_m: float
    location_snr_db: float
    spatial_resolution_m: float | None
    method: str

    def __post_init__(self) -> None:
        if self.peak_index < 0:
            raise ValueError("peak_index must be >= 0")
        if not math.isfinite(self.peak_position_m):
            raise ValueError("peak_position_m must be finite")
        if not math.isfinite(self.location_snr_db):
            raise ValueError("location_snr_db must be finite")
        if self.method not in METHOD_ALIASES.values():
            raise ValueError(f"unknown method {self.method!r}")


def _check_window(traces: TraceMatrix, window: int) -> None:
    if window < 2:
        raise ConfigError(f"window must be >= 2 traces, got {window}")
    if window > traces.num_traces:
        raise ConfigError(f"window {window} exceeds {traces.num_traces} traces")


def _blockwise(traces: TraceMatrix, rows: int, reduce) -> HocProfile:
    """Profile of `reduce` over each block of BLOCK_POINTS fiber points of the
    first `rows` traces, widened into a C-ordered float64 buffer per thread
    that `reduce` may overwrite; no full-size float64 copy is ever made.

    The calling thread and the helpers _helper_threads allows for those rows
    and blocks (from 1 MiB of rows, one per further usable CPU, on a pool) take
    the next block start from one locked iterator. Each block's values depend on
    its columns only, so the profile is the same whichever thread reduces a block.
    A failure stops every part at its next block and is raised after the helpers
    are joined.
    """
    amps, m = traces.amplitudes[:rows], traces.fiber_points
    values, failed = np.empty(m), threading.Event()
    starts, lock = iter(range(0, m, BLOCK_POINTS)), threading.Lock()

    def part():  # numpy and `reduce` only: perfbench's tracer keeps one span stack
        try:
            buf = np.empty(rows * min(m, BLOCK_POINTS))
            while not failed.is_set():  # a failed part stops the others at their next block
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                cols = slice(start, start + BLOCK_POINTS)
                block = buf[: rows * min(BLOCK_POINTS, m - start)].reshape(rows, -1)
                block[...] = amps[:, cols]
                values[cols] = reduce(block)
        except BaseException:
            failed.set()
            raise

    helpers = _helper_threads(amps.nbytes, -(-m // BLOCK_POINTS))
    if not helpers:
        part()
    else:
        from concurrent.futures import ThreadPoolExecutor  # here: no pool for small rows
        with ThreadPoolExecutor(helpers) as pool:  # leaving the block joins every helper
            helped = [pool.submit(part) for _ in range(helpers)]
            part()
        for future in helped:
            future.result()  # raises a helper's failure on the calling thread
    values.setflags(write=False)  # hand the fresh profile over without a copy
    return HocProfile(values, traces.meters_per_point)


def hoc_profile(traces: TraceMatrix, window: int) -> HocProfile:
    """Zero-lag third cumulant of the first `window` residuals about each point's
    mean over all traces; a static offset per point leaves the profile unchanged."""
    _check_window(traces, window)

    def reduce(block: np.ndarray) -> np.ndarray:
        block -= block.mean(axis=0)  # centred in place by column
        return _mean_cube_axis0(block[:window])

    return _blockwise(traces, traces.num_traces, reduce)


def moving_differential_profile(traces: TraceMatrix, window: int) -> HocProfile:
    """Mean absolute difference of consecutive traces per point (avg_len = 1)."""
    return moving_average_profile(traces, window, 1)


def moving_average_profile(traces: TraceMatrix, window: int, avg_len: int) -> HocProfile:
    """Block-average avg_len consecutive traces, then difference the blocks."""
    _check_window(traces, window)
    if not 1 <= avg_len <= window:
        raise ConfigError(f"avg_len must be in [1, {window}], got {avg_len}")
    blocks = window // avg_len
    if blocks < 2:
        raise ConfigError(f"avg_len {avg_len} leaves {blocks} block(s); need at least 2")

    def reduce(block: np.ndarray) -> np.ndarray:
        if avg_len > 1:  # length-1 rows are their own averages
            block = block.reshape(blocks, avg_len, -1).mean(axis=1)
        diffs = np.diff(block, axis=0)
        return np.abs(diffs, out=diffs).mean(axis=0)

    return _blockwise(traces, blocks * avg_len, reduce)


def locate_peak(profile: HocProfile) -> tuple[int, float]:
    """Index and position of the largest |value|; ties go to the lowest index."""
    mags = np.abs(profile.values)
    idx = int(np.argmax(mags))
    if mags[idx] == 0.0:
        raise NoDetectionError("profile is identically zero")
    return idx, idx * profile.meters_per_point


def location_snr(profile: HocProfile, peak_index: int, guard: int) -> float:
    """dB ratio of the squared peak to the mean squared background; finite for any profile.

    Background is every point farther than `guard` from the peak; guard
    should cover at least the pulse width so the event's own skirt stays
    out of the noise estimate.
    """
    vals = profile.values
    m = profile.fiber_points
    if not 0 <= peak_index < m:
        raise ValueError(f"peak_index {peak_index} outside profile of {m} points")
    if guard < 0:
        raise ConfigError(f"guard must be >= 0, got {guard}")
    background = vals[np.abs(np.arange(m) - peak_index) > guard]
    if background.size == 0:
        raise ConfigError(f"guard {guard} leaves no background samples")
    # scaled by 2**-eb, the largest square is in [1/4, 1): the mean neither overflows nor vanishes
    eb = math.frexp(float(np.max(np.abs(background))))[1]
    bg_power = float(np.mean(np.ldexp(background, -eb) ** 2))
    if bg_power == 0.0:
        raise NoDetectionError("background is exactly zero")
    peak_val = float(vals[peak_index])
    if peak_val == 0.0:
        raise NoDetectionError("value at peak_index is zero")
    try:
        ratio = peak_val**2 / math.ldexp(bg_power, 2 * eb)
    except (OverflowError, ZeroDivisionError):
        ratio = 0.0
    if 0.0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    # the ratio over- or underflows; its logarithm does not
    return 20.0 * (math.log10(abs(peak_val)) - eb * math.log10(2.0)) - 10.0 * math.log10(bg_power)


def spatial_resolution(profile: HocProfile, peak_index: int) -> float:
    """Distance between the 10% and 90% crossings of the rising edge.

    Walks left from the peak and linearly interpolates the first segments
    where |values| crosses 90% and then 10% of the peak-to-background
    span. The background level is the profile-wide median of |values|.
    """
    vals = np.abs(profile.values)
    m = profile.fiber_points
    if not 0 <= peak_index < m:
        raise ValueError(f"peak_index {peak_index} outside profile of {m} points")
    peak_val = float(vals[peak_index])
    bg = float(np.median(vals))
    span = peak_val - bg
    if span <= 0.0:
        raise NoEdgeError("peak does not rise above the background level")
    hi_level = bg + 0.9 * span
    lo_level = bg + 0.1 * span

    x_hi: float | None = None
    x_lo: float | None = None
    for left in range(peak_index - 1, -1, -1):
        lower = float(vals[left])
        upper = float(vals[left + 1])
        if x_hi is None and lower < hi_level <= upper:
            x_hi = left + (hi_level - lower) / (upper - lower)
        if x_hi is not None and lower < lo_level <= upper:
            x_lo = left + (lo_level - lower) / (upper - lower)
            break
    if x_hi is None or x_lo is None:
        raise NoEdgeError("no monotone rising edge with both crossings found")
    return (x_hi - x_lo) * profile.meters_per_point
