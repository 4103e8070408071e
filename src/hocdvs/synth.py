"""Seeded generators for synthetic sensing inputs.

One-dimensional references, as plain float64 arrays: truncated
standard-normal sequences, the same sequences with a chosen value interval
mirrored to the opposite sign (controlled asymmetry), and offset square
waves.

Trace matrices follow an amplitude-level model of a coherently probed
fiber. Each fiber point carries a unit scatterer with a uniform random
phase; the static baseline at point m is the magnitude of the phasor sum
over the pulse window starting at m, which gives the usual speckle-like
(Rayleigh) amplitude statistics. A vibration at point p perturbs every
point the pulse overlap reaches, weighted by the triangular kernel
k(m) = 1 - |m - p| / pulse_width (largest when the event sits mid-pulse),
scaled by the baseline amplitude at the event itself and by a square-wave
drive sampled on the trace repetition clock. Detector noise is additive
white Gaussian per sample; polarization drift is a per-trace Gaussian
factor (1 + eta) multiplying the whole optical amplitude.

Each config is fully determined by the config, seed included. Its random
draws (phases, polarization factors, normals) depend only on the seed and
the geometry, so configs that differ in the drive, the depth or the noise
level share them: the e2e sweep draws each seed once for its four duties,
and spreads whole seeds over the usable CPUs. Configs that differ only in
the drive and the depth share every column outside the event span as well,
so the sweep synthesizes a seed's later duties in that span alone. A trace
matrix also comes in row chunks, equal bit for bit at any chunk size, so
`hocdvs simulate` can write a file beyond memory.
One amplitude rule holds everywhere: a trace matrix is float32, as a trace
file is. Synthesis computes in float64 and casts each chunk once, so a
matrix in memory is bit for bit the matrix that `simulate` writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import numbers
import os
import re
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, HocdvsError, PersistenceError

__all__ = [
    "SimConfig",
    "SquareWaveSpec",
    "TraceMatrix",
    "asymmetrize",
    "config_digest",
    "format_sim_config",
    "gen_square_wave",
    "gen_truncated_gaussian",
    "load_sim_config",
    "parse_sim_config",
    "synth_traces",
]

# Domain of the truncated standard normal; about 0.054% of raw draws fall
# outside and are rejected.
TRUNCATION_LIMIT = 3.46

_FLOAT32_MAX = float(np.finfo(np.float32).max)
# bytes per row block of the range check (at least one row)
_RANGE_BLOCK_BYTES = 1 << 20
# Bytes worth a thread: simulate's draw-ahead thread, analyze's digest thread and _blockwise's
# helpers start only for this much float32 or more (the trace-scale matrix is 600 KB); below,
# a thread costs more
_THREAD_MIN_BYTES = 1 << 20


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _helper_threads(payload_bytes: int, parts: int) -> int:
    """Threads worth starting beside the calling thread for `parts` pieces of work on a
    float32 payload of payload_bytes: one per further usable CPU up to one per further
    part, and none below _THREAD_MIN_BYTES."""
    return min(_usable_cpus(), parts) - 1 if payload_bytes >= _THREAD_MIN_BYTES else 0


def _finite_positive(value: float) -> bool:
    """Whether value is a finite real scalar > 0 (no 0-d array, which no memo can key)."""
    return isinstance(value, numbers.Real) and math.isfinite(value) and value > 0


def _in_float32_range(arr: np.ndarray) -> bool:
    """Whether arr (one non-empty row or more) fits the float32 range of trace files; NaN
    fails both comparisons. It takes min, then max, of each row block of about
    _RANGE_BLOCK_BYTES, so max reads a block while it is still in cache; the verdict
    is that of the whole array."""
    step = max(1, _RANGE_BLOCK_BYTES // arr[:1].nbytes)
    return all(-_FLOAT32_MAX <= block.min() and block.max() <= _FLOAT32_MAX
               for block in (arr[start : start + step] for start in range(0, len(arr), step)))


def _check_fiber_extent(meters_per_point: float, fiber_points: int, error: type) -> None:
    if not math.isfinite(meters_per_point * fiber_points):
        raise error("fiber extent meters_per_point * fiber_points must be finite")


@dataclass(frozen=True)
class SquareWaveSpec:
    """Offset square wave: high for round(duty * period) samples per period."""

    duty: float
    period_samples: int
    amplitude: float
    phase_samples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty!r}")
        if self.period_samples < 2:
            raise ValueError(f"period must be >= 2 samples, got {self.period_samples}")
        if self.period_samples >= 2**63:
            raise ValueError("period_samples must be < 2**63")
        if not 0 < self.high_samples < self.period_samples:
            side = "zero high" if self.high_samples < 1 else "no low"
            raise ValueError(
                f"duty {self.duty} over period {self.period_samples} rounds to {side} samples"
            )
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")

    @property
    def high_samples(self) -> int:
        return int(round(self.duty * self.period_samples))


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic acquisition."""

    fiber_points: int
    num_traces: int
    pulse_width_points: int
    meters_per_point: float
    trace_rate_hz: float
    vibration_point: int
    vibration: SquareWaveSpec
    vibration_depth: float
    noise_sigma: float
    sop_sigma: float
    seed: int

    def __post_init__(self) -> None:
        checks = [
            (self.fiber_points >= 1, "fiber_points must be >= 1"),
            (self.num_traces >= 1, "num_traces must be >= 1"),
            # the trace-file header stores both as u32
            (self.fiber_points < 2**32, "fiber_points must be < 2**32"),
            (self.num_traces < 2**32, "num_traces must be < 2**32"),
            (
                8 * self.fiber_points * self.num_traces <= np.iinfo(np.intp).max,
                "fiber_points * num_traces is too large: the float64 trace matrix "
                "exceeds numpy's addressable size",
            ),
            (self.pulse_width_points >= 1, "pulse_width_points must be >= 1"),
            (self.pulse_width_points < 2**63, "pulse_width_points must be < 2**63"),
            (_finite_positive(self.meters_per_point), "meters_per_point must be finite and > 0"),
            (_finite_positive(self.trace_rate_hz), "trace_rate_hz must be finite and > 0"),
            (
                0 <= self.vibration_point < self.fiber_points,
                "vibration_point must lie on the fiber",
            ),
            (0.0 <= self.vibration_depth <= 1.0, "vibration_depth must be in [0, 1]"),
            (0 <= self.noise_sigma < math.inf, "noise_sigma must be finite and >= 0"),
            (0 <= self.sop_sigma < math.inf, "sop_sigma must be finite and >= 0"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        _check_fiber_extent(self.meters_per_point, self.fiber_points, ConfigError)


def _real_array(values, name: str) -> np.ndarray:
    """values as a float32 array if they are one, else as float64. Complex values are refused,
    as the cast would drop their imaginary part; a non-numeric array raises ValueError in it."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real; take the magnitude of I/Q data first")
    return arr if arr.dtype == np.float32 else arr.astype(float, copy=False)


def _freeze(arr: np.ndarray, dtype=float) -> np.ndarray:
    """Return arr read-only as dtype, copying it unless it has that dtype, owns its
    data and is already read-only, so no caller can write to the result."""
    if arr.dtype != dtype or not arr.flags.owndata or arr.flags.writeable:
        arr = arr.astype(dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TraceMatrix:
    """W traces by M fiber points of float32 backscattering amplitudes, as a
    trace file holds them, so write_traces and read_traces round-trip exactly.

    The input is checked against the float32 range before it is cast. The
    stored matrix is read-only and private to the instance, frozen by the rule
    of _freeze, which takes over a float32 array that owns its data and is
    already read-only: that is how read_traces and synth_traces hand over the
    matrices they have just made without paying for a second copy.
    """

    amplitudes: np.ndarray
    meters_per_point: float
    trace_rate_hz: float

    def __post_init__(self) -> None:
        arr = _real_array(self.amplitudes, "amplitudes")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"amplitudes must be a W x M matrix, got shape {arr.shape}")
        if not _in_float32_range(arr):
            raise ValueError("amplitudes must be finite and within the float32 range")
        if not (_finite_positive(self.meters_per_point) and _finite_positive(self.trace_rate_hz)):
            raise ValueError("meters_per_point and trace_rate_hz must be finite and > 0")
        _check_fiber_extent(self.meters_per_point, arr.shape[1], ValueError)
        object.__setattr__(self, "amplitudes", _freeze(arr, np.float32))

    @property
    def num_traces(self) -> int:
        return int(self.amplitudes.shape[0])

    @property
    def fiber_points(self) -> int:
        return int(self.amplitudes.shape[1])


def gen_truncated_gaussian(n: int, seed: int) -> np.ndarray:
    """n standard-normal draws, rejection-resampled into the truncation window."""
    if n < 1:
        raise HocdvsError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    filled = 0
    while filled < n:
        draw = rng.standard_normal(n - filled)
        keep = draw[np.abs(draw) <= TRUNCATION_LIMIT]
        out[filled : filled + keep.size] = keep
        filled += keep.size
    return out


def asymmetrize(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Mirror every sample in the half-open interval [lo, hi) to its negation.

    Length is preserved and exactly the interval's probability mass moves
    to the opposite sign, so the output distribution is asymmetric while
    staying on the truncated support, which must contain the interval.
    """
    if not lo < hi:
        raise HocdvsError(f"empty interval [{lo!r}, {hi!r})")
    if lo < -TRUNCATION_LIMIT or hi > TRUNCATION_LIMIT:
        raise HocdvsError(
            f"interval [{lo}, {hi}) exceeds "
            f"the truncation window [-{TRUNCATION_LIMIT}, {TRUNCATION_LIMIT}]"
        )
    # multiplying by +-1 negates exactly, and unlike a masked select it does not
    # branch on the random mask, so it vectorizes
    mask = (x >= lo) & (x < hi)
    return x * (1 - 2 * mask.view(np.int8)).astype(x.dtype)


def gen_square_wave(n: int, spec: SquareWaveSpec) -> np.ndarray:
    """Periodic offset square wave of n samples."""
    idx = (np.arange(n) - spec.phase_samples % spec.period_samples) % spec.period_samples
    return np.where(idx < spec.high_samples, float(spec.amplitude), 0.0)


def synth_traces(cfg: SimConfig, draws=None) -> TraceMatrix:
    """Generate one seeded trace matrix under the amplitude-level model, in one
    chunk: its peak is the float64 matrix plus its float32 copy. draws, from
    _draws(c, cfg.num_traces) of a config c that shares cfg's draws, replace cfg's own."""
    (amplitudes,) = _trace_rows(cfg, cfg.num_traces, draws)
    amplitudes.setflags(write=False)  # hand the fresh matrix over without a copy
    return TraceMatrix(
        amplitudes=amplitudes,
        meters_per_point=cfg.meters_per_point,
        trace_rate_hz=cfg.trace_rate_hz,
    )


def _draws(cfg: SimConfig, rows: int | None = None):
    """cfg's random draws, in their one order: the phases (as the speckle baseline), the
    polarization factors, then the noise. Returns (baseline, sop, rng) with rng at the noise,
    or with rows given (baseline, sop, normals), the first rows x fiber_points of it unscaled.
    They depend only on the seed, fiber_points, num_traces, pulse_width_points and sop_sigma,
    so configs that differ elsewhere share them. Each config scales the shared normals by its
    own noise_sigma into a fresh chunk, never in place, and range-checks its own result, so
    an overflow is the ConfigError of that config alone, in whichever sweep part it runs."""
    rng = np.random.default_rng(cfg.seed)
    m, pw = cfg.fiber_points, cfg.pulse_width_points
    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    csum = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(1j * phases))])
    stop = np.minimum(np.arange(m) + min(pw, m), m)
    baseline = np.abs(csum[stop] - csum[np.arange(m)])
    sop = 1.0 + rng.normal(0.0, cfg.sop_sigma, size=cfg.num_traces)
    return baseline, sop, (rng if rows is None else rng.standard_normal((rows, m)))


def _event_span(cfg: SimConfig) -> tuple[int, int]:
    """The columns [lo, hi) the event reaches: the kernel is exactly 0 outside |m - p| < pw."""
    p, pw = cfg.vibration_point, cfg.pulse_width_points
    return max(p - pw + 1, 0), min(p + pw, cfg.fiber_points)


def _changed_columns(cfg: SimConfig, other: SimConfig) -> slice:
    """The columns where the matrices of cfg and other, made from the same draws, can differ:
    cfg's event span when the two differ only in the drive and the depth, else every column."""
    if replace(other, vibration=cfg.vibration, vibration_depth=cfg.vibration_depth) == cfg:
        return slice(*_event_span(cfg))
    return slice(0, cfg.fiber_points)


def _trace_rows(cfg: SimConfig, rows_per_chunk: int, draws=None, cols=None):
    """Yield the trace matrix, or its columns cols (a slice that holds the event span), in
    fresh float32 chunks of rows_per_chunk traces (the last may be shorter), from draws, or
    without them from _draws(cfg) with the noise drawn chunk by chunk, the next chunk on a
    worker thread (_drawn_ahead) when _helper_threads allows one for the float32 payload and
    its chunks. Each chunk is computed in float64, checked against the float32 range, then
    cast."""
    baseline, sop, noise = _draws(cfg) if draws is None else draws
    m, w, pw, p = cfg.fiber_points, cfg.num_traces, cfg.pulse_width_points, cfg.vibration_point
    cols = slice(0, m) if cols is None else cols
    lo, hi = _event_span(cfg)
    if not (cols.step is None and 0 <= cols.start <= lo and hi <= cols.stop <= m):
        raise ValueError(f"columns {cols} do not hold the event span [{lo}, {hi}) of {m}")
    kernel = 1.0 - np.abs(np.arange(lo, hi) - p) / pw
    drive = gen_square_wave(w, cfg.vibration)
    event_amplitude = cfg.vibration_depth * baseline[p]
    baseline, lo, hi = baseline[cols], lo - cols.start, hi - cols.start
    # Clean rows are added 256 KB at a time. One clean array per chunk (1.2 MB at trace
    # scale) was bit-identical but page-faulted afresh: 110,800 minor faults per 200
    # trace-scale matrices against 0, and 4.4-5.1 against 3.5-4.1 ms each, on one CPU.
    clean_rows = max(1, (1 << 15) // baseline.size)
    starts = range(0, w, rows_per_chunk)
    if draws is not None:
        normals = (noise[start : min(start + rows_per_chunk, w)] for start in starts)
    else:
        sizes = (min(rows_per_chunk, w - start) for start in starts)
        if _helper_threads(4 * w * baseline.size, len(starts)):
            normals = _drawn_ahead(noise, m, sizes)
        else:
            normals = (noise.standard_normal((n, m)) for n in sizes)
    with contextlib.closing(normals):  # joins a draw-ahead thread on every exit
        for start, normal in zip(starts, normals):
            n = len(normal)
            with np.errstate(over="ignore", invalid="ignore"):  # the range check reports it
                if draws is None:
                    chunk = normal[:, cols]
                    chunk *= cfg.noise_sigma  # bit for bit what rng.normal(0, sigma) would draw
                else:  # a fresh product, so the shared normals stay unscaled
                    chunk = normal[:, cols] * cfg.noise_sigma
                for first in range(0, n, clean_rows):
                    rows = slice(start + first, start + min(first + clean_rows, n))
                    clean = sop[rows, None] * baseline
                    clean[:, lo:hi] = sop[rows, None] * (
                        baseline[lo:hi] + event_amplitude * kernel * drive[rows, None]
                    )
                    chunk[first : first + clean_rows] += clean  # = clean + noise, bit for bit
            if not _in_float32_range(chunk):
                raise ConfigError("config drives amplitudes beyond the float32 range of trace "
                                  "files")
            yield chunk.astype(np.float32)


def _drawn_ahead(rng, m: int, sizes):
    """Yield rng.standard_normal((n, m)) for each n of sizes (one or more), in order, drawn
    on a one-worker pool. Once a chunk is taken, the next is submitted, so the worker draws
    it while the caller finishes this one: one chunk more is held, and the draws are the
    same. The worker calls numpy only (perfbench's tracer keeps one span stack). Taking a
    chunk raises the worker's error before another draw is asked for, and closing the
    generator joins the worker."""
    from concurrent.futures import ThreadPoolExecutor  # here: no pool for a trace-scale matrix
    sizes = iter(sizes)
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(rng.standard_normal, (next(sizes), m))
        for n in sizes:
            normals = ahead.result()
            ahead = pool.submit(rng.standard_normal, (n, m))
            yield normals
        yield ahead.result()


# --- plain-text config files ---------------------------------------------------

# Each config key with its field's annotation, "int" or "float": a
# SquareWaveSpec field x is the key vibration.x.
_KEY_TYPES = {
    **{f.name: f.type for f in fields(SimConfig) if f.name != "vibration"},
    **{f"vibration.{f.name}": f.type for f in fields(SquareWaveSpec)},
}

# 640 digits: the lowest limit Python can put on int() of a decimal string
_INT_RE = re.compile(r"[+-]?[0-9]{1,640}")


def _parse_literal(key: str, literal: str):
    if _KEY_TYPES[key] == "int":
        if not _INT_RE.fullmatch(literal):
            raise ConfigError(f"key '{key}' needs a decimal integer, got {literal!r}")
        return int(literal)
    if "." not in literal:
        raise ConfigError(f"key '{key}' needs a real with a decimal point, got {literal!r}")
    try:
        value = float(literal)
    except ValueError:
        raise ConfigError(f"key '{key}' has unparseable value {literal!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' needs a finite value, got {literal!r}")
    return value


def parse_sim_config(text: str) -> SimConfig:
    """Parse 'key = value' lines into a SimConfig.

    Every key is required exactly once; unknown keys are rejected. Blank
    lines and lines starting with '#' are ignored.
    """
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, literal = line.partition("=")
        key = key.strip()
        literal = literal.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key '{key}'")
        if key in values:
            raise ConfigError(f"duplicate key '{key}'")
        values[key] = _parse_literal(key, literal)

    missing = sorted(_KEY_TYPES.keys() - values.keys())
    if missing:
        raise ConfigError(f"missing key(s): {', '.join(missing)}")

    try:
        return _sim_config(values)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


def _sim_config(values: dict) -> SimConfig:
    """SimConfig from flat keys; the SquareWaveSpec is built, and checked, first."""
    wave = {k.partition(".")[2]: v for k, v in values.items() if k.startswith("vibration.")}
    rest = {k: v for k, v in values.items() if not k.startswith("vibration.")}
    return SimConfig(vibration=SquareWaveSpec(**wave), **rest)


def load_sim_config(path) -> SimConfig:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    return parse_sim_config(text)


def format_sim_config(cfg: SimConfig) -> str:
    """Canonical 'key = value' rendering; parse_sim_config round-trips it."""
    flat = asdict(cfg)
    flat.update({f"vibration.{k}": v for k, v in flat.pop("vibration").items()})
    lines = []
    for key in sorted(flat):
        value = flat[key]
        if _KEY_TYPES[key] == "int":
            rendered = str(value)
        else:
            rendered = repr(float(value))
            if "." not in rendered:
                # keep the strict "reals carry a decimal point" rule parseable
                mantissa, sep, exponent = rendered.partition("e")
                rendered = f"{mantissa}.0{sep}{exponent}" if sep else f"{rendered}.0"
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: SimConfig) -> str:
    """Stable hex digest of the canonical config text."""
    return hashlib.sha256(format_sim_config(cfg).encode("utf-8")).hexdigest()
