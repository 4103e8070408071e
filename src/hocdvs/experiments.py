"""Reproducible experiment presets and the shared analysis pipeline.

Each preset runs a fixed, documented seed list through the generators and
the detector and writes sorted CSV/JSON data files; plotting is left to
external tools. Reruns with the same seeds are byte-identical, and every
run records its seed list (and config digests where applicable) in a
run_meta.json next to the data.

Both SNR definitions of the fig2 presets live here: the input SNR of
`mix_at_snr1` (DC included) and the output SNR of `snr2_db`, which centres
raw rows and scales each noise reference to its mixed row's power itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import detect, io_formats, synth
from .errors import ConfigError, HocdvsError, NoEdgeError
from .stats import mean_cube_axis0
from .synth import (
    SimConfig,
    SquareWaveSpec,
    TraceMatrix,
    _changed_columns,
    _draws,
    _sim_config,
    _trace_rows,
    asymmetrize,
    config_digest,
    gen_square_wave,
    gen_truncated_gaussian,
    synth_traces,
)

# Value intervals (each holding ~10% of the probability mass) mirrored to
# build the asymmetric references K2..K6 from the symmetric base K1.
ASYMMETRY_INTERVALS = (
    (-3.46, -1.28),
    (-1.28, -0.84),
    (-0.84, -0.52),
    (-0.52, -0.25),
    (-0.25, 0.0),
)
REFERENCE_LENGTH = 99947

DUTY_CYCLES = (0.1, 0.2, 0.3, 0.4)
SWEEP_LENGTHS = (20, 40, 80, 120, 240)
SNR1_GRID_DB = (-6.0, -3.0, 0.0, 3.0, 6.0)
SNR2_LENGTH = 120
# Period of the one-dimensional test wave; a multiple of 20 keeps every
# duty in DUTY_CYCLES exact at every sweep length.
SNR2_PERIOD = 20

# Trace-scale defaults: 1500 points at 1 m, 100 traces at 10 kHz, 10-point
# probe pulse, event at point 1049 driven by a ~714 Hz square wave
# (period 14 on the 10 kHz trace clock).
TRACE_FIBER_POINTS = 1500
TRACE_COUNT = 100
TRACE_PULSE_POINTS = 10
TRACE_VIBRATION_POINT = 1049
TRACE_DRIVE_PERIOD = 14
TRACE_RATE_HZ = 10000.0
TRACE_DEPTH = 0.25
TRACE_NOISE_SIGMA = 0.02
TRACE_SOP_SIGMA = 0.005
TRACE_WINDOW = 100
TRACE_GUARD = 3 * TRACE_PULSE_POINTS
TRACE_AVG_LEN = 5  # traces per mavg block

_MAX_REFERENCE_RETRIES = 64

# Degenerate-reference floor: |c3(noise)| must exceed this times power^(3/2).
NOISE_C3_FLOOR = 1e-3


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer coordinates."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _symmetric_base(seed: int) -> np.ndarray:
    """The base K1: a truncated-Gaussian half sample h laid out as [h, -h],
    plus one 0.0 when REFERENCE_LENGTH is odd, so no sampling skew of i.i.d.
    draws remains."""
    half = gen_truncated_gaussian(REFERENCE_LENGTH // 2, seed)
    return np.concatenate([half, -half, np.zeros(REFERENCE_LENGTH % 2)])


def _in_parts(run, items) -> list:
    """run(part) over one contiguous part of items per usable CPU, its results joined in item
    order: the first part on the calling thread, the rest on a pool. A part's exception
    reaches the caller after the pool has joined. The CPU count is read through the synth
    module, so one patch of synth._usable_cpus reaches every path that starts a thread."""
    items = list(items)
    n = max(1, min(synth._usable_cpus(), len(items)))
    if n == 1:
        return run(items)
    from concurrent.futures import ThreadPoolExecutor  # here: no pool for one part
    parts = [items[k * len(items) // n : (k + 1) * len(items) // n] for k in range(n)]
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(run, part) for part in parts[1:]]
        return run(parts[0]) + [result for future in futures for result in future.result()]


def _asymmetry_rows(seeds) -> list:
    """The mean cubes of K1..K6, one list per seed."""
    rows = []
    for base in map(_symmetric_base, seeds):
        rows.append([mean_cube_axis0(base)] + [mean_cube_axis0(asymmetrize(base, lo, hi))
                                               for lo, hi in ASYMMETRY_INTERVALS])
    return rows


def asymmetry_sweep(seeds) -> np.ndarray:
    """Per-seed mean cubes of K1..K6; rows are seeds, columns are K indices.

    K1 is a symmetrized truncated-Gaussian sample (`_symmetric_base`), so
    its mean cube is zero to rounding and each K2..K6 column is exactly the
    mean cube induced by mirroring its value interval. The mean cube is
    taken about zero, not about the sample mean: the mean shift that
    mirroring produces is part of the asymmetry being measured. The seeds
    go in one contiguous part per usable CPU (`_in_parts`); each seed owns
    its generator, so the table does not depend on the worker count.
    """
    return np.reshape(_in_parts(_asymmetry_rows, seeds), (-1, 1 + len(ASYMMETRY_INTERVALS)))


def _draw_streams(seeds, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's mixing noise and first noise reference, as two S x length
    stacks; a shorter draw from either stream is a prefix of its row."""
    noise = [np.random.default_rng(derive_seed(s, 1)).standard_normal(length) for s in seeds]
    refs = [np.random.default_rng([s, 2, 0]).standard_normal(length) for s in seeds]
    return np.reshape(noise, (-1, length)), np.reshape(refs, (-1, length))


def mix_at_snr1(signal: np.ndarray, snr1_db: float, noise: np.ndarray) -> np.ndarray:
    """Add white Gaussian noise, one row or an S x signal.size stack of
    draws, each row scaled so its realized power ratio is exact: the gain
    is set from realized mean squares, DC included, so signal over scaled
    row is snr1_db in dB to rounding, not just in expectation."""
    if noise.shape[-1] != signal.size:
        raise ValueError(f"noise rows need {signal.size} samples, got shape {noise.shape}")
    p_signal = float(np.mean(signal**2))
    if p_signal == 0.0:
        raise HocdvsError("cannot set an SNR against a zero-power signal")
    p_raw = np.mean(noise**2, axis=-1, keepdims=True)
    gain = np.sqrt(p_signal * 10.0 ** (-snr1_db / 10.0) / p_raw)
    return signal + gain * noise


def snr2_db(mixed: np.ndarray, noise_ref: np.ndarray) -> list[float]:
    """Output SNR: dB ratio of cumulant magnitudes against equal-power noise.

    Takes two S x L stacks and returns S floats. Each row is centred, and each
    reference row is scaled to the power of its centred mixed row, so the ratio
    compares the mixed row's third cumulant with that of noise at its power.
    A reference row whose own third cumulant is at or below the stability
    floor (a constant row among them) cannot anchor the ratio and gives NaN,
    for the caller to redraw.
    """
    if mixed.ndim != 2 or mixed.shape != noise_ref.shape:
        raise ValueError(f"need S x L stacks of one shape, got {mixed.shape}, {noise_ref.shape}")
    mixed = mixed - mixed.mean(axis=1, keepdims=True)
    noise_ref = noise_ref - noise_ref.mean(axis=1, keepdims=True)
    target_power = np.mean(mixed**2, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant row becomes NaN
        noise_ref *= np.sqrt(target_power / np.mean(noise_ref**2, axis=1, keepdims=True))
    values = []
    for p_noise, c3_mixed, c3_noise in zip(
        np.mean(noise_ref**2, axis=1).tolist(),
        mean_cube_axis0(mixed.T).tolist(),
        mean_cube_axis0(noise_ref.T).tolist(),
    ):
        if abs(c3_noise) > NOISE_C3_FLOOR * p_noise**1.5:
            ratio = abs(c3_mixed) / abs(c3_noise)
            values.append(float("-inf") if c3_mixed == 0.0 else 10.0 * math.log10(ratio))
        else:
            values.append(float("nan"))
    return values


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation over seeds; one seed has spread 0."""
    std = values.std(ddof=1) if values.size > 1 else 0.0
    return float(values.mean()), float(std)


def _snr2_statistics(duty: float, snr1_db: float, seeds, noise, refs) -> tuple[float, float]:
    """snr2_statistics at length noise.shape[1], from the seeds' streams."""
    length = noise.shape[1]
    spec = SquareWaveSpec(duty=duty, period_samples=SNR2_PERIOD, amplitude=1.0)
    mixed = mix_at_snr1(gen_square_wave(length, spec), snr1_db, noise)
    values = np.empty(len(seeds))
    rows = np.arange(len(seeds))
    for attempt in range(_MAX_REFERENCE_RETRIES):
        values[rows] = snr2_db(mixed[rows], refs)
        rows = rows[np.isnan(values[rows])]
        if rows.size == 0:
            return _mean_std(values)
        refs = np.array([
            np.random.default_rng([seeds[r], 2, attempt + 1]).standard_normal(length)
            for r in rows
        ])
    raise HocdvsError(f"no stable noise reference in {_MAX_REFERENCE_RETRIES} attempts")


def snr2_statistics(duty: float, length: int, snr1_db: float, seeds) -> tuple[float, float]:
    """Mean and standard deviation over seeds of the output SNR of a square
    wave mixed at snr1_db. A seed whose equal-power noise reference has a
    degenerate cumulant redraws it from its next child seed, so each value
    stays deterministic per (duty, length, snr1_db, seed). It needs at least one seed and a
    length of at least 3: a centred row of one or two samples has a mean cube of exactly 0."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("snr2_statistics needs at least one seed")
    if length < 3:
        raise ConfigError(f"snr2_statistics needs a length of at least 3, got {length}")
    return _snr2_statistics(duty, snr1_db, seeds, *_draw_streams(seeds, length))


def trace_config(duty: float, seed: int, **overrides) -> SimConfig:
    """Trace-scale config with the event drive at the given duty cycle."""
    return _sim_config({
        "fiber_points": TRACE_FIBER_POINTS,
        "num_traces": TRACE_COUNT,
        "pulse_width_points": TRACE_PULSE_POINTS,
        "meters_per_point": 1.0,
        "trace_rate_hz": TRACE_RATE_HZ,
        "vibration_point": TRACE_VIBRATION_POINT,
        "vibration_depth": TRACE_DEPTH,
        "noise_sigma": TRACE_NOISE_SIGMA,
        "sop_sigma": TRACE_SOP_SIGMA,
        "seed": seed,
        "vibration.duty": duty,
        "vibration.period_samples": TRACE_DRIVE_PERIOD,
        "vibration.amplitude": 1.0,
        "vibration.phase_samples": 0,
        **overrides,
    })


def analyze_traces(
    traces: TraceMatrix,
    method: str,
    window: int,
    *,
    avg_len: int = TRACE_AVG_LEN,
    guard: int = TRACE_GUARD,
) -> tuple[detect.HocProfile, detect.DetectionReport]:
    """Run one method end to end: its profile, then `_report_of` it."""
    if method == detect.METHOD_HOC:
        profile = detect.hoc_profile(traces, window)
    elif method == detect.METHOD_MOVING_DIFFERENTIAL:
        profile = detect.moving_differential_profile(traces, window)
    elif method == detect.METHOD_MOVING_AVERAGE:
        profile = detect.moving_average_profile(traces, window, avg_len)
    else:
        raise ValueError(f"unknown method {method!r}")
    return profile, _report_of(profile, method, guard)


def _report_of(profile: detect.HocProfile, method: str, guard: int) -> detect.DetectionReport:
    """The report of a method's profile: peak, location SNR, 10-90% resolution or None."""
    peak_index, position_m = detect.locate_peak(profile)
    snr = detect.location_snr(profile, peak_index, guard)
    try:
        resolution = detect.spatial_resolution(profile, peak_index)
    except NoEdgeError:
        resolution = None
    return detect.DetectionReport(
        peak_index=peak_index,
        peak_position_m=position_m,
        location_snr_db=snr,
        spatial_resolution_m=resolution,
        method=method,
    )


def _settings_text(method: str, window: int, guard: int, avg_len: int) -> str:
    """The analysis settings a report's config_digest hashes after the trace file."""
    return f"|method={method}|window={window}|guard={guard}|avg_len={avg_len}"


def _report_digest(traces: TraceMatrix) -> str:
    """The config_digest `analyze --method hoc --window 100` writes for write_traces' file."""
    sha = hashlib.sha256(io_formats._header_bytes(traces.amplitudes.shape,
                                                  traces.meters_per_point, traces.trace_rate_hz))
    sha.update(traces.amplitudes.astype("<f4", copy=False))
    sha.update(_settings_text(detect.METHOD_HOC, TRACE_WINDOW, TRACE_GUARD, TRACE_AVG_LEN).encode())
    return sha.hexdigest()


def _sweep_part(pairs) -> list:
    """The (duty, seed, report, digest) rows of some (seed, hashed) pairs at every duty, in
    (seed, duty) order, hoc at trace scale. A seed's draws are made once, and its first duty
    is synthesized and analyzed in full. A later duty's matrix differs from it only in the
    event span, and hoc reduces each column alone: so the span alone is synthesized, profiled
    and written into a copy of the first profile. digest is the duty's _report_digest if
    hashed, else None; a later duty synthesizes its full matrix for that digest alone."""
    rows = []
    for seed, hashed in pairs:
        for duty in DUTY_CYCLES:
            cfg = trace_config(duty, seed)
            if duty == DUTY_CYCLES[0]:
                first_cfg, draws = cfg, _draws(cfg, TRACE_COUNT)
                traces = synth_traces(cfg, draws)
                first_profile, report = analyze_traces(traces, detect.METHOD_HOC, TRACE_WINDOW)
            else:
                cols = _changed_columns(cfg, first_cfg)
                (span,) = _trace_rows(cfg, TRACE_COUNT, draws, cols)
                span_traces = TraceMatrix(span, cfg.meters_per_point, cfg.trace_rate_hz)
                values = first_profile.values.copy()
                values[cols] = detect.hoc_profile(span_traces, TRACE_WINDOW).values
                profile = detect.HocProfile(values, cfg.meters_per_point)
                report = _report_of(profile, detect.METHOD_HOC, TRACE_GUARD)
                traces = synth_traces(cfg, draws) if hashed else None
            rows.append((duty, seed, report, _report_digest(traces) if hashed else None))
            del traces  # so no full matrix outlives its duty
    return rows


def localization_sweep(seeds):
    """(duty, seed, report, digest) rows for every (duty, seed) pair at trace scale, in
    (duty, position in seeds) order, with a digest at seeds[0] only, whose reports the e2e
    preset writes. The seeds go in one contiguous part per usable CPU (`_in_parts`), so each
    part holds whole seeds and the rows do not depend on the worker count."""
    rows = _in_parts(_sweep_part, [(seed, seed == seeds[0]) for seed in seeds])
    duties = len(DUTY_CYCLES)
    return [row for d in range(duties) for row in rows[d::duties]]


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _write_csv(out_dir: Path, preset: str, lines) -> Path:
    path = out_dir / f"{preset}.csv"
    with io_formats._written(path, "preset CSV") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_meta(out_dir: Path, preset: str, seeds, meta: dict) -> Path:
    """run_meta.json: the preset's name, its seed list and its settings."""
    meta = {"preset": preset, "seeds": list(seeds), **meta}
    path = out_dir / "run_meta.json"
    with io_formats._written(path, "run metadata") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return path


def _run_fig1(out_dir: Path, seeds) -> list[Path]:
    table = asymmetry_sweep(seeds)
    lines = ["k_index,mean_c3,std_c3"]
    for k in range(table.shape[1]):
        mean, std = _mean_std(table[:, k])
        lines.append(f"{k + 1},{_fmt(mean)},{_fmt(std)}")
    return [
        _write_csv(out_dir, "fig1_asymmetry", lines),
        _write_meta(out_dir, "fig1_asymmetry", seeds, {
            "sequence_length": REFERENCE_LENGTH,
            "intervals": [list(iv) for iv in ASYMMETRY_INTERVALS],
        }),
    ]


def _run_snr2_sweep(out_dir: Path, seeds, preset: str, swept: str, cells, meta) -> list[Path]:
    """One output-SNR preset: a CSV row per duty and (label, length, snr1_db)
    cell, all cells sliced from each seed's streams drawn once."""
    noise, refs = _draw_streams(seeds, max(length for _, length, _ in cells))
    lines = [f"duty,{swept},mean_snr2_db,std_snr2_db"]
    for duty in DUTY_CYCLES:
        for label, length, snr1 in cells:
            mean, std = _snr2_statistics(duty, snr1, seeds, noise[:, :length], refs[:, :length])
            lines.append(f"{_fmt(duty)},{label},{_fmt(mean)},{_fmt(std)}")
    meta = {**meta, "duties": list(DUTY_CYCLES), "wave_period": SNR2_PERIOD}
    return [_write_csv(out_dir, preset, lines), _write_meta(out_dir, preset, seeds, meta)]


def _run_fig2a(out_dir: Path, seeds) -> list[Path]:
    cells = [(length, length, 0.0) for length in SWEEP_LENGTHS]
    meta = {"snr1_db": 0.0, "lengths": list(SWEEP_LENGTHS)}
    return _run_snr2_sweep(out_dir, seeds, "fig2a_length_sweep", "length", cells, meta)


def _run_fig2b(out_dir: Path, seeds) -> list[Path]:
    cells = [(_fmt(snr1), SNR2_LENGTH, snr1) for snr1 in SNR1_GRID_DB]
    meta = {"length": SNR2_LENGTH, "snr1_grid_db": list(SNR1_GRID_DB)}
    return _run_snr2_sweep(out_dir, seeds, "fig2b_snr_sweep", "snr1_db", cells, meta)


def _run_e2e(out_dir: Path, seeds) -> list[Path]:
    seeds = list(seeds)
    rows = localization_sweep(seeds)
    lines = ["duty,seed,peak_index,peak_position_m,location_snr_db,spatial_resolution_m"]
    snr_by_duty: dict[float, list[float]] = {duty: [] for duty in DUTY_CYCLES}
    for duty, seed, report, _ in rows:
        sr = "" if report.spatial_resolution_m is None else _fmt(report.spatial_resolution_m)
        lines.append(
            f"{_fmt(duty)},{seed},{report.peak_index},"
            f"{_fmt(report.peak_position_m)},{_fmt(report.location_snr_db)},{sr}"
        )
        snr_by_duty[duty].append(report.location_snr_db)

    paths = [_write_csv(out_dir, "e2e_localization", lines)]
    first = {duty: (report, digest) for duty, seed, report, digest in rows if seed == seeds[0]}
    for duty, (report, digest) in first.items():
        paths.append(out_dir / f"report_duty{int(round(duty * 100))}.json")
        io_formats.write_report_json(paths[-1], report, window=TRACE_WINDOW, config_digest=digest)

    mean_snr = {_fmt(duty): float(np.mean(snr_by_duty[duty])) for duty in DUTY_CYCLES}
    ordering = sorted(mean_snr, key=mean_snr.get, reverse=True)
    paths.append(_write_meta(out_dir, "e2e_localization", seeds, {
        "window": TRACE_WINDOW,
        "guard": TRACE_GUARD,
        "config_digests": {_fmt(d): config_digest(trace_config(d, seeds[0])) for d in DUTY_CYCLES},
        "mean_location_snr_db": mean_snr,
        "location_snr_ordering": ordering,
    }))
    return paths


# Each preset's runner and default seed list, in the order the CLI lists them.
PRESETS = {
    "fig1_asymmetry": (_run_fig1, tuple(range(50))),
    "fig2a_length_sweep": (_run_fig2a, tuple(range(200))),
    "fig2b_snr_sweep": (_run_fig2b, tuple(range(200))),
    "e2e_localization": (_run_e2e, tuple(range(50))),
}


def run_preset(name: str, out_dir, seeds=None) -> list[Path]:
    """Run one named preset into out_dir; returns the paths written."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {tuple(PRESETS)}")
    runner, default_seeds = PRESETS[name]
    # an unallocatable or empty seed list fails here, before any directory exists
    seeds = default_seeds if seeds is None else tuple(seeds)
    if not seeds:
        raise ConfigError(f"preset {name!r} needs at least one seed")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    return runner(out_path, seeds)
