import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hocdvs import detect, experiments, synth
from hocdvs.errors import ConfigError, HocdvsError
from hocdvs.experiments import (
    ASYMMETRY_INTERVALS,
    DUTY_CYCLES,
    PRESETS,
    SNR2_PERIOD,
    SWEEP_LENGTHS,
    _draw_streams,
    _snr2_statistics,
    analyze_traces,
    asymmetry_sweep,
    derive_seed,
    localization_sweep,
    run_preset,
    snr2_statistics,
    trace_config,
)
from hocdvs.stats import mean_cube_axis0
from hocdvs.synth import SquareWaveSpec, config_digest, gen_square_wave, synth_traces


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, 1) == derive_seed(3, 1)
    assert derive_seed(3, 1) != derive_seed(3, 2)
    assert derive_seed(3, 1) != derive_seed(4, 1)


def test_mean_cube_is_raw_third_moment():
    x = np.array([1.0, 2.0, -1.0])
    assert float(mean_cube_axis0(x)) == pytest.approx((1.0 + 8.0 - 1.0) / 3.0)


def test_snr2_statistics_deterministic():
    assert snr2_statistics(0.2, 120, 0.0, [9, 4]) == snr2_statistics(0.2, 120, 0.0, (9, 4))


def reference_snr2(duty, length, snr1_db, seed):
    """One seed's (attempts used, output SNR in dB), by the per-seed
    arithmetic of the one-sample-at-a-time form the batched kernel replaced."""
    spec = SquareWaveSpec(duty=duty, period_samples=SNR2_PERIOD, amplitude=1.0)
    wave = gen_square_wave(length, spec)
    noise = np.random.default_rng(derive_seed(seed, 1)).standard_normal(length)
    p_raw = float(np.mean(noise**2))
    gain = np.sqrt(float(np.mean(wave**2)) * 10.0 ** (-snr1_db / 10.0) / p_raw)
    mixed = wave + gain * noise
    mixed = mixed - mixed.mean()
    target_power = float(np.mean(mixed**2))
    c3_mixed = float(mean_cube_axis0(mixed))
    for attempt in range(64):
        raw = np.random.default_rng([seed, 2, attempt]).standard_normal(length)
        ref = raw - raw.mean()
        ref = ref * np.sqrt(target_power / np.mean(ref**2))
        c3_noise = float(mean_cube_axis0(ref))
        if abs(c3_noise) > experiments.NOISE_C3_FLOOR * float(np.mean(ref**2)) ** 1.5:
            if c3_mixed == 0.0:
                return attempt, float("-inf")
            return attempt, 10.0 * math.log10(abs(c3_mixed) / abs(c3_noise))
    raise AssertionError("reference exhausted its attempts")


def reference_statistics(duty, length, snr1_db, seeds):
    runs = [reference_snr2(duty, length, snr1_db, s) for s in seeds]
    values = np.array([value for _, value in runs])
    return (float(values.mean()), float(values.std(ddof=1))), max(a for a, _ in runs)


@pytest.mark.parametrize("snr1_db", [-6.0, 0.0, 6.0])
def test_kernel_matches_per_seed_reference_bit_for_bit(snr1_db):
    seeds = list(range(40, 70))
    # the preset path: streams drawn once at the longest length, sliced per cell
    noise, refs = _draw_streams(seeds, max(SWEEP_LENGTHS))
    for duty, length in zip((0.1, 0.2, 0.3, 0.4, 0.1), SWEEP_LENGTHS):
        expected, _ = reference_statistics(duty, length, snr1_db, seeds)
        assert snr2_statistics(duty, length, snr1_db, seeds) == expected
        sliced = (noise[:, :length], refs[:, :length])
        assert _snr2_statistics(duty, snr1_db, seeds, *sliced) == expected


def test_kernel_redraws_only_degenerate_references(monkeypatch):
    # a floor near the spread of a 120-sample reference's skewness sends
    # many rows, and only those, through later attempts
    monkeypatch.setattr(experiments, "NOISE_C3_FLOOR", 0.2)
    seeds = list(range(60))
    expected, most_attempts = reference_statistics(0.2, 120, 0.0, seeds)
    assert most_attempts >= 2
    assert snr2_statistics(0.2, 120, 0.0, seeds) == expected


def test_kernel_exhausted_attempts_message(monkeypatch):
    monkeypatch.setattr(experiments, "NOISE_C3_FLOOR", math.inf)
    with pytest.raises(HocdvsError, match="^no stable noise reference in 64 attempts$") as exc:
        snr2_statistics(0.2, 20, 0.0, range(3))
    assert exc.type is HocdvsError


@pytest.mark.filterwarnings("error")
def test_snr2_statistics_of_no_seeds_is_config_error():
    with pytest.raises(ConfigError, match="^snr2_statistics needs at least one seed$"):
        snr2_statistics(0.2, 120, 0.0, [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("length", [0, 1, 2])
def test_snr2_statistics_below_three_samples_is_config_error(length):
    # a centred row of one or two samples has a mean cube of exactly 0, so no noise
    # reference could anchor the ratio
    with pytest.raises(ConfigError, match=f"^snr2_statistics needs a length of at least 3, "
                                          f"got {length}$"):
        snr2_statistics(0.2, length, 0.0, range(3))


@pytest.mark.filterwarnings("error")
def test_snr2_statistics_at_three_samples_and_one_seed():
    mean, std = snr2_statistics(0.1, 3, 0.0, [5])
    assert math.isfinite(mean) and std == 0.0


@pytest.mark.parametrize("length", SWEEP_LENGTHS)
def test_shorter_draw_is_a_prefix_of_the_longest(length):
    for seed in (0, 7, 199):
        for stream in (derive_seed(seed, 1), [seed, 2, 0], [seed, 2, 3]):
            longest = np.random.default_rng(stream).standard_normal(max(SWEEP_LENGTHS))
            short = np.random.default_rng(stream).standard_normal(length)
            assert longest[:length].tobytes() == short.tobytes()


def test_trace_config_overrides():
    cfg = trace_config(0.3, seed=2, noise_sigma=0.0, **{"vibration.period_samples": 20})
    assert cfg.noise_sigma == 0.0
    assert cfg.vibration.period_samples == 20
    assert cfg.vibration.duty == 0.3
    assert config_digest(cfg) != config_digest(trace_config(0.3, seed=2))


def test_asymmetry_sweep_shape_and_base_column():
    table = asymmetry_sweep(range(3))
    assert table.shape == (3, 1 + len(ASYMMETRY_INTERVALS))
    # the base sequence is symmetric, so its raw third moment is small
    assert np.all(np.abs(table[:, 0]) < 0.1)
    # the widest mirrored interval dominates every seed
    assert np.all(table[:, 1] > table[:, 2:].max(axis=1))


def test_asymmetry_sweep_base_is_exactly_symmetric():
    table = asymmetry_sweep(range(20))
    # every draw is paired with its negation (the odd length adds one 0.0), so
    # the base mean cube is rounding residue; one unpaired draw would leave ~1e-4
    assert np.all(np.abs(table[:, 0]) <= 1e-14)
    # each mirrored interval then induces a strictly positive mean cube
    assert np.all(table[:, 1:] > 0.0)


def _serial_asymmetry_table(seeds):
    """The reference table, one seed at a time on the calling thread."""
    out = np.empty((len(seeds), 1 + len(ASYMMETRY_INTERVALS)))
    for row, seed in enumerate(seeds):
        base = experiments._symmetric_base(seed)
        out[row, 0] = mean_cube_axis0(base)
        for col, (lo, hi) in enumerate(ASYMMETRY_INTERVALS, start=1):
            out[row, col] = mean_cube_axis0(synth.asymmetrize(base, lo, hi))
    return out


@pytest.mark.parametrize("seeds", [range(6), [3, 0, 2, 49, 7]], ids=["0..5", "3,0,2,49,7"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_asymmetry_sweep_does_not_depend_on_the_worker_count(monkeypatch, cpus, seeds):
    _set_usable_cpus(monkeypatch, cpus)
    parts = []
    asymmetry_rows = experiments._asymmetry_rows

    def recorded(part):
        parts.append(list(part))
        return asymmetry_rows(part)

    monkeypatch.setattr(experiments, "_asymmetry_rows", recorded)
    table = asymmetry_sweep(seeds)
    expected = _serial_asymmetry_table(list(seeds))
    assert table.dtype == np.float64 and table.shape == expected.shape
    assert table.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    # one part per usable CPU, each a contiguous run of the seeds in their given order
    assert len(parts) == cpus
    assert sum(sorted(parts, key=lambda part: list(seeds).index(part[0])), []) == list(seeds)
    if seeds == range(6):
        assert sorted(map(len, parts)) == [6 // cpus] * cpus


def test_asymmetry_sweep_of_no_seeds_is_an_empty_table():
    table = asymmetry_sweep(range(0))
    assert table.shape == (0, 1 + len(ASYMMETRY_INTERVALS))
    assert table.dtype == np.float64


def test_asymmetry_sweep_failure_in_a_pool_part_reaches_the_caller(monkeypatch):
    _set_usable_cpus(monkeypatch, 3)
    symmetric_base, raised_on = experiments._symmetric_base, []

    def last_seed_fails(seed):
        if seed == 5:  # the last seed, in the third part
            raised_on.append(threading.current_thread())
            raise HocdvsError("seed 5 fails")
        return symmetric_base(seed)

    monkeypatch.setattr(experiments, "_symmetric_base", last_seed_fails)
    threads = threading.active_count()
    with pytest.raises(HocdvsError) as exc:
        asymmetry_sweep(range(6))
    assert exc.type is HocdvsError
    assert str(exc.value) == "seed 5 fails"
    assert raised_on and raised_on[0] is not threading.current_thread()
    assert threading.active_count() == threads


def test_asymmetry_sweep_failure_in_the_callers_part_reaches_it_after_the_join(
        monkeypatch, started_threads):
    _set_usable_cpus(monkeypatch, 3)
    symmetric_base, failing, finished = experiments._symmetric_base, threading.Event(), []

    def first_seed_fails(seed):
        if seed == 0:  # the first seed, in the caller's part
            failing.set()
            raise HocdvsError("seed 0 fails")
        assert failing.wait(timeout=30)  # the pool's parts run on after the caller fails
        base = symmetric_base(seed)
        finished.append(seed)
        return base

    monkeypatch.setattr(experiments, "_symmetric_base", first_seed_fails)
    threads = threading.active_count()
    with pytest.raises(HocdvsError, match="^seed 0 fails$"):
        asymmetry_sweep(range(6))
    assert sorted(finished) == [2, 3, 4, 5]
    assert len(started_threads) == 2 and not any(t.is_alive() for t in started_threads)
    assert threading.active_count() == threads


@pytest.mark.parametrize("sweep", [asymmetry_sweep, localization_sweep])
def test_one_usable_cpu_submits_nothing_to_a_pool(monkeypatch, sweep):
    def refuse(self, *args, **kwargs):
        raise AssertionError("submitted to a pool")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
    _set_usable_cpus(monkeypatch, 2)
    with pytest.raises(AssertionError, match="^submitted to a pool$"):
        sweep([0, 1])
    _set_usable_cpus(monkeypatch, 1)
    sweep([0, 1])


def test_localization_sweep_rows():
    rows = localization_sweep(seeds=[0, 1])
    assert [(duty, seed) for duty, seed, _, _ in rows] == [
        (duty, seed) for duty in DUTY_CYCLES for seed in (0, 1)
    ]
    for duty, seed, report, digest in rows:
        assert abs(report.peak_index - 1049) <= 10
        # only the first seed's matrices are hashed, for the per-duty report files
        assert (digest is not None) == (seed == 0)


def _set_usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(synth.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(synth.os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 3])
def test_localization_sweep_does_not_depend_on_the_worker_count(monkeypatch, cpus):
    _set_usable_cpus(monkeypatch, cpus)
    part_sizes = []
    sweep_part = experiments._sweep_part

    def counted(pairs):
        part_sizes.append(len(pairs))
        return sweep_part(pairs)

    monkeypatch.setattr(experiments, "_sweep_part", counted)
    rows = localization_sweep(seeds=range(6))
    # each part holds whole seeds, one (seed, hashed) pair each, drawn once for all duties
    assert sorted(part_sizes) == [6 // cpus] * cpus
    expected = [
        (duty, seed, analyze_traces(synth_traces(trace_config(duty, seed)), "hoc", 100)[1])
        for duty in DUTY_CYCLES
        for seed in range(6)
    ]
    assert [row[:3] for row in rows] == expected
    assert [row[3] for row in rows] == [
        experiments._report_digest(synth_traces(trace_config(duty, seed))) if seed == 0 else None
        for duty, seed, _ in expected
    ]


@pytest.mark.parametrize("cpus", [1, 2])
def test_localization_sweep_rows_follow_the_given_seed_order(monkeypatch, cpus):
    # parts return their rows seed by seed; the sweep puts them in (duty, given seed)
    # order, which a sort by seed value would break, and hashes the first given seed only
    _set_usable_cpus(monkeypatch, cpus)
    seeds = [3, 0, 2]
    rows = localization_sweep(seeds=seeds)
    pairs = [(duty, seed) for duty in DUTY_CYCLES for seed in seeds]
    matrices = {pair: synth_traces(trace_config(*pair)) for pair in pairs}
    assert [row[:3] for row in rows] == [
        (duty, seed, analyze_traces(matrices[duty, seed], "hoc", 100)[1]) for duty, seed in pairs
    ]
    assert [row[3] for row in rows] == [
        experiments._report_digest(matrices[duty, seed]) if seed == 3 else None
        for duty, seed in pairs
    ]


def test_localization_sweep_runs_analyze_traces_once_per_seed(monkeypatch):
    calls = []
    analyze = experiments.analyze_traces

    def counted(traces, method, window, **kwargs):
        result = analyze(traces, method, window, **kwargs)
        calls.append((method, window, kwargs, traces.amplitudes.shape, result[1]))
        return result

    monkeypatch.setattr(experiments, "analyze_traces", counted)
    rows = localization_sweep(seeds=range(3))
    # a seed's first duty is analyzed in full; its later duties profile their span alone
    assert [call[:4] for call in calls] == [("hoc", 100, {}, (100, 1500))] * 3
    # each first duty's row holds the report its own analyze_traces call returned
    first_reports = [report for duty, _, report, _ in rows if duty == DUTY_CYCLES[0]]
    assert sorted(map(id, first_reports)) == sorted(id(call[4]) for call in calls)


@pytest.mark.parametrize("duty", DUTY_CYCLES[1:])
def test_localization_sweep_reports_a_later_duty_from_its_full_profile(monkeypatch, duty):
    # a later duty's span profile, written into a copy of its seed's first profile, is the
    # full profile of its own matrix byte for byte, at the hashed seed 0 and at seed 1
    profiles = {}
    report_of = experiments._report_of

    def recorded(profile, method, guard):
        report = report_of(profile, method, guard)
        profiles[id(report)] = profile
        return report

    monkeypatch.setattr(experiments, "_report_of", recorded)
    rows = localization_sweep(seeds=[0, 1])
    got = {seed: profiles[id(report)] for d, seed, report, _ in rows if d == duty}
    for seed, profile in got.items():
        full = detect.hoc_profile(synth_traces(trace_config(duty, seed)), 100)
        first = detect.hoc_profile(synth_traces(trace_config(DUTY_CYCLES[0], seed)), 100)
        assert profile.values.tobytes() == full.values.tobytes(), seed
        assert profile.values.tobytes() != first.values.tobytes(), seed
        assert profile.meters_per_point == full.meters_per_point
    assert sorted(got) == [0, 1]


def test_localization_sweep_synthesizes_and_reduces_later_duties_in_their_span(monkeypatch):
    # no output shows a sweep that falls back to full work; these counts do
    reductions, checked_columns = [], {np.float64: [], np.float32: []}
    mean_cube, in_range = detect._mean_cube_axis0, synth._in_float32_range

    def reduced(block):
        reductions.append(block.shape)
        return mean_cube(block)

    def checked(arr):  # synthesis checks float64 chunks, TraceMatrix float32 matrices
        checked_columns[arr.dtype.type].append(arr.shape[1])
        return in_range(arr)

    monkeypatch.setattr(detect, "_mean_cube_axis0", reduced)
    monkeypatch.setattr(synth, "_in_float32_range", checked)
    localization_sweep(seeds=range(2))
    # a seed's first duty reduces three blocks of its 1500 points, each later duty its span
    assert sorted(reductions) == sorted([(100, 512), (100, 512), (100, 476)] * 2
                                        + [(100, 19)] * 2 * 3)
    # each seed checks its first matrix and its later duties' spans once in each dtype;
    # seed 0, whose reports are hashed, also synthesizes its later duties' full matrices
    expected = 2 * (1500 + 3 * 19) + 3 * 1500
    assert sum(checked_columns[np.float64]) == sum(checked_columns[np.float32]) == expected


def test_localization_sweep_failure_in_a_pool_part_reaches_the_caller(monkeypatch):
    _set_usable_cpus(monkeypatch, 3)
    make_config = experiments.trace_config

    def last_config_overflows(duty, seed):
        if (duty, seed) == (DUTY_CYCLES[-1], 5):  # the last pair, in the third part
            return make_config(duty, seed, noise_sigma=1e300)
        return make_config(duty, seed)

    monkeypatch.setattr(experiments, "trace_config", last_config_overflows)
    threads = threading.active_count()
    with pytest.raises(ConfigError) as exc:
        localization_sweep(seeds=range(6))
    assert exc.type is ConfigError
    assert str(exc.value) == "config drives amplitudes beyond the float32 range of trace files"
    assert threading.active_count() == threads


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset 'fig3_mystery'"):
        run_preset("fig3_mystery", "/tmp/never")


@pytest.mark.parametrize("preset", list(PRESETS))
def test_empty_seed_list_is_config_error_before_any_output(tmp_path, preset):
    out_dir = tmp_path / "o"
    with pytest.raises(ConfigError, match=f"^preset '{preset}' needs at least one seed$"):
        run_preset(preset, out_dir, seeds=[])
    assert not out_dir.exists()


def test_fig1_preset_emits_ordered_csv(tmp_path):
    paths = run_preset("fig1_asymmetry", tmp_path, seeds=range(3))
    csv_path = tmp_path / "fig1_asymmetry.csv"
    assert csv_path in paths
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k_index,mean_c3,std_c3"
    assert len(lines) == 7
    means = [float(line.split(",")[1]) for line in lines[1:]]
    # K2 dominates and the asymmetrized means decrease toward K6
    assert means[1] > means[2] > means[3] > means[4] > means[5]
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["seeds"] == [0, 1, 2]


def test_fig2a_preset_rows(tmp_path):
    run_preset("fig2a_length_sweep", tmp_path, seeds=range(5))
    lines = (tmp_path / "fig2a_length_sweep.csv").read_text().splitlines()
    assert lines[0] == "duty,length,mean_snr2_db,std_snr2_db"
    assert len(lines) == 1 + len(DUTY_CYCLES) * len(SWEEP_LENGTHS)


def test_e2e_preset_reports(tmp_path):
    run_preset("e2e_localization", tmp_path, seeds=range(2))
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert set(meta["mean_location_snr_db"]) == {"0.1", "0.2", "0.3", "0.4"}
    assert len(meta["location_snr_ordering"]) == 4
    # the config-text digests simulate prints, each report's one link to its config
    assert meta["config_digests"] == {
        f"{duty:.9g}": config_digest(trace_config(duty, 0)) for duty in DUTY_CYCLES
    }
    for duty in (10, 20, 30, 40):
        report = json.loads((tmp_path / f"report_duty{duty}.json").read_text())
        assert report["method"] == "hoc"
        assert abs(report["peak_index"] - 1049) <= 10
