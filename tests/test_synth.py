import json
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from hocdvs import (
    METHOD_HOC,
    DetectionReport,
    HocProfile,
    SquareWaveSpec,
    TraceMatrix,
    asymmetrize,
    config_digest,
    format_sim_config,
    gen_square_wave,
    gen_truncated_gaussian,
    parse_sim_config,
    read_traces,
    synth_traces,
    third_cumulant_zero_lag,
    write_traces,
)
from hocdvs.errors import ConfigError, HocdvsError, PersistenceError
from hocdvs import experiments, io_formats, synth
from hocdvs.experiments import (
    ASYMMETRY_INTERVALS,
    DUTY_CYCLES,
    TRACE_COUNT,
    asymmetry_sweep,
    mix_at_snr1,
    trace_config,
)
from hocdvs.synth import TRUNCATION_LIMIT, _changed_columns, _draws, _trace_rows


class TestTruncatedGaussian:
    def test_deterministic(self):
        a = gen_truncated_gaussian(5000, seed=42)
        b = gen_truncated_gaussian(5000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_domain_is_truncated_not_clipped(self):
        x = gen_truncated_gaussian(200000, seed=1)
        assert np.max(np.abs(x)) <= TRUNCATION_LIMIT
        # clipping would pile an atom on the boundary; rejection leaves none
        assert np.sum(np.abs(x) > TRUNCATION_LIMIT - 1e-6) == 0

    def test_moments_at_reference_length(self):
        n = 99947
        x = gen_truncated_gaussian(n, seed=7)
        assert abs(x.mean()) < 4.0 / np.sqrt(n)
        assert abs(x.var() - 1.0) < 0.05

    def test_tail_mass_matches_truncated_normal(self):
        n = 500000
        x = gen_truncated_gaussian(n, seed=3)
        z = norm.cdf(TRUNCATION_LIMIT) - norm.cdf(-TRUNCATION_LIMIT)
        expected = 2.0 * (norm.cdf(TRUNCATION_LIMIT) - norm.cdf(3.0)) / z
        got = np.mean(np.abs(x) >= 3.0)
        se = np.sqrt(expected * (1 - expected) / n)
        assert got == pytest.approx(expected, abs=4 * se)

    def test_empty_request(self):
        with pytest.raises(HocdvsError, match="need at least one sample, got 0") as exc:
            gen_truncated_gaussian(0, seed=0)
        assert exc.type is HocdvsError


class TestAsymmetrize:
    def test_flips_only_interval_samples(self):
        out = asymmetrize(np.array([-2.0, 0.5]), -3.46, -1.28)
        np.testing.assert_array_equal(out, [2.0, 0.5])

    @staticmethod
    def where_form(x, lo, hi):
        """The branching form asymmetrize replaced."""
        return np.where((x >= lo) & (x < hi), -x, x)

    def test_bits_match_the_where_form(self):
        lo, hi = -1.28, -0.84
        x = np.array([0.0, -0.0, np.nan, -np.nan, lo, hi, np.nextafter(hi, lo),
                      np.nextafter(lo, -np.inf), -1.0, 1.0, 3.46, -3.46])
        out, reference = asymmetrize(x, lo, hi), self.where_form(x, lo, hi)
        np.testing.assert_array_equal(out.view(np.uint64), reference.view(np.uint64))
        assert out[4] == -lo and out[5] == hi  # lo flips, hi does not
        zeros = np.array([0.0, -0.0])
        np.testing.assert_array_equal(asymmetrize(zeros, -1.0, 1.0).view(np.uint64),
                                      (-zeros).view(np.uint64))

    def test_asymmetry_sweep_bits_match_the_where_form(self, monkeypatch):
        fast = asymmetry_sweep(range(50))
        monkeypatch.setattr(experiments, "asymmetrize", self.where_form)
        np.testing.assert_array_equal(fast.view(np.uint64),
                                      asymmetry_sweep(range(50)).view(np.uint64))

    def test_interval_outside_window_rejected(self):
        x = np.array([-2.0, 0.5])
        with pytest.raises(HocdvsError, match="exceeds the truncation window") as exc:
            asymmetrize(x, -4.0, -1.28)
        assert exc.type is HocdvsError
        with pytest.raises(HocdvsError, match="empty interval") as exc:
            asymmetrize(x, -1.0, -2.0)
        assert exc.type is HocdvsError

    def test_flipped_indices_restore_after_mirror_flip(self):
        x = gen_truncated_gaussian(20000, seed=9)
        lo, hi = -1.28, -0.84
        flipped_idx = (x >= lo) & (x < hi)
        untouched_idx = ~flipped_idx & ~((x > -hi) & (x <= -lo))
        once = asymmetrize(x, lo, hi)
        twice = asymmetrize(once, -hi, -lo)
        np.testing.assert_array_equal(twice[flipped_idx], x[flipped_idx])
        np.testing.assert_array_equal(twice[untouched_idx], x[untouched_idx])

    def test_each_interval_holds_ten_percent(self):
        n = 99947
        x = gen_truncated_gaussian(n, seed=21)
        for lo, hi in ASYMMETRY_INTERVALS:
            inside = np.count_nonzero((x >= lo) & (x <= hi))
            assert inside / n == pytest.approx(0.10, abs=0.005)

    def test_widest_interval_maximizes_centered_cumulant(self):
        base = gen_truncated_gaussian(99947, seed=13)
        c3s = [
            third_cumulant_zero_lag(asymmetrize(base, lo, hi))
            for lo, hi in ASYMMETRY_INTERVALS
        ]
        assert int(np.argmax(c3s)) == 0


class TestSquareWave:
    def test_direct_construction(self):
        spec = SquareWaveSpec(duty=0.2, period_samples=10, amplitude=1.0)
        np.testing.assert_array_equal(
            gen_square_wave(10, spec), [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        )

    def test_power_over_full_periods(self):
        spec = SquareWaveSpec(duty=0.5, period_samples=4, amplitude=2.0)
        wave = gen_square_wave(4, spec)
        np.testing.assert_array_equal(wave, [2, 2, 0, 0])
        assert np.mean(wave**2) == pytest.approx(2.0)

    def test_power_approaches_duty(self):
        spec = SquareWaveSpec(duty=0.3, period_samples=20, amplitude=1.0)
        assert np.mean(gen_square_wave(200, spec) ** 2) == pytest.approx(0.3)

    def test_phase_offset(self):
        spec = SquareWaveSpec(duty=0.2, period_samples=10, amplitude=1.0, phase_samples=3)
        np.testing.assert_array_equal(
            gen_square_wave(10, spec), [0, 0, 0, 1, 1, 0, 0, 0, 0, 0]
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(duty=0.0, period_samples=10, amplitude=1.0),
            dict(duty=1.0, period_samples=10, amplitude=1.0),
            dict(duty=0.5, period_samples=1, amplitude=1.0),
            dict(duty=0.04, period_samples=10, amplitude=1.0),  # rounds to 0 high
            dict(duty=0.75, period_samples=2, amplitude=1.0),  # rounds to 0 low
            dict(duty=0.9, period_samples=3, amplitude=1.0),  # rounds to 0 low
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            SquareWaveSpec(**kwargs)


def draws(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


class TestMixAtSnr1:
    @pytest.mark.parametrize("snr1_db", [-6.0, 0.0, 7.3])
    def test_realized_ratio_exact(self, snr1_db):
        wave = gen_square_wave(120, SquareWaveSpec(duty=0.2, period_samples=20, amplitude=1.0))
        mixed = mix_at_snr1(wave, snr1_db, draws(4, 120))
        noise = mixed - wave
        realized = 10.0 * np.log10(np.mean(wave**2) / np.mean(noise**2))
        assert realized == pytest.approx(snr1_db, abs=1e-9)

    def test_zero_db_matches_powers(self):
        wave = gen_square_wave(120, SquareWaveSpec(duty=0.2, period_samples=20, amplitude=1.0))
        mixed = mix_at_snr1(wave, 0.0, draws(8, 120))
        noise = mixed - wave
        assert np.mean(noise**2) == pytest.approx(np.mean(wave**2), rel=1e-9)

    def test_zero_signal(self):
        with pytest.raises(HocdvsError, match="zero-power signal") as exc:
            mix_at_snr1(np.zeros(10), 0.0, draws(0, 10))
        assert exc.type is HocdvsError

    def test_deterministic(self):
        wave = gen_square_wave(64, SquareWaveSpec(duty=0.1, period_samples=20, amplitude=1.0))
        a = mix_at_snr1(wave, 3.0, draws(5, 64))
        b = mix_at_snr1(wave, 3.0, draws(5, 64))
        np.testing.assert_array_equal(a, b)

    def test_stack_mixes_each_row_on_its_own(self):
        wave = gen_square_wave(40, SquareWaveSpec(duty=0.3, period_samples=20, amplitude=1.0))
        noise = draws(6, (5, 40))
        stacked = mix_at_snr1(wave, -3.0, noise)
        for row in range(5):
            assert stacked[row].tobytes() == mix_at_snr1(wave, -3.0, noise[row]).tobytes()

    def test_noise_rows_must_match_the_signal(self):
        wave = gen_square_wave(40, SquareWaveSpec(duty=0.3, period_samples=20, amplitude=1.0))
        with pytest.raises(ValueError, match="noise rows need 40 samples, got shape"):
            mix_at_snr1(wave, 0.0, draws(0, (40, 1)))


def full_matrix_amplitudes(cfg):
    """synth_traces as one full-matrix expression: every W x M term built
    in full in float64, the noise drawn with rng.normal, then cast to float32."""
    rng = np.random.default_rng(cfg.seed)
    m, w, pw = cfg.fiber_points, cfg.num_traces, cfg.pulse_width_points
    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    csum = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(1j * phases))])
    stop = np.minimum(np.arange(m) + min(pw, m), m)
    baseline = np.abs(csum[stop] - csum[np.arange(m)])
    drive = gen_square_wave(w, cfg.vibration)
    offsets = np.abs(np.arange(m) - cfg.vibration_point)
    kernel = np.clip(1.0 - offsets / pw, 0.0, None)
    event_amplitude = cfg.vibration_depth * baseline[cfg.vibration_point]
    clean = baseline[None, :] + event_amplitude * kernel[None, :] * drive[:, None]
    sop = 1.0 + rng.normal(0.0, cfg.sop_sigma, size=w)
    noise = rng.normal(0.0, cfg.noise_sigma, size=(w, m))
    return (sop[:, None] * clean + noise).astype(np.float32)


class TestSynthTraces:
    def test_static_fiber_repeats_baseline(self):
        cfg = trace_config(0.2, seed=0, vibration_depth=0.0, noise_sigma=0.0, sop_sigma=0.0)
        traces = synth_traces(cfg)
        np.testing.assert_array_equal(traces.amplitudes, np.tile(traces.amplitudes[0], (100, 1)))

    def test_static_fiber_residual_is_zero(self):
        cfg = trace_config(0.2, seed=1, vibration_depth=0.0, noise_sigma=0.0, sop_sigma=0.0)
        amps = synth_traces(cfg).amplitudes.astype(float)
        residuals = amps - amps.mean(axis=0)
        scale = float(np.max(np.abs(amps)))
        assert float(np.max(np.abs(residuals))) <= 1e-12 * scale

    def test_bit_identical_reruns(self):
        cfg = trace_config(0.3, seed=17)
        a = synth_traces(cfg)
        b = synth_traces(cfg)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_zero_noise_differencing_support_and_linearity(self):
        cfg = trace_config(0.2, seed=2, noise_sigma=0.0, sop_sigma=0.0)
        traces = synth_traces(cfg).amplitudes
        drive = gen_square_wave(cfg.num_traces, cfg.vibration)
        high = int(np.argmax(drive))
        low = int(np.argmin(drive))
        same = int(np.flatnonzero(drive == drive[high])[1])
        diff = traces[high] - traces[low]
        support = np.flatnonzero(diff != 0.0)
        pw, vp = cfg.pulse_width_points, cfg.vibration_point
        assert support.size == 2 * pw - 1
        assert support[0] == vp - pw + 1 and support[-1] == vp + pw - 1
        # same drive level means identical traces; the perturbation is the
        # triangular kernel scaled by the baseline at the event
        np.testing.assert_array_equal(traces[high], traces[same])
        kernel = np.clip(1.0 - np.abs(np.arange(cfg.fiber_points) - vp) / pw, 0.0, None)
        expected = cfg.vibration_depth * traces[low][vp] * kernel * (drive[high] - drive[low])
        # float32 storage rounds each amplitude by at most eps/2 * max|amplitude|,
        # so a difference of two by at most eps * max|amplitude|
        atol = float(np.finfo(np.float32).eps) * np.max(np.abs(traces))
        np.testing.assert_allclose(diff, expected, rtol=0, atol=atol)

    def test_trace_scale_peak_near_event(self):
        from hocdvs import METHOD_HOC
        from hocdvs.experiments import analyze_traces

        cfg = trace_config(0.2, seed=11)
        _, report = analyze_traces(synth_traces(cfg), METHOD_HOC, 100)
        assert abs(report.peak_index - cfg.vibration_point) <= cfg.pulse_width_points // 2

    @pytest.mark.parametrize("overrides", [
        {"vibration_point": 0},
        {"vibration_point": 59},
        {"pulse_width_points": 60},
        {"pulse_width_points": 500, "vibration_point": 7},
        {"pulse_width_points": 1},
        {"sop_sigma": 0.0},
        {"noise_sigma": 0.0},
        {"vibration.amplitude": -2.5},
    ])
    def test_matches_full_matrix_formula(self, overrides):
        cfg = trace_config(0.3, seed=9, fiber_points=60, num_traces=24,
                           **{"vibration_point": 30, **overrides})
        expected = full_matrix_amplitudes(cfg).tobytes()
        assert synth_traces(cfg).amplitudes.tobytes() == expected
        # the row chunks simulate streams concatenate to the same matrix
        for rows_per_chunk in (1, 5, cfg.num_traces):
            chunks = list(_trace_rows(cfg, rows_per_chunk))
            assert [len(c) for c in chunks[:-1]] == [rows_per_chunk] * (len(chunks) - 1)
            assert np.concatenate(chunks).tobytes() == expected

    @pytest.mark.parametrize("rows_per_chunk", [1, 5, 100])
    def test_trace_scale_chunks_match_full_matrix_formula(self, rows_per_chunk):
        # trace scale: 1500 points, so a 100-row chunk adds its clean rows in several blocks
        cfg = trace_config(0.3, seed=9)
        expected = full_matrix_amplitudes(cfg).tobytes()
        assert np.concatenate(list(_trace_rows(cfg, rows_per_chunk))).tobytes() == expected

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, TRACE_COUNT])
    def test_draw_ahead_chunks_equal_the_inline_chunks(self, monkeypatch, started_threads,
                                                       drawn_on, rows_per_chunk):
        # with the threshold lowered, a trace-scale matrix of two or more chunks has its
        # normals drawn on a worker thread; one chunk draws inline
        cfg = trace_config(0.3, seed=9)
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 1)
        inline = [chunk.tobytes() for chunk in _trace_rows(cfg, rows_per_chunk)]
        assert started_threads == []
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(synth, "_THREAD_MIN_BYTES", 4)
        drawn_on.clear()
        threads = threading.active_count()
        assert [chunk.tobytes() for chunk in _trace_rows(cfg, rows_per_chunk)] == inline
        assert threading.active_count() == threads
        chunks = len(inline)
        assert len(started_threads) == (chunks > 1)
        assert not any(thread.is_alive() for thread in started_threads)
        assert drawn_on == (started_threads or [threading.current_thread()]) * chunks

    def test_closing_the_rows_joins_the_draw_ahead_thread(self, monkeypatch):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(synth, "_THREAD_MIN_BYTES", 4)
        threads = threading.active_count()
        rows = _trace_rows(trace_config(0.3, seed=9), 7)
        next(rows)
        assert threading.active_count() == threads + 1
        rows.close()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("seed", [0, 13, 50])
    def test_shared_draws_give_each_duty_the_matrix_it_draws_itself(self, seed):
        # the e2e sweep draws a seed once, at the first duty, for all four duties
        draws = _draws(trace_config(DUTY_CYCLES[0], seed), TRACE_COUNT)
        for duty in DUTY_CYCLES:
            cfg = trace_config(duty, seed)
            expected = synth_traces(cfg).amplitudes.tobytes()
            assert synth_traces(cfg, draws).amplitudes.tobytes() == expected, duty
            for rows_per_chunk in (1, 7, 100):
                chunks = _trace_rows(cfg, rows_per_chunk, draws)
                assert np.concatenate(list(chunks)).tobytes() == expected, (duty, rows_per_chunk)

    @pytest.mark.parametrize("first_cfg, cfg, span", [
        *[pytest.param(trace_config(DUTY_CYCLES[0], seed), trace_config(duty, seed), (1040, 1059),
                       id=f"seed{seed}-duty{duty}") for seed in (0, 13, 50) for duty in DUTY_CYCLES],
        *[pytest.param(trace_config(0.2, 7), trace_config(0.2, 7, vibration_depth=depth),
                       (1040, 1059), id=f"depth{depth}") for depth in (0.0, 1.0)],
        *[pytest.param(trace_config(0.1, 7, vibration_point=point),
                       trace_config(0.4, 7, vibration_point=point), span, id=f"point{point}")
          for point, span in ((0, (0, 10)), (1499, (1490, 1500)))],
    ])
    def test_its_event_span_synthesized_alone_is_those_columns_of_the_matrix(self, first_cfg,
                                                                             cfg, span):
        # the e2e sweep synthesizes a later duty's span alone, from its seed's first draws
        cols = _changed_columns(cfg, first_cfg)
        assert cols == slice(*span)
        (got,) = _trace_rows(cfg, TRACE_COUNT, _draws(first_cfg, TRACE_COUNT), cols)
        assert got.tobytes() == synth_traces(cfg).amplitudes[:, cols].tobytes()

    @pytest.mark.parametrize("key, value", [
        ("noise_sigma", 0.03), ("sop_sigma", 0.01), ("pulse_width_points", 11),
        ("vibration_point", 1048),
    ])
    def test_other_differences_change_every_column(self, key, value):
        cfg = trace_config(0.3, 5, **{key: value})
        assert _changed_columns(cfg, trace_config(0.1, 5)) == slice(0, 1500)

    @pytest.mark.parametrize("point, cols", [
        (1049, slice(1041, 1059)),
        (1049, slice(1040, 1501)),
        (0, slice(-1, 10)),  # as an index, -1 would take the last column
        (1049, slice(1040, 1059, 2)),
    ], ids=["short-of-the-span", "beyond-the-fiber", "before-the-start", "with-a-step"])
    def test_columns_must_hold_the_event_span(self, point, cols):
        with pytest.raises(ValueError, match="do not hold the event span"):
            next(_trace_rows(trace_config(0.3, 5, vibration_point=point), TRACE_COUNT, None,
                             cols))

    def test_overflow_in_the_event_span_is_the_config_error(self):
        first_cfg = trace_config(0.1, 9)
        cfg = trace_config(0.3, 9, **{"vibration.amplitude": 1.0e300})
        draws = _draws(first_cfg, TRACE_COUNT)
        with pytest.raises(ConfigError) as exc:
            next(_trace_rows(cfg, TRACE_COUNT, draws, _changed_columns(cfg, first_cfg)))
        assert exc.type is ConfigError
        assert str(exc.value) == "config drives amplitudes beyond the float32 range of trace files"

    def test_float32_overflow_is_a_config_error(self):
        cfg = trace_config(0.3, seed=9, fiber_points=60, vibration_point=30,
                           **{"vibration.amplitude": 1.0e300})
        with pytest.raises(ConfigError, match="beyond the float32 range"):
            synth_traces(cfg)

    def test_bad_geometry(self):
        with pytest.raises(ConfigError, match="vibration_point must lie on the fiber"):
            trace_config(0.2, seed=0, vibration_point=1500)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("key, error", [
        ("meters_per_point", ConfigError), ("trace_rate_hz", ConfigError),
        ("vibration_depth", ConfigError), ("noise_sigma", ConfigError),
        ("sop_sigma", ConfigError), ("vibration.duty", ValueError),
        ("vibration.amplitude", ValueError),
    ])
    def test_non_finite_real_is_rejected_and_named(self, key, error, value):
        # format_sim_config would render it as text parse_sim_config rejects
        with pytest.raises(error, match=key.rpartition(".")[2]):
            trace_config(0.2, seed=0, **{key: value})


class TestConfigFiles:
    def test_round_trip(self):
        cfg = trace_config(0.2, seed=123)
        assert parse_sim_config(format_sim_config(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + format_sim_config(trace_config(0.1, seed=1))
        assert parse_sim_config(text) == trace_config(0.1, seed=1)

    def test_unknown_key_rejected(self):
        text = format_sim_config(trace_config(0.1, seed=1)) + "mystery = 1\n"
        with pytest.raises(ConfigError, match="unknown key 'mystery'"):
            parse_sim_config(text)

    def test_missing_key_named(self):
        lines = format_sim_config(trace_config(0.1, seed=1)).splitlines()
        text = "\n".join(line for line in lines if not line.startswith("seed"))
        with pytest.raises(ConfigError, match=r"missing key\(s\): seed"):
            parse_sim_config(text)

    def test_duplicate_key_rejected(self):
        text = format_sim_config(trace_config(0.1, seed=1)) + "seed = 2\n"
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_sim_config(text)

    def test_integer_literal_must_be_decimal(self):
        text = format_sim_config(trace_config(0.1, seed=1)).replace("seed = 1", "seed = 1.0")
        with pytest.raises(ConfigError, match="key 'seed' needs a decimal integer"):
            parse_sim_config(text)

    def test_real_literal_needs_decimal_point(self):
        text = format_sim_config(trace_config(0.1, seed=1)).replace(
            "noise_sigma = 0.02", "noise_sigma = 2"
        )
        with pytest.raises(ConfigError, match="key 'noise_sigma' needs a real with a decimal"):
            parse_sim_config(text)

    def test_real_literal_must_be_finite(self):
        text = format_sim_config(trace_config(0.1, seed=1)).replace(
            "meters_per_point = 1.0", "meters_per_point = 1.0e999"
        )
        with pytest.raises(ConfigError, match="key 'meters_per_point' needs a finite value"):
            parse_sim_config(text)

    def test_digest_stable_and_sensitive(self):
        a = config_digest(trace_config(0.2, seed=5))
        b = config_digest(trace_config(0.2, seed=5))
        c = config_digest(trace_config(0.2, seed=6))
        assert a == b and a != c

    def test_readme_shows_the_canonical_text_and_its_digest_is_pinned(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"renders the canonical form:\n\n```\n(.*?)```", readme, re.S)
        cfg = trace_config(0.2, 0)
        assert block.group(1) == format_sim_config(cfg)
        assert config_digest(cfg) == (
            "55423c367f4d772eb81b6f59ffa774de72e12f1aa94a6330ee7e77ad128f3569"
        )

    def test_readme_lists_the_report_keys_and_shows_the_settings_text(self, tmp_path):
        # reports gain keys over time; the README's key list and example must follow
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"detection reports are JSON objects with keys `([^`]*)`", readme)
        path = tmp_path / "report.json"
        report = DetectionReport(1049, 1049.0, 70.0, 4.5, METHOD_HOC)
        io_formats.write_report_json(path, report, window=100, config_digest="0" * 64)
        keys = re.split(r",\s+", listed.group(1))
        assert sorted(keys) == sorted(json.loads(path.read_text()))
        example = re.search(r"the settings text is\s+`([^`]*)`", readme)
        assert example.group(1) == experiments._settings_text(
            METHOD_HOC, 100, experiments.TRACE_GUARD, experiments.TRACE_AVG_LEN)


class TestTraceMatrixInvariants:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        bad = np.ones((2, 3))
        bad[0, 0] = value
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            TraceMatrix(bad, 1.0, 1000.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rejects_amplitudes_beyond_the_float32_range(self, sign):
        top = float(np.finfo(np.float32).max)
        beyond = np.ones((2, 3))
        beyond[1, 2] = sign * np.nextafter(top, np.inf)
        with pytest.raises(ValueError, match="amplitudes must be finite and within the float32"):
            TraceMatrix(beyond, 1.0, 1000.0)
        beyond[1, 2] = sign * top
        assert TraceMatrix(beyond, 1.0, 1000.0).amplitudes[1, 2] == sign * top

    def test_rejects_amplitudes_whose_profile_would_overflow(self):
        huge = np.random.default_rng(0).standard_normal((100, 50)) * 1e110
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            TraceMatrix(huge, 1.0, 1000.0)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_rejects_complex_amplitudes(self, dtype):
        # I/Q samples would lose their imaginary part in the float cast
        iq = np.ones((2, 2), dtype=dtype) * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="take the magnitude of I/Q data first"):
                TraceMatrix(iq, 1.0, 1000.0)
        stored = TraceMatrix(np.abs(iq), 1.0, 1000.0).amplitudes
        assert np.array_equal(stored, np.abs(iq).astype(np.float32))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            TraceMatrix(np.ones(5), 1.0, 1000.0)

    @pytest.mark.parametrize(
        "mpp, rate", [(float("nan"), 1000.0), (float("inf"), 1000.0), (1.0, float("nan")),
                      (1.0, float("inf")), (0.0, 1000.0), (1.0, -1.0), (1.0e308, 1000.0)]
    )
    def test_rejects_bad_metadata(self, mpp, rate):
        with pytest.raises(ValueError):
            TraceMatrix(np.ones((2, 3)), mpp, rate)

    def test_every_dtype_is_stored_as_float32(self):
        fresh = np.ones((2, 3), dtype=np.float32)
        fresh.setflags(write=False)
        assert TraceMatrix(fresh, 1.0, 1000.0).amplitudes is fresh
        for dtype in (np.int32, np.int64, np.float16, np.float64):
            traces = TraceMatrix(np.arange(6, dtype=dtype).reshape(2, 3), 1.0, 1000.0)
            assert traces.amplitudes.dtype == np.float32
            np.testing.assert_array_equal(traces.amplitudes, np.arange(6).reshape(2, 3))
        with pytest.raises(ValueError):
            TraceMatrix(np.array([["a", "b"], ["c", "d"]]), 1.0, 1000.0)

    def test_produced_matrices_are_read_only(self, tmp_path):
        traces = synth_traces(trace_config(0.2, seed=4, fiber_points=60, vibration_point=30))
        path = tmp_path / "t.hocdvs"
        write_traces(path, traces)
        for produced in (traces, read_traces(path)):
            assert not produced.amplitudes.flags.writeable
            assert produced.amplitudes.flags.owndata


def _blocked_matrix(dtype, row, value):
    """Seven rows, two per range-check block, so four blocks. value sits in the given
    row (0 the first, 2 and 3 the first and last of a middle block, 6 the last), in
    column 0 of the first row, the last column of the last row, in between for others."""
    cols = synth._CHUNK_BYTES // (2 * np.dtype(dtype).itemsize)
    matrix = np.ones((7, cols), dtype)
    matrix[row, row * (cols - 1) // 6] = value
    return matrix


def _trace_file(path, matrix):
    path.write_bytes(io_formats._header_bytes(matrix.shape, 1.0, 1000.0)
                     + matrix.astype("<f4").tobytes())
    return path


class TestBlockwiseRangeCheck:
    ROWS = (0, 2, 3, 6)
    OUT_OF_RANGE = [(np.float32, v) for v in (np.nan, np.inf, -np.inf)] + [
        (np.float64, v) for v in (np.nan, np.inf, -np.inf, 3.5e38, -3.5e38)]

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("dtype, value", OUT_OF_RANGE)
    def test_rejects_a_bad_value_in_any_block(self, dtype, value, row):
        matrix = _blocked_matrix(dtype, row, value)
        assert synth._in_float32_range(matrix) is False
        with pytest.raises(ValueError, match="amplitudes must be finite and within the float32"):
            TraceMatrix(matrix, 1.0, 1000.0)

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_trace_file_with_a_bad_value_in_any_block_is_io_error(self, tmp_path, value, row):
        path = _trace_file(tmp_path / "t.hocdvs", _blocked_matrix(np.float32, row, value))
        with pytest.raises(PersistenceError, match="amplitudes must be finite"):
            read_traces(path)

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_accepts_the_float32_maximum_in_any_block(self, tmp_path, dtype, sign, row):
        matrix = _blocked_matrix(dtype, row, sign * float(np.finfo(np.float32).max))
        assert synth._in_float32_range(matrix) is True
        expected = matrix.astype(np.float32).tobytes()
        assert TraceMatrix(matrix, 1.0, 1000.0).amplitudes.tobytes() == expected
        path = _trace_file(tmp_path / "t.hocdvs", matrix)
        assert read_traces(path).amplitudes.tobytes() == expected


# The two array-holding dataclasses share one copy-and-freeze rule. Each
# entry builds an instance from an array and returns the array it stores,
# with the shape and dtype that array needs.
FROZEN = {
    "TraceMatrix": (lambda a: TraceMatrix(a, 1.0, 1000.0).amplitudes, (2, 3), np.float32),
    "HocProfile": (lambda a: HocProfile(a, 1.0).values, (3,), np.float64),
}


def increasing(shape, dtype):
    """1, 2, 3, ... in a fresh array that owns its data."""
    return np.arange(1.0, 1.0 + np.prod(shape), dtype=dtype).reshape(shape).copy()


@pytest.mark.parametrize("kind", list(FROZEN))
class TestFrozenArrays:
    def test_caller_array_is_copied(self, kind):
        build, shape, dtype = FROZEN[kind]
        caller = increasing(shape, dtype)
        stored = build(caller)
        caller.flat[0] = 99.0
        assert stored.flat[0] == 1.0
        assert not stored.flags.writeable

    def test_read_only_view_is_copied(self, kind):
        build, shape, dtype = FROZEN[kind]
        base = increasing((shape[0] + 1,) + shape[1:], dtype)
        view = base[1:]
        view.setflags(write=False)
        first = float(view.flat[0])
        stored = build(view)
        base[1] = 99.0
        assert stored.flat[0] == first
        assert not stored.flags.writeable

    def test_fresh_read_only_array_is_taken_over(self, kind):
        build, shape, dtype = FROZEN[kind]
        fresh = increasing(shape, dtype)
        fresh.setflags(write=False)
        assert build(fresh) is fresh

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_complex_input_is_refused(self, kind, dtype):
        # a float cast would drop the imaginary part, with only a ComplexWarning
        build, shape, _ = FROZEN[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real; take the magnitude of I/Q"):
                build(np.full(shape, 1 + 2j, dtype=dtype))
