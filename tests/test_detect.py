import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hocdvs import (
    METHOD_HOC,
    METHOD_MOVING_AVERAGE,
    METHOD_MOVING_DIFFERENTIAL,
    DetectionReport,
    HocProfile,
    TraceMatrix,
    hoc_profile,
    locate_peak,
    location_snr,
    moving_average_profile,
    moving_differential_profile,
    spatial_resolution,
    synth_traces,
    third_cumulant_zero_lag,
)
from hocdvs import detect
from hocdvs.errors import ConfigError, NoDetectionError, NoEdgeError
from hocdvs.detect import BLOCK_POINTS
from hocdvs.experiments import (
    DUTY_CYCLES,
    TRACE_PULSE_POINTS,
    TRACE_WINDOW,
    analyze_traces,
    trace_config,
)
from hocdvs.synth import _changed_columns


def _full_width_hoc(raw, window):
    residuals = np.asarray(raw, dtype=np.float64)
    residuals = residuals - residuals.mean(axis=0)
    w = residuals[:window]
    return np.einsum("i...,i...,i...->...", w, w, w) / window


def _full_width_mdiff(raw, window):
    return np.abs(np.diff(np.asarray(raw[:window], dtype=np.float64), axis=0)).mean(axis=0)


def _full_width_mavg(raw, window, avg_len):
    blocks = window // avg_len
    rows = np.asarray(raw[: blocks * avg_len], dtype=np.float64)
    averaged = rows.reshape(blocks, avg_len, rows.shape[1]).mean(axis=1)
    return np.abs(np.diff(averaged, axis=0)).mean(axis=0)


# method -> (profile function, the same reduction over all points at once)
FULL_WIDTH = {
    "hoc": (hoc_profile, _full_width_hoc),
    "mdiff": (moving_differential_profile, _full_width_mdiff),
    "mavg": (lambda traces, window: moving_average_profile(traces, window, 2),
             lambda raw, window: _full_width_mavg(raw, window, 2)),
    "mavg3": (lambda traces, window: moving_average_profile(traces, window, 3),
              lambda raw, window: _full_width_mavg(raw, window, 3)),
}


def matrix(rows, mpp=1.0, rate=10000.0):
    return TraceMatrix(np.asarray(rows, dtype=float), mpp, rate)


def stored(raw):
    """raw as a TraceMatrix stores it (float32), widened back for a float64 reference."""
    return np.asarray(raw, dtype=np.float32).astype(np.float64)


def profile(values, mpp=1.0):
    return HocProfile(np.asarray(values, dtype=float), mpp)


F32_MAX = float(np.finfo(np.float32).max)


class TestHocProfile:
    def test_zero_residuals_give_zero_profile(self):
        prof = hoc_profile(matrix(np.zeros((10, 4))), window=10)
        np.testing.assert_array_equal(prof.values, np.zeros(4))

    def test_matches_zero_lag_cumulant_per_column(self):
        rng = np.random.default_rng(77)
        raw = stored(rng.normal(size=(50, 6)))
        residuals = raw - raw.mean(axis=0)
        prof = hoc_profile(matrix(raw), window=50)
        for col in range(6):
            expected = third_cumulant_zero_lag(residuals[:, col])
            assert prof.values[col] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("method", ["hoc", "mdiff", "mavg"])
    @pytest.mark.parametrize(
        "offset, traces, points, window",
        [pytest.param(3.0, 12, points, 9, id=str(points))
         for points in (1, BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1,
                        2 * BLOCK_POINTS + 3)]
        + [pytest.param(5.0, 20, 4, 20, id="offset5-20x4")],
    )
    def test_block_boundaries(self, method, offset, traces, points, window):
        rng = np.random.default_rng(points)
        raw = stored(offset + rng.gamma(2.0, size=(traces, points)))
        make, reference = FULL_WIDTH[method]
        if method == "hoc":  # numpy's pow, independent of the einsum kernel
            ref = np.mean((raw - raw.mean(axis=0))[:window] ** 3, axis=0)
        else:
            ref = reference(raw, window)
        got = make(matrix(raw), window).values
        assert got.shape == (points,)
        assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("method", ["hoc", "mdiff", "mavg", "mavg3"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_full_width_formula(self, method, data):
        # bit for bit, except a one-point last block, which numpy sums pairwise
        traces = data.draw(st.integers(6, 24), label="traces")
        points = data.draw(st.sampled_from(
            [1, 2, 7, BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1, 2 * BLOCK_POINTS + 3]
        ) | st.integers(1, 3 * BLOCK_POINTS), label="points")
        window = data.draw(st.integers(6, traces), label="window")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        raw = (rng.normal() + rng.gamma(2.0, size=(traces, points))).astype(np.float32)
        make, reference = FULL_WIDTH[method]
        got = make(TraceMatrix(raw, 1.0, 10000.0), window).values
        ref = reference(raw, window)
        if points % BLOCK_POINTS == 1:
            assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(np.abs(ref)))
        else:
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("method", ["hoc", "mdiff", "mavg"])
    def test_peak_memory_is_one_block_plus_the_profile(self, method):
        # 20 x 200,000 float32 is 16 MB, 32 MB widened; the profile alone is 1.6 MB
        raw32 = np.random.default_rng(8).normal(size=(20, 200_000)).astype(np.float32)
        traces = TraceMatrix(raw32, 1.0, 10000.0)
        make, _ = FULL_WIDTH[method]
        tracemalloc.start()
        try:
            make(traces, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_window_below_traces_centres_over_all_traces(self):
        # the perfbench reference: mean over all W traces, cube of the first window
        rng = np.random.default_rng(9)
        raw = stored(2.0 + rng.gamma(2.0, size=(40, 50)))
        mean_all = raw.sum(axis=0) / 40
        resid = raw[:25] - mean_all
        ref = (resid * resid * resid).sum(axis=0) / 25
        got = hoc_profile(matrix(raw), window=25).values
        assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(np.abs(ref)))
        centred_on_window = np.mean((raw[:25] - raw[:25].mean(axis=0)) ** 3, axis=0)
        assert float(np.max(np.abs(got - centred_on_window))) > 1e-3 * float(np.max(np.abs(ref)))

    def test_constant_columns_give_zero_profile(self):
        prof = hoc_profile(matrix([[3.0, 5.0], [3.0, 5.0], [3.0, 5.0]]), window=3)
        np.testing.assert_array_equal(prof.values, np.zeros(2))

    def test_two_traces_give_zero_profile(self):
        # two residuals about their mean are +d and -d, whose cubes cancel
        rng = np.random.default_rng(4)
        raw = rng.gamma(2.0, size=(2, 30))
        prof = hoc_profile(matrix(raw), window=2)
        scale = float(np.max(np.abs(raw))) ** 3
        assert float(np.max(np.abs(prof.values))) <= 1e-12 * scale

    def test_one_trace_cannot_fill_a_window(self):
        with pytest.raises(ConfigError, match="window 2 exceeds 1 traces"):
            hoc_profile(matrix([[1.0, 2.0]]), window=2)

    def test_window_exceeds_traces(self):
        with pytest.raises(ConfigError, match="window 6 exceeds 5 traces"):
            hoc_profile(matrix(np.zeros((5, 3))), window=6)

    def test_window_below_two_rejected(self):
        with pytest.raises(ConfigError, match="window must be >= 2 traces, got 1"):
            hoc_profile(matrix(np.zeros((5, 3))), window=1)

    @pytest.mark.parametrize("window", [1, 0, -5])
    @pytest.mark.parametrize(
        "make_profile",
        [
            hoc_profile,
            moving_differential_profile,
            lambda traces, window: moving_average_profile(traces, window, 1),
        ],
        ids=["hoc", "mdiff", "mavg"],
    )
    def test_every_method_rejects_window_below_two(self, make_profile, window):
        with pytest.raises(ConfigError, match=f"window must be >= 2 traces, got {window}$"):
            make_profile(matrix(np.zeros((5, 3))), window)

    @pytest.mark.parametrize("window", [40, 25])
    def test_matches_pow_reference(self, window):
        # skewed residuals about each point's mean over all 40 traces
        rng = np.random.default_rng(21)
        raw = rng.gamma(2.0, size=(40, 300))
        residuals = stored(raw - raw.mean(axis=0))
        centred = residuals - residuals.mean(axis=0)  # the float32 cast moved each mean
        ref = np.mean(centred[:window] ** 3, axis=0)
        got = hoc_profile(matrix(residuals), window).values
        assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("mpp", [float("nan"), float("inf"), 0.0])
    def test_profile_rejects_bad_meters_per_point(self, mpp):
        with pytest.raises(ValueError):
            profile([1.0, 2.0], mpp=mpp)

    def test_vibration_peak_lands_on_event(self):
        cfg = trace_config(0.2, seed=3)
        prof = hoc_profile(synth_traces(cfg), window=TRACE_WINDOW)
        idx, _ = locate_peak(prof)
        assert abs(idx - cfg.vibration_point) <= cfg.pulse_width_points // 2

    def test_noise_only_has_no_systematic_peak(self):
        hits = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            traces = matrix(rng.normal(0.0, 0.1, size=(60, 200)))
            idx, _ = locate_peak(hoc_profile(traces, window=60))
            hits.append(idx)
        _, counts = np.unique(hits, return_counts=True)
        assert counts.max() <= 10  # no single point dominates across seeds


@pytest.mark.parametrize(
    "make_profile",
    [
        hoc_profile,
        moving_differential_profile,
        lambda traces, window: moving_average_profile(traces, window, 2),
    ],
    ids=["hoc", "mdiff", "mavg"],
)
def test_profile_carries_meters_per_point(make_profile):
    rng = np.random.default_rng(13)
    prof = make_profile(matrix(rng.normal(size=(8, 5)), mpp=2.5, rate=5000.0), 6)
    assert prof.meters_per_point == 2.5
    assert prof.fiber_points == 5


class TestColumnSubsetProfile:
    # the e2e sweep profiles a later duty's event span alone, then writes it into a copy of
    # the first duty's profile: hoc reduces each column on its own, in any block or thread
    @pytest.mark.parametrize("point, num_traces, cpus, helpers, span", [
        pytest.param(1049, 100, 1, 0, (1040, 1059), id="inside-one-block"),
        pytest.param(BLOCK_POINTS, 100, 1, 0, (503, 522), id="across-a-block-boundary"),
        pytest.param(0, 100, 1, 0, (0, 10), id="clamped-at-the-start"),
        pytest.param(1499, 100, 1, 0, (1490, 1500), id="clamped-at-the-end"),
        pytest.param(BLOCK_POINTS, 200, 2, 1, (503, 522), id="helper-threads"),
    ])
    def test_profile_of_columns_is_those_columns_of_the_full_profile(
            self, monkeypatch, point, num_traces, cpus, helpers, span):
        monkeypatch.setattr(detect.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(detect.os, "cpu_count", lambda: cpus)
        first_cfg = trace_config(0.1, 21, vibration_point=point, num_traces=num_traces)
        cfg = trace_config(0.3, 21, vibration_point=point, num_traces=num_traces)
        cols = _changed_columns(cfg, first_cfg)
        assert cols == slice(*span)
        traces = synth_traces(cfg)
        made, thread = [], threading.Thread
        monkeypatch.setattr(threading, "Thread", lambda **kw: made.append(kw) or thread(**kw))
        # a window of every trace; 200 traces of 1500 points pass 1 MiB
        full = hoc_profile(traces, num_traces)
        assert len(made) == helpers
        columns = TraceMatrix(traces.amplitudes[:, cols], traces.meters_per_point,
                              traces.trace_rate_hz)
        got = hoc_profile(columns, num_traces)
        assert got.values.tobytes() == full.values[cols].tobytes()


class TestMovingDifferential:
    def test_identical_traces_give_zero(self):
        prof = moving_differential_profile(matrix(np.ones((8, 5))), window=8)
        np.testing.assert_array_equal(prof.values, np.zeros(5))

    def test_zero_noise_bump_is_triangular(self):
        cfg = trace_config(0.2, seed=4, noise_sigma=0.0, sop_sigma=0.0)
        prof = moving_differential_profile(synth_traces(cfg), window=TRACE_WINDOW)
        pw, vp = cfg.pulse_width_points, cfg.vibration_point
        kernel = np.clip(1.0 - np.abs(np.arange(cfg.fiber_points) - vp) / pw, 0.0, None)
        peak = prof.values[vp]
        assert peak > 0
        # float32 storage rounds each amplitude by at most eps/2 * max|amplitude|,
        # so a difference of two by at most eps * max|amplitude|
        amps = synth_traces(cfg).amplitudes
        atol = float(np.finfo(np.float32).eps) * float(np.max(np.abs(amps)))
        np.testing.assert_allclose(prof.values, peak * kernel, atol=atol)

    def test_peak_agrees_with_hoc_on_clean_input(self):
        cfg = trace_config(0.2, seed=6, noise_sigma=0.001, sop_sigma=0.0)
        traces = synth_traces(cfg)
        idx_h, _ = locate_peak(hoc_profile(traces, TRACE_WINDOW))
        idx_m, _ = locate_peak(moving_differential_profile(traces, TRACE_WINDOW))
        assert idx_h == idx_m


class TestMovingAverage:
    def test_avg_len_one_equals_moving_differential(self):
        rng = np.random.default_rng(10)
        raw = stored(rng.normal(size=(30, 12)))
        expected = np.abs(np.diff(raw[:25], axis=0)).mean(axis=0)
        for prof in (moving_average_profile(matrix(raw), window=25, avg_len=1),
                     moving_differential_profile(matrix(raw), window=25)):
            np.testing.assert_array_equal(prof.values, expected)

    def test_noise_floor_decreases_with_avg_len(self):
        rng = np.random.default_rng(12)
        traces = matrix(rng.normal(0.0, 1.0, size=(100, 50)))
        floor1 = moving_average_profile(traces, 100, 1).values.mean()
        floor5 = moving_average_profile(traces, 100, 5).values.mean()
        assert floor5 < floor1

    def test_peak_index_stable_under_block_averaging(self):
        for seed in range(10):
            cfg = trace_config(0.2, seed=seed, noise_sigma=0.005, sop_sigma=0.001)
            traces = synth_traces(cfg)
            idx1, _ = locate_peak(moving_average_profile(traces, TRACE_WINDOW, 1))
            idx5, _ = locate_peak(moving_average_profile(traces, TRACE_WINDOW, 5))
            assert idx1 == idx5

    @pytest.mark.parametrize(
        "avg_len, reason",
        [
            pytest.param(0, r"avg_len must be in \[1, 30\], got 0", id="0"),
            pytest.param(31, r"avg_len must be in \[1, 30\], got 31", id="31"),
            pytest.param(20, r"avg_len 20 leaves 1 block\(s\); need at least 2", id="20"),
        ],
    )
    def test_bad_average_length(self, avg_len, reason):
        traces = matrix(np.zeros((30, 3)))
        with pytest.raises(ConfigError, match=reason):
            moving_average_profile(traces, window=30, avg_len=avg_len)


class TestLocatePeak:
    def test_simple_max(self):
        assert locate_peak(profile([0, 0, 5, 0]))[0] == 2

    def test_absolute_value_peak(self):
        assert locate_peak(profile([0, -7, 3]))[0] == 1

    def test_tie_breaks_low_index(self):
        assert locate_peak(profile([0, 5, 5, 0]))[0] == 1

    def test_position_uses_meters_per_point(self):
        idx, pos = locate_peak(profile([0, 0, 1], mpp=2.0))
        assert (idx, pos) == (2, 4.0)

    def test_all_zero_raises(self):
        with pytest.raises(NoDetectionError, match="profile is identically zero"):
            locate_peak(profile([0.0, 0.0, 0.0]))

    def test_largest_finite_magnitude_wins(self):
        huge = float(np.finfo(np.float64).max)
        assert locate_peak(profile([1.0, -huge, huge / 2]))[0] == 1


class TestLocationSnr:
    def test_direct_arithmetic(self):
        got = location_snr(profile([3, 1, 1, 1, 1]), peak_index=0, guard=1)
        assert got == pytest.approx(10.0 * np.log10(9.0), abs=1e-12)

    def test_zero_background(self):
        with pytest.raises(NoDetectionError, match="background is exactly zero"):
            location_snr(profile([1.0, 0.0, 0.0, 0.0]), peak_index=0, guard=1)

    def test_guard_leaving_no_background(self):
        with pytest.raises(ConfigError, match="guard 5 leaves no background samples"):
            location_snr(profile([1.0, 2.0, 3.0]), peak_index=1, guard=5)

    def test_negative_guard_rejected(self):
        with pytest.raises(ConfigError, match="guard must be >= 0, got -1"):
            location_snr(profile([3.0, 1.0, 1.0]), peak_index=0, guard=-1)

    @pytest.mark.parametrize("peak_index", [-1, 3])
    def test_peak_index_outside_profile_rejected(self, peak_index):
        with pytest.raises(ValueError, match=f"peak_index {peak_index} outside profile of 3"):
            location_snr(profile([3.0, 1.0, 1.0]), peak_index=peak_index, guard=0)

    def test_zero_peak_value(self):
        with pytest.raises(NoDetectionError, match="value at peak_index is zero"):
            location_snr(profile([0.0, 1.0, 1.0, 1.0]), peak_index=0, guard=0)

    @pytest.mark.parametrize(
        "values, expected",
        [
            # the peak's square overflows a float
            pytest.param([1e200, 1.0, 2.0], 4000.0 - 10.0 * np.log10(2.5), id="huge-peak"),
            # the background's squares overflow a float
            pytest.param([1.0, 1e200, 2.0], -4000.0 + 10.0 * np.log10(2.0), id="huge-background"),
            # every background square underflows to zero, though the background is not zero
            pytest.param([1e-200, 1e-300, 0.0, 1e-310], 2000.0 + 10.0 * np.log10(3.0),
                         id="tiny-background"),
        ],
    )
    def test_finite_db_where_squares_leave_the_float_range(self, values, expected):
        got = location_snr(profile(values), peak_index=0, guard=0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_underflowing_ratio_uses_logarithms(self):
        # 1e-200**2 / 1e200 underflows to 0; the dB value is still finite
        got = location_snr(profile([1e-200, 1e100, 1e100]), peak_index=0, guard=0)
        assert got == pytest.approx(-6000.0, rel=1e-12)


class TestSpatialResolution:
    def test_linear_ramp_ten_meters(self):
        values = np.concatenate([np.zeros(20), np.linspace(0.0, 1.0, 11)])
        got = spatial_resolution(profile(values), peak_index=30)
        assert got == pytest.approx(8.0, abs=1e-12)

    def test_cubed_ramp_contracts(self):
        ramp = np.linspace(0.0, 1.0, 11)
        linear = spatial_resolution(
            profile(np.concatenate([np.zeros(20), ramp])), peak_index=30
        )
        cubed = spatial_resolution(
            profile(np.concatenate([np.zeros(20), ramp**3])), peak_index=30
        )
        # interpolated crossings of u^3 at 10%/90%: 4.59016... and 9.63099...
        assert cubed == pytest.approx(5.04083237553687, rel=1e-12)
        assert cubed / linear == pytest.approx(0.630104, abs=1e-4)

    def test_meters_per_point_scaling(self):
        values = np.concatenate([np.zeros(20), np.linspace(0.0, 1.0, 11)])
        got = spatial_resolution(profile(values, mpp=0.5), peak_index=30)
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_no_edge_left_of_peak(self):
        with pytest.raises(NoEdgeError):
            spatial_resolution(profile([5.0, 1.0, 0.0]), peak_index=0)

    def test_flat_profile_has_no_edge(self):
        with pytest.raises(NoEdgeError):
            spatial_resolution(profile([1.0, 1.0, 1.0, 1.0]), peak_index=3)

    @pytest.mark.parametrize("peak_index", [-1, 4])
    def test_peak_index_outside_profile_rejected(self, peak_index):
        with pytest.raises(ValueError, match=f"peak_index {peak_index} outside profile of 4"):
            spatial_resolution(profile([0.0, 1.0, 2.0, 3.0]), peak_index=peak_index)


class TestProfileProperties:
    @given(
        amps=hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 8)),
                        elements=st.floats(-F32_MAX, F32_MAX)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_in_range_matrices_give_finite_profiles_and_reports(self, amps, data):
        """Any matrix within the float32 range gives finite profiles, and the
        pipeline ends in a report or in one of the two documented no-detections;
        an overflow anywhere would raise its RuntimeWarning as an error."""
        traces = matrix(amps)
        window = data.draw(st.integers(2, traces.num_traces), label="window")
        avg_len = data.draw(st.integers(1, window // 2), label="avg_len")
        for prof in (hoc_profile(traces, window), moving_differential_profile(traces, window),
                     moving_average_profile(traces, window, avg_len)):
            assert np.isfinite(prof.values).all()
        for method in (METHOD_HOC, METHOD_MOVING_DIFFERENTIAL, METHOD_MOVING_AVERAGE):
            try:
                analyze_traces(traces, method, window, avg_len=avg_len, guard=0)
            except NoDetectionError as exc:
                assert str(exc) in ("profile is identically zero", "background is exactly zero")

    def test_cubic_scale_equivariance(self):
        cfg = trace_config(0.2, seed=8)
        traces = synth_traces(cfg)
        scale = 3.7
        scaled = TraceMatrix(
            scale * traces.amplitudes, traces.meters_per_point, traces.trace_rate_hz
        )
        base = hoc_profile(traces, TRACE_WINDOW)
        boosted = hoc_profile(scaled, TRACE_WINDOW)
        # tolerance is relative to the profile scale: points where the cubes
        # almost cancel cannot hold a pointwise-relative bound. Storing the scaled
        # matrix as float32 moves each residual r by at most
        # delta = eps * max|amplitude|, so each cube by at most 3 delta (|r| + delta)**2.
        amps = scaled.amplitudes.astype(float)
        delta = float(np.finfo(np.float32).eps) * float(np.max(np.abs(amps)))
        r_max = float(np.max(np.abs(amps - amps.mean(axis=0))))
        atol = (1e-12 * float(np.max(np.abs(boosted.values)))
                + 3 * delta * (r_max + delta) ** 2)
        np.testing.assert_allclose(boosted.values, scale**3 * base.values,
                                   rtol=1e-12, atol=atol)
        assert locate_peak(base)[0] == locate_peak(boosted)[0]

    def test_localization_accuracy_across_input_snr(self):
        # input SNR drawn uniformly from [0, 6] dB at the event point;
        # the peak must land within a pulse width in at least 95% of runs
        hits = 0
        runs = 100
        for seed in range(runs):
            rng = np.random.default_rng([seed, 77])
            target_db = rng.uniform(0.0, 6.0)
            clean_cfg = trace_config(0.1, seed=seed, noise_sigma=0.0, sop_sigma=0.0)
            amps = synth_traces(clean_cfg).amplitudes
            clean = amps - amps.mean(axis=0)
            sig_power = float(np.mean(clean[:, clean_cfg.vibration_point] ** 2))
            sigma = float(np.sqrt(sig_power * 10.0 ** (-target_db / 10.0)))
            cfg = trace_config(0.1, seed=seed, noise_sigma=sigma, sop_sigma=0.0)
            idx, _ = locate_peak(hoc_profile(synth_traces(cfg), TRACE_WINDOW))
            hits += abs(idx - cfg.vibration_point) <= cfg.pulse_width_points
        assert hits >= 95

    def test_hoc_location_snr_beats_moving_differential_at_zero_db(self):
        hoc_snrs, mdiff_snrs = [], []
        for seed in range(50):
            clean_cfg = trace_config(0.2, seed=seed, noise_sigma=0.0, sop_sigma=0.0)
            amps = synth_traces(clean_cfg).amplitudes
            clean = amps - amps.mean(axis=0)
            sigma = float(np.sqrt(np.mean(clean[:, clean_cfg.vibration_point] ** 2)))
            cfg = trace_config(0.2, seed=seed, noise_sigma=sigma, sop_sigma=0.0)
            traces = synth_traces(cfg)
            _, rep_h = analyze_traces(traces, METHOD_HOC, TRACE_WINDOW)
            _, rep_m = analyze_traces(traces, METHOD_MOVING_DIFFERENTIAL, TRACE_WINDOW)
            hoc_snrs.append(rep_h.location_snr_db)
            mdiff_snrs.append(rep_m.location_snr_db)
        assert np.mean(hoc_snrs) > np.mean(mdiff_snrs)

    def test_edge_sharpening_on_zero_noise_runs(self):
        for seed in range(5):
            cfg = trace_config(0.2, seed=seed, noise_sigma=0.0, sop_sigma=0.0)
            traces = synth_traces(cfg)
            prof_h = hoc_profile(traces, TRACE_WINDOW)
            prof_m = moving_differential_profile(traces, TRACE_WINDOW)
            sr_h = spatial_resolution(prof_h, locate_peak(prof_h)[0])
            sr_m = spatial_resolution(prof_m, locate_peak(prof_m)[0])
            assert sr_h < sr_m
            assert 0.4 <= sr_h / sr_m <= 0.7

    # The tests below state the claimed gains over mdiff in forms that no
    # monotone rescaling of a profile changes.

    @pytest.mark.parametrize("duty", DUTY_CYCLES)
    def test_hoc_hits_the_event_more_often_than_moving_differential(self, duty):
        # peak within 10 points of the event; measured 13/15/14/12 of 20 for
        # hoc against 8/9/8/8 for mdiff at 10-40% duty
        hits = {hoc_profile: 0, moving_differential_profile: 0}
        for seed in range(20):
            cfg = trace_config(duty, seed=seed, noise_sigma=0.2)
            traces = synth_traces(cfg)
            for make in hits:
                idx, _ = locate_peak(make(traces, TRACE_WINDOW))
                hits[make] += abs(idx - cfg.vibration_point) <= 10
        assert hits[hoc_profile] > hits[moving_differential_profile]

    def test_cube_root_of_hoc_rises_like_moving_differential(self):
        # the sharper hoc edge above is the cube reshaping one edge
        for seed in range(10):
            cfg = trace_config(0.2, seed=seed, noise_sigma=0.0, sop_sigma=0.0)
            traces = synth_traces(cfg)
            prof_h = hoc_profile(traces, TRACE_WINDOW)
            prof_m = moving_differential_profile(traces, TRACE_WINDOW)
            sr_root = spatial_resolution(profile(np.cbrt(prof_h.values)), locate_peak(prof_h)[0])
            sr_m = spatial_resolution(prof_m, locate_peak(prof_m)[0])
            assert sr_root == pytest.approx(sr_m, rel=0.05)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
    def test_two_event_separation(self, noise_sigma):
        # hoc separates two events 11-13 points apart and mdiff 11-14 over
        # duties 10-30% and seeds 0..9; hoc needs fewer points in 16 of those
        # 60 runs and one more in 3 (seed 8 at zero noise: 12 against 11)
        gaps = np.array([_separations(0.2, seed, noise_sigma) for seed in range(10)])
        hoc, mdiff = gaps.T
        assert np.all(gaps > TRACE_PULSE_POINTS)
        assert np.all(hoc <= mdiff + 1)
        assert np.all(mdiff - hoc <= 2)
        assert hoc.sum() <= mdiff.sum()


def _separations(duty, seed, noise_sigma, first=700, max_gap=40):
    """Smallest gap, in points, at which the hoc and the mdiff profile each
    separate two events at `first` and `first + gap`.

    Separated means the largest |value| within 3 points of each event, with
    a dip at least 10% below the smaller of the two between them. The
    two-event matrix is amps(first) + amps(second) - amps(no event): configs
    that share a seed share every draw, whatever their event point.
    """

    def amps(**overrides):
        cfg = trace_config(duty, seed=seed, noise_sigma=noise_sigma, **overrides)
        return synth_traces(cfg).amplitudes

    def separated(values, second):
        a = np.abs(values)
        i1 = first - 3 + int(np.argmax(a[first - 3 : first + 4]))
        i2 = second - 3 + int(np.argmax(a[second - 3 : second + 4]))
        return i2 - i1 >= 2 and a[i1 + 1 : i2].min() <= 0.9 * min(a[i1], a[i2])

    base = amps(vibration_point=first) - amps(vibration_depth=0.0)
    found = {}
    for gap in range(1, max_gap + 1):
        traces = matrix(base + amps(vibration_point=first + gap))
        for make in (hoc_profile, moving_differential_profile):
            if make not in found and separated(make(traces, TRACE_WINDOW).values, first + gap):
                found[make] = gap
        if len(found) == 2:
            return found[hoc_profile], found[moving_differential_profile]
    raise AssertionError(f"two events {max_gap} points apart are not separated")


@pytest.mark.parametrize("position", [np.inf, np.nan])
def test_report_requires_finite_peak_position(position):
    with pytest.raises(ValueError, match="peak_position_m"):
        DetectionReport(peak_index=1, peak_position_m=position, location_snr_db=10.0,
                        spatial_resolution_m=None, method=METHOD_HOC)


@pytest.mark.parametrize(
    "values, shape",
    [([], r"\(0,\)"), ([[1.0, 2.0], [3.0, 4.0]], r"\(2, 2\)")],
    ids=["empty", "matrix"],
)
def test_profile_requires_non_empty_vector(values, shape):
    with pytest.raises(ValueError, match=f"values must be a non-empty vector, got shape {shape}"):
        profile(values)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_profile_requires_finite_values(value):
    with pytest.raises(ValueError, match="values must be finite"):
        profile([1.0, value, 2.0])


@pytest.mark.parametrize("mpp", [np.array(1.0), np.array([1.0]), "1.0"],
                         ids=["0-d array", "1-element array", "str"])
def test_meters_per_point_must_be_a_real_scalar(mpp):
    """A spacing that is not a real scalar (a 0-d array cannot key the CSV's
    position memo) is rejected by each of the three types that hold one."""
    with pytest.raises(ValueError, match="meters_per_point must be finite and > 0"):
        HocProfile(np.ones(3), mpp)
    with pytest.raises(ValueError, match="meters_per_point and trace_rate_hz must be finite"):
        TraceMatrix(np.ones((2, 3)), mpp, 1.0)
    with pytest.raises(ConfigError, match="meters_per_point must be finite and > 0"):
        trace_config(0.2, 0, meters_per_point=mpp)


def test_report_rejects_negative_peak_index():
    with pytest.raises(ValueError, match="peak_index must be >= 0"):
        DetectionReport(peak_index=-1, peak_position_m=0.0, location_snr_db=10.0,
                        spatial_resolution_m=None, method=METHOD_HOC)


@pytest.mark.parametrize("snr_db", [np.inf, np.nan])
def test_report_requires_finite_location_snr(snr_db):
    with pytest.raises(ValueError, match="location_snr_db must be finite"):
        DetectionReport(peak_index=1, peak_position_m=1.0, location_snr_db=snr_db,
                        spatial_resolution_m=None, method=METHOD_HOC)


def test_report_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'mdiff'"):
        DetectionReport(peak_index=1, peak_position_m=1.0, location_snr_db=10.0,
                        spatial_resolution_m=None, method="mdiff")
