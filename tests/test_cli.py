import ast
import errno
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hocdvs import (
    METHOD_HOC,
    HocProfile,
    asymmetrize,
    cli,
    detect,
    errors,
    experiments,
    gen_truncated_gaussian,
    hoc_profile,
    io_formats,
    locate_peak,
    location_snr,
    moving_average_profile,
    synth,
    synth_traces,
    third_cumulant_lagged,
    third_cumulant_zero_lag,
)
from hocdvs.cli import EXIT_CONFIG, EXIT_IO, EXIT_NO_DETECTION, EXIT_OK, main
from hocdvs.detect import METHOD_ALIASES
from hocdvs.errors import ConfigError, HocdvsError, NoDetectionError, PersistenceError
from hocdvs.experiments import (
    DUTY_CYCLES,
    PRESETS,
    mix_at_snr1,
    run_preset,
    snr2_statistics,
    trace_config,
)
from hocdvs.io_formats import HEADER_SIZE, MAGIC, read_traces, write_traces
from hocdvs.synth import (
    SimConfig,
    SquareWaveSpec,
    TraceMatrix,
    format_sim_config,
    parse_sim_config,
)


@pytest.fixture
def config_file(tmp_path):
    def write(duty=0.2, seed=0, **overrides):
        path = tmp_path / f"cfg_{duty}_{seed}.txt"
        path.write_text(format_sim_config(trace_config(duty, seed, **overrides)))
        return path

    return write


class TestSimulate:
    def test_writes_trace_file_and_prints_digest(self, tmp_path, config_file, capsys):
        out = tmp_path / "run.hocdvs"
        code = main(["simulate", "--config", str(config_file()), "--out", str(out)])
        assert code == EXIT_OK
        assert out.stat().st_size == HEADER_SIZE + 100 * 1500 * 4
        stdout = capsys.readouterr().out
        assert "config_digest=" in stdout
        assert "seed=0" in stdout

    def test_rerun_is_byte_identical(self, tmp_path, config_file):
        cfg = config_file(seed=9)
        out1, out2 = tmp_path / "a.hocdvs", tmp_path / "b.hocdvs"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("duty", DUTY_CYCLES)
    def test_streamed_file_equals_written_matrix(self, tmp_path, config_file, duty):
        # 1500 points stream in chunks of 87 traces, so the last of 100 holds 13
        assert 100 % (cli._CHUNK_BYTES // (8 * 1500)) != 0
        out, ref = tmp_path / "run.hocdvs", tmp_path / "ref.hocdvs"
        code = main(["simulate", "--config", str(config_file(duty, 7)), "--out", str(out)])
        assert code == EXIT_OK
        write_traces(ref, synth_traces(trace_config(duty, 7)))
        assert out.read_bytes() == ref.read_bytes()

    def test_missing_key_exits_2_and_names_key(self, tmp_path, capsys):
        cfg = trace_config(0.2, seed=1)
        lines = [l for l in format_sim_config(cfg).splitlines() if not l.startswith("num_traces")]
        path = tmp_path / "broken.txt"
        path.write_text("\n".join(lines) + "\n")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.hocdvs")])
        assert code == EXIT_CONFIG
        assert "num_traces" in capsys.readouterr().err

    def test_unreadable_config_is_io_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "none.txt"),
                     "--out", str(tmp_path / "x.hocdvs")])
        assert code == EXIT_IO

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        text = format_sim_config(trace_config(0.2, 0)).encode()
        path = tmp_path / "c.cfg"
        path.write_bytes(text.replace(b"fiber_points = 1500", b"fiber_points = 1\xff\xfe"))
        out = tmp_path / "x.hocdvs"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not out.exists()

    def test_matrix_beyond_addressable_size_is_config_error(self, tmp_path, capsys):
        # 2**32 - 1 points x 2**32 - 1 traces fit the u32 header, but their
        # float64 matrix does not fit numpy's address range
        big = 2**32 - 1
        text = format_sim_config(trace_config(0.2, 0)).replace(
            "fiber_points = 1500", f"fiber_points = {big}").replace(
            "num_traces = 100", f"num_traces = {big}")
        # checked without the CLI first: a build that accepts this config
        # would go on to ask numpy for the matrix
        with pytest.raises(ConfigError, match="fiber_points \\* num_traces is too large"):
            parse_sim_config(text)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        out = tmp_path / "x.hocdvs"
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert peak < 1_000_000
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "fiber_points" in err and "num_traces" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, literal",
        [("meters_per_point", "1.0e307"), ("noise_sigma", "1.0e39"),
         ("vibration.amplitude", "1.0e300"), ("noise_sigma", "1.0e308"), ("seed", "-1"),
         ("pulse_width_points", str(2**63)), ("vibration.period_samples", "1" + "0" * 20),
         ("fiber_points", str(2**63)), ("num_traces", str(2**33)),
         pytest.param("fiber_points", "1" + "0" * 400, id="fiber_points-1e400"),
         pytest.param("fiber_points", "-1" + "0" * 400, id="fiber_points--1e400"),
         pytest.param("vibration.period_samples", "1" + "0" * 400,
                      id="vibration.period_samples-1e400"),
         ("vibration.duty", "0.99")],
    )
    def test_config_that_cannot_be_simulated_is_config_error(self, tmp_path, capsys, key,
                                                             literal):
        # 70 points x 6 traces; each value overflows the fiber extent, overflows
        # the float32 payload, cannot seed the generator, exceeds int64, lies
        # outside the u32 range of the trace-file header, or rounds the drive
        # to a constant wave (13.86 of 14 samples high)
        text = format_sim_config(trace_config(0.2, 0, fiber_points=70, num_traces=6,
                                              vibration_point=35))
        path = tmp_path / "c.cfg"
        path.write_text(re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {literal}", text,
                               flags=re.MULTILINE))
        out = tmp_path / "x.hocdvs"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        # an amplitude beyond float32 comes from several keys at once; any
        # other rejected value is named by its field
        if "float32" not in err:
            assert key.rpartition(".")[2] in err
        assert not out.exists()

    def test_matrix_beyond_memory_is_config_error(self, tmp_path, config_file, capsys,
                                                  monkeypatch):
        # stands in for a config such as 2**31 points, which passes every
        # check and then cannot allocate a single row
        def unallocatable(cfg, rows_per_chunk):
            raise MemoryError("Unable to allocate 16.0 GiB for an array with shape "
                              "(2147483648,) and data type float64")
            yield  # a generator, as the row source it stands in for

        monkeypatch.setattr(cli, "_trace_rows", unallocatable)
        out = tmp_path / "x.hocdvs"
        code = main(["simulate", "--config", str(config_file()), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: request does not fit in memory (Unable")
        assert err.count("\n") == 1
        assert not out.exists()


class TestSimulateDrawAhead:
    """A payload of at least synth._THREAD_MIN_BYTES in two or more chunks, on two or
    more usable CPUs, has each next chunk's normals drawn on one worker thread while
    the current chunk is finished and written."""

    @pytest.fixture(autouse=True)
    def two_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def long_config(self, config_file):
        """The golden `long` case: 100 x 9000, a 3.6 MB payload in chunks of 14 rows."""
        return lambda **overrides: config_file(fiber_points=9000, **overrides)

    def fails(self, config, out, code, monkeypatch):
        """simulate's one stderr line after it exits with code, leaving no file. The worker
        is joined before the line is written, not when the exception is dropped."""
        threads, seen = threading.active_count(), []

        class Stderr(io.StringIO):
            def write(self, text):
                seen.append(threading.active_count())
                return super().write(text)

        monkeypatch.setattr(sys, "stderr", Stderr())
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == code
        assert seen and set(seen) == {threads}
        assert threading.active_count() == threads
        assert not out.exists()
        err = sys.stderr.getvalue()
        assert err.count("\n") == 1
        return err

    def test_file_does_not_depend_on_the_usable_cpus(self, tmp_path, long_config, monkeypatch,
                                                      started_threads, drawn_on):
        ref = tmp_path / "ref.hocdvs"
        write_traces(ref, synth_traces(trace_config(0.2, 0, fiber_points=9000)))
        caller = threading.current_thread()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(synth, "_usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}.hocdvs"
            drawn_on.clear()
            first = len(started_threads)
            assert main(["simulate", "--config", str(long_config()), "--out", str(out)]) == 0
            assert out.read_bytes() == ref.read_bytes(), cpus
            # one worker from two CPUs on; it draws all eight chunks and is joined
            workers = started_threads[first:]
            assert len(workers) == (cpus > 1) and not any(t.is_alive() for t in workers)
            assert drawn_on == (workers or [caller]) * 8

    def test_enospc_on_the_second_chunk_exits_4(self, tmp_path, long_config, monkeypatch,
                                                started_threads, drawn_on):
        real_open, written = open, []

        def opened(path, mode="r", **kwargs):
            fh = real_open(path, mode, **kwargs)
            if mode == "wb":
                def write(data):
                    if len(written) == 2:  # the header, then the first chunk
                        raise OSError(errno.ENOSPC, "No space left on device")
                    written.append(memoryview(data).nbytes)
                    return type(fh).write(fh, data)

                fh.write = write
            return fh

        monkeypatch.setattr(io_formats, "open", opened, raising=False)
        err = self.fails(long_config(), tmp_path / "x.hocdvs", EXIT_IO, monkeypatch)
        assert "No space left on device" in err
        assert written == [HEADER_SIZE, 14 * 9000 * 4]
        # the worker drew the third chunk while the second was written, then was joined
        [worker] = started_threads
        assert not worker.is_alive() and drawn_on == [worker] * 3

    def test_float32_overflow_exits_2(self, tmp_path, long_config, monkeypatch,
                                      started_threads, drawn_on):
        err = self.fails(long_config(noise_sigma=1.0e39), tmp_path / "x.hocdvs", EXIT_CONFIG,
                         monkeypatch)
        assert err == ("config error: config drives amplitudes beyond the float32 range "
                       "of trace files\n")
        # the first chunk fails its range check while the worker draws the second
        [worker] = started_threads
        assert not worker.is_alive() and drawn_on == [worker] * 2

    def test_memory_error_in_the_worker_exits_2(self, tmp_path, long_config, monkeypatch):
        real_draws, drawn_on = synth._draws, []

        class SecondDrawFails:
            """A random generator whose second standard_normal draw cannot be allocated."""

            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, shape):
                drawn_on.append(threading.current_thread())
                if len(drawn_on) == 2:
                    raise MemoryError("Unable to allocate 984. KiB for an array with shape "
                                      "(14, 9000) and data type float64")
                return self.rng.standard_normal(shape)

        def draws(cfg, rows=None):
            baseline, sop, rng = real_draws(cfg, rows)
            return baseline, sop, SecondDrawFails(rng)

        monkeypatch.setattr(synth, "_draws", draws)
        err = self.fails(long_config(), tmp_path / "x.hocdvs", EXIT_CONFIG, monkeypatch)
        assert err.startswith("config error: request does not fit in memory (Unable")
        assert len(drawn_on) == 2 and drawn_on[1] is not threading.current_thread()

    def test_trace_scale_starts_no_thread(self, tmp_path, config_file, long_config,
                                          monkeypatch):
        # 1500 x 100 is 600 KB of float32 in two chunks (87 + 13 rows)
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "trace.hocdvs"
        assert main(["simulate", "--config", str(config_file(seed=3)), "--out", str(out)]) == 0
        assert out.stat().st_size == HEADER_SIZE + 100 * 1500 * 4
        with pytest.raises(AssertionError, match="^a thread was started$"):
            main(["simulate", "--config", str(long_config()), "--out", str(out)])
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture
    def trace_file(self, tmp_path, config_file):
        out = tmp_path / "vib.hocdvs"
        main(["simulate", "--config", str(config_file(seed=11)), "--out", str(out)])
        return out

    def test_hoc_finds_event_near_1049m(self, tmp_path, trace_file):
        out_dir = tmp_path / "ana"
        code = main(["analyze", "--traces", str(trace_file), "--method", "hoc",
                     "--window", "100", "--out", str(out_dir)])
        assert code == EXIT_OK
        report = json.loads((out_dir / "report_hoc.json").read_text())
        assert report["method"] == "hoc"
        assert report["window"] == 100
        assert abs(report["peak_position_m"] - 1049.0) <= 10.0
        profile = (out_dir / "profile_hoc.csv").read_text().splitlines()
        assert len(profile) == 1501

    @pytest.mark.parametrize("seed", [0, 17])
    def test_report_equals_the_e2e_preset_row_of_its_config(self, tmp_path, config_file, seed):
        # the e2e preset analyzes synth_traces(cfg) in memory and digests the file
        # simulate would write of it, so each per-duty report is the CLI's, byte for byte
        run_preset("e2e_localization", tmp_path / "e2e", seeds=[seed])
        for duty in DUTY_CYCLES:
            traces, out_dir = tmp_path / f"{duty}.hocdvs", tmp_path / f"ana{duty}"
            assert main(["simulate", "--config", str(config_file(duty, seed)),
                         "--out", str(traces)]) == EXIT_OK
            assert main(["analyze", "--traces", str(traces), "--method", "hoc",
                         "--window", "100", "--out", str(out_dir)]) == EXIT_OK
            preset = tmp_path / "e2e" / f"report_duty{round(duty * 100)}.json"
            assert preset.read_bytes() == (out_dir / "report_hoc.json").read_bytes(), duty

    def test_noise_only_below_threshold_exits_3(self, tmp_path, config_file, capsys):
        out = tmp_path / "noise.hocdvs"
        main(["simulate", "--config",
              str(config_file(seed=5, vibration_depth=0.0, noise_sigma=0.02)),
              "--out", str(out)])
        out_dir = tmp_path / "ana_noise"
        capsys.readouterr()
        code = main(["analyze", "--traces", str(out), "--method", "hoc",
                     "--window", "100", "--out", str(out_dir), "--min-snr-db", "20"])
        assert code == EXIT_NO_DETECTION
        stdout, stderr = capsys.readouterr()
        assert stderr == "no detection: location SNR below threshold 20 dB\n"
        assert stdout.startswith("method=hoc ") and stdout.count("\n") == 1
        # the report is still written, carrying the low location SNR
        report = json.loads((out_dir / "report_hoc.json").read_text())
        assert report["location_snr_db"] < 20.0

    @pytest.mark.parametrize("threshold, expected",
                             [("nan", EXIT_CONFIG), ("inf", EXIT_NO_DETECTION), ("-inf", EXIT_OK)])
    def test_min_snr_nan_is_config_error_and_infinities_keep_their_meaning(
            self, tmp_path, capsys, threshold, expected):
        path = tmp_path / "t.hocdvs"
        path.write_bytes(_FUZZ_BASE)
        out_dir = tmp_path / "o"
        code = main(["analyze", "--traces", str(path), "--method", "hoc", "--window", "6",
                     "--out", str(out_dir), f"--min-snr-db={threshold}"])
        assert code == expected
        err = capsys.readouterr().err
        if expected == EXIT_CONFIG:
            assert err == "config error: --min-snr-db must be a number, got nan\n"
            assert not out_dir.exists()
        else:
            assert (out_dir / "report_hoc.json").exists()

    def test_noise_only_without_threshold_reports_low_snr(self, tmp_path, config_file):
        out = tmp_path / "noise2.hocdvs"
        main(["simulate", "--config",
              str(config_file(seed=6, vibration_depth=0.0, noise_sigma=0.02)),
              "--out", str(out)])
        code = main(["analyze", "--traces", str(out), "--method", "hoc",
                     "--window", "100", "--out", str(tmp_path / "ana2")])
        assert code == EXIT_OK

    def test_hoc_resolution_beats_moving_differential(self, tmp_path, config_file):
        out = tmp_path / "clean.hocdvs"
        main(["simulate", "--config",
              str(config_file(seed=2, noise_sigma=1e-06, sop_sigma=0.0)),
              "--out", str(out)])
        out_dir = tmp_path / "cmp"
        assert main(["analyze", "--traces", str(out), "--method", "hoc",
                     "--window", "100", "--out", str(out_dir)]) == EXIT_OK
        assert main(["analyze", "--traces", str(out), "--method", "mdiff",
                     "--window", "100", "--out", str(out_dir)]) == EXIT_OK
        hoc = json.loads((out_dir / "report_hoc.json").read_text())
        mdiff = json.loads((out_dir / "report_mdiff.json").read_text())
        assert hoc["spatial_resolution_m"] < mdiff["spatial_resolution_m"]

    def test_mavg_method_runs(self, tmp_path, trace_file):
        code = main(["analyze", "--traces", str(trace_file), "--method", "mavg",
                     "--window", "100", "--avg-len", "5", "--out", str(tmp_path / "m")])
        assert code == EXIT_OK

    def test_window_exceeding_traces_is_config_error(self, tmp_path, trace_file):
        code = main(["analyze", "--traces", str(trace_file), "--method", "hoc",
                     "--window", "500", "--out", str(tmp_path / "w")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("method", ["hoc", "mdiff", "mavg"])
    @pytest.mark.parametrize("window", ["1", "0", "-5"])
    def test_window_below_two_is_config_error(self, tmp_path, trace_file, capsys, method, window):
        code = main(["analyze", "--traces", str(trace_file), "--method", method,
                     "--window", window, "--avg-len", "1", "--out", str(tmp_path / "w")])
        assert code == EXIT_CONFIG
        assert "window must be >= 2" in capsys.readouterr().err

    def test_nan_meters_per_point_is_io_error(self, tmp_path, trace_file):
        blob = bytearray(trace_file.read_bytes())
        struct.pack_into("<d", blob, 20, float("nan"))
        trace_file.write_bytes(bytes(blob))
        out_dir = tmp_path / "nan"
        code = main(["analyze", "--traces", str(trace_file), "--method", "hoc",
                     "--window", "100", "--out", str(out_dir)])
        assert code == EXIT_IO
        assert not out_dir.exists()

    def test_infinite_fiber_extent_is_io_error(self, tmp_path, capsys):
        blob = bytearray(_FUZZ_BASE)
        struct.pack_into("<d", blob, 20, 1.0e307)  # 70 points x 1e307 m overflows
        path = tmp_path / "far.hocdvs"
        path.write_bytes(bytes(blob))
        out_dir = tmp_path / "far"
        code = main(["analyze", "--traces", str(path), "--method", "hoc",
                     "--window", "6", "--out", str(out_dir)])
        assert code == EXIT_IO
        assert "fiber extent" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_report_digest_hashes_file_bytes_and_settings(self, tmp_path, trace_file):
        out_dir = tmp_path / "dig"
        assert main(["analyze", "--traces", str(trace_file), "--method", "hoc",
                     "--window", "100", "--out", str(out_dir)]) == EXIT_OK
        expected = hashlib.sha256(
            trace_file.read_bytes() + b"|method=hoc|window=100|guard=30|avg_len=5"
        ).hexdigest()
        report = json.loads((out_dir / "report_hoc.json").read_text())
        assert report["config_digest"] == expected

    def test_bad_trace_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.hocdvs"
        bad.write_bytes(b"not a trace file at all")
        code = main(["analyze", "--traces", str(bad), "--method", "hoc",
                     "--window", "100", "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_huge_header_promise_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "huge.hocdvs"
        path.write_bytes(struct.pack("<8sIIIddB", MAGIC, 1, 65535, 65535, 1.0, 1.0, 0))
        code = main(["analyze", "--traces", str(path), "--method", "hoc",
                     "--window", "100", "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert "payload is 0 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["hoc", "mdiff"])
    def test_zero_background_is_no_detection(self, tmp_path, capsys, method):
        amps = np.zeros((4, 200))
        amps[:, 100] = [3.0, -1.0, -1.0, -1.0]
        path = tmp_path / "quiet.hocdvs"
        write_traces(path, TraceMatrix(amps, 1.0, 10000.0))
        code = main(["analyze", "--traces", str(path), "--method", method,
                     "--window", "4", "--out", str(tmp_path / "o")])
        assert code == EXIT_NO_DETECTION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "background is exactly zero" in err

    def test_overflowing_location_snr_stays_finite(self, tmp_path):
        amps = np.zeros((4, 200))
        amps[:, 100] = [3e38, -1e38, -1e38, -1e38]
        amps[:, 5] = [1e-44, 0.0, 0.0, 0.0]
        path = tmp_path / "wide.hocdvs"
        write_traces(path, TraceMatrix(amps, 1.0, 10000.0))
        out_dir = tmp_path / "o"
        code = main(["analyze", "--traces", str(path), "--method", "hoc",
                     "--window", "4", "--out", str(out_dir)])
        assert code == EXIT_OK
        report = json.loads((out_dir / "report_hoc.json").read_text())
        assert report["peak_index"] == 100
        assert 1000.0 < report["location_snr_db"] < float("inf")


class TestAnalyzeLargePayload:
    """A payload of at least synth._THREAD_MIN_BYTES is read in row chunks that
    are hashed on one digest thread as they land, and a profile over rows that
    large shares its column blocks with one helper per further usable CPU."""

    METHODS = ["hoc", "mdiff", "mavg"]

    @pytest.fixture(autouse=True)
    def two_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def large_trace_file(self, tmp_path, config_file):
        """400 x 2100: four read chunks of up to 124 rows, five column blocks."""
        out = tmp_path / "large.hocdvs"
        cfg = config_file(seed=11, num_traces=400, fiber_points=2100, vibration_point=1300)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = out.stat().st_size - HEADER_SIZE
        assert payload > 3 * io_formats._READ_CHUNK_BYTES
        assert 2100 > 4 * detect.BLOCK_POINTS
        assert payload // 2 >= synth._THREAD_MIN_BYTES  # window 200 reduces half the rows
        return out

    @pytest.fixture
    def hashed_on(self, monkeypatch):
        """The thread of each sha256 update, in order."""
        threads, sha256 = [], hashlib.sha256

        class Recorded:
            def __init__(self, *data):
                self.inner = sha256(*data)

            def update(self, data):
                threads.append(threading.current_thread())
                self.inner.update(data)

            def hexdigest(self):
                return self.inner.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Recorded)
        return threads

    @pytest.fixture
    def reduced_on(self, monkeypatch):
        """The thread that reduces each profile block, in order."""
        threads, blockwise = [], detect._blockwise

        def recorded(traces, rows, reduce):
            def recorded_reduce(block):
                threads.append(threading.current_thread())
                return reduce(block)
            return blockwise(traces, rows, recorded_reduce)

        monkeypatch.setattr(detect, "_blockwise", recorded)
        return threads

    @staticmethod
    def analyze(trace_file, out_dir, method="hoc", window="200"):
        return main(["analyze", "--traces", str(trace_file), "--method", method,
                     "--window", window, "--out", str(out_dir)])

    def outputs(self, trace_file, out_dir, capsys, method="hoc"):
        assert self.analyze(trace_file, out_dir, method) == EXIT_OK
        return [capsys.readouterr().out] + [
            (out_dir / f"{kind}_{method}.{ext}").read_bytes()
            for kind, ext in (("profile", "csv"), ("report", "json"))
        ]

    def test_window_exceeding_traces_exits_2_and_joins_the_worker(self, tmp_path,
                                                                  large_trace_file, capsys,
                                                                  started_threads, hashed_on,
                                                                  reduced_on):
        started_threads.clear()  # simulate's, for the fixture's file
        hashed_on.clear()
        threads = threading.active_count()
        assert self.analyze(large_trace_file, tmp_path / "w", window="401") == EXIT_CONFIG
        [digest] = started_threads
        assert not digest.is_alive() and threading.active_count() == threads
        # the header on the caller, the four payload chunks on the digest worker; no profile
        assert hashed_on == [threading.current_thread()] + [digest] * 4
        assert reduced_on == []
        assert "window 401 exceeds" in capsys.readouterr().err

    def test_zero_background_exits_3_and_joins_every_thread(self, tmp_path, capsys,
                                                            started_threads, hashed_on,
                                                            reduced_on):
        amps = np.zeros((400, 2100))
        amps[:, 1000] = 1.0
        amps[0, 1000] = 400.0
        path = tmp_path / "quiet.hocdvs"
        write_traces(path, TraceMatrix(amps, 1.0, 10000.0))
        threads, caller = threading.active_count(), threading.current_thread()
        assert self.analyze(path, tmp_path / "o", window="400") == EXIT_NO_DETECTION
        digest, helper = started_threads
        assert not digest.is_alive() and not helper.is_alive()
        assert threading.active_count() == threads
        assert hashed_on == [caller] + [digest] * 4
        # five column blocks, shared between the caller and the one helper
        assert len(reduced_on) == 5 and set(reduced_on) <= {caller, helper}
        assert "background is exactly zero" in capsys.readouterr().err

    def test_short_payload_exits_4_and_leaves_no_thread(self, tmp_path, large_trace_file,
                                                        capsys):
        blob = large_trace_file.read_bytes()
        large_trace_file.write_bytes(blob[:-4])
        threads = threading.active_count()
        assert self.analyze(large_trace_file, tmp_path / "o") == EXIT_IO
        assert threading.active_count() == threads
        promised = len(blob) - HEADER_SIZE
        assert f"payload is {promised - 4} bytes, header promises {promised}" in (
            capsys.readouterr().err)

    def test_payload_digest_failure_reaches_the_caller(self, tmp_path, large_trace_file,
                                                       monkeypatch):
        feeders, sha256 = [], hashlib.sha256

        class ChunkFails:
            """sha256 that fails when fed the second payload chunk, recording the thread."""

            def __init__(self):
                self.inner, self.fed = sha256(), 0

            def update(self, data):
                self.fed += 1
                if self.fed == 3:  # the header, then the first chunk
                    feeders.append(threading.current_thread())
                    raise RuntimeError("digest failed on a payload chunk")
                self.inner.update(data)

            def hexdigest(self):
                return self.inner.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", ChunkFails)
        threads = threading.active_count()
        out_dir = tmp_path / "o"
        with pytest.raises(RuntimeError, match="digest failed on a payload chunk"):
            self.analyze(large_trace_file, out_dir)
        assert len(feeders) == 1 and feeders[0] is not threading.current_thread()
        assert threading.active_count() == threads
        assert not list(out_dir.glob("report_*.json"))

    @pytest.mark.parametrize("method", METHODS)
    def test_helper_part_failure_reaches_the_caller(self, tmp_path, large_trace_file,
                                                    monkeypatch, method):
        failed, helper_took_a_block = [], threading.Event()
        real_blockwise = detect._blockwise

        def blockwise(traces, rows, reduce):
            def reduce_or_fail(block):
                if threading.current_thread() is threading.main_thread():
                    helper_took_a_block.wait(timeout=30)  # so the helper reduces one
                    return reduce(block)
                failed.append(threading.current_thread())
                helper_took_a_block.set()
                raise RuntimeError("a helper part failed")
            return real_blockwise(traces, rows, reduce_or_fail)

        monkeypatch.setattr(detect, "_blockwise", blockwise)
        threads = threading.active_count()
        out_dir = tmp_path / "o"
        with pytest.raises(RuntimeError, match="a helper part failed"):
            self.analyze(large_trace_file, out_dir, method)
        assert len(failed) == 1
        assert threading.active_count() == threads
        assert not list(out_dir.glob("report_*.json"))

    @pytest.mark.parametrize("method", METHODS)
    def test_digest_and_outputs_are_the_same_on_every_repeat(self, tmp_path, large_trace_file,
                                                             capsys, monkeypatch, method,
                                                             started_threads, hashed_on,
                                                             reduced_on):
        settings = f"|method={METHOD_ALIASES[method]}|window=200|guard=30|avg_len=5"
        expected = hashlib.sha256(large_trace_file.read_bytes() + settings.encode()).hexdigest()
        started_threads.clear()  # simulate's, for the fixture's file
        caller = threading.current_thread()
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(synth, "_usable_cpus", lambda: 1)
            inline = self.outputs(large_trace_file, tmp_path / "one", capsys, method)
        assert started_threads == [] and set(reduced_on) == {caller}
        assert json.loads(inline[2])["config_digest"] == expected
        # three helpers, the digest thread and the caller: more threads than a small host has CPUs
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock between threads often
        try:
            for _ in range(20):
                hashed_on.clear()
                reduced_on.clear()
                first = len(started_threads)
                assert self.outputs(large_trace_file, tmp_path / "rep", capsys, method) == inline
                digest, *helpers = started_threads[first:]
                assert not any(thread.is_alive() for thread in started_threads[first:])
                # the header and the settings on the caller, the four payload chunks on the
                # digest worker
                assert hashed_on == [caller] + [digest] * 4 + [caller]
                # a pool starts a thread per submitted part until one of its threads is idle
                assert 1 <= len(helpers) <= 3
                assert len(reduced_on) == 5 and set(reduced_on) <= {caller, *helpers}
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("method", METHODS)
    def test_one_usable_cpu_makes_no_thread(self, tmp_path, large_trace_file, capsys,
                                            monkeypatch, method):
        two_cpus = self.outputs(large_trace_file, tmp_path / "two", capsys, method)
        feeders, sha256 = [], hashlib.sha256

        class Recorded:
            """sha256 that records the thread each update runs on."""

            def __init__(self):
                self.inner = sha256()

            def update(self, data):
                feeders.append(threading.current_thread())
                self.inner.update(data)

            def hexdigest(self):
                return self.inner.hexdigest()

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was made on one usable CPU")

        monkeypatch.setattr(synth, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(hashlib, "sha256", Recorded)
        monkeypatch.setattr(threading, "Thread", no_thread)
        threads = threading.active_count()
        assert self.outputs(large_trace_file, tmp_path / "one", capsys, method) == two_cpus
        # the header, four payload chunks and the settings
        assert feeders == [threading.current_thread()] * 6
        assert threading.active_count() == threads

    def test_trace_scale_file_makes_no_thread(self, tmp_path, config_file, capsys,
                                              monkeypatch):
        path = tmp_path / "trace.hocdvs"
        assert main(["simulate", "--config", str(config_file(seed=3)), "--out", str(path)]) == 0
        capsys.readouterr()

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was made for a trace-scale file")

        monkeypatch.setattr(threading, "Thread", no_thread)
        threads = threading.active_count()
        for method in self.METHODS:
            assert self.analyze(path, tmp_path / "o", method, window="100") == EXIT_OK
        assert threading.active_count() == threads


def _fuzz_base() -> bytes:
    rng = np.random.default_rng(4)
    amps = 2.8 + rng.normal(0.0, 0.05, size=(6, 70))
    amps[:4, 35] += 0.5
    header = struct.pack("<8sIIIddB", MAGIC, 1, 6, 70, 1.0, 10000.0, 0)
    return header + amps.astype("<f4").tobytes()


_FUZZ_BASE = _fuzz_base()
_FUZZ_POSITION = st.one_of(st.integers(0, HEADER_SIZE - 1),
                           st.integers(0, len(_FUZZ_BASE) - 1))


@given(
    cut=st.one_of(st.none(), st.integers(0, len(_FUZZ_BASE))),
    edits=st.lists(st.tuples(_FUZZ_POSITION, st.integers(0, 255)), max_size=6),
    method=st.sampled_from(["hoc", "mdiff", "mavg"]),
)
@settings(max_examples=150, deadline=None)
def test_mutated_trace_files_exit_cleanly(tmp_path_factory, cut, edits, method):
    blob = bytearray(_FUZZ_BASE)
    for pos, value in edits:
        blob[pos] = value
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "t.hocdvs"
    path.write_bytes(bytes(blob[:cut]))
    code = main(["analyze", "--traces", str(path), "--method", method, "--window", "6",
                 "--avg-len", "2", "--out", str(work / "o")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NO_DETECTION, EXIT_IO)


class TestExperiment:
    def test_seed_range_override(self, tmp_path):
        code = main(["experiment", "--preset", "fig1_asymmetry",
                     "--out", str(tmp_path), "--seeds", "0..2"])
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["seeds"] == [0, 1, 2]

    def test_bad_seed_range(self, tmp_path):
        code = main(["experiment", "--preset", "fig1_asymmetry",
                     "--out", str(tmp_path), "--seeds", "5"])
        assert code == EXIT_CONFIG

    def test_empty_seed_range_is_config_error_not_the_default_list(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        code = main(["experiment", "--preset", "fig2a_length_sweep", "--out", str(out_dir),
                     "--seeds", ""])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: seed range must look like a..b, got ''\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("preset", list(PRESETS))
    @pytest.mark.parametrize("seeds", ["-3..-1", "-1..2", f"0..{10**30}"])
    def test_seed_range_outside_the_seedable_or_sizable_is_config_error(
            self, tmp_path, capsys, preset, seeds):
        out_dir = tmp_path / "o"
        code = main(["experiment", "--preset", preset, "--out", str(out_dir),
                     f"--seeds={seeds}"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: seed") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_seed_list_beyond_memory_is_config_error_before_any_output(
            self, tmp_path, capsys, monkeypatch, preset):
        # stands in for a range such as 0..10**12, which passes every check
        # and then cannot be held as a tuple
        class Unallocatable:
            def __iter__(self):
                raise MemoryError

        monkeypatch.setattr(cli, "_parse_seed_range", lambda text: Unallocatable())
        out_dir = tmp_path / "o"
        code = main(["experiment", "--preset", preset, "--out", str(out_dir),
                     "--seeds", "0..1000000000000"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: request does not fit in memory\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("preset", ["fig2a_length_sweep", "fig2b_snr_sweep"])
    def test_one_seed_output_snr_preset_has_zero_spread(self, tmp_path, capsys, preset):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["experiment", "--preset", preset, "--out", str(tmp_path),
                         "--seeds", "3..3"])
        assert code == EXIT_OK
        rows = (tmp_path / f"{preset}.csv").read_text().splitlines()[1:]
        assert rows and all(row.rsplit(",", 1)[1] == "0" for row in rows)
        assert capsys.readouterr().err == ""
        assert not caught

    @pytest.mark.parametrize("name, what", [("fig1_asymmetry.csv", "preset CSV"),
                                            ("run_meta.json", "run metadata")])
    def test_enospc_exits_4_and_leaves_no_file(self, tmp_path, capsys, monkeypatch, name,
                                               what):
        real_open = open

        def opened(path, mode="r", **kwargs):
            fh = real_open(path, mode, **kwargs)
            if mode == "w" and Path(path).name == name:
                def write(text):
                    type(fh).write(fh, text[: len(text) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")

                fh.write = write
            return fh

        monkeypatch.setattr(io_formats, "open", opened, raising=False)
        code = main(["experiment", "--preset", "fig1_asymmetry", "--out", str(tmp_path),
                     "--seeds", "0..1"])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (f"i/o error: cannot write {what} to "
                                           f"{tmp_path / name}: [Errno 28] No space left on "
                                           "device\n")
        assert not (tmp_path / name).exists()

    def test_unknown_preset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--preset", "fig9_unknown", "--out", str(tmp_path)])
        assert exc.value.code == 2


# Every HocdvsError subclass: (CLI exit code, stderr label). A class missing
# here fails test_exit_code_table_covers_every_error_class.
EXIT_TABLE = {
    "HocdvsError": (1, "error"),
    "ConfigError": (2, "config error"),
    "NoDetectionError": (3, "no detection"),
    "PersistenceError": (4, "i/o error"),
    "NoEdgeError": (1, "error"),
}


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    """Only the e2e sweep uses a thread pool, so no CLI path pays for importing one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, hocdvs.cli; print('concurrent.futures' in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_trace_scale_simulate_and_analyze_load_no_pool_and_start_no_thread(tmp_path):
    """Each helper thread is only worth it from 1 MiB of float32, so a trace-scale simulate
    and analyze with every method, on four usable CPUs, leave the pool unloaded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys, threading
        from hocdvs import synth
        from hocdvs.cli import main

        def refuse(thread):
            raise AssertionError("a thread was started")

        synth._usable_cpus = lambda: 4
        threading.Thread.start = refuse
        config, traces, out = sys.argv[1:]
        assert main(["simulate", "--config", config, "--out", traces]) == 0
        for method in ("hoc", "mdiff", "mavg"):
            assert main(["analyze", "--traces", traces, "--method", method, "--window", "100",
                         "--out", out]) == 0
        print("concurrent.futures" in sys.modules, threading.active_count())
    """)
    config = tmp_path / "run.cfg"
    config.write_text(format_sim_config(trace_config(0.2, 3)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "run.hocdvs"),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines()[-1] == "False 1"


def _imported_modules(node) -> list[str]:
    """The absolute module names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_every_helper_thread_runs_on_a_pool_imported_where_it_is_needed():
    """Work beside the calling thread has one mechanism: a concurrent.futures pool, imported
    in the function that starts it, so importing hocdvs loads none. No module imports queue,
    makes a threading.Thread or imports concurrent.futures at module level."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), path.name)
        in_functions = {id(node) for func in ast.walk(tree)
                        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(func)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            roots = {name.partition(".")[0] for name in _imported_modules(node)}
            assert "queue" not in roots, f"{where} imports queue"
            assert "concurrent" not in roots or id(node) in in_functions, (
                f"{where} imports concurrent.futures at module level")
            assert not (isinstance(node, ast.Attribute) and node.attr == "Thread"
                        and isinstance(node.value, ast.Name) and node.value.id == "threading"), (
                f"{where} makes a threading.Thread")
            assert not (isinstance(node, ast.ImportFrom) and node.module == "threading"
                        and "Thread" in [alias.name for alias in node.names]), (
                f"{where} imports threading.Thread")


def _error_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_exit_code_table_covers_every_error_class():
    found = {cls.__name__: (cls.exit_code, cls.label) for cls in _error_classes(HocdvsError)}
    assert found == EXIT_TABLE


def _zeros(traces, points):
    return TraceMatrix(np.zeros((traces, points)), 1.0, 1.0)


def _profile(values):
    return HocProfile(np.asarray(values, dtype=float), 1.0)


def _exhaust_noise_references():
    # with an infinite floor no reference anchors the ratio, so every redraw fails
    with mock.patch.object(experiments, "NOISE_C3_FLOOR", math.inf):
        snr2_statistics(0.2, 20, 0.0, range(3))


def _read_edited_trace_file(tmp_path, edit):
    path = tmp_path / "t.hocdvs"
    write_traces(path, _zeros(2, 3))
    path.write_bytes(edit(path.read_bytes()))
    read_traces(path)


# Conditions that once had an exception class of their own, keyed by that
# former class name: (a call that meets the condition, the category it now
# raises, a message fragment naming the condition). Each keeps the exit code
# and stderr label it had.
CONDITIONS = {
    "EmptySequenceError": (lambda tmp: third_cumulant_zero_lag(np.empty(0)),
                           HocdvsError, "at least one sample"),
    "LagTooLargeError": (lambda tmp: third_cumulant_lagged(np.array([1.0, -1.0]), 2, 0),
                         HocdvsError, "lag 2 >= sequence length 2"),
    "ZeroSignalError": (lambda tmp: mix_at_snr1(np.zeros(10), 0.0, np.ones(10)),
                        HocdvsError, "zero-power signal"),
    "DegenerateNoiseReferenceError": (lambda tmp: _exhaust_noise_references(),
                                      HocdvsError, "no stable noise reference in 64 attempts"),
    "EmptyRequestError": (lambda tmp: gen_truncated_gaussian(0, seed=0),
                          HocdvsError, "need at least one sample, got 0"),
    "BadIntervalError": (lambda tmp: asymmetrize(np.zeros(1), -1.0, -2.0),
                         HocdvsError, "empty interval"),
    "BadConfigError": (lambda tmp: parse_sim_config("mystery = 1\n"),
                       ConfigError, "unknown key 'mystery'"),
    "UnknownPresetError": (lambda tmp: run_preset("fig3_mystery", tmp),
                           ConfigError, "unknown preset 'fig3_mystery'"),
    "WindowExceedsTracesError": (lambda tmp: hoc_profile(_zeros(5, 3), window=6),
                                 ConfigError, "window 6 exceeds 5 traces"),
    "WindowTooSmallError": (lambda tmp: hoc_profile(_zeros(5, 3), window=1),
                            ConfigError, "window must be >= 2 traces, got 1"),
    "BadAverageLengthError": (lambda tmp: moving_average_profile(_zeros(30, 3), window=30,
                                                                 avg_len=0),
                              ConfigError, "avg_len must be in"),
    "BadGuardError": (lambda tmp: location_snr(_profile([1.0, 2.0, 3.0]), peak_index=1, guard=-1),
                      ConfigError, "guard must be >= 0, got -1"),
    "NoPeakError": (lambda tmp: locate_peak(_profile([0.0, 0.0, 0.0])),
                    NoDetectionError, "profile is identically zero"),
    "ZeroBackgroundError": (lambda tmp: location_snr(_profile([1.0, 0.0, 0.0, 0.0]),
                                                     peak_index=0, guard=1),
                            NoDetectionError, "background is exactly zero"),
    "IoError": (lambda tmp: read_traces(tmp / "absent.hocdvs"),
                PersistenceError, "cannot read traces from"),
    "NotATraceFileError": (lambda tmp: _read_edited_trace_file(tmp, lambda b: b"NOTMAGIC" + b[8:]),
                           PersistenceError, "does not start with the trace-file magic"),
    "CorruptHeaderError": (lambda tmp: _read_edited_trace_file(
                               tmp, lambda b: b[:8] + struct.pack("<I", 9) + b[12:]),
                           PersistenceError, "unsupported version 9"),
    "TruncatedPayloadError": (lambda tmp: _read_edited_trace_file(tmp, lambda b: b[:-5]),
                              PersistenceError, "payload is 19 bytes, header promises 24"),
}


@pytest.mark.parametrize("name", sorted(EXIT_TABLE) + sorted(CONDITIONS))
def test_main_exits_with_the_error_code_and_label(tmp_path, capsys, monkeypatch, name):
    if name in EXIT_TABLE:
        category, message = getattr(errors, name), "boom"

        def fail(*args, **kwargs):
            raise category(message)
    else:
        meet, category, fragment = CONDITIONS[name]
        with pytest.raises(category, match=re.escape(fragment)) as exc:
            meet(tmp_path)
        assert exc.type is category
        message = str(exc.value)

        def fail(*args, **kwargs):
            meet(tmp_path)

    monkeypatch.setattr(cli, "cmd_experiment", fail)
    code = main(["experiment", "--preset", "fig1_asymmetry", "--out", str(tmp_path)])
    exit_code, label = EXIT_TABLE[category.__name__]
    assert code == exit_code
    assert capsys.readouterr().err == f"{label}: {message}\n"


def test_the_one_parser_runs_the_cmd_the_module_holds_at_each_call(tmp_path, config_file,
                                                                   monkeypatch):
    traces = tmp_path / "t.hocdvs"
    assert main(["simulate", "--config", str(config_file()), "--out", str(traces)]) == EXIT_OK
    assert cli._build_parser() is cli._build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: calls.append(args.method) or 41)
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args.out) or 42)
    assert main(["analyze", "--traces", str(traces), "--method", "mavg", "--window", "9",
                 "--out", str(tmp_path)]) == 41
    assert main(["simulate", "--config", "c", "--out", "o"]) == 42
    assert calls == ["mavg", "o"]


def test_usage_error_reads_the_same_on_every_call(tmp_path, config_file, capsys):
    assert main(["simulate", "--config", str(config_file()),
                 "--out", str(tmp_path / "t.hocdvs")]) == EXIT_OK
    capsys.readouterr()
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == EXIT_CONFIG
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "the following arguments are required: --traces" in errs[0]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_INT64_MAX = 2**63 - 1


@st.composite
def sim_configs(draw):
    """Valid configs of at most 64 x 64, reals from the whole finite range."""
    fiber_points = draw(st.integers(1, 64))
    period = draw(st.integers(2, _INT64_MAX))
    duty = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    assume(1 <= round(duty * period) < period)
    mpp = draw(_POSITIVE)
    assume(math.isfinite(mpp * fiber_points))
    return SimConfig(
        fiber_points=fiber_points,
        num_traces=draw(st.integers(1, 64)),
        pulse_width_points=draw(st.integers(1, _INT64_MAX)),
        meters_per_point=mpp,
        trace_rate_hz=draw(_POSITIVE),
        vibration_point=draw(st.integers(0, fiber_points - 1)),
        vibration=SquareWaveSpec(duty=duty, period_samples=period, amplitude=draw(_FINITE),
                                 phase_samples=draw(st.integers())),
        vibration_depth=draw(st.floats(0.0, 1.0)),
        noise_sigma=draw(_NON_NEGATIVE),
        sop_sigma=draw(_NON_NEGATIVE),
        seed=draw(st.integers(min_value=0)),
    )


# (position, characters cut, text inserted); long digit runs reach integers
# too large for a float or for int() of a string
_EDITS = st.lists(
    st.tuples(st.integers(0, 10**4), st.integers(0, 3),
              st.text(alphabet="0123456789+-.e_=# \nabcdfinpstuvx", max_size=25)
              | st.text(alphabet="0123456789", min_size=300, max_size=5000)),
    min_size=1, max_size=4,
)


@given(cfg=sim_configs(), edits=_EDITS)
@settings(max_examples=100, deadline=None)
def test_config_round_trip_mutation_and_simulate(tmp_path_factory, cfg, edits):
    text = format_sim_config(cfg)
    assert parse_sim_config(text) == cfg

    mutated = text
    for pos, cut, insert in edits:
        pos %= len(mutated) + 1
        mutated = mutated[:pos] + insert + mutated[pos + cut:]
    try:
        parse_sim_config(mutated)
    except ConfigError:
        pass

    work = tmp_path_factory.mktemp("sim")
    (work / "c.cfg").write_text(text)
    out = work / "t.hocdvs"
    code = main(["simulate", "--config", str(work / "c.cfg"), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        assert read_traces(out).fiber_points == cfg.fiber_points
    else:
        assert not out.exists()
