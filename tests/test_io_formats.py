import errno
import json
import os
import re
import stat
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocdvs import (
    DetectionReport,
    HocProfile,
    TraceMatrix,
    export_profile_csv,
    read_profile_csv,
    read_traces,
    write_report_json,
    write_traces,
)
from hocdvs.detect import METHOD_MOVING_DIFFERENTIAL
from hocdvs.errors import ConfigError, PersistenceError
from hocdvs.cli import main
from hocdvs.experiments import run_preset, trace_config
from hocdvs import io_formats, synth
from hocdvs.io_formats import HEADER_SIZE, MAGIC, write_trace_rows
from hocdvs.synth import format_sim_config


def small_matrix(rows, mpp=1.0, rate=10000.0):
    return TraceMatrix(np.asarray(rows, dtype=float), mpp, rate)


def fail_text_write(monkeypatch, failing):
    """Make the given write (counted from 1) of every text file that io_formats
    opens raise ENOSPC; return the list of lengths written before it."""
    real_open, written = open, []

    def opened(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        if mode == "w":
            def write(text):
                if len(written) + 1 == failing:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(len(text))
                return type(fh).write(fh, text)

            fh.write = write
        return fh

    monkeypatch.setattr(io_formats, "open", opened, raising=False)
    return written


class TestTraceFile:
    def test_header_size(self):
        assert HEADER_SIZE == 37

    def test_file_size_two_by_three(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1, 2, 3], [4, 5, 6]]))
        assert path.stat().st_size == HEADER_SIZE + 6 * 4

    def test_round_trip_metadata_and_payload(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        src = small_matrix([[1.5, -2.25], [0.0, 7.0]], mpp=0.5, rate=5000.0)
        write_traces(path, src)
        out = read_traces(path)
        assert out.meters_per_point == 0.5
        assert out.trace_rate_hz == 5000.0
        np.testing.assert_array_equal(out.amplitudes, src.amplitudes)

    def test_provenance_code_in_header(self, tmp_path):
        """Every writer puts 0 in the header's provenance byte."""
        matrix_path, rows_path = tmp_path / "matrix.hocdvs", tmp_path / "rows.hocdvs"
        write_traces(matrix_path, small_matrix([[1.0]]))
        write_trace_rows(rows_path, (2, 3), 1.0, 10000.0, [np.ones((2, 3))])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(format_sim_config(trace_config(0.2, 0, fiber_points=40,
                                                      vibration_point=20, num_traces=3)))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "cli.hocdvs")]) == 0
        for name in ("matrix", "rows", "cli"):
            assert (tmp_path / f"{name}.hocdvs").read_bytes()[HEADER_SIZE - 1] == 0

    def test_recorded_provenance_code_still_reads(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        src = small_matrix([[1.5, -2.25], [0.0, 7.0]])
        write_traces(path, src)
        blob = bytearray(path.read_bytes())
        blob[HEADER_SIZE - 1] = 1
        path.write_bytes(bytes(blob))
        np.testing.assert_array_equal(read_traces(path).amplitudes, src.amplitudes)

    def test_unknown_provenance_code(self, tmp_path, capsys):
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1.0, 2.0]]))
        blob = bytearray(path.read_bytes())
        blob[HEADER_SIZE - 1] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="unknown provenance code 2"):
            read_traces(path)
        argv = ["analyze", "--traces", str(path), "--method", "mdiff", "--window", "2",
                "--out", str(tmp_path / "out")]
        assert main(argv) == PersistenceError.exit_code == 4
        assert "unknown provenance code 2" in capsys.readouterr().err

    def test_float32_extremes_round_trip_bit_for_bit(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        src = small_matrix([[top, -top, 0.0], [-top, 1.5, top]])
        path = tmp_path / "t.hocdvs"
        write_traces(path, src)
        out = read_traces(path)
        assert out.amplitudes.dtype == src.amplitudes.dtype == np.float32
        assert out.amplitudes.tobytes() == src.amplitudes.tobytes()

    def test_failed_chunk_leaves_no_file(self, tmp_path):
        def chunks():
            yield np.ones((2, 3))
            raise ConfigError("chunk failed")

        fresh, existing = tmp_path / "fresh.hocdvs", tmp_path / "existing.hocdvs"
        existing.write_bytes(b"an earlier file")
        for path in (fresh, existing):
            with pytest.raises(ConfigError, match="chunk failed"):
                write_trace_rows(path, (4, 3), 1.0, 10000.0, chunks())
            assert not path.exists()

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        src = small_matrix(rng.normal(0.0, 3.0, size=(100, 1500)))
        path = tmp_path / "big.hocdvs"
        write_traces(path, src)
        assert np.array_equal(read_traces(path).amplitudes, src.amplitudes)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1, 2, 3], [4, 5, 6]]))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(PersistenceError, match="payload is 19 bytes, header promises 24"):
            read_traces(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        path.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(PersistenceError, match="ends inside the header"):
            read_traces(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1.0]]))
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="does not start with the trace-file magic"):
            read_traces(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1, 2, 3], [4, 5, 6]]))
        blob = bytearray(path.read_bytes())
        # claim 3 traces while the payload holds 2
        blob[8 + 4 : 8 + 8] = struct.pack("<I", 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="payload is 24 bytes, header promises 36"):
            read_traces(path)
        blob[8 + 4 : 8 + 8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="payload is 24 bytes, header promises 12"):
            read_traces(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1.0]]))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="unsupported version 9"):
            read_traces(path)

    @pytest.mark.parametrize("offset", [20, 28], ids=["meters_per_point", "trace_rate_hz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_header_metadata(self, tmp_path, offset, value):
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1, 2, 3], [4, 5, 6]]))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError,
                           match="meters_per_point and trace_rate_hz must be finite and > 0"):
            read_traces(path)

    def test_payload_is_float32_and_digest_sees_every_byte(self, tmp_path):
        """read_traces feeds the digest the header as read (provenance byte 1
        included), then the payload it returns as the amplitudes, so the
        caller's digest sees every byte of the file."""
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix([[1.5, -2.0, 3.0], [4.0, 5.0, -6.25]]))
        blob = bytearray(path.read_bytes())
        for provenance in (0, 1):
            blob[HEADER_SIZE - 1] = provenance
            path.write_bytes(bytes(blob))
            fed = []
            digest = mock.Mock(update=lambda data: fed.append(bytes(data)))
            out = read_traces(path, digest=digest)
            assert out.amplitudes.dtype == np.float32
            assert fed == [bytes(blob[:HEADER_SIZE]), out.amplitudes.tobytes()]
            assert b"".join(fed) == bytes(blob)

    @pytest.mark.parametrize("chunk_bytes, rows", [(1, [1] * 10), (84, [3, 3, 3, 1]),
                                                   (279, [9, 1]), (280, [10])])
    def test_payload_is_read_and_fed_in_row_chunks(self, tmp_path, monkeypatch, chunk_bytes,
                                                   rows):
        """Each chunk holds synth._CHUNK_BYTES // row bytes rows (at least one) and
        reaches the digest as it lands, in file order, after the header."""
        path = tmp_path / "t.hocdvs"
        amps = np.arange(70, dtype=np.float32).reshape(10, 7) - 30.5
        write_traces(path, small_matrix(amps))
        monkeypatch.setattr(synth, "_CHUNK_BYTES", chunk_bytes)
        fed = []
        out = read_traces(path, digest=mock.Mock(update=lambda data: fed.append(bytes(data))))
        assert [len(data) // 28 for data in fed[1:]] == rows
        assert b"".join(fed) == path.read_bytes()
        np.testing.assert_array_equal(out.amplitudes, amps)

    @pytest.mark.parametrize("chunk_bytes, written, read", [(84, [1] * 10, [3, 3, 3, 1]),
                                                             (279, [4, 4, 2], [9, 1]),
                                                             (280, [5, 5], [10])])
    def test_one_chunk_size_sets_the_rows_of_every_pass(self, tmp_path, monkeypatch,
                                                        chunk_bytes, written, read):
        """One patch of synth._CHUNK_BYTES sets the rows of each chunk simulate synthesizes
        and writes (float64 rows, 56 bytes at 7 points), of each chunk read_traces feeds the
        digest (float32 rows, 28 bytes) and of each block the range check takes of either."""
        monkeypatch.setattr(synth, "_CHUNK_BYTES", chunk_bytes)
        chunks, checks = [], []

        class Blocks(np.ndarray):
            def min(self, *args, **kwargs):
                checks[-1].append(len(self))
                return super().min(*args, **kwargs)

        def in_float32_range(arr):
            checks.append([])
            return real_check(arr.view(Blocks))

        def write_trace_rows(path, shape, mpp, rate, rows):
            rows = list(rows)
            chunks.extend(map(len, rows))
            real_write(path, shape, mpp, rate, rows)

        real_check, real_write = synth._in_float32_range, io_formats.write_trace_rows
        monkeypatch.setattr(synth, "_in_float32_range", in_float32_range)
        monkeypatch.setattr(io_formats, "write_trace_rows", write_trace_rows)
        cfg, path = tmp_path / "run.cfg", tmp_path / "run.hocdvs"
        cfg.write_text(format_sim_config(trace_config(0.2, 0, fiber_points=7, vibration_point=3,
                                                      num_traces=10)))
        assert main(["simulate", "--config", str(cfg), "--out", str(path)]) == 0
        fed = []
        read_traces(path, digest=mock.Mock(update=lambda data: fed.append(bytes(data))))
        assert chunks == written
        assert [len(data) // 28 for data in fed[1:]] == read
        assert checks == [[rows] for rows in written] + [read]

    @pytest.mark.parametrize("cut", [1, 28, 29, 200])
    def test_payload_that_shrinks_during_the_read_is_io_error(self, tmp_path, monkeypatch, cut):
        """A file cut after its size was checked fails at the short chunk, which
        the message counts in bytes read."""
        path = tmp_path / "t.hocdvs"
        write_traces(path, small_matrix(np.ones((10, 7))))
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-cut])
        monkeypatch.setattr(synth, "_CHUNK_BYTES", 84)
        monkeypatch.setattr(io_formats.os, "fstat", lambda fd: mock.Mock(st_size=full))
        with pytest.raises(PersistenceError, match=f"payload is {280 - cut} bytes, header "
                                                   "promises 280"):
            read_traces(path)

    def test_huge_promise_fails_before_allocation(self, tmp_path):
        path = tmp_path / "t.hocdvs"
        path.write_bytes(struct.pack("<8sIIIddB", MAGIC, 1, 65535, 65535, 1.0, 1.0, 0))
        tracemalloc.start()
        try:
            with pytest.raises(PersistenceError,
                               match="payload is 0 bytes, header promises 17179344900"):
                read_traces(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the promised payload is 17 GB

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read traces from .*absent.hocdvs"):
            read_traces(tmp_path / "absent.hocdvs")

    @given(
        w=st.integers(1, 6),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_round_trips(self, tmp_path_factory, w, m, seed):
        rng = np.random.default_rng(seed)
        src = small_matrix(rng.uniform(-100.0, 100.0, size=(w, m)))
        path = tmp_path_factory.mktemp("rt") / "t.hocdvs"
        write_traces(path, src)
        out = read_traces(path)
        assert out.amplitudes.shape == (w, m)
        assert np.array_equal(out.amplitudes, src.amplitudes)


class TestProfileCsv:
    def test_line_count(self, tmp_path):
        prof = HocProfile(np.array([1.0, 2.0]), 1.0)
        path = tmp_path / "p.csv"
        export_profile_csv(prof, path)
        assert len(path.read_text().splitlines()) == 3

    def test_round_trip_and_positions(self, tmp_path):
        values = np.array([0.1234567891234, -5.5e-4, 3.0, 0.0])
        prof = HocProfile(values, 2.5)
        path = tmp_path / "p.csv"
        export_profile_csv(prof, path)
        positions, parsed = read_profile_csv(path)
        np.testing.assert_allclose(positions, np.arange(4) * 2.5, rtol=1e-9)
        np.testing.assert_allclose(parsed, values, rtol=1e-9, atol=1e-21)

    def test_numpy_scalar_spacing_exports_the_bytes_of_a_float(self, tmp_path):
        values = np.array([0.1234567891234, -5.5e-4, 3.0, 0.0])
        exported = []
        for mpp in (1.0, np.float64(1.0)):
            export_profile_csv(HocProfile(values, mpp), tmp_path / "p.csv")
            exported.append((tmp_path / "p.csv").read_bytes())
        assert exported[0] == exported[1]

    # (fiber points, meters per point); neighbours differ, and the float16 products
    # past 2048 m round where the float ones do not, so a stale column shows
    GEOMETRIES = [(1500, 1.0), (1500, 0.8), (3, 0.1), (11, 0.37), (7, 7.5e9), (5, 1),
                  (5, np.float64(1.0)), (3001, 0.5), (3001, np.float16(0.5))]

    @pytest.mark.parametrize("first, second", zip(GEOMETRIES, GEOMETRIES[1:] + GEOMETRIES[:1]),
                             ids=lambda g: f"{g[0]}x{type(g[1]).__name__}({g[1]})")
    def test_rows_match_per_row_rendering(self, tmp_path, first, second):
        """Each export of geometries A, B, A renders every row as it is, whatever
        position column the one before it left in the memo."""
        edge_values = np.array([0.1234567891234, -5.5e-4, -0.0, 0.0, 1e-300, -1e-300, 1e115,
                                -1e115, 3.0, -2.5e-12, 123456789012345.0])
        path = tmp_path / "p.csv"
        for points, mpp in (first, second, first):
            prof = HocProfile(np.resize(edge_values, points), mpp)
            export_profile_csv(prof, path)
            rows = "".join("%.12g,%.12g\n" % (idx * mpp, value)
                           for idx, value in enumerate(prof.values.tolist()))
            assert path.read_bytes() == ("position_m,value\n" + rows).encode()

    # piece edges, with integer and non-integer spacings
    PIECE_GEOMETRIES = [(4095, 0.37), (4096, 1.0), (4097, 2.5e-3), (8193, 0.8)]

    @pytest.mark.parametrize("first, second",
                             zip(PIECE_GEOMETRIES, PIECE_GEOMETRIES[1:] + PIECE_GEOMETRIES[:1]),
                             ids=lambda g: f"{g[0]}x{g[1]}")
    def test_pieces_match_per_row_rendering(self, tmp_path, first, second):
        assert io_formats._CSV_PIECE_ROWS == 4096
        rng = np.random.default_rng(first[0])
        path = tmp_path / "p.csv"
        for points, mpp in (first, second, first):
            prof = HocProfile(rng.standard_normal(points) * 10.0 ** rng.integers(-30, 30, points),
                              mpp)
            export_profile_csv(prof, path)
            rows = "".join("%.12g,%.12g\n" % (idx * mpp, value)
                           for idx, value in enumerate(prof.values.tolist()))
            assert path.read_bytes() == ("position_m,value\n" + rows).encode()

    def test_each_format_call_takes_at_most_one_piece(self, tmp_path, monkeypatch):
        sizes, templates = [], io_formats._row_templates

        class Template(str):
            def __mod__(self, values):
                sizes.append(len(values))
                return str.__mod__(self, values)

        monkeypatch.setattr(io_formats, "_row_templates",
                            lambda *geometry: tuple(map(Template, templates(*geometry))))
        for points in (1, 4096, 8193):
            sizes.clear()
            export_profile_csv(HocProfile(np.ones(points), 1.0), tmp_path / "p.csv")
            assert max(sizes) <= io_formats._CSV_PIECE_ROWS
            assert sum(sizes) == points
        assert sizes == [4096, 4096, 1]

    def test_write_failing_on_the_second_piece_leaves_no_file(self, tmp_path, monkeypatch):
        written = fail_text_write(monkeypatch, failing=3)  # header, first piece, second
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        existing.write_text("position_m,value\n0,1\n")
        for path in (fresh, existing):
            written.clear()
            with pytest.raises(PersistenceError, match="cannot write profile to .*No space"):
                export_profile_csv(HocProfile(np.ones(9000), 1.0), path)
            assert written[0] == len("position_m,value\n") and len(written) == 2
            assert not path.exists()

    def test_analyze_whose_profile_write_fails_exits_4_with_no_output(self, tmp_path,
                                                                      monkeypatch, capsys):
        config, traces = tmp_path / "run.cfg", tmp_path / "run.hocdvs"
        config.write_text(format_sim_config(trace_config(0.2, 0, fiber_points=5000,
                                                         num_traces=20)))
        assert main(["simulate", "--config", str(config), "--out", str(traces)]) == 0
        fail_text_write(monkeypatch, failing=3)
        out = tmp_path / "out"
        assert main(["analyze", "--traces", str(traces), "--method", "hoc", "--window", "20",
                     "--out", str(out)]) == PersistenceError.exit_code == 4
        assert "cannot write profile" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_header_line(self, tmp_path):
        prof = HocProfile(np.array([1.0]), 1.0)
        path = tmp_path / "p.csv"
        export_profile_csv(prof, path)
        assert path.read_text().splitlines()[0] == "position_m,value"

    @pytest.mark.parametrize("row", ["0,abc", "1.0", "x,2.5", "0,nan", "1,inf", "1,-inf",
                                     "nan,2.5", "inf,2.5"])
    def test_unparseable_row_names_path_and_line(self, tmp_path, row):
        """export_profile_csv writes only finite numbers, so a non-finite one is corrupt."""
        path = tmp_path / "p.csv"
        path.write_text(f"position_m,value\n0,1.5\n{row}\n")
        with pytest.raises(PersistenceError, match=re.escape(f"{path}: line 3 ")):
            read_profile_csv(path)


class TestReportJson:
    def make_report(self, sr=4.2):
        return DetectionReport(
            peak_index=1049,
            peak_position_m=1049.0,
            location_snr_db=33.25,
            spatial_resolution_m=sr,
            method=METHOD_MOVING_DIFFERENTIAL,
        )

    def test_schema_keys(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(path, self.make_report(), window=100, config_digest="abc123")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data) == {
            "method",
            "peak_index",
            "peak_position_m",
            "location_snr_db",
            "spatial_resolution_m",
            "window",
            "config_digest",
        }
        assert data["window"] == 100
        assert data["config_digest"] == "abc123"
        assert data["peak_index"] == 1049

    def test_absent_resolution_serializes_null(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(path, self.make_report(sr=None), window=100, config_digest="d")
        assert json.loads(path.read_text())["spatial_resolution_m"] is None

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        fail_text_write(monkeypatch, failing=2)
        path = tmp_path / "r.json"
        with pytest.raises(PersistenceError, match="cannot write report to .*No space"):
            write_report_json(path, self.make_report(), window=100, config_digest="d")
        assert not path.exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(a, self.make_report(), window=100, config_digest="d")
        write_report_json(b, self.make_report(), window=100, config_digest="d")
        assert a.read_bytes() == b.read_bytes()


def _write_trace_file(path, size):
    write_traces(path, small_matrix(np.arange(size * 7.0).reshape(size, 7) - 3.5))


def _write_profile(path, size):
    export_profile_csv(HocProfile(np.linspace(-1.0, 1.0, size), 0.5), path)


def _write_report(path, size):
    report = DetectionReport(peak_index=size, peak_position_m=size * 0.5, location_snr_db=12.5,
                             spatial_resolution_m=None, method=METHOD_MOVING_DIFFERENTIAL)
    write_report_json(path, report, window=size, config_digest="d" * size)


# Each io_formats writer as (file name, write(path, size)); a larger size writes a longer file.
WRITERS = {
    "traces": ("t.hocdvs", _write_trace_file),
    "profile": ("p.csv", _write_profile),
    "report": ("r.json", _write_report),
}


class TestRewriteInPlace:
    """Every writer rewrites an existing file in place, trims it to the written length,
    and on failure empties and removes the file it wrote."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_rewrite_over_a_longer_file_trims_it_in_place(self, tmp_path, writer):
        name, write = WRITERS[writer]
        fresh, path, link = tmp_path / f"fresh_{name}", tmp_path / name, tmp_path / "link"
        write(fresh, 3)
        write(path, 9000)
        os.link(path, link)
        inode, longer = path.stat().st_ino, path.stat().st_size
        write(path, 3)
        assert path.read_bytes() == link.read_bytes() == fresh.read_bytes()
        assert path.stat().st_ino == inode and path.stat().st_size < longer

    def test_trace_file_of_a_smaller_config_reads_back_exactly(self, tmp_path):
        path = tmp_path / "run.hocdvs"
        _write_trace_file(path, 500)
        src = small_matrix(np.arange(12.0).reshape(3, 4), mpp=0.25, rate=2000.0)
        write_traces(path, src)
        out = read_traces(path)
        assert out.amplitudes.tobytes() == src.amplitudes.tobytes()
        assert (out.meters_per_point, out.trace_rate_hz) == (0.25, 2000.0)

    def test_preset_rerun_over_longer_outputs_trims_them_in_place(self, tmp_path):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        names = ["fig1_asymmetry.csv", "run_meta.json"]
        run_preset("fig1_asymmetry", fresh, seeds=[0, 1])
        out.mkdir()
        inodes = {}
        for name in names:
            (out / name).write_bytes((fresh / name).read_bytes() + b"9" * 100_000)
            os.link(out / name, tmp_path / f"link_{name}")
            inodes[name] = (out / name).stat().st_ino
        run_preset("fig1_asymmetry", out, seeds=[0, 1])
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
            assert (tmp_path / f"link_{name}").read_bytes() == (fresh / name).read_bytes()
            assert (out / name).stat().st_ino == inodes[name]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_dev_null_is_a_target(self, writer):
        WRITERS[writer][1](os.devnull, 9000)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_dev_null_is_a_preset_target_through_a_symlink(self, tmp_path):
        for name in ("fig1_asymmetry.csv", "run_meta.json"):
            (tmp_path / name).symlink_to(os.devnull)
        run_preset("fig1_asymmetry", tmp_path, seeds=[0])
        assert stat.S_ISCHR(os.stat(tmp_path / "run_meta.json").st_mode)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_through_a_symlink_empties_and_removes_the_target(
            self, tmp_path, monkeypatch, writer):
        name, write = WRITERS[writer]
        target, link, hard = tmp_path / name, tmp_path / "link", tmp_path / "hard"
        write(target, 9000)
        link.symlink_to(target)
        os.link(target, hard)
        if writer == "traces":
            def chunks():
                yield np.ones((2, 3))  # still buffered when the next chunk fails
                raise ConfigError("chunk failed")

            with pytest.raises(ConfigError, match="chunk failed"):
                write_trace_rows(link, (4, 3), 1.0, 10000.0, chunks())
        else:
            fail_text_write(monkeypatch, failing=3)
            with pytest.raises(PersistenceError, match=f"cannot write {writer} to .*No space"):
                write(link, 9000)
        assert not target.exists() and link.is_symlink()
        assert hard.read_bytes() == b""

    def test_no_writer_opens_with_o_trunc(self, tmp_path, monkeypatch):
        """Truncating on open makes ext4 free a rewritten file's blocks and write it
        back at close; each writer opens once, creating, never truncating."""
        real_open, flags = os.open, {}

        def spied(path, mode_flags, *args, **kwargs):
            if os.path.dirname(path) == str(tmp_path):
                flags.setdefault(os.path.basename(path), []).append(mode_flags)
            return real_open(path, mode_flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spied)
        for name, write in WRITERS.values():
            write(tmp_path / name, 3)
        run_preset("fig1_asymmetry", tmp_path, seeds=[0])
        names = [name for name, _ in WRITERS.values()] + ["fig1_asymmetry.csv", "run_meta.json"]
        assert sorted(flags) == sorted(names)
        for name in names:
            [opened] = flags[name]
            assert opened & os.O_CREAT and not opened & os.O_TRUNC, name
