import json
import re
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
from hocdvs.experiments import trace_config
from hocdvs.io_formats import HEADER_SIZE, MAGIC, write_trace_rows
from hocdvs.synth import format_sim_config


def small_matrix(rows, mpp=1.0, rate=10000.0):
    return TraceMatrix(np.asarray(rows, dtype=float), mpp, rate)


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
        included), and the amplitudes it returns are the payload's bytes, so
        the caller's digest of the two sees every byte of the file."""
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
            assert fed == [bytes(blob[:HEADER_SIZE])]
            assert b"".join(fed) + out.amplitudes.tobytes() == bytes(blob)

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

    @pytest.mark.parametrize("mpp", [1.0, 0.37])
    def test_rows_match_per_row_rendering(self, tmp_path, mpp):
        values = np.array([0.1234567891234, -5.5e-4, -0.0, 0.0, 1e-300, -1e-300, 1e115,
                           -1e115, 3.0, -2.5e-12, 123456789012345.0])
        prof = HocProfile(values, mpp)
        path = tmp_path / "p.csv"
        export_profile_csv(prof, path)
        rows = [f"{idx * mpp:.12g},{value:.12g}" for idx, value in enumerate(prof.values)]
        assert path.read_bytes() == ("position_m,value\n" + "\n".join(rows) + "\n").encode()

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

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(a, self.make_report(), window=100, config_digest="d")
        write_report_json(b, self.make_report(), window=100, config_digest="d")
        assert a.read_bytes() == b.read_bytes()
