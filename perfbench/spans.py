"""Spans for the traced run, recorded from the benchmark's own code.

`traced()` replaces every public function of the hocdvs layer modules with
a wrapper in each module namespace that refers to it, so calls made
through `from .stats import center` style imports are caught too. Each
span records name, start, end, parent span and op id; its memory peak
comes from `tracemalloc`, which only the traced run starts. Spans stay in
memory until the run writes them out with `save()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYER_MODULES = ("cli", "experiments", "detect", "io_formats", "synth", "stats")

# The benchmark opens these spans itself, named by subcommand or preset.
SPANNED_BY_BENCHMARK = {"cli.main", "experiments.run_preset"}

# Bytes a call moves, computed from array sizes (not measured traffic).
_NBYTES = {
    "io_formats.read_traces": lambda args, result: result.amplitudes.size * 4,
    "io_formats.write_traces": lambda args, result: args[1].amplitudes.size * 4,
    "detect.hoc_profile": lambda args, result: args[0].amplitudes.nbytes,
}

_COLUMNS = ("name", "start_ns", "end_ns", "parent", "op", "peak_bytes", "nbytes", "error")


@contextmanager
def null_span(name):
    """Span stand-in for untraced ops; the yielded dict takes an 'error'."""
    yield {}


class Tracer:
    """In-memory span recorder. Spans nest strictly (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows: list[list[int]] = []
        self._open: list[list[int]] = []  # [row, memory at start, highest memory seen]
        self.op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], peak)
        tracemalloc.reset_peak()
        row = len(self.rows)
        parent = self._open[-1][0] if self._open else -1
        self.rows.append([self._id(name), 0, 0, parent, self.op, 0, 0, -1])
        self._open.append([row, current, current])
        self.rows[row][1] = time.perf_counter_ns()
        return row

    def end(self, *, nbytes: int = 0, error: str | None = None) -> None:
        stop = time.perf_counter_ns()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        row, start_memory, highest = self._open.pop()
        highest = max(highest, peak)
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], highest)
        record = self.rows[row]
        record[2] = stop
        record[5] = highest - start_memory
        record[6] = nbytes
        record[7] = -1 if error is None else self._id(error)

    @contextmanager
    def span(self, name: str):
        """Context-manager span; set status['error'] to mark a failed call."""
        self.begin(name)
        status: dict = {}
        try:
            yield status
        except BaseException as exc:
            self.end(error=type(exc).__name__)
            raise
        self.end(error=status.get("error"))

    def table(self) -> dict[str, np.ndarray]:
        arr = np.array(self.rows, dtype=np.int64).reshape(-1, len(_COLUMNS))
        return {col: arr[:, i] for i, col in enumerate(_COLUMNS)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.table())


def _wrap(tracer: Tracer, fn, name: str):
    nbytes = _NBYTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(error=type(exc).__name__)
            raise
        tracer.end(nbytes=nbytes(args, result) if nbytes else 0)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Wrap the layer functions and run tracemalloc; undo both on exit."""
    wrappers = {}
    patched = []
    for short in LAYER_MODULES:
        module = importlib.import_module(f"hocdvs.{short}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("hocdvs."):
                continue
            name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
            if name in SPANNED_BY_BENCHMARK:
                continue
            if obj not in wrappers:
                wrappers[obj] = _wrap(tracer, obj, name)
            setattr(module, attr, wrappers[obj])
            patched.append((module, attr, obj))
    tracemalloc.start()
    try:
        yield tracer
    finally:
        tracemalloc.stop()
        for module, attr, obj in patched:
            setattr(module, attr, obj)


# Per-layer metrics: (metric, span names, kind). Kinds:
#   ms        median duration per call
#   self_ms   median of duration minus direct child spans, per call
#   calls     calls per traced op
#   peak_mb   median per-call tracemalloc peak above the call's start
#   mb_s      computed bytes / busy time (MB/s); gb_s the same in GB/s
#   raised:X  calls that raised X / calls (waste or failure ratio)
#   failed    calls that failed (exception or nonzero exit) / calls
# A layer that a workload does not call reports 0 for every kind.
PER_LAYER = [
    ("cli.analyze.self_ms", ("cli.analyze",), "self_ms"),
    ("cli.simulate.self_ms", ("cli.simulate",), "self_ms"),
    ("cli.calls", ("cli.analyze", "cli.simulate"), "calls"),
    ("cli.nonzero_exit_ratio", ("cli.analyze", "cli.simulate"), "failed"),
    ("synth.synth_traces.ms", ("synth.synth_traces",), "ms"),
    ("synth.synth_traces.peak_mb", ("synth.synth_traces",), "peak_mb"),
    ("synth.gen_truncated_gaussian.ms", ("synth.gen_truncated_gaussian",), "ms"),
    ("synth.asymmetrize.ms", ("synth.asymmetrize",), "ms"),
    ("synth.mix_at_snr1.ms", ("synth.mix_at_snr1",), "ms"),
    ("synth.gen_square_wave.calls", ("synth.gen_square_wave",), "calls"),
    ("stats.third_cumulant_zero_lag.ms", ("stats.third_cumulant_zero_lag",), "ms"),
    ("stats.third_cumulant_zero_lag.calls", ("stats.third_cumulant_zero_lag",), "calls"),
    ("stats.center.ms", ("stats.center",), "ms"),
    ("stats.snr2_db.ms", ("stats.snr2_db",), "ms"),
    ("stats.snr2_db.calls", ("stats.snr2_db",), "calls"),
    ("stats.snr2_db.degenerate_ratio", ("stats.snr2_db",),
     "raised:DegenerateNoiseReferenceError"),
    ("experiments.mean_cube.ms", ("experiments.mean_cube",), "ms"),
    ("experiments.snr2_sample.ms", ("experiments.snr2_sample",), "ms"),
    ("experiments.snr2_sample.calls", ("experiments.snr2_sample",), "calls"),
    ("experiments.analyze_traces.self_ms", ("experiments.analyze_traces",), "self_ms"),
    ("experiments.run_preset.fig1_asymmetry.ms",
     ("experiments.run_preset.fig1_asymmetry",), "ms"),
    ("experiments.run_preset.fig2a_length_sweep.ms",
     ("experiments.run_preset.fig2a_length_sweep",), "ms"),
    ("experiments.run_preset.fig2b_snr_sweep.ms",
     ("experiments.run_preset.fig2b_snr_sweep",), "ms"),
    ("experiments.run_preset.e2e_localization.ms",
     ("experiments.run_preset.e2e_localization",), "ms"),
    ("detect.detrend.ms", ("detect.detrend",), "ms"),
    ("detect.detrend.peak_mb", ("detect.detrend",), "peak_mb"),
    ("detect.hoc_profile.ms", ("detect.hoc_profile",), "ms"),
    ("detect.hoc_profile.gb_s_computed", ("detect.hoc_profile",), "gb_s"),
    ("detect.moving_differential_profile.ms", ("detect.moving_differential_profile",), "ms"),
    ("detect.moving_average_profile.ms", ("detect.moving_average_profile",), "ms"),
    ("detect.locate_peak.ms", ("detect.locate_peak",), "ms"),
    ("detect.location_snr.ms", ("detect.location_snr",), "ms"),
    ("detect.spatial_resolution.ms", ("detect.spatial_resolution",), "ms"),
    ("detect.spatial_resolution.calls", ("detect.spatial_resolution",), "calls"),
    ("detect.spatial_resolution.no_edge_ratio", ("detect.spatial_resolution",),
     "raised:NoEdgeError"),
    ("io_formats.read_traces.ms", ("io_formats.read_traces",), "ms"),
    ("io_formats.read_traces.mb_s", ("io_formats.read_traces",), "mb_s"),
    ("io_formats.read_traces.peak_mb", ("io_formats.read_traces",), "peak_mb"),
    ("io_formats.write_traces.ms", ("io_formats.write_traces",), "ms"),
    ("io_formats.write_traces.mb_s", ("io_formats.write_traces",), "mb_s"),
    ("io_formats.export_profile_csv.ms", ("io_formats.export_profile_csv",), "ms"),
    ("io_formats.write_report_json.ms", ("io_formats.write_report_json",), "ms"),
]

UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "calls": "calls/op",
    "peak_mb": "MB",
    "mb_s": "MB/s",
    "gb_s": "GB/s",
    "failed": "ratio",
}


def unit_of(kind: str) -> str:
    return "ratio" if kind.startswith("raised:") else UNITS[kind]


def layer_metrics(tracer: Tracer, traced_ops: int) -> dict[str, float]:
    """Every PER_LAYER metric from the recorded spans."""
    t = tracer.table()
    duration = t["end_ns"] - t["start_ns"]
    has_parent = t["parent"] >= 0
    child_ns = np.bincount(
        t["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
    )
    self_ns = duration - child_ns
    ids = tracer._ids
    out = {}
    for metric, span_names, kind in PER_LAYER:
        sel = np.isin(t["name"], [ids[n] for n in span_names if n in ids])
        n = int(sel.sum())
        if n == 0:
            out[metric] = 0.0
        elif kind == "ms":
            out[metric] = float(np.median(duration[sel])) / 1e6
        elif kind == "self_ms":
            out[metric] = float(np.median(self_ns[sel])) / 1e6
        elif kind == "calls":
            out[metric] = n / traced_ops
        elif kind == "peak_mb":
            out[metric] = float(np.median(t["peak_bytes"][sel])) / 1e6
        elif kind in ("mb_s", "gb_s"):
            rate = float(t["nbytes"][sel].sum()) / (float(duration[sel].sum()) / 1e9)
            out[metric] = rate / (1e6 if kind == "mb_s" else 1e9)
        elif kind == "failed":
            out[metric] = int((t["error"][sel] >= 0).sum()) / n
        else:
            error_id = ids.get(kind.partition(":")[2], -2)
            out[metric] = int((t["error"][sel] == error_id).sum()) / n
    return out
