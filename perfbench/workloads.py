"""The three benchmark workloads: trace_file, long_fiber and presets.

Each workload is a closed loop with one client: `op(i, span)` runs op i
and returns when the program does. `setup_once()` is the set-up the run
times and repeats; `prepare()` is untimed work the checks need;
`check(i)` verifies op i's outputs outside the timing, and
`final_check()` the localization of all hoc reports in the run.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hocdvs import cli, experiments
from spans import null_span
from reference import (
    HEADER_BYTES,
    CheckFailed,
    Localization,
    check_hoc_profile,
    check_hoc_report,
    check_preset_csv,
    check_same_outputs,
    digest_tree,
    preset_rows,
    reference_hoc,
)

DUTIES = (0.1, 0.2, 0.3, 0.4)
PULSE_POINTS = 10
DRIVE_PERIOD = 14


class OpFailed(Exception):
    """The program returned a nonzero exit code for an op."""


def config_text(*, points: int, traces: int, event: int, duty: float, seed: int,
                phase: int) -> str:
    """A simulate config in the README's key = value form, at the paper's
    trace-scale settings (10-point pulse, 1 m points, 10 kHz trace rate,
    ~714 Hz drive, depth 0.25)."""
    values = {
        "fiber_points": points,
        "meters_per_point": 1.0,
        "noise_sigma": 0.02,
        "num_traces": traces,
        "pulse_width_points": PULSE_POINTS,
        "seed": seed,
        "sop_sigma": 0.005,
        "trace_rate_hz": 10000.0,
        "vibration.amplitude": 1.0,
        "vibration.duty": duty,
        "vibration.period_samples": DRIVE_PERIOD,
        "vibration.phase_samples": phase,
        "vibration_depth": 0.25,
        "vibration_point": event,
    }
    return "".join(f"{key} = {value!r}\n" for key, value in sorted(values.items()))


def run_cli(argv: list[str], span) -> None:
    """One in-process `hocdvs` call with stdout captured; nonzero exit fails the op."""
    with span(f"cli.{argv[0]}") as status, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
        if code:
            status["error"] = f"exit{code}"
    if code:
        raise OpFailed(f"hocdvs {' '.join(argv)} exited {code}")


def matrix_record(traces: int, points: int) -> dict:
    return {
        "traces": traces,
        "points": points,
        "file_bytes": HEADER_BYTES + 4 * traces * points,
        "float64_bytes": 8 * traces * points,
    }


class TraceFile:
    """Operator path at paper scale: simulate one 1500 x 100 file, then
    analyze it with hoc, mdiff and mavg at window 100."""

    POINTS, TRACES, EVENT, WINDOW = 1500, 100, 1049, 100
    METHODS = ("hoc", "mdiff", "mavg")
    SLOTS = 32  # distinct configs; op i uses slot i % SLOTS, so repeats are checked
    SETUP_REPEATS = 5

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.work = work
        rng = np.random.default_rng(seed)
        self.slots = []
        for k in range(self.SLOTS):
            cfg = config_text(
                points=self.POINTS, traces=self.TRACES, event=self.EVENT,
                duty=DUTIES[k % len(DUTIES)], seed=int(rng.integers(2**31)),
                phase=int(rng.integers(DRIVE_PERIOD)),
            )
            self.slots.append({"dir": work / f"slot{k:02d}", "config": cfg, "digests": None})
        self.samples_per_op = len(self.METHODS) * self.WINDOW * self.POINTS
        self.parts: dict[str, list[float]] = {"simulate": [], **{m: [] for m in self.METHODS}}
        self.localization = Localization(self.EVENT, PULSE_POINTS)

    def setup_once(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        for slot in self.slots:
            slot["dir"].mkdir(parents=True)
            (slot["dir"] / "run.cfg").write_text(slot["config"], encoding="utf-8")
        self.op(0, null_span)

    def prepare(self) -> None:
        for times in self.parts.values():
            times.clear()

    def _commands(self, slot) -> list[tuple[str, list[str]]]:
        d = slot["dir"]
        trace = str(d / "run.hocdvs")
        commands = [("simulate", ["simulate", "--config", str(d / "run.cfg"), "--out", trace])]
        for method in self.METHODS:
            commands.append((method, ["analyze", "--traces", trace, "--method", method,
                                      "--window", str(self.WINDOW), "--out", str(d / "out")]))
        return commands

    def op(self, i: int, span) -> None:
        for part, argv in self._commands(self.slots[i % self.SLOTS]):
            start = time.perf_counter()
            run_cli(argv, span)
            self.parts[part].append(time.perf_counter() - start)

    def check(self, i: int) -> None:
        slot = self.slots[i % self.SLOTS]
        digests = digest_tree(slot["dir"])
        if slot["digests"] is not None:
            check_same_outputs(slot["digests"], digests, slot["dir"].name)
            return
        out = slot["dir"] / "out"
        ref = reference_hoc(slot["dir"] / "run.hocdvs", self.WINDOW)
        check_hoc_profile(out / "profile_hoc.csv", ref)
        check_hoc_report(out / "report_hoc.json", self.localization, ref)
        slot["digests"] = digests

    def final_check(self) -> None:
        self.localization.check("trace_file")

    def detail(self) -> dict:
        return {f"{part}_ms.p50": 1e3 * float(np.median(t)) for part, t in self.parts.items() if t}

    def env(self) -> dict:
        return {"matrix": matrix_record(self.TRACES, self.POINTS), "configs": self.SLOTS}


class LongFiber:
    """Bandwidth-bound path: one large file made in set-up, each op is
    `analyze --method hoc` over all of its traces."""

    # 10^5 points as in the ROADMAP's large point; 500 traces instead of
    # 10^3 keeps the float64 matrix (400 MB) above the 300 MiB L3 while a
    # run fits the time budget.
    POINTS, TRACES = 100_000, 500
    SMOKE_POINTS, SMOKE_TRACES = 2_000, 60
    SETUP_REPEATS = 3

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.work = work
        self.points, self.traces = (
            (self.SMOKE_POINTS, self.SMOKE_TRACES) if smoke else (self.POINTS, self.TRACES)
        )
        rng = np.random.default_rng(seed)
        self.event = int(rng.integers(self.points // 10, self.points - self.points // 10))
        self.config = config_text(
            points=self.points, traces=self.traces, event=self.event,
            duty=DUTIES[int(rng.integers(len(DUTIES)))], seed=int(rng.integers(2**31)),
            phase=int(rng.integers(DRIVE_PERIOD)),
        )
        self.trace_path = work / "long.hocdvs"
        self.out = work / "out"
        self.argv = ["analyze", "--traces", str(self.trace_path), "--method", "hoc",
                     "--window", str(self.traces), "--out", str(self.out)]
        self.samples_per_op = self.traces * self.points
        self.reference = None
        self.digests = None
        self.localization = Localization(self.event, PULSE_POINTS)

    def setup_once(self) -> None:
        """Write the file from a child `hocdvs simulate`, so its memory
        never counts toward this process's peak RSS."""
        self.work.mkdir(parents=True, exist_ok=True)
        config = self.work / "long.cfg"
        config.write_text(self.config, encoding="utf-8")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        subprocess.run(
            [sys.executable, "-m", "hocdvs.cli", "simulate", "--config", str(config),
             "--out", str(self.trace_path)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=150,
        )

    def prepare(self) -> None:
        self.reference = reference_hoc(self.trace_path, self.traces)

    def op(self, i: int, span) -> None:
        run_cli(self.argv, span)

    def check(self, i: int) -> None:
        digests = digest_tree(self.out)
        if self.digests is not None:
            check_same_outputs(self.digests, digests, "long_fiber")
            return
        check_hoc_profile(self.out / "profile_hoc.csv", self.reference)
        check_hoc_report(self.out / "report_hoc.json", self.localization, self.reference)
        self.digests = digests

    def final_check(self) -> None:
        self.localization.check("long_fiber")

    def detail(self) -> dict:
        return {}

    def env(self) -> dict:
        return {"matrix": matrix_record(self.traces, self.points), "event_point": self.event}


class Presets:
    """Researcher path: one pass of run_preset over the four presets, each
    with a seed list of its default length offset by the workload seed."""

    NAMES = ("fig1_asymmetry", "fig2a_length_sweep", "fig2b_snr_sweep", "e2e_localization")
    SEEDS = {"fig1_asymmetry": 50, "fig2a_length_sweep": 200,
             "fig2b_snr_sweep": 200, "e2e_localization": 50}
    WARMUP_SEEDS = 2
    SETUP_REPEATS = 3
    E2E_EVENT = 1049

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.work = work
        self.seeds = {}
        for name in self.NAMES:
            count = self.WARMUP_SEEDS if smoke else self.SEEDS[name]
            self.seeds[name] = tuple(range(seed * count, (seed + 1) * count))
        n = {name: len(s) for name, s in self.seeds.items()}
        # Samples reduced per pass, from the README's documented preset sizes:
        # 6 sequences of 99947 samples per fig1 seed; lengths 20..240 (sum 500)
        # at 4 duties for fig2a; 5 SNRs x 4 duties at length 120 for fig2b;
        # 100 x 1500 traces at 4 duties per e2e seed, plus one report rerun.
        self.samples_per_op = (
            n["fig1_asymmetry"] * 6 * 99947
            + n["fig2a_length_sweep"] * 4 * 500
            + n["fig2b_snr_sweep"] * 4 * 5 * 120
            + (n["e2e_localization"] + 1) * 4 * 100 * 1500
        )
        self.parts: dict[str, list[float]] = {name: [] for name in self.NAMES}
        self.digests = None
        self.localization = Localization(self.E2E_EVENT, PULSE_POINTS)

    def setup_once(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        for name in self.NAMES:
            experiments.run_preset(name, self.work / "warmup" / name,
                                   seeds=self.seeds[name][: self.WARMUP_SEEDS])

    def prepare(self) -> None:
        pass

    def op(self, i: int, span) -> None:
        for name in self.NAMES:
            start = time.perf_counter()
            with span(f"experiments.run_preset.{name}"):
                experiments.run_preset(name, self.work / "out" / name, seeds=self.seeds[name])
            self.parts[name].append(time.perf_counter() - start)

    def check(self, i: int) -> None:
        out = self.work / "out"
        digests = digest_tree(out)
        if self.digests is not None:
            check_same_outputs(self.digests, digests, "presets")
            return
        for name in self.NAMES:
            if not (out / name / "run_meta.json").is_file():
                raise CheckFailed(f"{name} wrote no run_meta.json")
            rows = check_preset_csv(out / name / f"{name}.csv",
                                    preset_rows(name, len(self.seeds[name])))
            if name == "e2e_localization":
                for row in rows:  # duty, seed, peak_index, ...
                    self.localization.record(int(row[2]))
        reports = sorted((out / "e2e_localization").glob("report_duty*.json"))
        if len(reports) != len(DUTIES):
            raise CheckFailed(f"e2e_localization wrote {len(reports)} per-duty reports")
        for report in reports:
            check_hoc_report(report, self.localization)
        self.digests = digests

    def final_check(self) -> None:
        self.localization.check("e2e_localization")

    def detail(self) -> dict:
        return {f"preset_s.{name}": float(np.median(t)) for name, t in self.parts.items() if t}

    def env(self) -> dict:
        return {"seeds_per_preset": {name: len(s) for name, s in self.seeds.items()},
                "samples_per_op": self.samples_per_op}


WORKLOADS = {"trace_file": TraceFile, "long_fiber": LongFiber, "presets": Presets}
