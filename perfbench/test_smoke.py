"""Smoke checks of the benchmark at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Every workload must emit every metric BENCHMARK.json names, in both
modes; a wrong program must fail the run; a directory without the
program's sources must exit nonzero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_wrong_profile_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path, with_sources=True)
    with open(root / "src" / "hocdvs" / "detect.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_exact_hoc_profile = hoc_profile\n\n"
            "def hoc_profile(traces, window):\n"
            "    import dataclasses\n"
            "    profile = _exact_hoc_profile(traces, window)\n"
            "    return dataclasses.replace(profile, values=profile.values * 1.001)\n"
        )
    proc = run(root, "trace_file", 0)
    assert proc.returncode == 1
    assert last_json(proc.stdout)["correct"] is False


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = run(root, "trace_file", 0)
    assert proc.returncode != 0
    assert last_json(proc.stdout) is None
