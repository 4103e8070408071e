"""Every output's sha256 against the committed manifest `golden_outputs.json`.

The manifest maps each output file, by its path under the run directory, to
its sha256, and records the numpy version it was made with. On another numpy
a mismatch is reported as an output change like any other. After a change
that means to move outputs, regenerate it from the repository root with

    PYTHONPATH=src python tests/test_golden_outputs.py

and list each changed entry and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from hocdvs import cli, experiments, synth
from hocdvs.synth import format_sim_config

MANIFEST = Path(__file__).with_name("golden_outputs.json")

# Each simulated file: overrides of trace_config(0.2, 0), then its analyze runs as
# (method alias, window). "large" is 300 x 1500 float32, over 1 MiB, so the digest
# thread and the profile helpers run; its event at 512 lies across a profile block edge.
# "long" is 100 x 9000: its 3.6 MB payload spans four range-check blocks, simulate draws
# its eight chunks' normals one chunk ahead on a second usable CPU, and each profile CSV
# spans three write pieces (4096 + 4096 + 808 rows).
SIMULATIONS = {
    "trace": ({}, [("hoc", 100), ("mdiff", 100), ("mavg", 100), ("hoc", 50)]),
    "large": ({"num_traces": 300, "vibration_point": 512},
              [("hoc", 300), ("mdiff", 300), ("mavg", 300)]),
    "long": ({"fiber_points": 9000}, [("hoc", 100), ("mdiff", 100), ("mavg", 100)]),
    "point0": ({"vibration_point": 0}, [("hoc", 100)]),
}


def _run_outputs(root: Path) -> None:
    """Write every covered output under root, each case in its own directory."""
    for name in experiments.PRESETS:
        experiments.run_preset(name, root / name)
    assert cli.main(["experiment", "--preset", "e2e_localization",
                     "--out", str(root / "e2e_seeds_50_99"), "--seeds", "50..99"]) == 0
    experiments.run_preset("e2e_localization", root / "e2e_seeds_3_0_2_49_7", [3, 0, 2, 49, 7])
    for name in SIMULATIONS:
        _run_case(root / name, name)


def _run_case(case: Path, name: str) -> None:
    """Write one SIMULATIONS case's config, trace file and analyses under case."""
    overrides, analyses = SIMULATIONS[name]
    case.mkdir(exist_ok=True)
    config = case / "run.cfg"
    config.write_text(format_sim_config(experiments.trace_config(0.2, 0, **overrides)))
    traces = case / "run.hocdvs"
    assert cli.main(["simulate", "--config", str(config), "--out", str(traces)]) == 0
    for method, window in analyses:
        out = case / f"{method}_w{window}"
        assert cli.main(["analyze", "--traces", str(traces), "--method", method,
                         "--window", str(window), "--out", str(out)]) == 0


def _file_digests(root: Path) -> dict[str, str]:
    """Map each file under root, by its relative path, to its sha256."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def output_digests(root: Path) -> dict[str, str]:
    """Run every covered case under root; map each output's relative path to its sha256."""
    with contextlib.redirect_stdout(io.StringIO()):
        _run_outputs(root)
    return _file_digests(root)


def _assert_golden(golden: dict[str, str], digests: dict[str, str], numpy_version: str) -> None:
    changed = sorted(
        name for name in golden.keys() | digests.keys() if golden.get(name) != digests.get(name)
    )
    assert not changed, (
        f"outputs differ from {MANIFEST.name} (made with numpy {numpy_version}, "
        f"running numpy {np.__version__}): {changed}"
    )


def test_every_output_matches_the_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    _assert_golden(manifest["files"], output_digests(tmp_path), manifest["numpy"])


def test_sweeps_on_one_usable_cpu_match_the_golden_manifest(tmp_path, monkeypatch):
    # fig1 and e2e split their seeds over the usable CPUs, and simulate draws the "long"
    # case's normals a chunk ahead on a second one; on one CPU each runs whole
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 1)
    cases = {"fig1_asymmetry": ("fig1_asymmetry", None),
             "e2e_localization": ("e2e_localization", None),
             "e2e_seeds_3_0_2_49_7": ("e2e_localization", [3, 0, 2, 49, 7])}
    for case, (preset, seeds) in cases.items():
        experiments.run_preset(preset, tmp_path / case, seeds)
    case = tmp_path / "long"
    case.mkdir()
    (case / "run.cfg").write_text(format_sim_config(
        experiments.trace_config(0.2, 0, **SIMULATIONS["long"][0])))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(case / "run.cfg"),
                         "--out", str(case / "run.hocdvs")]) == 0
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    golden = {name: digest for name, digest in manifest["files"].items()
              if name.partition("/")[0] in cases or name in ("long/run.cfg", "long/run.hocdvs")}
    _assert_golden(golden, _file_digests(tmp_path), manifest["numpy"])


def test_trace_scale_cases_rewritten_over_long_outputs_match_the_golden_manifest(tmp_path):
    # each trace-scale case first holds the "long" case's outputs, all longer, at its paths
    with contextlib.redirect_stdout(io.StringIO()):
        _run_case(tmp_path / "long", "long")
        cases = [name for name in SIMULATIONS if name != "long"]
        for name in cases:
            case = tmp_path / name
            case.mkdir()
            shutil.copy(tmp_path / "long" / "run.hocdvs", case / "run.hocdvs")
            for method, window in SIMULATIONS[name][1]:
                shutil.copytree(tmp_path / "long" / f"{method}_w100",
                                case / f"{method}_w{window}")
            before = {path: path.stat() for path in case.rglob("*")}
            assert len(before) == 1 + 3 * len(SIMULATIONS[name][1])  # a trace file, then dirs
            _run_case(case, name)
            for path, old in before.items():
                assert path.stat().st_ino == old.st_ino, path
                if path.suffix in (".hocdvs", ".csv"):
                    assert path.stat().st_size < old.st_size, path
    shutil.rmtree(tmp_path / "long")
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    golden = {name: digest for name, digest in manifest["files"].items()
              if name.partition("/")[0] in cases}
    _assert_golden(golden, _file_digests(tmp_path), manifest["numpy"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = output_digests(Path(tmp))
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "files": files}, indent=2,
                                   sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {MANIFEST}")
