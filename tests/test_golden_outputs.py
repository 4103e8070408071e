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
import tempfile
from pathlib import Path

import numpy as np

from hocdvs import cli, experiments
from hocdvs.synth import format_sim_config

MANIFEST = Path(__file__).with_name("golden_outputs.json")

# Each simulated file: overrides of trace_config(0.2, 0), then its analyze runs as
# (method alias, window). "large" is 300 x 1500 float32, over 1 MiB, so the digest
# thread and the profile helpers run; its event at 512 lies across a profile block edge.
SIMULATIONS = {
    "trace": ({}, [("hoc", 100), ("mdiff", 100), ("mavg", 100), ("hoc", 50)]),
    "large": ({"num_traces": 300, "vibration_point": 512},
              [("hoc", 300), ("mdiff", 300), ("mavg", 300)]),
    "point0": ({"vibration_point": 0}, [("hoc", 100)]),
}


def _run_outputs(root: Path) -> None:
    """Write every covered output under root, each case in its own directory."""
    for name in experiments.PRESETS:
        experiments.run_preset(name, root / name)
    assert cli.main(["experiment", "--preset", "e2e_localization",
                     "--out", str(root / "e2e_seeds_50_99"), "--seeds", "50..99"]) == 0
    experiments.run_preset("e2e_localization", root / "e2e_seeds_3_0_2_49_7", [3, 0, 2, 49, 7])
    for name, (overrides, analyses) in SIMULATIONS.items():
        case = root / name
        case.mkdir()
        config = case / "run.cfg"
        config.write_text(format_sim_config(experiments.trace_config(0.2, 0, **overrides)))
        traces = case / "run.hocdvs"
        assert cli.main(["simulate", "--config", str(config), "--out", str(traces)]) == 0
        for method, window in analyses:
            out = case / f"{method}_w{window}"
            assert cli.main(["analyze", "--traces", str(traces), "--method", method,
                             "--window", str(window), "--out", str(out)]) == 0


def output_digests(root: Path) -> dict[str, str]:
    """Run every covered case under root; map each output's relative path to its sha256."""
    with contextlib.redirect_stdout(io.StringIO()):
        _run_outputs(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_every_output_matches_the_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    golden, digests = manifest["files"], output_digests(tmp_path)
    changed = sorted(
        name for name in golden.keys() | digests.keys() if golden.get(name) != digests.get(name)
    )
    assert not changed, (
        f"outputs differ from {MANIFEST.name} (made with numpy {manifest['numpy']}, "
        f"running numpy {np.__version__}): {changed}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = output_digests(Path(tmp))
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "files": files}, indent=2,
                                   sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {MANIFEST}")
