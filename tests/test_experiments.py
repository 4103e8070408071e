import json

import numpy as np
import pytest

from hocdvs.errors import ConfigError
from hocdvs.experiments import (
    ASYMMETRY_INTERVALS,
    DUTY_CYCLES,
    SWEEP_LENGTHS,
    asymmetry_sweep,
    derive_seed,
    localization_sweep,
    run_preset,
    snr2_sample,
    trace_config,
)
from hocdvs.stats import Sequence, mean_cube
from hocdvs.synth import config_digest


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, 1) == derive_seed(3, 1)
    assert derive_seed(3, 1) != derive_seed(3, 2)
    assert derive_seed(3, 1) != derive_seed(4, 1)


def test_mean_cube_is_raw_third_moment():
    x = Sequence(np.array([1.0, 2.0, -1.0]))
    assert mean_cube(x) == pytest.approx((1.0 + 8.0 - 1.0) / 3.0)


def test_snr2_sample_deterministic():
    assert snr2_sample(0.2, 120, 0.0, 9) == snr2_sample(0.2, 120, 0.0, 9)


def test_trace_config_overrides():
    cfg = trace_config(0.3, seed=2, noise_sigma=0.0, **{"vibration.period_samples": 20})
    assert cfg.noise_sigma == 0.0
    assert cfg.vibration.period_samples == 20
    assert cfg.vibration.duty == 0.3
    assert config_digest(cfg) != config_digest(trace_config(0.3, seed=2))


def test_asymmetry_sweep_shape_and_base_column():
    table = asymmetry_sweep(range(3), n=20000)
    assert table.shape == (3, 1 + len(ASYMMETRY_INTERVALS))
    # the base sequence is symmetric, so its raw third moment is small
    assert np.all(np.abs(table[:, 0]) < 0.1)
    # the widest mirrored interval dominates every seed
    assert np.all(table[:, 1] > table[:, 2:].max(axis=1))


@pytest.mark.parametrize("n", [20000, 20001])
def test_asymmetry_sweep_base_is_exactly_symmetric(n):
    table = asymmetry_sweep(range(20), n=n)
    # every draw is paired with its negation (odd n adds one 0.0), so the
    # base mean cube is rounding residue; one unpaired draw would leave ~1e-4
    assert np.all(np.abs(table[:, 0]) <= 1e-14)
    # each mirrored interval then induces a strictly positive mean cube
    assert np.all(table[:, 1:] > 0.0)


def test_localization_sweep_rows():
    rows = localization_sweep(seeds=[0, 1], duties=(0.2,))
    assert len(rows) == 2
    for duty, seed, report in rows:
        assert duty == 0.2
        assert abs(report.peak_index - 1049) <= 10


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset 'fig3_mystery'"):
        run_preset("fig3_mystery", "/tmp/never")


def test_fig1_preset_emits_ordered_csv(tmp_path):
    paths = run_preset("fig1_asymmetry", tmp_path, seeds=range(3))
    csv_path = tmp_path / "fig1_asymmetry.csv"
    assert csv_path in paths
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k_index,mean_c3,std_c3"
    assert len(lines) == 7
    means = [float(line.split(",")[1]) for line in lines[1:]]
    # K2 dominates and the asymmetrized means decrease toward K6
    assert means[1] > means[2] > means[3] > means[4] > means[5]
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["seeds"] == [0, 1, 2]


def test_fig2a_preset_rows(tmp_path):
    run_preset("fig2a_length_sweep", tmp_path, seeds=range(5))
    lines = (tmp_path / "fig2a_length_sweep.csv").read_text().splitlines()
    assert lines[0] == "duty,length,mean_snr2_db,std_snr2_db"
    assert len(lines) == 1 + len(DUTY_CYCLES) * len(SWEEP_LENGTHS)


def test_e2e_preset_reports(tmp_path):
    run_preset("e2e_localization", tmp_path, seeds=range(2))
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert set(meta["mean_location_snr_db"]) == {"0.1", "0.2", "0.3", "0.4"}
    assert len(meta["location_snr_ordering"]) == 4
    for duty in (10, 20, 30, 40):
        report = json.loads((tmp_path / f"report_duty{duty}.json").read_text())
        assert report["method"] == "hoc"
        assert abs(report["peak_index"] - 1049) <= 10
