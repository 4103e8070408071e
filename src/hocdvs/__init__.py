"""Distributed-vibration-sensing toolkit built on third-order cumulants.

Detects and localizes non-Gaussian vibration events in (simulated or
recorded) fiber backscattering trace matrices: symmetric noise averages
out of the per-point mean-cube statistic while a skewed drive does not.

A name is exported here only if the CLI or an experiment preset reaches
it, or an acceptance check calls it; tests/test_exports.py enforces the
rule.
"""

from .detect import (
    METHOD_HOC,
    METHOD_MOVING_AVERAGE,
    METHOD_MOVING_DIFFERENTIAL,
    DetectionReport,
    HocProfile,
    hoc_profile,
    locate_peak,
    location_snr,
    moving_average_profile,
    moving_differential_profile,
    spatial_resolution,
)
from .io_formats import (
    export_profile_csv,
    read_profile_csv,
    read_traces,
    write_report_json,
    write_traces,
)
from .stats import (
    Sequence,
    center,
    third_cumulant_lagged,
    third_cumulant_zero_lag,
)
from .synth import (
    SimConfig,
    SquareWaveSpec,
    TraceMatrix,
    asymmetrize,
    config_digest,
    format_sim_config,
    gen_square_wave,
    gen_truncated_gaussian,
    load_sim_config,
    parse_sim_config,
    synth_traces,
)

__version__ = "0.1.0"

__all__ = [
    "DetectionReport",
    "HocProfile",
    "METHOD_HOC",
    "METHOD_MOVING_AVERAGE",
    "METHOD_MOVING_DIFFERENTIAL",
    "Sequence",
    "SimConfig",
    "SquareWaveSpec",
    "TraceMatrix",
    "asymmetrize",
    "center",
    "config_digest",
    "export_profile_csv",
    "format_sim_config",
    "gen_square_wave",
    "gen_truncated_gaussian",
    "hoc_profile",
    "load_sim_config",
    "locate_peak",
    "location_snr",
    "moving_average_profile",
    "moving_differential_profile",
    "parse_sim_config",
    "read_profile_csv",
    "read_traces",
    "spatial_resolution",
    "synth_traces",
    "third_cumulant_lagged",
    "third_cumulant_zero_lag",
    "write_report_json",
    "write_traces",
]
