"""Command-line entry point.

Exit codes: 0 success, 2 config/usage error (including a request too
large for the memory available), 3 no detection (no peak, a background
that is exactly zero, or a location SNR below --min-snr-db), 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import sys
from pathlib import Path

from . import detect, experiments, io_formats
from .errors import ConfigError, HocdvsError, NoDetectionError, PersistenceError
from .synth import _helper_threads, _trace_rows, config_digest, load_sim_config

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_NO_DETECTION = NoDetectionError.exit_code
EXIT_IO = PersistenceError.exit_code

# float64 bytes per chunk simulate synthesizes, then writes as float32 (at least one row)
_CHUNK_BYTES = 1 << 20


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process, as argparse keeps no per-parse state in the parser.
    It binds no handler: `main` looks up `cmd_<command>` at each call, so a `cmd_*`
    replaced later (tests and perfbench's spans replace them) still runs."""
    parser = argparse.ArgumentParser(
        prog="hocdvs",
        description="Simulate fiber backscattering traces and localize "
        "non-Gaussian vibration events with third-order cumulant profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize a trace file from a config")
    p_sim.add_argument("--config", required=True, help="key = value config file")
    p_sim.add_argument("--out", required=True, help="output trace file path")

    p_ana = sub.add_parser("analyze", help="detect and localize an event in a trace file")
    p_ana.add_argument("--traces", required=True, help="input trace file")
    p_ana.add_argument("--method", required=True, choices=sorted(detect.METHOD_ALIASES))
    p_ana.add_argument("--window", required=True, type=int, help="traces per window")
    p_ana.add_argument("--out", required=True, help="output directory")
    p_ana.add_argument("--avg-len", type=int, default=experiments.TRACE_AVG_LEN,
                       help="block length for mavg (default %(default)s)")
    p_ana.add_argument("--guard", type=int, default=experiments.TRACE_GUARD,
                       help="background guard band in points (default %(default)s)")
    p_ana.add_argument("--min-snr-db", type=float, default=None,
                       help="treat detections below this location SNR as none (exit 3)")

    p_exp = sub.add_parser("experiment", help="run a named preset")
    p_exp.add_argument("--preset", required=True, choices=experiments.PRESETS)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--seeds", default=None,
                       help="inclusive seed range a..b overriding the preset default")
    return parser


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigError(f"seed range must look like a..b, got {text!r}")
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"seed range must use integers, got {text!r}") from None
    if stop < start:
        raise ConfigError(f"empty seed range {text!r}")
    if start < 0:
        raise ConfigError(f"seeds must be >= 0, got {text!r}")
    if stop - start >= sys.maxsize:
        raise ConfigError(f"seed range {text!r} holds more than {sys.maxsize} seeds")
    return range(start, stop + 1)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config)
    per_chunk = max(1, _CHUNK_BYTES // (8 * cfg.fiber_points))
    with contextlib.closing(_trace_rows(cfg, per_chunk)) as chunks:  # joins a draw-ahead thread
        io_formats.write_trace_rows(args.out, (cfg.num_traces, cfg.fiber_points),
                                    cfg.meters_per_point, cfg.trace_rate_hz, chunks)
    print(f"config_digest={config_digest(cfg)}")
    print(f"seed={cfg.seed}")
    print(f"wrote {cfg.num_traces}x{cfg.fiber_points} traces to {args.out}")
    return EXIT_OK


class _TraceDigest:
    """The sha256 that read_traces feeds: the header on the calling thread, then
    each payload chunk, submitted as it lands to a one-worker pool when _helper_threads
    allows one for the payload the header promises, hashed in file order while the
    caller reads. The worker calls hashlib only (perfbench's tracer keeps one span stack)."""

    def __init__(self):
        self.sha, self.pool, self.hashed = hashlib.sha256(), None, None

    def update(self, data) -> None:
        if self.pool is not None:
            self.hashed.append(self.pool.submit(self.sha.update, data))
            return
        self.sha.update(data)
        if self.hashed is None:  # the header, which read_traces has checked
            self.hashed = []
            (num_traces, fiber_points), _, _ = io_formats._parse_header(data, "header")
            if _helper_threads(4 * num_traces * fiber_points, 2):  # reading and hashing
                from concurrent.futures import ThreadPoolExecutor  # here: no pool for a small file
                self.pool = ThreadPoolExecutor(1)

    def join(self) -> None:
        """Wait for every submitted chunk; later updates hash on the calling thread."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def hexdigest(self) -> str:
        for chunk in self.hashed:
            chunk.result()  # raises the first failure of the worker
        return self.sha.hexdigest()


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.min_snr_db is not None and math.isnan(args.min_snr_db):
        raise ConfigError("--min-snr-db must be a number, got nan")
    method = detect.METHOD_ALIASES[args.method]
    # one sha256: the header and the payload chunks (read_traces), then the settings
    digest = _TraceDigest()
    try:
        traces = io_formats.read_traces(args.traces, digest=digest)
        profile, report = experiments.analyze_traces(traces, method, args.window,
                                                      avg_len=args.avg_len, guard=args.guard)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        io_formats.export_profile_csv(profile, out / f"profile_{args.method}.csv")
    finally:
        digest.join()
    digest.update(experiments._settings_text(method, args.window, args.guard,
                                             args.avg_len).encode())
    io_formats.write_report_json(out / f"report_{args.method}.json", report,
                                 window=args.window, config_digest=digest.hexdigest())
    print(
        f"method={method} peak_index={report.peak_index} "
        f"peak_position_m={report.peak_position_m:.6g} "
        f"location_snr_db={report.location_snr_db:.6g}"
    )
    if args.min_snr_db is not None and report.location_snr_db < args.min_snr_db:
        raise NoDetectionError(f"location SNR below threshold {args.min_snr_db:g} dB")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    seeds = None if args.seeds is None else _parse_seed_range(args.seeds)
    paths = experiments.run_preset(args.preset, args.out, seeds=seeds)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except HocdvsError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{PersistenceError.label}: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"{ConfigError.label}: request does not fit in memory{detail}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
