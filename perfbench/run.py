"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload trace_file --seed 1 --seconds 30 --trace 0

Workloads: trace_file, long_fiber, presets (see README.md next to this
file). With --trace 0 the run prints the end-to-end metrics. With
--trace 1 it spends the first third of the time untraced and the rest
with spans on, and prints the per-layer metrics and the tracing overhead.

The program is imported from `src/` of the checkout this file sits in.
Stdout ends with an `env` line, a `detail` line and the result JSON. A
failed op or output check prints `"correct": false` and exits 1; missing
sources exit 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# glibc sysconf names missing from os.sysconf_names.
_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE = 191, 194


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("trace_file", "long_fiber", "presets"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and one set-up, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)


def sysconf(name: int):
    try:
        return os.sysconf(name)
    except (ValueError, OSError):
        return None


def run_loop(wl, deadline: float, span, first_op: int, problems: list, tracer=None):
    """Closed loop, one client: ops back to back until the deadline (at
    least one). Returns per-op latencies in seconds and the failed count.
    Output checks run between ops, outside the latencies."""
    latencies, failed = [], 0
    i = first_op
    while True:
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            with span("op"):
                wl.op(i, span)
            error = None
        except Exception as exc:  # counted as a failed op; the run goes on
            error = exc
            traceback.print_exc()
        latencies.append(time.perf_counter() - start)
        if error is None:
            try:
                wl.check(i)
            except Exception as exc:  # any check that cannot complete fails the run
                problems.append(f"op {i}: {exc}")
        else:
            failed += 1
            problems.append(f"op {i} failed: {error}")
        i += 1
        if time.perf_counter() >= deadline:
            return latencies, failed


def environment(np, nproc: int, args, wl) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "l2_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **wl.env(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    if not (SRC / "hocdvs" / "__init__.py").is_file():
        print(f"error: no hocdvs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import hocdvs
    import spans
    import workloads

    if not Path(hocdvs.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hocdvs from {hocdvs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
    problems: list[str] = []
    tracer = None
    try:
        setup_s = []
        for _ in range(1 if args.smoke else wl.SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup_once()
            setup_s.append(time.perf_counter() - start)
        wl.prepare()

        start = time.perf_counter()
        plain_deadline = start + (args.seconds / 3 if args.trace else args.seconds)
        latencies, failed = run_loop(wl, plain_deadline, spans.null_span, 0, problems)
        detail = wl.detail()
        if args.trace:
            tracer = spans.Tracer()
            with spans.traced(tracer):
                traced_lat, traced_failed = run_loop(
                    wl, start + args.seconds, tracer.span, len(latencies), problems, tracer
                )
        try:
            wl.final_check()
        except Exception as exc:  # any check that cannot complete fails the run
            problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = np.array(latencies)
    attempted = len(latencies)
    if args.trace:
        attempted += len(traced_lat)
        failed += traced_failed
        metrics = spans.layer_metrics(tracer, len(traced_lat))
        units = {m: spans.unit_of(kind) for m, _, kind in spans.PER_LAYER}
        metrics["trace.overhead_pct"] = 100.0 * (np.median(traced_lat) / np.median(lat) - 1.0)
        units["trace.overhead_pct"] = "%"
    else:
        metrics = {
            "setup_s": float(np.median(setup_s)),
            "latency_ms.p50": 1e3 * float(np.median(lat)),
            "throughput_msamples_s": wl.samples_per_op * lat.size / float(lat.sum()) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = {"setup_s": "s", "latency_ms.p50": "ms",
                 "throughput_msamples_s": "Msamples/s", "peak_rss_mb": "MB"}

    detail = {
        "untraced_ops": int(lat.size),
        "error_rate": failed / attempted,
        "latency_ms.p90": 1e3 * float(np.percentile(lat, 90)) if lat.size >= P90_MIN_OPS else None,
        "setup_s.all": setup_s,
        "localization_misses": [wl.localization.misses, wl.localization.reports],
        **detail,
        "problems": problems,
    }
    env = environment(np, nproc, args, wl)
    if args.trace:
        env["traced_ops"] = len(traced_lat)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "detail": detail, "latencies_s": latencies, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.save(OUT / f"{stem}.spans.npz")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
