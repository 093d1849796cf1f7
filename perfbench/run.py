"""Run one benchmark workload of cyclegait and print its metrics.

    python3 perfbench/run.py --workload cyclic-split --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the last line of stdout is a JSON
object holding the end-to-end metrics; with ``--trace 1`` traced and
untraced sessions alternate and it holds the per-layer metrics and the
tracing overhead. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Gated end-to-end metrics: each one is measured on every workload.
END_TO_END = {"setup_s": "s", "train_ms_per_iter": "ms", "eval_s": "s", "peak_rss_mb": "MB"}
# Reported on the workloads they belong to; README.md says why they are not gated.
REPORTED_ONLY = {"verify_s": "s", "verify_peak_mb": "MB", "grid_s": "s", "error_rate": "ratio"}
SESSION_TIMES = ("train_ms_per_iter", "eval_s", "verify_s", "grid_s")


def prepare_environment():
    """One process, a serial grid and one BLAS thread, set before numpy loads."""
    for var in ("CYCLEGAIT_WORKERS", "CYCLEGAIT_OUT_ROOT"):
        os.environ.pop(var, None)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)


def git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


@dataclass
class Record:
    """Everything one run measured."""

    setup_times: list = field(default_factory=list)  # (seconds, speed factor)
    plain: list = field(default_factory=list)  # untraced session dicts
    traced: list = field(default_factory=list)  # traced session dicts
    extras: dict = field(default_factory=dict)


def measure(workload, seconds: float, setup_tracer, session_tracer) -> Record:
    """Set up, warm up, then repeat sessions for ``seconds``. With tracers,
    one traced gen-data runs and every second session is traced."""
    import tracing
    from speed import speed_factor
    from workloads import SessionFailed

    record = Record()
    try:
        for i in range(SETUP_REPS):
            dest = workload.fresh(f"data{i}")
            record.setup_times.append((workload.gen_data(dest), speed_factor()))
            if workload.data:
                shutil.rmtree(workload.data)
            workload.data = dest
            workload.settle()
        if setup_tracer is not None:
            with setup_tracer:
                tracing.install_layers(setup_tracer)
                workload.gen_data(workload.fresh("data-traced"))
            shutil.rmtree(workload.path("data-traced"))
            workload.settle()

        # The first session after set-up runs slower on every workload, so it
        # warms the process up and is not measured.
        workload.session(None)
        workload.settle()
        start = time.perf_counter()
        while True:
            if session_tracer is not None and len(record.plain) > len(record.traced):
                with session_tracer:
                    tracing.install_layers(session_tracer)
                    record.traced.append(workload.session(session_tracer))
                record.traced[-1]["speed"] = speed_factor()
            else:
                record.plain.append(workload.session(None))
                record.plain[-1]["speed"] = speed_factor()
            workload.settle()
            sessions = record.plain + record.traced
            typical = median([s["wall_s"] for s in sessions])
            elapsed = time.perf_counter() - start
            if elapsed + typical > seconds and (session_tracer is None or record.traced):
                break
        record.extras = workload.finish()
    except SessionFailed as exc:
        print(f"stopped: {exc}")
    return record


def check_layers(workload, tracer, n_traced: int):
    """Expected call counts, so a wrapper on the wrong name cannot read 0."""
    ledger = workload.ledger
    if workload.train_forwards_per_iter is not None:
        per_iter = tracer.calls["setnet.forward.train"] / (n_traced * workload.iterations)
        ledger.check(f"traced trainer forwards per iteration = "
                     f"{workload.train_forwards_per_iter}",
                     per_iter == workload.train_forwards_per_iter, f"read {per_iter}")
    for key in workload.expect_zero:
        ledger.check(f"traced {key} calls = 0", tracer.calls[key] == 0,
                     f"read {tracer.calls[key]}")
    for key in workload.expect_active:
        ledger.check(f"traced {key} calls > 0", tracer.calls[key] > 0, "read 0")
    if workload.replays_per_session:
        expected = workload.replays_per_session * n_traced
        ledger.check(f"traced replay calls = {workload.replays_per_session} per session",
                     tracer.calls["gaugekit.replay"] == expected,
                     f"read {tracer.calls['gaugekit.replay']}, expected {expected}")


def time_medians(record: Record, scaled: bool) -> dict:
    """Median of each time metric, at the reference speed or as timed."""
    times = {"setup_s": [(t, f) for t, f in record.setup_times]}
    for name in SESSION_TIMES:
        if record.plain and name in record.plain[0]:
            times[name] = [(s[name], s["speed"]) for s in record.plain]
    return {name: median([t * f if scaled else t for t, f in pairs])
            for name, pairs in times.items()}


def end_to_end_values(record: Record, ledger) -> dict:
    return {
        **time_medians(record, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": ledger.failed / max(ledger.attempted, 1),
        **record.extras,
    }


def print_report(workload, seed: int, record: Record, values: dict):
    print(f"provenance: {json.dumps(provenance(seed), sort_keys=True)}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"sessions: {len(record.plain)} untraced, {len(record.traced)} traced; "
          f"set-up repeats: {len(record.setup_times)}")
    timed = time_medians(record, scaled=False)
    print(f"speed factors: set-up {[round(f, 3) for _, f in record.setup_times]}, "
          f"sessions {[round(s['speed'], 3) for s in record.plain]}")
    for name, unit in {**END_TO_END, **REPORTED_ONLY}.items():
        shown = f"{values[name]!r} {unit}" if name in values else "n/a on this workload"
        if name in timed:
            shown += f" (as timed: {timed[name]!r} {unit})"
        print(f"  {name} = {shown}")
    ledger = workload.ledger
    print(f"  operations: {ledger.attempted} attempted, {ledger.failed} failed")
    for name in SESSION_TIMES:
        if name in values:
            print(f"  per session {name}: {[round(s[name], 4) for s in record.plain]}")
    prints = [s["fingerprint"] for s in record.plain + record.traced]
    if prints:
        print(f"fingerprint: {json.dumps(prints[-1], sort_keys=True)}")
        print(f"fingerprint identical across sessions: {all(p == prints[0] for p in prints)}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cyclegait", "bench_cli.py")):
        print(f"no cyclegait sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    prepare_environment()
    import cyclegait
    import tracing
    from workloads import WORKLOADS, Ledger

    if not os.path.abspath(cyclegait.__file__).startswith(SRC + os.sep):
        print(f"cyclegait imported from {cyclegait.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    workload = WORKLOADS[args.workload](work_dir, args.seed, Ledger())
    setup_tracer = tracing.Tracer() if args.trace else None
    session_tracer = tracing.Tracer() if args.trace else None
    try:
        record = measure(workload, args.seconds, setup_tracer, session_tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    ledger = workload.ledger
    complete = bool(record.plain) and (not args.trace or bool(record.traced))
    if args.trace and record.traced:
        check_layers(workload, session_tracer, len(record.traced))
    values = end_to_end_values(record, ledger)
    print_report(workload, args.seed, record, values)

    if args.trace:
        layers = tracing.layer_metrics(session_tracer, max(len(record.traced), 1),
                                       setup_tracer, 1)
        overhead = 0.0
        if complete:
            traced_s = median([s["wall_s"] * s["speed"] for s in record.traced])
            plain_s = median([s["wall_s"] * s["speed"] for s in record.plain])
            overhead = 100.0 * (traced_s / plain_s - 1.0)
        layers["trace.overhead_pct"] = (overhead, "%")
        print(f"tracing overhead: {overhead:+.2f} % of untraced session wall time "
              f"(both at the reference speed)")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = complete and ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
