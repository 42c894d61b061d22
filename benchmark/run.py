#!/usr/bin/env python3
"""fingerbci benchmark: end-to-end metrics, or per-layer spans with --trace 1.

Run from the repository root:

    python3 benchmark/run.py --workload holdout --seed 1 --seconds 45 --trace 0
    python3 benchmark/run.py --workload all --seed 1           # every workload, one table
    python3 benchmark/run.py --workload all --smoke --seconds 1 # tiny sizes, same code path

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's context.  A
full record (with raw spans when traced) goes to ``.bench_out/``.  The
program is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACED_ROUNDS = 1  # rounds of a traced session: deploy, one command, one round of serving
UNGATED_UNITS = {
    "command_p50_s": "s", "predict_p50_ms": "ms", "predict_p95_ms": "ms", "predict_batch_tps": "1/s", "bundle_load_ms": "ms",
}


def _spec() -> dict:
    """BENCHMARK.json: workloads, and the end-to-end metrics every one reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _limit_blas_threads() -> None:
    # Before numpy loads.  The matrices here are small (C <= 32): on a
    # shared 2-CPU machine a second BLAS thread made training about 7 %
    # slower and p95 latency noisier, so the client runs single-threaded.
    for variable in BLAS_VARIABLES:
        os.environ[variable] = "1"


def _import_program():
    if not (SRC / "fingerbci" / "__init__.py").is_file():
        raise SystemExit(_fail(f"program source not found at {SRC}"))
    sys.path.insert(0, str(SRC))
    import fingerbci

    if Path(fingerbci.__file__).resolve().parent != SRC / "fingerbci":
        raise SystemExit(_fail(f"fingerbci imported from {fingerbci.__file__}, not from {SRC}"))


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _context(workload, args, spec: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "sizes": {k: v for k, v in dataclasses.asdict(workload).items() if k != "name"},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "load": "closed loop: one client, one process",
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
    }


def _untraced(workload, args, work: Path, spec: dict) -> tuple[dict, dict, object]:
    import workloads
    from tracer import NullTracer

    setup_times = []
    for _ in range(workloads.SETUPS):
        start = time.perf_counter()
        calibration_dir, test = workloads.set_up(workload, work)
        setup_times.append(time.perf_counter() - start)
    outcome = workloads.run_session(workload, args.seed, calibration_dir, test, work, NullTracer(), args.seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        **outcome.metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    outcome.context["samples"]["setups"] = workloads.SETUPS
    outcome.operations += 3 * workloads.SETUPS  # calibration set, test set, loads
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # Measured, but too unsteady between runs to carry a bound (see NOTES.md).
    outcome.context["ungated"] = {name: value for name, value in metrics.items() if name not in gated}
    return {name: (metrics[name], unit) for name, unit in gated.items()}, {}, outcome


def _traced(workload, args, work: Path, spec: dict) -> tuple[dict, dict, object]:
    """One round untraced, then the same round traced; the gap is overhead."""
    import workloads
    from tracer import COUNTERS, SPANS, NullTracer, Tracer, instrument

    calibration_dir, test = workloads.set_up(workload, work / "untraced")
    start = time.perf_counter()
    base = workloads.run_session(
        workload, args.seed, calibration_dir, test, work / "untraced", NullTracer(), 0.0, rounds=TRACED_ROUNDS
    )
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("bench.setup"):
            calibration_dir, test = workloads.set_up(workload, work / "traced")
        start = time.perf_counter()
        outcome = workloads.run_session(
            workload, args.seed, calibration_dir, test, work / "traced", tracer, 0.0, rounds=TRACED_ROUNDS
        )
        traced_s = time.perf_counter() - start
    outcome.checks.add("tracing_keeps_outputs", outcome.fingerprint == base.fingerprint)
    outcome.operations += base.operations + 1

    table = tracer.summary()
    metrics = {}
    for span in SPANS:
        entry = table.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{span}.calls"] = (entry["calls"], "count")
        metrics[f"{span}.s"] = (entry["s"], "s")
        metrics[f"{span}.self_s"] = (entry["self_s"], "s")
    for name, value in tracer.counters().items():
        metrics[name] = (value, COUNTERS[name])
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    outcome.context.update(untraced_session_s=untraced_s, traced_session_s=traced_s)
    phases = {name: entry for name, entry in table.items() if name.startswith("bench.")}
    return metrics, {"phases": phases, "spans": tracer.spans}, outcome


def run_one(args, spec: dict) -> int:
    _limit_blas_threads()
    _import_program()
    import workloads

    workload = workloads.get(args.workload, args.smoke)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        measure = _traced if args.trace else _untraced
        metrics, trace_record, outcome = measure(workload, args, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = outcome.operations, outcome.checks.failed
    context = {**_context(workload, args, spec), **outcome.context}
    context.update(checks=outcome.checks.results, error_rate=failed / attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{workload.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "result": result, "latency_s": outcome.latencies, **trace_record}))
    for name, value, unit in _rows(result, context):
        print(f"{workload.name:8s} {name:40s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


def _rows(result: dict, context: dict) -> list[tuple]:
    """Metric table: bounded metrics, ungated serving numbers, error rate."""
    rows = [(name, entry["value"], entry["unit"]) for name, entry in result["metrics"].items()]
    rows += [(name, value, UNGATED_UNITS[name] + " (context)") for name, value in context.get("ungated", {}).items()]
    return rows + [("error_rate", result["failed"] / result["attempted"], "ratio")]


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=1800)
        if done.returncode != 0:
            return _fail(f"workload {name} exited with code {done.returncode}")
        *_, context_line, result_line = done.stdout.strip().splitlines()
        result = json.loads(result_line)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{metric}": entry for metric, entry in result["metrics"].items()})
        rows += [(name, *row) for row in _rows(result, json.loads(context_line)["context"])]
    for name, metric, value, unit in rows:
        print(f"{name:8s} {metric:40s} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = _spec()
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0, help="time for the rounds of command and serving")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes through the same code path")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
