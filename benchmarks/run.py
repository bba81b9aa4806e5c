"""steerwork benchmark: a closed-loop load generator with one client.

Each op calls steerwork.cli.main(argv) in-process with --format json,
captures stdout and checks it against closed forms written out in
check.py. The next op starts when the previous one has returned. Every
exception and non-zero exit is counted as a failed op; ops are never
filtered or re-drawn.

    python3 benchmarks/run.py                      # all workloads, each in a fresh process
    python3 benchmarks/run.py --trace 1            # the same, traced: per-layer metrics
    python3 benchmarks/run.py --workload exact-d23 --seed 3 --trace 0

With a single --workload the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's details (seed, environment, error rate, tail percentile, ...).
Run from the root of a source checkout; the package is imported from src/.
The metrics, their units and the run length are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import check
from spans import Tracer
from workloads import WORKLOADS, Op, OpStream, probe_ops, warmup_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer metrics "<module>.<function>.<kind>" name the spans to trace.
SPAN_TARGETS = list(dict.fromkeys(name.rsplit(".", 1)[0] for name in PER_LAYER_UNITS
                                  if name.endswith((".calls", ".self_ms"))))
MEMORY_TARGETS = [name.rsplit(".", 1)[0] for name in PER_LAYER_UNITS
                  if name.endswith(".peak_alloc_mb")]

# Every run is this long (run_seconds of BENCHMARK.json); --seconds only mirrors it.
RUN_SECONDS = SPEC["run_seconds"]
# One BLAS thread: the runs are steadier on a small shared machine, and
# every op is small enough that a second thread gains little.
BLAS_THREADS = 1
SETUP_REPEATS = 20
TAIL_BEYOND = 10  # op_ms_tail is the highest percentile with this many samples above it

# Printed with every run but not bounded. error_rate is 0 on these
# workloads, and a bounded metric must never be 0. On a machine whose CPU
# runs the same code at two speeds, in phases of seconds to minutes, the
# median and the mean (goodput) follow the share of the run that fell in
# the fast phase; the tail sits in the slow phase, which nearly every run
# contains, and is bounded instead.
REPORTED_UNITS = {"op_ms_p50": "ms", "ops_per_s": "1/s", "error_rate": "share"}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import steerwork.cli\n"
    "print(time.perf_counter() - t)\n"
)


def pin_blas_threads() -> int:
    """Cap BLAS threads, at most nproc, before numpy loads; returns the cap."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def timed_import() -> float:
    """Seconds a fresh interpreter takes to import the package."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing steerwork failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.strip())


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(steerwork, blas_threads_requested: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": openblas_threads() or blas_threads_requested,
        "steerwork": getattr(steerwork, "__version__", "unknown"),
    }


def run_op(cli, op) -> tuple[float, dict | None, str | None]:
    """(latency_ms, parsed output, error); error is None when cli.main returned 0."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:  # every failure is counted, never raised
        return (time.perf_counter() - start) * 1e3, None, f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - start) * 1e3
    if code != 0:
        return ms, None, f"exit {code}: {err.getvalue().strip()}"
    try:
        return ms, json.loads(out.getvalue()), None
    except ValueError as exc:
        return ms, None, f"output is not JSON: {exc}"


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Record:
    """One op as the client saw it; error is None when the op passed."""

    index: int
    op: Op
    traced: bool
    ms: float
    output: dict | None
    error: str | None
    wrong: bool = False  # returned exit 0 with an answer that failed the check


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "steerwork" / "__init__.py").is_file():
        print(f"error: no steerwork package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    timed_import()  # compiles bytecode once; a user pays that once per install

    sys.path.insert(0, str(SRC))
    import steerwork
    import steerwork.cli as cli

    tracer = Tracer(SPAN_TARGETS, MEMORY_TARGETS) if args.trace else None
    stream = OpStream(workload, args.seed)
    run_op(cli, warmup_op(workload))  # lazy LAPACK and allocator set-up, not timed

    # The setup probes are spread evenly over the run instead of being taken
    # back to back, so that they sample the whole run and not the few seconds
    # before it: on a machine with slow phases that moved the figure by 30%.
    # setup_s is their lower quartile, as slow phases and other load only
    # ever add time. Probe time is left out of the run's time.
    setup: list[float] = []
    probing = 0.0
    records: list[Record] = []
    start = time.perf_counter()
    while (run_time := time.perf_counter() - start - probing) < RUN_SECONDS:
        if len(setup) < SETUP_REPEATS and run_time >= len(setup) * RUN_SECONDS / SETUP_REPEATS:
            probe_start = time.perf_counter()
            setup.append(timed_import())
            probing += time.perf_counter() - probe_start
            continue
        index = len(records)
        op = stream.next()
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.op = index
            tracer.install()
        try:
            ms, output, error = run_op(cli, op)
        finally:
            if traced:
                tracer.uninstall()
        record = Record(index, op, traced, ms, output, error)
        if error is None and (reason := check(output, workload, op)) is not None:
            record.error, record.wrong = f"wrong output: {reason}", True
        records.append(record)
    elapsed = time.perf_counter() - start - probing

    ok = [r for r in records if r.error is None]
    failed = len(records) - len(ok)
    untraced_ms = [r.ms for r in ok if not r.traced]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": RUN_SECONDS,
        "trace": args.trace,
        "environment": environment(steerwork, threads),
        "attempted": len(records),
        "passed": len(ok),
        "failures": [{"omega": r.op.omega, "beta": r.op.beta, "seed": r.op.seed,
                      "error": r.error.splitlines()[0][:200]}
                     for r in records if r.error is not None],
        "setup_samples_s": setup,
    }
    if not ok:
        print(json.dumps({"detail": detail}))
        print("error: no op passed, so no metric can be measured", file=sys.stderr)
        return 1
    wrong = any(r.wrong for r in records)
    if not args.trace:
        tail_ms, tail_pct = tail(untraced_ms)
        values = {
            "setup_s": statistics.quantiles(setup, n=4)[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": len(ok) / elapsed,
            "op_ms_p50": statistics.median(untraced_ms),
            "op_ms_tail": tail_ms,
            "error_rate": failed / len(records),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        detail["reported"] = {k: {"value": values[k], "unit": u} for k, u in REPORTED_UNITS.items()}
        detail["op_ms_tail_percentile"] = tail_pct
        detail["op_ms_deciles"] = [percentile(untraced_ms, q) for q in range(10, 100, 10)]
    else:
        probes = [run_probe(cli, workload, op) for op in probe_ops(workload)]
        detail["probes"] = probes
        wrong = wrong or any(p["wrong"] for p in probes)
        metrics = layer_metrics(tracer, ok, workload, sum(p["error"] is not None for p in probes))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["absent_spans"] = tracer.absent

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_probe(cli, workload, op) -> dict:
    """One untimed op past the omega range; the program's known failures show here."""
    _, output, error = run_op(cli, op)
    wrong = error is None and (reason := check(output, workload, op)) is not None
    if wrong:
        error = f"wrong output: {reason}"
    return {"omega": op.omega, "beta": op.beta, "wrong": wrong,
            "error": error.splitlines()[0][:200] if error else None}


def layer_metrics(tracer: Tracer, ok: list[Record], workload, probes_failed: int) -> dict:
    summary = tracer.summarize()
    traced = [r for r in ok if r.traced]
    untraced_ms = [r.ms for r in ok if not r.traced]
    values: dict[str, float] = {}
    for name in SPAN_TARGETS:
        per_op = [summary.get(r.index, {}).get(name, (0, 0.0)) for r in traced]
        values[f"{name}.calls"] = statistics.median(c for c, _ in per_op) if per_op else 0
        values[f"{name}.self_ms"] = statistics.median(s for _, s in per_op) if per_op else 0.0
    for name in MEMORY_TARGETS:
        peaks = [tracer.peak_alloc.get((r.index, name), 0) / 2**20 for r in traced]
        values[f"{name}.peak_alloc_mb"] = statistics.median(peaks) if peaks else 0.0
    optimizer = [r.output["optimizer"] for r in ok if workload.command[0] == "lhs-opt"]
    values["lhs.iterations"] = statistics.median(o["iterations"] for o in optimizer) if optimizer else 0
    values["lhs.converged_share"] = (sum(o["converged"] for o in optimizer) / len(optimizer)
                                     if optimizer else 0.0)
    values["trace.overhead_ratio"] = (statistics.median(r.ms for r in traced)
                                      / statistics.median(untraced_ms)
                                      if traced and untraced_ms else 0.0)
    values["probe.large_omega_failed"] = probes_failed
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def run_all(args) -> int:
    """Every workload in its own fresh process; prints a table, then all results as JSON.

    A workload that fails is reported and the others still run; the exit
    code is then non-zero.
    """
    results, failed = {}, []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_SECONDS + 600,
        )
        if proc.returncode != 0:
            print(f"{name}: FAILED with exit {proc.returncode}")
            print(proc.stdout + proc.stderr, file=sys.stderr)
            failed.append(name)
            results[name] = {"exit": proc.returncode}
            continue
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        results[name] = {"result": result, "detail": detail}
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
        for metric, entry in detail.get("reported", {}).items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']} (not bounded)")
        if "op_ms_tail_percentile" in detail:
            print(f"  {'op_ms_tail is the percentile':40s} {detail['op_ms_tail_percentile']:>14.4g}")
        kinds: dict[str, list[float]] = {}
        for failure in detail["failures"]:
            kind = re.sub(r"\d[\d.e+-]*", "#", failure["error"])[:80]
            kinds.setdefault(kind, []).append(failure["omega"] or 0.0)
        for kind, omegas in kinds.items():
            print(f"  failed x{len(omegas)} (lowest omega {min(omegas):.3g}): {kind}")
        for probe in detail.get("probes", []):
            outcome = probe["error"] or "passed"
            print(f"  probe omega={probe['omega']:.3g} beta={probe['beta']:g}: {outcome}")
    print(json.dumps(results))
    if failed:
        print(f"error: workloads failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    # Harnesses that read BENCHMARK.json pass its run_seconds as --seconds.
    # The run length is not a knob: any other value is refused, so that two
    # commits are always compared at the same length.
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}, the run_seconds of BENCHMARK.json")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
