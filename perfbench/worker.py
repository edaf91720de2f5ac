"""Workload process: imports qthermo from the checkout, runs one workload in a
closed loop (one operation at a time) and prints its result as a JSON line.

    python3 perfbench/worker.py --workload survey --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload survey --seed 1 --probe

``--probe`` times only the import of qthermo and the building of the
workload's inputs in this fresh interpreter and prints the seconds.  Nothing
heavy is imported before that timer starts.  run.py starts this process with
the thread variables removed from its environment; use run.py.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import qthermo
    import qthermo.cli  # noqa: F401  (binds qthermo.cli)

    return qthermo


def blas_note() -> str:
    """BLAS build numpy links and the thread count it reports."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = str(getter())
                break
    return (f"blas {info.get('name')} {info.get('version')}, threads {threads}, "
            f"cpu_count {os.cpu_count()}")


def timed(run, *args):
    c0, t0 = time.process_time(), time.perf_counter()
    output = run(*args)
    return output, time.perf_counter() - t0, time.process_time() - c0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    q = import_program()
    import workloads  # imports numpy, which qthermo has already loaded

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](q)
    inputs = workload.build(args.seed)
    if args.probe:
        print(f"{time.perf_counter() - start!r}")
        return 0

    notes = [blas_note()]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workload.warmup(inputs)

    walls, cpus, traced_walls = [], [], []
    problems: list[str] = []  # broken checks: the run is not correct
    errors: list[str] = []    # failed operations: counted in ``failed``
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        # in the traced run, operations alternate untraced and traced, so
        # both medians come from the same stretch of time
        with_trace = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            if with_trace:
                with tracer.op():
                    output, wall, cpu = timed(workload.op, inputs)
            else:
                output, wall, cpu = timed(workload.op, inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(f"operation failed: {type(exc).__name__}: {exc}")
        else:
            (traced_walls if with_trace else walls).append(wall)
            if not with_trace:
                cpus.append(cpu)
            try:
                workload.check(inputs, output)
            except workloads.CheckFailed as exc:
                problems.append(f"check failed: {exc}")
        enough = tracer is None or traced_walls
        if time.perf_counter() - loop_start >= args.seconds and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        workload.final_check(inputs)
    except workloads.CheckFailed as exc:
        problems.append(f"check failed: {exc}")

    for line in errors + problems:
        print(line, file=sys.stderr)
    if not walls or (tracer is not None and not traced_walls):
        print("no operation succeeded", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            "op_median_ms": {"value": 1e3 * statistics.median(walls), "unit": "ms"},
            "op_cpu_ms": {"value": 1e3 * statistics.median(cpus), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        summary = spans.layer_summary(tracer, overhead)
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS.items()}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        spans.write_spans(tracer, out / f"{stem}-spans.jsonl")
        (out / f"{stem}-layers.json").write_text(json.dumps(metrics, indent=1) + "\n")
        notes += [f"absent from the trace: {name}" for name in tracer.absent]
        notes.append(f"spans and layer summary written to {out.relative_to(ROOT)}/{stem}-*")
    notes.append(f"{len(walls) + len(traced_walls)} operations timed"
                 + (f", {len(traced_walls)} of them traced" if tracer is not None else ""))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "notes": notes}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
