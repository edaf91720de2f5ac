"""Benchmark of qthermo: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 30 [--workload scaling]

A single run prints notes, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--repeat N`` runs N seeds of each workload (interleaved) and prints each
end-to-end metric's median, quartiles, run count and quartile spread.

This process imports no numpy: the workload runs in a child process whose
environment has the thread variables below removed, so every run measures the
program's own thread defaults.  ``setup_s`` is the median of several fresh
interpreters that each import qthermo and build the workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("survey", "scaling", "small_systems")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "QTHERMO_THREADS")
# The machine's speed drifts over tens of seconds, so half of the set-up
# probes run before the workload process and half after it.
SETUP_PROBES = 6
TIME_LIMIT = 170.0  # seconds a single run may take, set-up included
END_TO_END_UNITS = {"op_median_ms": "ms", "op_cpu_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def child_environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    # One malloc arena: with glibc's per-thread arenas the short-lived sweep
    # threads left survey's peak RSS at 88 or 112 MiB from run to run.
    env["MALLOC_ARENA_MAX"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(args: list[str], timeout: float) -> str:
    """Run perfbench/worker.py; return its stdout, raising on failure or timeout."""
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=child_environment(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {done.returncode}")
    return done.stdout


def single_run(workload: str, seed: int, seconds: float, trace: int) -> int:
    started = time.perf_counter()
    common = ["--workload", workload, "--seed", str(seed)]
    setup: list[float] = []

    def probe() -> None:
        if not trace:
            for _ in range(SETUP_PROBES):
                setup.append(float(worker(common + ["--probe"], timeout=30).strip().splitlines()[-1]))

    probe()
    remaining = TIME_LIMIT - 30 - (time.perf_counter() - started)
    stdout = worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                    timeout=max(1.0, remaining))
    probe()
    result = json.loads(stdout.strip().splitlines()[-1])
    for note in result.pop("notes"):
        print(f"note: {note}")
    if not trace:
        print(f"note: setup probes (s): {', '.join(f'{s:.4f}' for s in setup)}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))
    return 0


def repeat(workloads: list[str], runs: int, first_seed: int, seconds: float) -> int:
    """Sets of runs, seeds first_seed.., workloads interleaved within each seed."""
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    shares: dict[str, set[tuple[int, int]]] = {w: set() for w in workloads}
    for seed in range(first_seed, first_seed + runs):
        for workload in workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIME_LIMIT + 10)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit code {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect")
                return 1
            shares[workload].add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.4f}" for name, m in result["metrics"].items()), flush=True)
    report = {}
    print(f"{'workload':14} {'metric':13} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}")
    for workload in workloads:
        report[workload] = {}
        for name, series in values[workload].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            report[workload][name] = {"unit": END_TO_END_UNITS[name], "n": len(series),
                                      "median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:14} {name:13} {len(series):3d} {median:11.4f} {q1:11.4f} "
                  f"{q3:11.4f} {spread:7.2%}")
        print(f"{workload:14} failed/attempted in each run: {sorted(shares[workload])}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N seeds of each workload and summarize the spread")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qthermo" / "__init__.py").is_file():
        print(f"no qthermo sources under {ROOT / 'src'}; run from a qthermo checkout",
              file=sys.stderr)
        return 2
    if args.repeat:
        chosen = [args.workload] if args.workload else list(WORKLOADS)
        return repeat(chosen, args.repeat, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required for a single run")
    try:
        return single_run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
