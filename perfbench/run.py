#!/usr/bin/env python3
"""eaglass benchmark: seeded ``lab.run`` ensembles timed end to end and,
with ``--trace 1``, layer by layer.

    python3 perfbench/run.py --workload walls15 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a source checkout; eaglass is imported from ``src/``.
Every workload process is a fresh interpreter without the BLAS/OpenMP
thread-count variables.  The last stdout line is the result object; the line
before it holds the machine fingerprint and drift diagnostics, which are also
written to ``.perfbench_out/``.  ``--quick`` runs every workload with one
sample, traced and untraced, and checks only the output schema and the
counters against BENCHMARK.json; it has no timing gate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, pinned_hashes  # noqa: E402


@functools.cache
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong eaglass result)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a probe of machine speed."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def steal_s() -> float | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> tuple[dict, dict]:
    """(result object, diagnostics) of one benchmark run."""
    ref_before, steal_before = reference_loop_ms(), steal_s()
    m = run_child(["measure", name, str(seed), str(seconds),
                   str(int(trace)), str(int(quick)), str(OUT_DIR)],
                  seconds + CHILD_TIMEOUT_S)
    steal_after = steal_s()
    setup_times = [s["s"] for s in m["setups"]]
    setup_hashes = [s["hash"] for s in m["setups"]]
    setup_errors = [s["error"] for s in m["setups"] if "error" in s]

    want = pinned_hashes(name)["single"] if seed == 0 else setup_hashes[0]
    bad_setups = sum(h != want for h in setup_hashes)
    if bad_setups and not setup_errors:
        setup_errors.append(f"setup content_hash {setup_hashes} != {want}")
    failed = m["failed"] + bad_setups
    correct = (failed == 0 and m["problems"] == 0 and not setup_errors
               and "e2e" in m)
    metrics = {}
    if correct:
        values = (m["layers"] if trace else
                  dict(m["e2e"], setup_s=min(setup_times)))
        units = {e["name"]: e["unit"]
                 for e in spec()["end_to_end"] + spec()["per_layer"]}
        metrics = {key: {"value": v, "unit": units.get(key, "unknown")}
                   for key, v in values.items()}
    result = {"correct": correct,
              "attempted": m["attempted"] + len(setup_times),
              "failed": failed, "metrics": metrics}
    diagnostics = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": git_commit(),
        "parent_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "fingerprint": m["fingerprint"],
        "reference_loop_ms": {"before": ref_before,
                              "after": reference_loop_ms()},
        "steal_s": (None if steal_before is None or steal_after is None
                    else steal_after - steal_before),
        "setup_s": setup_times,
        "lower_quartile": m.get("lower_quartile"),
        "slices_ms": m["slices_ms"],
        "errors": setup_errors + m["errors"]}
    return result, diagnostics


def schema_problems(result: dict, trace: bool) -> list[str]:
    """Differences between a result object and BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"not a clean run: {result}")
    want = {w["name"]: w["unit"]
            for w in spec()["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        if entry.get("unit") != want.get(name):
            problems.append(f"{name}: unit {entry.get('unit')} != "
                            f"{want.get(name)}")
        value = entry.get("value")
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def quick() -> int:
    failures = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result, diag = run_workload(name, 0, 0.0, trace, quick=True)
            problems = schema_problems(result, trace) + diag["errors"]
            failures += bool(problems)
            status = "FAIL" if problems else "ok"
            print(f"{status} {name} trace={int(trace)}")
            for p in problems:
                print(f"    {p}")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eaglass" / "__init__.py").is_file():
        print(f"no eaglass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick()
        if args.workload is None:
            ap.error("--workload is required")
        result, diagnostics = run_workload(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps({"result": result,
                                  "diagnostics": diagnostics}, indent=1))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
