"""Child process of the benchmark: one workload in a fresh interpreter.

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE QUICK OUT

``setup`` imports eaglass and runs one 1-sample ensemble.  ``measure`` runs
a warm-up pass, then passes over the workload's ensembles for SECONDS (at
least a few passes), every second pass traced when TRACE is 1; the last
traced spans go to the directory OUT.  Between passes, spread evenly over the
SECONDS, it starts ``SETUP_REPEATS`` ``setup`` processes and times each whole
process.  Each mode prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

from workloads import WORKLOADS, pinned_hashes

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The machine the benchmark was tuned on changes speed in phases of seconds,
# so set-up processes are spread over the whole run, not started back to
# back, and setup_s is the fastest of them.
SETUP_REPEATS = 20
SETUP_TIMEOUT_S = 60


def import_lab():
    from eaglass import lab
    if Path(lab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"eaglass imported from {lab.__file__}, not {SRC}")
    return lab


class Book:
    """Runs ensembles and keeps the tally of attempted and failed samples.

    The first successful run of ensemble ``j`` is its reference hash; every
    later run must repeat it, and at seed 0 it must equal the pinned hash.
    """

    def __init__(self, lab, pinned):
        self.lab = lab
        self.pinned = pinned
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        self.errors: list[str] = []

    def fail(self, samples: int, message: str) -> None:
        self.failed += samples
        self.problems += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def run(self, j: int, cfg: dict):
        """(wall ms, CPU ms) per sample and the wall ns of the whole call,
        or None when the run failed."""
        n = cfg["samples"]
        self.attempted += n
        t0, c0 = perf_counter_ns(), process_time()
        try:
            digest = self.lab.run(cfg).content_hash
        except Exception:
            self.fail(n, f"ensemble {j}: {traceback.format_exc(limit=3)}")
            return None
        wall_ns, cpu = perf_counter_ns() - t0, process_time() - c0
        want = self.pinned[j] if self.pinned else self.reference.get(j, digest)
        if digest != want:
            self.fail(n, f"ensemble {j}: content_hash {digest} != {want}")
            return None
        self.reference.setdefault(j, digest)
        return wall_ns / n / 1e6, cpu / n * 1e3, wall_ns


def fastest(slices: dict[int, list], field: int) -> float:
    """Mean over ensembles of each ensemble's fastest slice.

    Contention on a shared machine only ever slows a slice down, and here it
    comes in phases of seconds that slow every slice by up to 2x, so the
    median of a run depends on how much of it fell in a slow phase while the
    fastest repeat of each ensemble tracks the program's own cost.
    """
    return statistics.fmean(min(s[field] for s in runs)
                            for runs in slices.values())


def lower_quartile(slices: dict[int, list], field: int) -> float:
    """As ``fastest`` with each ensemble's lower-quartile slice: unlike the
    minimum it still shows costs that hit only some slices (GC cycles,
    cache evictions)."""
    return statistics.fmean(statistics.quantiles([s[field] for s in runs],
                                                 n=4)[0]
                            for runs in slices.values())


def fingerprint() -> dict:
    import numpy as np
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def timed_setup(name: str, seed: int) -> dict:
    """Wall seconds and content hash of one ``setup`` process."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "setup", name, str(seed)], capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S)
    out = {"s": perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(out, hash=None, error=f"setup exited {proc.returncode}:\n"
                    f"{proc.stderr[-2000:]}")
    return dict(out, **json.loads(lines[-1]))


def setup(name: str, seed: int) -> dict:
    lab = import_lab()
    cfg = WORKLOADS[name].ensemble_config(seed, 0, 1)
    try:
        return {"hash": lab.run(cfg).content_hash}
    except Exception:
        return {"hash": None, "error": traceback.format_exc(limit=3)}


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool,
            out_dir: Path) -> dict:
    lab = import_lab()
    from spans import Tracer, merge, span_problems, summarize

    wl = WORKLOADS[name]
    k, n = (1, 1) if quick else (wl.ensembles, wl.samples)
    configs = [wl.ensemble_config(seed, j, n) for j in range(k)]
    pinned = None
    if seed == 0:
        hashes = pinned_hashes(name)
        pinned = [hashes["single"]] if quick else hashes["ensembles"]
    book = Book(lab, pinned)
    for j, cfg in enumerate(configs):      # warm-up: caches fill, untimed
        book.run(j, cfg)

    tracer = Tracer()
    plain: dict[int, list] = {j: [] for j in range(k)}
    traced: dict[int, list] = {j: [] for j in range(k)}
    pass_summaries = []
    last_spans: list = []
    min_passes = 4 if trace else 3
    n_setups = 1 if quick else SETUP_REPEATS
    setups: list[dict] = []
    start = perf_counter()
    deadline = start + seconds
    p = 0
    while p < min_passes or perf_counter() < deadline:
        if (len(setups) < n_setups and perf_counter()
                >= start + len(setups) * seconds / n_setups):
            setups.append(timed_setup(name, seed))
        on = trace and p % 2 == 1
        summaries = []
        for j, cfg in enumerate(configs):
            if on:
                with tracer.installed():
                    res = book.run(j, cfg)
                spans = tracer.take()
                if res is not None:
                    for problem in span_problems(spans, res[2]):
                        book.fail(0, f"ensemble {j} traced: {problem}")
                    summaries.append(summarize(spans))
                    last_spans = spans
            else:
                res = book.run(j, cfg)
            if res is not None:
                (traced if on else plain)[j].append(res)
        if on and len(summaries) == k:
            pass_summaries.append(merge(summaries))
        p += 1
    while len(setups) < n_setups:
        setups.append(timed_setup(name, seed))

    out = {"attempted": book.attempted, "failed": book.failed,
           "setups": setups, "fingerprint": fingerprint(),
           "slices_ms": {kind: {j: [s[0] for s in v] for j, v in d.items()}
                         for kind, d in (("plain", plain),
                                         ("traced", traced))}}
    if not book.failed:
        out["e2e"] = {
            "ms_per_sample": fastest(plain, 0),
            "cpu_ms_per_sample": fastest(plain, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}
        out["lower_quartile"] = {
            "ms_per_sample": lower_quartile(plain, 0),
            "cpu_ms_per_sample": lower_quartile(plain, 1)}
        if trace:
            out["layers"] = traced_layers(book, pass_summaries, k * n,
                                          fastest(traced, 0)
                                          / out["e2e"]["ms_per_sample"])
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"{name}-seed{seed}.spans.json", "w") as fh:
                json.dump({"workload": name, "seed": seed,
                           "fields": ["name", "start_ns", "end_ns", "parent",
                                      "info"],
                           "spans": last_spans}, fh, separators=(",", ":"))
    out["problems"], out["errors"] = book.problems, book.errors
    return out


def traced_layers(book, summaries, samples, traced_over_plain) -> dict:
    """Per-layer metrics: minima over traced passes, after checking that
    exact counts repeat."""
    from spans import layer_metrics
    for s in summaries:
        if s["counts"] != summaries[0]["counts"]:
            book.fail(0, "traced passes disagree on exact counts")
    per_pass = [layer_metrics(s, samples) for s in summaries]
    layers = {key: min(m[key] for m in per_pass) for key in per_pass[0]}
    lattice = sys.modules["eaglass.lattice"]
    layers["lattice.geometry_builds"] = float(
        lattice.build_box.cache_info().misses
        + lattice.build_dual.cache_info().misses)
    layers["trace.overhead_pct"] = 100.0 * (traced_over_plain - 1.0)
    return layers


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(name, seed)
    else:
        seconds, trace, quick = float(argv[3]), argv[4] == "1", argv[5] == "1"
        result = measure(name, seed, seconds, trace, quick, Path(argv[6]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
