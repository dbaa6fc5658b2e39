"""The benchmark's own test; run with ``python3 -m pytest perfbench``.

It exercises the benchmark code at one sample per workload and checks
counters and hashes only, never timings.
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_child  # noqa: E402
from spans import layer_metrics, span_problems, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = ("solver.dp_states", "solver.solve.calls",
         "solver.solve.clamped_calls", "solver.tie_fraction",
         "solver.verify_gsp.calls", "excitation.critical_value.calls",
         "excitation.critical_contour.calls", "excitation.label_calls",
         "excitation.solves_per_call", "disorder.sample_couplings.calls",
         "lattice.geometry_builds")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_agree(name, tmp_path):
    # seed 0: both the traced and the untraced passes must reproduce the
    # pinned hash; the worker also checks every traced span tree
    runs = [run_child(["measure", name, "0", "0", "1", "1", str(tmp_path)],
                      timeout=120) for _ in range(2)]
    for r in runs:
        assert r["failed"] == 0 and r["problems"] == 0, r["errors"]
        assert r["layers"]["solver.solve.calls"] > 0
    assert ({k: runs[0]["layers"][k] for k in EXACT}
            == {k: runs[1]["layers"][k] for k in EXACT})


SPANS = [["lab.run", 0, 100, -1, None],
         ["solver.solve", 10, 50, 0,
          {"clamped": True, "tied": False, "states": 8, "minflt": 0}],
         ["solver.energy", 20, 30, 1, None],
         ["walls.interface", 60, 70, 0, None]]


def test_self_time_is_span_time_minus_child_spans():
    s = summarize(SPANS)
    assert s["names"]["lab.run"][1] == 50
    assert s["names"]["solver.solve"][1] == 30
    m = layer_metrics(s, samples=1)
    assert m["solver.solve.self_ms"] == pytest.approx(30 / 1e6)
    assert m["walls.self_ms"] == pytest.approx(10 / 1e6)
    assert m["solver.solve.clamped_calls"] == 1


def test_span_check_rejects_unsound_trees():
    assert span_problems(SPANS, wall_ns=100) == []
    escaped = [list(sp) for sp in SPANS]
    escaped[2][2] = 55                  # solver.energy ends after its parent
    assert span_problems(escaped, wall_ns=100)
    two_roots = SPANS + [["solver.solve", 200, 300, -1, SPANS[1][4]]]
    assert span_problems(two_roots, wall_ns=300)
    long_root = [["lab.run", 0, 10_000, -1, None]]
    assert span_problems(long_root, wall_ns=5_000)    # root outlasts the call
    assert span_problems(SPANS, wall_ns=2_000_000)    # root misses most of it


def test_quick_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
