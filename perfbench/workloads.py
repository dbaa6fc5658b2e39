"""The benchmark's workloads: shipped eaglass experiment presets.

A run of a workload repeats passes over ``ensembles`` distinct ensembles of
``samples`` disorder samples each.  Ensemble ``j`` of seed ``s`` uses the
eaglass master seed ``s * ensembles + j``, so one pass covers
``ensembles * samples`` distinct samples while each ``lab.run`` call (one
slice) stays short enough to fit in a quiet phase of a shared machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

PINNED_HASHES = Path(__file__).with_name("pinned_hashes.json")


@dataclass(frozen=True)
class Workload:
    config: dict
    samples: int
    ensembles: int

    def ensemble_config(self, seed: int, j: int, samples: int) -> dict:
        return dict(self.config, samples=samples, parallel=1,
                    master_seed=seed * self.ensembles + j)


WORKLOADS = {
    # scripts/run_wall_stats.py: two plain W=15 solves per sample, so the
    # transfer kernel does almost all the work.
    "walls15": Workload(
        dict(kind="wall_stats", width=15, height=15,
             proxy="perturbed_exterior", n_list=[1, 2, 3, 4, 5, 6, 7],
             k_list=[0, 1, 2, 3]),
        samples=1, ensembles=3),
    # scripts/run_property_suite.py: 40 small solves per sample, 36 of them
    # clamped, so per-call overhead and the solve count decide the time.
    "suite7": Workload(
        dict(kind="property_suite", width=7, height=7),
        samples=1, ensembles=3),
    # scripts/run_two_bond_map.py: the solver does little; the harness loop
    # over the 41x41 grid and the enumeration oracle do most of the work.
    "twobond3": Workload(
        dict(kind="two_bond_map", width=3, height=3, edge="h:0,1",
             edge2="v:0,1", grid_lo=-3.0, grid_hi=3.0, grid_points=41),
        samples=10, ensembles=4),
}


def pinned_hashes(name: str) -> dict:
    """Content hashes at seed 0: ``ensembles`` (one per ensemble at the
    workload's sample count) and ``single`` (ensemble 0 with one sample)."""
    return json.loads(PINNED_HASHES.read_text())[name]
