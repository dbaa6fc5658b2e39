"""Coupling realizations: sampling, local modification, serialization.

Each edge value is a pure function of (master seed, sample index, edge key):
a keyed BLAKE2b digest of the tuple acts as a counter-based generator block,
mapped through the inverse CDF of the requested symmetric distribution.  The
result does not depend on iteration order or parallelism, and an edge shared
by nested boxes (same absolute key) receives the same value in every box.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from hashlib import blake2b
from statistics import NormalDist

import numpy as np

from .errors import ConfigError
from .lattice import BoxGeometry

_PERSON = b"ea-coupling"
_NORMAL = NormalDist()


@dataclass(frozen=True)
class DistributionSpec:
    """Symmetric continuous coupling law: gaussian(sigma) or uniform(+-half_width)."""

    kind: str
    sigma: float = 1.0
    half_width: float = 1.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if not self.sigma > 0:
                raise ConfigError("gaussian sigma must be > 0")
        elif self.kind == "uniform_symmetric":
            if not self.half_width > 0:
                raise ConfigError("uniform_symmetric half_width must be > 0")
        else:
            raise ConfigError(
                f"unsupported coupling distribution {self.kind!r}; "
                "only symmetric continuous laws are allowed")

    def from_uniform(self, u: float) -> float:
        if self.kind == "gaussian":
            return self.sigma * _NORMAL.inv_cdf(u)
        return (2.0 * u - 1.0) * self.half_width

    def to_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "sigma": self.sigma}
        return {"kind": "uniform_symmetric", "half_width": self.half_width}

    @staticmethod
    def from_dict(d: dict) -> "DistributionSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError(f"bad distribution spec: {d!r}")
        kind = d["kind"]
        extra = set(d) - {"kind", "sigma", "half_width"}
        if extra:
            raise ConfigError(f"unknown distribution fields {sorted(extra)}")
        return DistributionSpec(kind, sigma=d.get("sigma", 1.0),
                                half_width=d.get("half_width", 1.0))


def _edge_uniform(master_seed: int, sample_index: int, key: tuple) -> float:
    """Deterministic uniform in (0,1) for one edge key."""
    kind, c_abs, r = key
    msg = struct.pack(">qqBqq", master_seed, sample_index,
                      0 if kind == "h" else 1, c_abs, r)
    digest = blake2b(msg, digest_size=8, person=_PERSON).digest()
    u64 = int.from_bytes(digest, "big")
    return ((u64 >> 11) + 0.5) * 2.0**-53


@dataclass(frozen=True, eq=False)
class CouplingConfig:
    geom: BoxGeometry
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, np.float64))
        if len(self.values) != self.geom.n_edges:
            raise ValueError("one value per edge required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coupling values must be finite")
        self.values.setflags(write=False)

    def value(self, edge_id: int) -> float:
        return float(self.values[edge_id])

    def with_value(self, edge_id: int, new_value: float) -> "CouplingConfig":
        return self.with_values({edge_id: new_value})

    def with_values(self, updates: dict[int, float]) -> "CouplingConfig":
        vals = self.values.copy()
        for eid, val in updates.items():
            vals[eid] = val
        return CouplingConfig(self.geom, vals)


def sample_couplings(geom: BoxGeometry, dist: DistributionSpec,
                     master_seed: int, sample_index: int) -> CouplingConfig:
    vals = np.empty(geom.n_edges, dtype=np.float64)
    for e in geom.edges:
        vals[e.id] = dist.from_uniform(_edge_uniform(master_seed, sample_index, e.key))
    return CouplingConfig(geom, vals)


def supersatisfied_threshold(J: CouplingConfig, edge_id: int) -> float:
    """min over the two endpoints of the summed |J| of their other couplings."""
    geom = J.geom
    e = geom.edges[edge_id]
    sums = []
    for x in (e.u, e.v):
        s = 0.0
        for other in geom.incident[x]:
            if other != edge_id:
                s += abs(J.value(other))
        sums.append(s)
    return min(sums)


def super_satisfy(J: CouplingConfig, edge_id: int,
                  sign: int) -> CouplingConfig:
    """Replace J_b with sign * (threshold + 1e-6 * (1 + threshold)), forcing
    the edge's relative sign in every ground state pair."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    thr = supersatisfied_threshold(J, edge_id)
    return J.with_value(edge_id, sign * (thr + 1e-6 * (1.0 + thr)))


def save_couplings_csv(J: CouplingConfig, path) -> None:
    geom = J.geom
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["edge_id", "c1", "r1", "c2", "r2", "wrap", "value"])
        for e in geom.edges:
            c1, r1 = geom.vertex_cr(e.u)
            c2, r2 = geom.vertex_cr(e.v)
            w.writerow([e.id, c1, r1, c2, r2, int(e.wrap),
                        format(J.value(e.id), ".17g")])


def load_couplings_csv(geom: BoxGeometry, path) -> CouplingConfig:
    vals = np.full(geom.n_edges, np.nan)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            eid = int(row["edge_id"])
            e = geom.edges[eid]
            c1, r1 = geom.vertex_cr(e.u)
            c2, r2 = geom.vertex_cr(e.v)
            if (int(row["c1"]), int(row["r1"])) != (c1, r1) or \
               (int(row["c2"]), int(row["r2"])) != (c2, r2):
                raise ValueError(f"edge {eid} does not match geometry")
            vals[eid] = float(row["value"])
    if np.any(np.isnan(vals)):
        raise ValueError("missing edges in CSV")
    return CouplingConfig(geom, vals)
