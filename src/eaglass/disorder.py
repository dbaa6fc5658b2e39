"""Coupling realizations: sampling and local modification.

Each edge value is a pure function of (master seed, sample index, edge key):
a keyed BLAKE2b digest of the tuple acts as a counter-based generator block,
mapped through the inverse CDF of the requested symmetric distribution.  The
result does not depend on iteration order or parallelism, and an edge shared
by nested boxes (same absolute key) receives the same value in every box.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from hashlib import blake2b
from statistics import NormalDist

import numpy as np

from .errors import ConfigError
from .lattice import BoxGeometry

_PERSON = b"ea-coupling"
_NORMAL = NormalDist()

# each coupling law and the one scale parameter it reads
LAWS = {"gaussian": "sigma", "uniform_symmetric": "half_width"}


def _is_finite_number(x) -> bool:
    """An int or float (not a bool) that is neither infinite nor NaN."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


@dataclass(frozen=True)
class DistributionSpec:
    """Symmetric continuous coupling law: gaussian(sigma) or uniform(+-half_width)."""

    kind: str
    sigma: float = 1.0
    half_width: float = 1.0

    def __post_init__(self):
        for name in LAWS.values():
            if not _is_finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, "
                                  f"got {getattr(self, name)!r}")
        if not isinstance(self.kind, str) or self.kind not in LAWS:
            raise ConfigError(
                f"unsupported coupling distribution {self.kind!r}; "
                "only symmetric continuous laws are allowed")
        if not getattr(self, LAWS[self.kind]) > 0:
            raise ConfigError(f"{self.kind} {LAWS[self.kind]} must be > 0")

    def from_uniform(self, u: float) -> float:
        if self.kind == "gaussian":
            return self.sigma * _NORMAL.inv_cdf(u)
        return (2.0 * u - 1.0) * self.half_width

    def to_dict(self) -> dict:
        scale = LAWS[self.kind]
        return {"kind": self.kind, scale: getattr(self, scale)}

    @staticmethod
    def from_dict(d: dict) -> "DistributionSpec":
        """A law from its kind and at most the scale parameter it reads."""
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError(f"bad distribution spec: {d!r}")
        kind = DistributionSpec(d["kind"]).kind     # a known law
        extra = set(d) - {"kind", LAWS[kind]}
        if extra:
            raise ConfigError(f"the {kind} law does not read {sorted(extra)}")
        return DistributionSpec(**d)


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
        # bounds every partial sum of the solver and of fsum, so no accepted
        # input overflows to inf or meets inf - inf; rejects inf and NaN too
        with np.errstate(over="ignore"):
            bound = 2.0 * np.abs(self.values).sum()
        if not np.isfinite(bound):
            raise ConfigError("coupling values must be finite, with twice "
                              "the sum of their magnitudes finite")
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
