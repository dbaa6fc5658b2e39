"""Coupling realizations: sampling and local modification.

Each edge value is a pure function of (master seed, sample index, edge key):
the 8-byte BLAKE2b digest of the packed tuple acts as a counter-based
generator block, mapped through the inverse CDF of the requested symmetric
distribution.  A draw packs (seed, sample) once into one hash state and
copies that state per edge to absorb the edge's packed key, which is built
once per box shape; the digests equal those of hashing each whole tuple
afresh.  The result does not depend on iteration order or parallelism, and
an edge shared by nested boxes (same absolute key) receives the same value
in every box.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from statistics import NormalDist

import numpy as np

from .errors import ConfigError
from .lattice import BoxGeometry, build_box

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


@lru_cache(maxsize=64)
def _packed_keys(width: int, height: int) -> tuple[bytes, ...]:
    """Each edge's packed key in id order; keyed by shape, since hashing a
    BoxGeometry hashes every Edge."""
    return tuple(struct.pack(">Bqq", 0 if e.kind == "h" else 1, *e.key[1:])
                 for e in build_box(width, height).edges)


def _draw(geom: BoxGeometry, dist: DistributionSpec, master_seed: int,
          sample_index: int, edge_ids=None) -> np.ndarray:
    """The values of ``edge_ids`` (all edges in id order when None)."""
    keys = _packed_keys(geom.width, geom.height)
    if edge_ids is not None:
        keys = [keys[i] for i in edge_ids]
    head = blake2b(struct.pack(">qq", master_seed, sample_index),
                   digest_size=8, person=_PERSON)
    digests = []
    for key in keys:
        h = head.copy()
        h.update(key)
        digests.append(h.digest())
    u64 = np.frombuffer(b"".join(digests), ">u8")
    # exact: 53-bit integers and a power-of-two scale
    u = ((u64 >> 11) + 0.5) * 2.0**-53
    if dist.kind == "gaussian":
        return np.array([_NORMAL.inv_cdf(x) for x in u.tolist()],
                        np.float64) * dist.sigma
    return (2.0 * u - 1.0) * dist.half_width


@dataclass(frozen=True, eq=False)
class CouplingConfig:
    geom: BoxGeometry
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, np.float64))
        if self.values.shape != (self.geom.n_edges,):
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
    return CouplingConfig(geom, _draw(geom, dist, master_seed, sample_index))


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
