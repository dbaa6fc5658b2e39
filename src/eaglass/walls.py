"""Interfaces between configurations and their domain walls.

A dual edge belongs to the interface when its primal coupling is satisfied in
exactly one of the two source configurations.  Domain walls are connected
components of the interface, where connectivity runs through shared dual
vertices (never through diagonal plaquette contact).  A wall is tethered when
it touches the dual x-axis.

Sources need not live on identical coupling realizations: proxies built from
nested volumes or window-preserving perturbations provide per-side
satisfaction vectors and restrict the interface to the edges where a
comparison is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import CouplingConfig
from .errors import ConfigError
from .lattice import BoxGeometry, DualGeometry, build_dual
from .solver import _edge_terms


def satisfaction(J: CouplingConfig, spins) -> np.ndarray:
    """Boolean per edge: J_e * s_u * s_v > 0.  Invariant under global flip."""
    return _edge_terms(J, spins) > 0


@dataclass(frozen=True)
class Interface:
    geom: BoxGeometry
    edge_ids: frozenset[int]

    @property
    def dual(self) -> DualGeometry:
        return build_dual(self.geom.width, self.geom.height)

    def is_empty(self) -> bool:
        return not self.edge_ids


def interface_from_satisfaction(geom: BoxGeometry, sat_a, sat_b,
                                edge_ids=slice(None)) -> Interface:
    """Edges among ``edge_ids`` (default: all) satisfied on one side only."""
    keep = np.zeros(geom.n_edges, dtype=bool)
    keep[edge_ids] = True
    differ = np.asarray(sat_a, dtype=bool) ^ np.asarray(sat_b, dtype=bool)
    return Interface(geom, frozenset(np.flatnonzero(differ & keep).tolist()))


def interface(J: CouplingConfig, spins_a, spins_b) -> Interface:
    """Symmetric difference of the satisfaction sets of two configurations."""
    return interface_from_satisfaction(
        J.geom, satisfaction(J, spins_a), satisfaction(J, spins_b))


@dataclass(frozen=True)
class DomainWall:
    edge_ids: frozenset[int]
    dual_vertices: frozenset[int]
    tethered: bool


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def domain_walls(iface: Interface) -> list[DomainWall]:
    """Partition an interface into connected components of the dual graph."""
    dual = iface.dual
    uf = _UnionFind()
    for eid in iface.edge_ids:
        d = dual.dual_edges[eid]
        uf.union(d.a, d.b)
    groups: dict[int, dict] = {}
    x_axis = set(dual.dual_x_axis)
    for eid in sorted(iface.edge_ids):
        d = dual.dual_edges[eid]
        root = uf.find(d.a)
        g = groups.setdefault(root, {"edges": set(), "verts": set()})
        g["edges"].add(eid)
        g["verts"].add(d.a)
        g["verts"].add(d.b)
    walls = []
    for root in sorted(groups):
        g = groups[root]
        walls.append(DomainWall(frozenset(g["edges"]), frozenset(g["verts"]),
                                tethered=not x_axis.isdisjoint(g["verts"])))
    return walls


# --------------------------------------------------------------------------
# tethered-wall statistics


def _segment_columns(dual: DualGeometry, n: int) -> set[int]:
    """Local dual columns whose vertex x-coordinate lies in [-n, n]."""
    if n < 1:
        raise ConfigError("segment half-length n must be >= 1")
    off = -((dual.width - 1) // 2)
    cols = {c for c in range(dual.width) if abs(2 * (c + off) + 1) <= 2 * n}
    if not cols or len(cols) == dual.width:
        raise ConfigError(
            f"segment n={n} does not fit inside width {dual.width} without wrapping")
    return cols


def wall_count_grid(walls, n_values, k_values, dual: DualGeometry) -> dict:
    """``{(n, k): N_{n,k}}`` over every pair of the given n and k values:
    the number of distinct tethered walls meeting the segment at height
    k-1/2, columns [-n, n]."""
    tethered = [w.dual_vertices for w in walls if w.tethered]
    grid = {}
    for n in n_values:
        cols = None     # built at n's first k, which is checked first
        for k in k_values:
            if not 0 <= k <= dual.height:
                raise ConfigError(f"segment height k={k} outside box")
            cols = cols or _segment_columns(dual, n)
            hits = {dual.dual_vertex_id(c, k) for c in cols}
            grid[(n, k)] = sum(1 for vs in tethered if not hits.isdisjoint(vs))
    return grid


@dataclass(frozen=True)
class CheckReport:
    """Violations found by one wall check; it passes when there are none."""

    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def wall_bound_check(counts: dict) -> CheckReport:
    """Check N_{n,k} - N_{n,0} >= -2k on every entry of a ``wall_count_grid``
    result; violations come in (n, k) order."""
    violations = []
    for (n, k), count in sorted(counts.items()):
        if (n, 0) not in counts:
            raise ConfigError(f"grid lacks the k=0 entry for n={n}")
        base = counts[(n, 0)]
        if count - base < -2 * k:
            violations.append({"n": n, "k": k, "N_nk": count, "N_n0": base})
    return CheckReport(tuple(violations))


def interface_cycle_check(iface: Interface,
                          excluded_dual_edges=()) -> CheckReport:
    """Assert the interface holds no closed dual contour: no dual circuit and
    no dual path joining two dual-x-axis vertices.

    Flipping the region such a contour encloses is admissible for both exact
    source states, so a contour inside the interface would make a strictly
    positive sum equal its own negation.  Both kinds are cycles of the closed
    dual, found by one union-find.  ``excluded_dual_edges`` removes edges
    whose flip region necessarily meets a clamped set (the clamped edge of a
    critical contour): contours through them are legitimate.
    """
    closed = iface.dual.closed
    uf = _UnionFind()
    violations = []
    placed = []
    for eid in sorted(iface.edge_ids - frozenset(excluded_dual_edges)):
        a, b = closed[eid]
        if uf.find(a) == uf.find(b):
            violations.append({"kind": "closed_contour", "closing_edge": eid,
                               "edges": _path(closed, placed, a, b) + (eid,)})
        else:
            uf.union(a, b)
            placed.append(eid)
    return CheckReport(tuple(violations))


def _path(closed, edge_ids, a, b) -> tuple[int, ...]:
    """BFS path (as dual edge ids) from a to b inside the given edge set."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in edge_ids:
        u, v = closed[eid]
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))
    prev = {a: None}
    queue = [a]
    while queue:
        v = queue.pop(0)
        if v == b:
            break
        for eid, w in adj.get(v, ()):
            if w not in prev:
                prev[w] = (eid, v)
                queue.append(w)
    path = []
    v = b
    while prev[v] is not None:
        eid, v = prev[v]
        path.append(eid)
    return tuple(path[::-1])
