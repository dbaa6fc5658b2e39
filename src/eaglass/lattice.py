"""Half-plane cylinder boxes and their dual lattice.

A box of ``width`` columns and ``height`` rows is wrapped periodically in the
horizontal direction and has free boundaries at the top and bottom.  Degenerate
widths follow the convention that W=1 has no horizontal edges and W=2 has a
single horizontal edge per row (the wrap would duplicate it).

The dual lattice puts one vertex at each plaquette center, including the row of
centers just below the bottom spin row (the dual x-axis) and just above the top
row, so that every primal edge has a dual edge with both endpoints present.
Dual coordinates are kept as doubled integers to stay exact.

Closing the dual x-axis into one ground vertex turns every flip boundary (a
dual circuit, or a dual path between two dual-x-axis vertices) into a simple
cycle of the closed dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BudgetExceededError

ENUM_BUDGET = 10**7     # most items one enumeration may emit


class Edge(NamedTuple):
    id: int
    u: int
    v: int
    kind: str          # "h" or "v"
    wrap: bool
    col: int           # local column of the anchor (left / bottom endpoint)
    row: int
    key: tuple         # (kind, absolute column, row), stable across box sizes


class DualEdge(NamedTuple):
    id: int            # equals the primal edge id
    a: int             # dual vertex ids; a == b only for the W=1 self-loop
    b: int


@dataclass(frozen=True)
class BoxGeometry:
    width: int
    height: int
    edges: tuple[Edge, ...]
    incident: tuple[tuple[int, ...], ...] = field(repr=False)
    edge_by_key: dict = field(repr=False, hash=False, compare=False)
    # read-only endpoint arrays: eu[e.id] == e.u, ev[e.id] == e.v
    eu: np.ndarray = field(repr=False, compare=False)
    ev: np.ndarray = field(repr=False, compare=False)
    # read-only: the row where each edge's coupling enters a row-by-row
    # sweep, entry_row[e.id] == max(e.u, e.v) // width
    entry_row: np.ndarray = field(repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.width * self.height

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_cr(self, v: int) -> tuple[int, int]:
        return v % self.width, v // self.width

    @property
    def col_offset(self) -> int:
        # centering: local column c sits at absolute column c + col_offset
        return -((self.width - 1) // 2)

    def abs_col(self, c: int) -> int:
        return c + self.col_offset


@dataclass(frozen=True)
class DualGeometry:
    width: int
    height: int
    dual_edges: tuple[DualEdge, ...]
    dual_x_axis: tuple[int, ...]
    # closed[eid] = endpoints of dual edge eid, with every dual-x-axis vertex
    # replaced by the ground vertex n_dual_vertices
    closed: tuple[tuple[int, int], ...] = field(repr=False)

    @property
    def n_dual_vertices(self) -> int:
        return self.width * (self.height + 1)

    def dual_vertex_id(self, c: int, rd: int) -> int:
        return rd * self.width + c % self.width


def horizontal_edges_per_row(width: int) -> int:
    if width >= 3:
        return width
    if width == 2:
        return 1
    return 0


@lru_cache(maxsize=64)
def build_box(width: int, height: int) -> BoxGeometry:
    """Construct the cylinder box geometry.

    Vertices are indexed row-major from the bottom row.  Horizontal edges are
    anchored at their left endpoint; the wrap edge (W >= 3) is anchored at the
    last column.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if height < 2:
        raise ValueError("height must be >= 2")
    W, H = width, height
    off = -((W - 1) // 2)
    edges: list[Edge] = []

    def vid(c, r):
        return r * W + c % W

    for r in range(H):
        for c in range(horizontal_edges_per_row(W)):
            u, v = vid(c, r), vid(c + 1, r)
            edges.append(Edge(len(edges), u, v, "h", c == W - 1 and W >= 3,
                              c, r, ("h", c + off, r)))
    for r in range(H - 1):
        for c in range(W):
            edges.append(Edge(len(edges), vid(c, r), vid(c, r + 1), "v", False,
                              c, r, ("v", c + off, r)))

    incident: list[list[int]] = [[] for _ in range(W * H)]
    for e in edges:
        incident[e.u].append(e.id)
        if e.v != e.u:
            incident[e.v].append(e.id)
    by_key = {e.key: e.id for e in edges}
    eu = np.array([e.u for e in edges], dtype=np.int64)
    ev = np.array([e.v for e in edges], dtype=np.int64)
    entry_row = np.maximum(eu, ev) // W
    for a in (eu, ev, entry_row):
        a.setflags(write=False)
    return BoxGeometry(W, H, tuple(edges), tuple(tuple(x) for x in incident),
                       by_key, eu, ev, entry_row)


@lru_cache(maxsize=64)
def build_dual(width: int, height: int) -> DualGeometry:
    """Construct the dual of ``build_box(width, height)``.

    Dual vertex (c, rd) is the plaquette center at (abs_col(c)+1/2, rd-1/2);
    rd runs 0..height so the duals of top-row horizontal edges have both
    endpoints.  Row rd=0 is the dual x-axis; it carries no dual edges between
    its own vertices because the box has no couplings below the bottom row.
    """
    geom = build_box(width, height)
    W, H = width, height

    def dvid(c, rd):
        return rd * W + c % W

    duals: list[DualEdge] = []
    for e in geom.edges:
        if e.kind == "h":
            # vertical dual segment through the edge midpoint
            duals.append(DualEdge(e.id, dvid(e.col, e.row), dvid(e.col, e.row + 1)))
        else:
            # horizontal dual segment at height row + 1/2
            duals.append(DualEdge(e.id, dvid(e.col - 1, e.row + 1), dvid(e.col, e.row + 1)))

    # dual row 0 holds ids 0..W-1, so the x-axis test is ``dv < W``
    ground = W * (H + 1)
    closed = tuple((ground if d.a < W else d.a, ground if d.b < W else d.b)
                   for d in duals)
    return DualGeometry(W, H, tuple(duals), tuple(range(W)), closed)


def connected_subsets(geom: BoxGeometry, max_size: int
                      ) -> list[tuple[int, ...]]:
    """Every connected vertex subset of size <= max_size, once each, as
    sorted tuples in sorted order.

    Subsets of size s + 1 are those of size s grown by one neighbour; a set
    drops the duplicates.  Raises BudgetExceededError as soon as a growing
    level brings the count of subsets past ``ENUM_BUDGET``.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    neighbors: list[set[int]] = [set() for _ in range(geom.n_vertices)]
    for e in geom.edges:
        neighbors[e.u].add(e.v)
        neighbors[e.v].add(e.u)
    found = level = [frozenset((v,)) for v in range(geom.n_vertices)]
    for _ in range(max_size - 1):
        grown: set[frozenset[int]] = set()
        for subset in level:
            grown.update(subset | {w} for v in subset for w in neighbors[v]
                         if w not in subset)
            if len(found) + len(grown) > ENUM_BUDGET:
                raise BudgetExceededError(
                    f"connected_subsets exceeded budget of {ENUM_BUDGET} items")
        level = list(grown)
        found = found + level
    return sorted(tuple(sorted(s)) for s in found)


def dual_circuits_and_paths(dual: DualGeometry, max_len: int
                            ) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Stream ("circuit", edge ids) and ("path", edge ids) items.

    Items are the simple cycles of the closed dual with at most ``max_len``
    edges, self-loops excluded (the W=2 doubled dual edge is a 2-circuit).  A
    cycle through the ground vertex is a path between two distinct x-axis
    vertices, which have degree <= 1.  Each item appears once; more than
    ``ENUM_BUDGET`` items raise BudgetExceededError.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ground = dual.n_dual_vertices
    adj: list[list[tuple[int, int]]] = [[] for _ in range(ground + 1)]
    for eid, (a, b) in enumerate(dual.closed):
        if a != b:
            adj[a].append((eid, b))
            adj[b].append((eid, a))
    emitted = 0
    # root = smallest vertex on the cycle; path_v: vertices, path_e: edge ids
    for root in range(ground):
        stack = [(root, [root], [])]
        while stack:
            v, path_v, path_e = stack.pop()
            for eid, w in adj[v]:
                if eid in path_e:
                    continue
                if w == root:
                    # canonical orientation: for 2-cycles order the two
                    # parallel edges; longer cycles fix second < last vertex
                    if (path_e[0] < eid if len(path_e) == 1
                            else path_v[1] < v):
                        emitted += 1
                        if emitted > ENUM_BUDGET:
                            raise BudgetExceededError(
                                "dual_circuits_and_paths exceeded budget "
                                f"of {ENUM_BUDGET} items")
                        kind = "path" if ground in path_v else "circuit"
                        yield kind, tuple(path_e + [eid])
                    continue
                if w < root or w in path_v:
                    continue
                if len(path_e) + 1 < max_len:
                    stack.append((w, path_v + [w], path_e + [eid]))
