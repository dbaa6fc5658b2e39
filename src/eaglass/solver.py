"""Exact minimizers of the box Hamiltonian, with a brute-force oracle.

``solve`` runs a row-by-row dynamic program over per-row spin bitmasks.  The
row-to-row transition is factorized per column (one bit replaced at a time),
so the cost is O(height * width * 2^width); the wrap coupling enters through
the intra-row cost, which sees the whole row mask.  Backpointers record every
optimal choice, so exact ties can be enumerated and broken deterministically:
the returned configuration has the lexicographically smallest canonical bit
pattern among all minimizers, and the pair is flagged as tied.

Configurations are pairs modulo a global flip.  Internally one representative
is pinned by the clamp's signs (or vertex 0 at +1), entered as infinite row
costs; the stored canonical form instead gives +1 to the lowest-indexed vertex
not determined by the clamp, so equal pairs compare equal elementwise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from math import fsum

import numpy as np

from .errors import BudgetExceededError
from .disorder import CouplingConfig
from .lattice import (BoxGeometry, build_box, build_dual,
                      connected_subsets, dual_circuits_and_paths,
                      horizontal_edges_per_row)

MAX_SOLVE_WIDTH = 16
MAX_BRUTE_VERTICES = 24
_TIE_CAP = 20000


@dataclass(frozen=True)
class Clamp:
    """Relative spins on a vertex set, stored with the lowest vertex at +1."""

    vertices: tuple[int, ...]
    signs: tuple[int, ...]

    def __init__(self, vertices, signs):
        pairs = sorted(zip(vertices, signs))
        if not pairs:
            raise ValueError("clamp must cover at least one vertex")
        vs = tuple(v for v, _ in pairs)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate clamp vertices")
        ss = tuple(int(s) for _, s in pairs)
        if any(s not in (1, -1) for s in ss):
            raise ValueError("clamp signs must be +1 or -1")
        if ss[0] < 0:
            ss = tuple(-s for s in ss)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "signs", ss)

    @staticmethod
    def equal_pair(u: int, v: int) -> "Clamp":
        return Clamp((u, v), (1, 1))

    @staticmethod
    def opposite_pair(u: int, v: int) -> "Clamp":
        return Clamp((u, v), (1, -1))


@dataclass(frozen=True)
class SpinPair:
    """A spin configuration modulo global flip, in canonical form."""

    geom: BoxGeometry
    signs: np.ndarray = field(compare=False)
    energy: float
    tied: bool = False

    def __post_init__(self):
        self.signs.setflags(write=False)

    def edge_product(self, edge_id: int) -> int:
        e = self.geom.edges[edge_id]
        return int(self.signs[e.u]) * int(self.signs[e.v])

    def same_pair(self, other: "SpinPair") -> bool:
        return bool(np.array_equal(self.signs, other.signs)
                    or np.array_equal(self.signs, -other.signs))


def _edge_terms(J: CouplingConfig, spins) -> np.ndarray:
    """J_e * s_u * s_v per edge for a ``SpinPair`` or signs on J's box."""
    geom = J.geom
    if isinstance(spins, SpinPair):
        if spins.geom is not geom and spins.geom != geom:
            raise ValueError("spin pair and couplings live on different boxes")
        spins = spins.signs
    signs = np.asarray(spins)
    if signs.shape != (geom.n_vertices,):
        raise ValueError(f"{signs.shape} signs for {geom.n_vertices} vertices")
    return J.values * signs[geom.eu] * signs[geom.ev]


def energy(J: CouplingConfig, spins) -> float:
    """-sum of J_e * s_u * s_v over all box edges, compensated summation."""
    return -fsum(_edge_terms(J, spins))


def canonical_anchor(geom: BoxGeometry, clamp: Clamp | None) -> int:
    if clamp is None:
        return 0
    clamped = set(clamp.vertices)
    for v in range(geom.n_vertices):
        if v not in clamped:
            return v
    return clamp.vertices[0]


def canonicalize(geom: BoxGeometry, signs: np.ndarray, clamp: Clamp | None) -> np.ndarray:
    anchor = canonical_anchor(geom, clamp)
    out = signs if signs[anchor] > 0 else -signs
    return np.ascontiguousarray(out, dtype=np.int8)


def _forced_signs(geom: BoxGeometry, clamp: Clamp | None) -> dict[int, int]:
    """Absolute signs pinning one representative of each pair modulo flip."""
    if clamp is None:
        return {0: 1}
    for v in clamp.vertices:
        if not 0 <= v < geom.n_vertices:
            raise ValueError(f"clamp vertex {v} outside geometry")
    return dict(zip(clamp.vertices, clamp.signs))


def _pattern(signs: np.ndarray) -> bytes:
    return ((1 - signs) // 2).astype(np.uint8).tobytes()


# --------------------------------------------------------------------------
# transfer-matrix solver


def _transition_column(cur, nxt, j_vert, bp, c):
    """One column step of the row-to-row transition.

    Replaces bit c of the frontier: for each target mask the cost of the
    vertical edge is -J * old * new; bp gets 1 / 2 / 3 for old-bit-0 optimal,
    old-bit-1 optimal, or an exact tie.
    """
    hi, lo = cur.shape[0] >> (c + 1), 1 << c
    f3 = cur.reshape(hi, 2, lo)
    f0, f1 = f3[:, 0, :], f3[:, 1, :]
    t0, t1 = f0 - j_vert, f1 + j_vert   # new spin -1
    u0, u1 = f0 + j_vert, f1 - j_vert   # new spin +1
    n3 = nxt.reshape(hi, 2, lo)
    b3 = bp.reshape(hi, 2, lo)
    np.minimum(t0, t1, out=n3[:, 0, :])
    np.minimum(u0, u1, out=n3[:, 1, :])
    b3[:, 0, :] = (t0 == n3[:, 0, :]) | ((t1 == n3[:, 0, :]) << 1)
    b3[:, 1, :] = (u0 == n3[:, 1, :]) | ((u1 == n3[:, 1, :]) << 1)


_PLANS = threading.local()


def _plan(width: int, height: int):
    """``(masks, pairs, cur, nxt, backptr, rowcost)`` of one box shape, kept
    per thread; pairs[m, a] is the sign product of the horizontal edge at
    column a in row mask m.  Reusing the multi-megabyte backpointer block
    avoids the stall of a fresh allocation per solve."""
    store = _PLANS.__dict__.setdefault("store", {})
    key = (width, height)
    if key not in store:
        if len(store) >= 8:
            store.clear()
        n = 1 << width
        masks = np.arange(n, dtype=np.int64)
        sign = ((masks[:, None] >> np.arange(width)) & 1) * 2.0 - 1.0
        a = np.arange(horizontal_edges_per_row(width))
        store[key] = (masks, sign[:, a] * sign[:, (a + 1) % width],
                      np.empty(n), np.empty(n),
                      np.empty((height - 1, width, n), dtype=np.uint8),
                      np.empty((n, height)))
    return store[key]


def solve(geom: BoxGeometry, J: CouplingConfig,
          clamp: Clamp | None = None) -> SpinPair:
    """Exact minimizer over configurations modulo flip respecting the clamp;
    ``geom`` must be ``J.geom`` (kept because perfbench's tracer reads it)."""
    if J.geom is not geom and J.geom != geom:
        raise ValueError("couplings live on another box than geom")
    W, H = geom.width, geom.height
    if W > MAX_SOLVE_WIDTH:
        raise BudgetExceededError(
            f"width {W} exceeds solver budget {MAX_SOLVE_WIDTH}")
    forced = _forced_signs(geom, clamp)
    masks, pairs, cur, nxt, backptr, rowcost = _plan(W, H)
    # build_box numbers the horizontal edges first, row by row; the
    # contiguous copy keeps the matmul's summation order fixed
    n_h = pairs.shape[1]
    j_rows = np.ascontiguousarray(J.values[:n_h * H].reshape(H, n_h).T)
    np.matmul(pairs, j_rows, out=rowcost)
    np.negative(rowcost, out=rowcost)
    # rows contradicting a forced sign cost inf, and finite + inf = inf
    for v, s in forced.items():
        c, r = geom.vertex_cr(v)
        rowcost[((masks >> c) & 1) != (s > 0), r] = np.inf
    # the vertical edges follow the horizontal ones, row by row
    vert_j = J.values[geom.n_edges - W * (H - 1):].reshape(H - 1, W)

    np.copyto(cur, rowcost[:, 0])
    for r in range(H - 1):
        for c in range(W):
            _transition_column(cur, nxt, float(vert_j[r, c]), backptr[r, c], c)
            cur, nxt = nxt, cur
        cur += rowcost[:, r + 1]

    best = cur.min()
    if not np.isfinite(best):
        raise RuntimeError("no admissible configuration (unsatisfiable clamp?)")
    configs = _enumerate_optimal(backptr, np.flatnonzero(cur == best).tolist())
    signs = min((canonicalize(geom, _rows_to_signs(rows, W), clamp)
                 for rows in configs), key=_pattern)
    return SpinPair(geom, signs, energy(J, signs), tied=len(configs) > 1)


def _rows_to_signs(rows, W):
    bits = (np.array(rows, dtype=np.int64)[:, None] >> np.arange(W)) & 1
    return (2 * bits - 1).astype(np.int8).ravel()


def _enumerate_optimal(backptr, finals):
    """Every optimal row-mask sequence, grown from the top row down; raises
    past ``_TIE_CAP`` of them (a partial sequence always completes)."""
    seqs = [(m,) for m in finals]
    for r in reversed(range(backptr.shape[0])):
        grown = []
        for seq in seqs:
            states = {seq[0]}
            for c in reversed(range(backptr.shape[1])):
                bit, bp, prev = 1 << c, backptr[r, c], set()
                for st in states:
                    ch = bp[st]     # one lookup: numpy scalar reads are slow
                    if ch & 1:
                        prev.add(st & ~bit)
                    if ch & 2:
                        prev.add(st | bit)
                states = prev
            grown.extend((p,) + seq for p in states)
            if len(grown) > _TIE_CAP:
                raise BudgetExceededError("tie degeneracy exceeds enumeration cap")
        seqs = grown
    return seqs


# --------------------------------------------------------------------------
# brute-force oracle

_CHUNK_BITS = 16


def _spin_products(geom: BoxGeometry, base: np.ndarray, free, idx: np.ndarray):
    """Spin rows and their edge products, one row per index in ``idx``.

    Row i copies ``base`` and sets vertex free[j] to +1 / -1 from bit j of
    idx[i]; the products are s_u * s_v per edge as float64.
    """
    S = np.repeat(base[None, :], len(idx), axis=0)
    for j, v in enumerate(free):
        S[:, v] = (((idx >> j) & 1) * 2 - 1).astype(np.int8)
    return S, (S[:, geom.eu] * S[:, geom.ev]).astype(np.float64)


def brute_force(J: CouplingConfig, clamp: Clamp | None = None) -> SpinPair:
    """Exhaustive minimum over all configurations modulo flip.

    Same canonicalization and tie policy as ``solve``; kept independent of it
    (plain enumeration, no dynamic programming).
    """
    geom = J.geom
    V = geom.n_vertices
    if V > MAX_BRUTE_VERTICES:
        raise BudgetExceededError(f"{V} vertices exceed brute-force budget")
    forced = _forced_signs(geom, clamp)
    free = [v for v in range(V) if v not in forced]
    k = len(free)
    base = np.zeros(V, dtype=np.int8)
    for v, s in forced.items():
        base[v] = s

    best_energy = np.inf
    best_pat = None
    best_signs = None
    n_best = 0
    total = 1 << k
    step = 1 << min(k, _CHUNK_BITS)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        S, prod = _spin_products(geom, base, free, idx)
        E = -(prod @ J.values)
        m = float(E.min())
        if m < best_energy:
            best_energy = m
            best_pat = None
            best_signs = None
            n_best = 0
        if m <= best_energy:
            for row in np.flatnonzero(E == best_energy):
                n_best += 1
                canon = canonicalize(geom, S[row], clamp)
                pat = _pattern(canon)
                if best_pat is None or pat < best_pat:
                    best_pat, best_signs = pat, canon
    return SpinPair(geom, best_signs, energy(J, best_signs), tied=n_best > 1)


# --------------------------------------------------------------------------
# ground-state-pair verification


@dataclass(frozen=True)
class GspViolation:
    kind: str            # "subset" | "circuit" | "path"
    items: tuple         # vertex ids for subsets, edge ids for dual objects
    value: float


@dataclass(frozen=True)
class GspReport:
    checked_subsets: int
    checked_duals: int
    violations: tuple[GspViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@lru_cache(maxsize=32)
def _subset_boundaries(width, height, max_size):
    geom = build_box(width, height)
    out = []
    for subset in connected_subsets(geom, max_size):
        inside = np.zeros(geom.n_vertices, dtype=bool)
        inside[list(subset)] = True
        out.append((subset, np.flatnonzero(inside[geom.eu] != inside[geom.ev])))
    return out


@lru_cache(maxsize=32)
def _dual_flip_sets(width, height, max_len):
    dual = build_dual(width, height)
    return [(kind, np.array(eids, dtype=np.int64))
            for kind, eids in dual_circuits_and_paths(dual, max_len)]


def verify_gsp(J: CouplingConfig, spins,
               max_subset_size: int = 3, max_dual_len: int = 6,
               exclude: tuple[int, ...] = ()) -> GspReport:
    """Report every finite-volume ground-state-property violation.

    Subsets S intersecting ``exclude`` (a clamp's vertex set) are skipped;
    with a non-empty ``exclude`` the dual circuit/path route is skipped too,
    since those flips are not clamp-preserving in general.
    """
    geom = J.geom
    contrib = _edge_terms(J, spins)
    excluded = frozenset(exclude)

    violations = []
    n_sub = 0
    for subset, bids in _subset_boundaries(geom.width, geom.height, max_subset_size):
        if excluded and not excluded.isdisjoint(subset):
            continue
        n_sub += 1
        val = float(contrib[bids].sum())
        if val <= 0.0:
            violations.append(GspViolation("subset", subset, val))
    n_dual = 0
    if not excluded:
        for kind, eids in _dual_flip_sets(geom.width, geom.height, max_dual_len):
            n_dual += 1
            val = float(contrib[eids].sum())
            if val <= 0.0:
                violations.append(GspViolation(kind, tuple(int(i) for i in eids), val))
    return GspReport(n_sub, n_dual, tuple(violations))
