"""Slow, independent versions of library computations, kept for the tests to
compare the library against.

``row_costs`` is minus each row mask's horizontal energy as the solver
sums it, with no BLAS: the sign products of the table the solver once kept,
added left to right.  ``column_step`` is the kernel's column step in numpy:
it replaces bit c of every mask in place.  On a symmetric frontier, which
holds only the masks with bit W-1 down, steps c < W-1 are column steps of
that half, and ``mirror_step`` is step W-1.  ``unpack`` reads the kernel's
2-bit codes, four to a byte.  ``best_pair`` is a walk of one problem's
backpointers with Python sets, the traceback as it was before it went
batched; ``unfold`` gives it the whole layers of a sweep whose first rows
ran on symmetric frontiers.  ``exact_minimizers`` enumerates every
configuration a clamp allows and sums its energy in exact integers, so
unlike ``brute_force`` it sees no rounding tie.  ``verify_gsp_loop`` is
``verify_gsp`` as it was before its sums were grouped by boundary length:
one 1-D sum per flip.
``locate_flip`` brackets a critical value by bisection on full re-solves,
independent of the exterior-energy formula that ``excitation.critical_value``
uses.
``grid_labels_loop`` is ``grid_labels_enumeration`` as it was before it
reduced the enumeration to product-class minima: one argmin over every
configuration per grid row.
``sampled_values`` is the coupling sampler as it was before a draw shared
one hash state across its edges: per edge, a fresh keyed BLAKE2b of the
whole packed (seed, sample, edge key) tuple, read as an integer and mapped
through the law's inverse CDF one scalar at a time.
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from statistics import NormalDist

import numpy as np

from eaglass.disorder import CouplingConfig
from eaglass.errors import BudgetExceededError
from eaglass.excitation import ExcitationRecord, _edge_clamps, excitation
from eaglass.lattice import (BoxGeometry, build_dual, connected_subsets,
                             dual_circuits_and_paths, horizontal_edges_per_row)
from eaglass.solver import (_TIE_CAP, Clamp, GspReport, GspViolation,
                            SpinPair, _edge_terms, _pattern, _spin_products,
                            canonicalize, energy, solve)


def rows_to_signs(rows, W):
    bits = (np.array(rows, dtype=np.int64)[:, None] >> np.arange(W)) & 1
    return (2 * bits - 1).astype(np.int8).ravel()


def row_costs(values, width, height):
    """(H, 2^W): entry [r, m] is minus the sum of J_a * s_a * s_(a+1 mod W)
    over row r's horizontal edges a = 0, 1, ... for row mask m, the sum
    taken left to right from 0.0 with elementwise adds."""
    n_h = horizontal_edges_per_row(width)
    masks = np.arange(1 << width, dtype=np.int64)
    sign = ((masks[:, None] >> np.arange(width)) & 1) * 2.0 - 1.0
    a = np.arange(n_h)
    pairs = sign[:, a] * sign[:, (a + 1) % width]
    j_rows = np.asarray(values)[:n_h * height].reshape(height, n_h)
    out = np.zeros((height, 1 << width))
    with np.errstate(over="ignore", invalid="ignore"):  # IEEE inf and NaN
        for e in range(n_h):
            out += pairs[:, e] * j_rows[:, e, None]
    return -out


def column_step(cur, nxt, j_vert, bp, c):
    """One column step of K problems that replaces bit c of every mask.

    ``cur``, ``nxt`` and ``bp`` have shape (K, 2^W) and ``j_vert`` shape
    (K, 1, 1).  For each target mask the cost of the vertical edge is
    -J * old * new; bp gets 1 / 2 / 3 for old-bit-0 optimal, old-bit-1
    optimal, or an exact tie.
    """
    k, n = cur.shape
    hi, lo = n >> (c + 1), 1 << c
    f3 = cur.reshape(k, hi, 2, lo)
    f0, f1 = f3[:, :, 0], f3[:, :, 1]
    t0, t1 = f0 - j_vert, f1 + j_vert   # new spin -1
    u0, u1 = f0 + j_vert, f1 - j_vert   # new spin +1
    n3 = nxt.reshape(k, hi, 2, lo)
    b3 = bp.reshape(k, hi, 2, lo)
    np.minimum(t0, t1, out=n3[:, :, 0])
    np.minimum(u0, u1, out=n3[:, :, 1])
    b3[:, :, 0] = (t0 == n3[:, :, 0]) | ((t1 == n3[:, :, 0]) << 1)
    b3[:, :, 1] = (u0 == n3[:, :, 1]) | ((u1 == n3[:, :, 1]) << 1)


def _pick(a, d, out, code):
    """The kernel's entry of predecessors a (old spin down) and d (old spin
    up): np.minimum, ties going to d and NaN propagating; code 1 / 2 / 3 for
    a, d or a tie, 0 if NaN."""
    np.minimum(a, d, out=out)
    code[...] = (a <= d) | ((a >= d) << 1)


def mirror_step(cur, nxt, j_vert, bp):
    """Column step W-1 of K problems whose frontiers are symmetric.

    ``cur``, ``nxt`` and ``bp`` have shape (K, 2^(W-1)): entry i is that of
    mask i with bit W-1 down, which equals the entry of its flip.  Its pair's
    mask with bit W-1 up, i | 2^(W-1), is the flip of the mirrored entry
    2^(W-1)-1-i, so new entry i takes a = cur[i] + -J (old spin down) and
    d = cur[2^(W-1)-1-i] - -J (up).  At W=1 the one entry is both
    predecessors.  ``j_vert`` broadcasts against (K, 1).
    """
    _pick(cur + -j_vert, cur[:, ::-1] - -j_vert, nxt, bp)


def unpack(packed, n):
    """The first n 2-bit codes of each layer of ``packed`` (..., ceil(n/4)),
    entry i's at bits 2 * (i % 4) of byte i / 4."""
    codes = (packed[..., None] >> np.arange(0, 8, 2, dtype=np.uint8)) & 3
    return codes.reshape(*packed.shape[:-1], 4 * packed.shape[-1])[..., :n]


def unfold(backptr, final, sym):
    """One problem's packed backpointers (H-1, W, ceil(2^W/4)) and final
    frontier (2^W,) as ``best_pair`` reads them, (H-1, W, 2^W) codes, from
    a sweep whose rows before ``sym`` were symmetric: a layer r with
    r + 1 < sym holds only its masks below 2^(W-1), and mask m above takes
    the code of ~m with old spins down and up swapped; a symmetric final
    frontier (sym = H) keeps its lower half, one member of each flipped
    pair, and gets inf above it."""
    backptr, final = unpack(backptr, len(final)), final.copy()
    half = len(final) // 2
    for r in range(min(sym, len(backptr) + 1) - 1):
        low = backptr[r, :, :half]
        backptr[r, :, half:] = (((low & 1) << 1) | (low >> 1))[:, ::-1]
    if sym > len(backptr):
        final[half:] = np.inf
    return backptr, final


def enumerate_optimal(backptr, finals):
    """Every optimal row-mask sequence of one problem, grown from the top row
    down; ``backptr`` has shape (H-1, W, 2^W), indexed by the mask after
    each column step.  Stepping back over step c puts the old spin back as
    bit c.  Raises past ``_TIE_CAP`` of them (a partial sequence always
    completes)."""
    seqs = [(m,) for m in finals]
    for r in reversed(range(backptr.shape[0])):
        grown = []
        for seq in seqs:
            states = {seq[0]}
            for c in reversed(range(backptr.shape[1])):
                bp, prev = backptr[r, c], set()
                for st in states:
                    ch, down = bp[st], st & ~(1 << c)
                    if ch & 1:
                        prev.add(down)
                    if ch & 2:
                        prev.add(down | 1 << c)
                states = prev
            grown.extend((p,) + seq for p in states)
            if len(grown) > _TIE_CAP:
                raise BudgetExceededError("tie degeneracy exceeds enumeration cap")
        seqs = grown
    return seqs


def best_pair(geom: BoxGeometry, J: CouplingConfig, clamp: Clamp | None,
              backptr, final) -> SpinPair:
    """The canonical optimum of one problem from its final frontier (2^W,)
    and codes (H-1, W, 2^W)."""
    best = final.min()
    if not np.isfinite(best):
        raise RuntimeError("no admissible configuration (unsatisfiable clamp?)")
    configs = enumerate_optimal(backptr, np.flatnonzero(final == best).tolist())
    signs = min((canonicalize(geom, rows_to_signs(rows, geom.width), clamp)
                 for rows in configs), key=_pattern)
    return SpinPair(geom, signs, energy(J, signs), tied=len(configs) > 1)


def exact_minimizers(J: CouplingConfig, clamp: Clamp | None = None) -> list:
    """The signs, canonicalized for ``clamp``, of every configuration the
    clamp allows (vertex 0 at +1 with none) whose energy is least when
    summed exactly: each coupling as an integer multiple of the smallest
    power of two among their denominators."""
    g = J.geom
    ratios = [float(v).as_integer_ratio() for v in J.values]
    den = max(d for _, d in ratios)
    j = np.array([n * (den // d) for n, d in ratios], dtype=object)
    forced = dict(zip(clamp.vertices, clamp.signs)) if clamp else {0: 1}
    base = np.zeros(g.n_vertices, np.int8)
    base[list(forced)] = list(forced.values())
    free = [v for v in range(g.n_vertices) if v not in forced]
    signs, _ = _spin_products(g, base, free, np.arange(1 << len(free)))
    prod = signs[:, g.eu].astype(np.int64) * signs[:, g.ev]
    e = -(prod.astype(object) @ j)
    return [canonicalize(g, signs[i], clamp).tolist()
            for i in np.flatnonzero(e == e.min())]


def verify_gsp_loop(J: CouplingConfig, spins, max_subset_size: int = 3,
                    max_dual_len: int = 6, exclude=()) -> GspReport:
    """``verify_gsp`` with one ``contrib[boundary].sum()`` per subset, then
    per dual circuit or path, each enumerated afresh."""
    geom = J.geom
    contrib = _edge_terms(J, spins)
    excluded = frozenset(exclude)
    violations = []
    n_sub = 0
    for subset in connected_subsets(geom, max_subset_size):
        inside = np.zeros(geom.n_vertices, dtype=bool)
        inside[list(subset)] = True
        bids = np.flatnonzero(inside[geom.eu] != inside[geom.ev])
        if not len(bids) or not excluded.isdisjoint(subset):
            continue
        n_sub += 1
        val = float(contrib[bids].sum())
        if val <= 0.0:
            violations.append(GspViolation("subset", subset, val))
    n_dual = 0
    if not excluded:
        dual = build_dual(geom.width, geom.height)
        for kind, eids in dual_circuits_and_paths(dual, max_dual_len):
            n_dual += 1
            eids = np.array(eids, dtype=np.int64)
            val = float(contrib[eids].sum())
            if val <= 0.0:
                violations.append(
                    GspViolation(kind, tuple(int(i) for i in eids), val))
    return GspReport(n_sub, n_dual, tuple(violations))


def edge_excitation(J: CouplingConfig, edge_id: int) -> ExcitationRecord:
    """Excitation from the edge's +_b clamp to its -_b one."""
    return excitation(J, *_edge_clamps(J.geom, edge_id))


def locate_flip(J: CouplingConfig, edge_id: int) -> tuple[float, float]:
    """Certified enclosure of the critical value by doubling plus bisection.

    Independent of the exterior-energy formula: each probe is a full solve at
    a replaced J_b, classified by the endpoint sign product.
    """

    def label(x: float) -> int:
        return solve(J.geom, J.with_value(edge_id, x)).edge_product(edge_id)

    lo, hi = -1.0, 1.0
    while label(lo) > 0:
        lo *= 2.0
        if lo < -1e12:
            raise BudgetExceededError("no lower bracket for flip point")
    while label(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            raise BudgetExceededError("no upper bracket for flip point")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if label(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def grid_labels_loop(J: CouplingConfig, edge_b: int, edge_e: int,
                     jb_grid, je_grid) -> np.ndarray:
    """Endpoint sign products of the first minimizing configuration (vertex
    0 pinned) at each (J_b, J_e) grid point, shape (len(jb_grid),
    len(je_grid), 2)."""
    V = J.geom.n_vertices
    base = np.zeros(V, dtype=np.int8)
    base[0] = 1
    _, prod = _spin_products(J.geom, base, range(1, V),
                             np.arange(1 << (V - 1), dtype=np.int64))
    e0 = -(prod @ J.values)
    sb = prod[:, edge_b]
    se = prod[:, edge_e]
    jb0, je0 = J.value(edge_b), J.value(edge_e)
    xs = np.asarray(jb_grid, dtype=np.float64)
    ys = np.asarray(je_grid, dtype=np.float64)
    out = np.empty((len(xs), len(ys), 2), dtype=np.int8)
    for i, x in enumerate(xs):
        e_x = e0 - (x - jb0) * sb
        energies = e_x[None, :] - (ys[:, None] - je0) * se[None, :]
        am = np.argmin(energies, axis=1)
        out[i, :, 0] = sb[am]
        out[i, :, 1] = se[am]
    return out


def sampled_values(geom: BoxGeometry, kind: str, scale: float,
                   master_seed: int, sample_index: int) -> np.ndarray:
    """Each edge's coupling of the ``kind`` law with scale parameter
    ``scale``, one edge at a time."""
    vals = []
    for e in geom.edges:
        kind_e, c_abs, r = e.key
        msg = struct.pack(">qqBqq", master_seed, sample_index,
                          0 if kind_e == "h" else 1, c_abs, r)
        digest = blake2b(msg, digest_size=8, person=b"ea-coupling").digest()
        u = ((int.from_bytes(digest, "big") >> 11) + 0.5) * 2.0**-53
        if kind == "gaussian":
            vals.append(scale * NormalDist().inv_cdf(u))
        else:
            vals.append((2.0 * u - 1.0) * scale)
    return np.array(vals, np.float64)
