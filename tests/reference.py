"""Slow, independent versions of library computations, kept for the tests to
compare the library against.

``best_pair`` is the solver's traceback as it was before it went batched: a
walk of one problem's backpointers with Python sets.  ``locate_flip`` brackets
a critical value by bisection on full re-solves, independent of the
exterior-energy formula that ``excitation.critical_value`` uses.
"""

from __future__ import annotations

import numpy as np

from eaglass.disorder import CouplingConfig
from eaglass.errors import BudgetExceededError
from eaglass.excitation import ExcitationRecord, _edge_clamps, excitation
from eaglass.lattice import BoxGeometry
from eaglass.solver import (_TIE_CAP, Clamp, SpinPair, _pattern, canonicalize,
                            energy, solve)


def rows_to_signs(rows, W):
    bits = (np.array(rows, dtype=np.int64)[:, None] >> np.arange(W)) & 1
    return (2 * bits - 1).astype(np.int8).ravel()


def enumerate_optimal(backptr, finals):
    """Every optimal row-mask sequence of one problem, grown from the top row
    down; ``backptr`` has shape (H-1, W, 2^W).  Raises past ``_TIE_CAP`` of
    them (a partial sequence always completes)."""
    seqs = [(m,) for m in finals]
    for r in reversed(range(backptr.shape[0])):
        grown = []
        for seq in seqs:
            states = {seq[0]}
            for c in reversed(range(backptr.shape[1])):
                bit, bp, prev = 1 << c, backptr[r, c], set()
                for st in states:
                    ch = bp[st]
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


def best_pair(geom: BoxGeometry, J: CouplingConfig, clamp: Clamp | None,
              backptr, final) -> SpinPair:
    """The canonical optimum of one problem from its final frontier (2^W,)
    and backpointers (H-1, W, 2^W)."""
    best = final.min()
    if not np.isfinite(best):
        raise RuntimeError("no admissible configuration (unsatisfiable clamp?)")
    configs = enumerate_optimal(backptr, np.flatnonzero(final == best).tolist())
    signs = min((canonicalize(geom, rows_to_signs(rows, geom.width), clamp)
                 for rows in configs), key=_pattern)
    return SpinPair(geom, signs, energy(J, signs), tied=len(configs) > 1)


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
