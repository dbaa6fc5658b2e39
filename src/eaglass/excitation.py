"""Excitation energies, single- and two-bond critical structure.

For a finite vertex set A and relative configurations on it, the energy
difference between the two clamped minimizers splits into an exterior part
and an interior part that only involves couplings with both endpoints in A.
The exterior part is what drives everything here: half of it is the critical
value of an edge, and the four half-differences C1..C4 of a two-edge clamp
family pin down the exact piecewise-linear critical set in the (J_b, J_e)
plane.

Two-edge families use product constraints: the state for (eta_b, eta_e) fixes
only the two relative signs, which for vertex-disjoint edges means minimizing
over both full-clamp extensions.  The interior term then sums only the two
constrained couplings, so the C's are independent of J_b and J_e exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import fsum

import numpy as np

from .disorder import CouplingConfig
from .errors import BudgetExceededError
from .lattice import BoxGeometry
from .solver import Clamp, SpinPair, _energies, solve_batch
from .walls import Interface, interface

MAX_GRID_VERTICES = 22      # largest box ``grid_labels_enumeration`` walks

@dataclass(frozen=True)
class ExcitationRecord:
    state_a: SpinPair
    state_b: SpinPair
    delta_e: float
    h_interior: float
    delta_e_ext: float

    @classmethod
    def from_states(cls, J: CouplingConfig, eta: Clamp, eta_prime: Clamp,
                    state_a: SpinPair, state_b: SpinPair) -> "ExcitationRecord":
        """The record of the minimizers under eta and under eta_prime."""
        delta_e = state_a.energy - state_b.energy
        h = interior_hamiltonian(J, eta) - interior_hamiltonian(J, eta_prime)
        return cls(state_a, state_b, delta_e, h, delta_e - h)


def interior_edges(geom: BoxGeometry, vertices) -> list[int]:
    vertices = list(vertices)
    outside = [v for v in vertices if not 0 <= v < geom.n_vertices]
    if outside:
        raise ValueError(f"vertices {outside} outside the box")
    inside = np.zeros(geom.n_vertices, dtype=bool)
    inside[vertices] = True
    return np.flatnonzero(inside[geom.eu] & inside[geom.ev]).tolist()


def interior_hamiltonian(J: CouplingConfig, clamp: Clamp) -> float:
    """Energy restricted to couplings with both endpoints in the clamp set."""
    spin = np.zeros(J.geom.n_vertices)
    spin[list(clamp.vertices)] = clamp.signs
    prod = spin[J.geom.eu] * spin[J.geom.ev]  # nonzero on interior edges only
    return -fsum((J.values * prod)[prod != 0])


def excitation(J: CouplingConfig, eta: Clamp,
               eta_prime: Clamp) -> ExcitationRecord:
    """Excitation from eta to eta_prime on their common vertex set A."""
    if eta.vertices != eta_prime.vertices:
        raise ValueError("clamps must live on the same set A")
    state_a, state_b = solve_batch([J, J], [eta, eta_prime])
    return ExcitationRecord.from_states(J, eta, eta_prime, state_a, state_b)


def _edge_clamps(geom: BoxGeometry, edge_id: int) -> tuple[Clamp, Clamp]:
    """The edge's +_b clamp (equal endpoints) and its -_b clamp."""
    e = geom.edges[edge_id]
    return _endpoint_clamps(e.u, e.v)


@lru_cache(maxsize=1024)
def _endpoint_clamps(u: int, v: int) -> tuple[Clamp, Clamp]:
    return Clamp.equal_pair(u, v), Clamp.opposite_pair(u, v)


def critical_value(J: CouplingConfig, edge_id: int) -> float:
    """Half the exterior energy difference between the +_b and -_b states.

    Independent of the current value of J_b by construction.
    """
    return _critical_values([(J, edge_id)])[0]


def _edge_critical_value(J: CouplingConfig, edge_id: int, plus: SpinPair,
                         minus: SpinPair) -> float:
    """``critical_value(J, edge_id)`` from the +_b and -_b minimizers."""
    return 0.5 * ExcitationRecord.from_states(
        J, *_edge_clamps(J.geom, edge_id), plus, minus).delta_e_ext


def _critical_values(problems) -> list[float]:
    """``critical_value(J, edge_id)`` of each ``(J, edge_id)`` on one box,
    from one batch of solves."""
    states = solve_batch([J for J, _ in problems for _ in range(2)],
                         [cl for J, edge_id in problems
                          for cl in _edge_clamps(J.geom, edge_id)])
    return [_edge_critical_value(J, edge_id, *states[2 * k:2 * k + 2])
            for k, (J, edge_id) in enumerate(problems)]


@dataclass(frozen=True)
class FlipCensus:
    values: tuple[float, ...]
    labels: tuple[int, ...]          # endpoint sign product of the GSP
    n_transitions: int
    transition_interval: tuple[float, float] | None


def flip_census(J: CouplingConfig, edge_id: int, grid) -> FlipCensus:
    """Classify the unclamped GSP at each grid value of J_b."""
    values = tuple(float(x) for x in grid)
    if list(values) != sorted(values):
        raise ValueError("grid must be sorted")
    gsps = solve_batch([J.with_value(edge_id, x) for x in values],
                       [None] * len(values))
    labels = [gsp.edge_product(edge_id) for gsp in gsps]
    trans = [(values[i], values[i + 1])
             for i in range(len(values) - 1) if labels[i] != labels[i + 1]]
    return FlipCensus(values, tuple(labels), len(trans),
                      trans[0] if len(trans) == 1 else None)


# --------------------------------------------------------------------------
# two-bond critical sets

_COMBOS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_ETA_B, _ETA_E = np.array(_COMBOS).T
_CASE_TOL = 1e-12     # relative |C1 - C2| below which the set is a cross


@dataclass(frozen=True)
class CriticalSet2:
    edge_b: int
    edge_e: int
    c1: float
    c2: float
    c3: float
    c4: float
    case_kind: str                    # "cross" | "positive_diag" | "negative_diag"
    segments: tuple[dict, ...]
    f_values: dict = field(compare=False)  # (eta_b, eta_e) -> float

    def to_json_dict(self) -> dict:
        return {"b": self.edge_b, "e": self.edge_e,
                "C1": self.c1, "C2": self.c2, "C3": self.c3, "C4": self.c4,
                "case": self.case_kind, "segments": list(self.segments)}


@lru_cache(maxsize=1024)
def _pair_clamps(b_ends, e_ends, eta_b, eta_e) -> tuple[Clamp, ...]:
    """Every clamp of the two edges' endpoints that meets both endpoint
    products, the one with e.u signed like b.u first."""
    verts = list(dict.fromkeys(b_ends + e_ends))
    clamps = []
    for rest in product((1, -1), repeat=len(verts) - 1):
        sigma = dict(zip(verts, (1,) + rest))
        if (sigma[b_ends[0]] * sigma[b_ends[1]] == eta_b
                and sigma[e_ends[0]] * sigma[e_ends[1]] == eta_e):
            clamps.append(Clamp(verts, (1,) + rest))
    return tuple(clamps)


def two_bond_critical_set(J: CouplingConfig, edge_b: int,
                          edge_e: int) -> CriticalSet2:
    if edge_b == edge_e:
        raise ValueError("edges must differ")
    jb0 = J.value(edge_b)
    je0 = J.value(edge_e)
    b, e = J.geom.edges[edge_b], J.geom.edges[edge_e]
    groups = [_pair_clamps((b.u, b.v), (e.u, e.v), eta_b, eta_e)
              for eta_b, eta_e in _COMBOS]
    states = iter(solve_batch([J] * sum(map(len, groups)),
                              [cl for group in groups for cl in group]))
    f_values = {}
    for (eta_b, eta_e), group in zip(_COMBOS, groups):
        # the minimizer under both product constraints is the best state
        # over the group's clamps; on an exact tie the first clamp wins
        st = min((next(states) for _ in group), key=lambda sp: sp.energy)
        # exterior part: strip the two constrained couplings from the energy
        f_values[(eta_b, eta_e)] = st.energy + jb0 * eta_b + je0 * eta_e
    return _critical_set(edge_b, edge_e, f_values)


def _critical_set(edge_b: int, edge_e: int, f_values: dict) -> CriticalSet2:
    """The critical set of the exterior energies ``f_values`` of the four
    product classes, keyed by ``(eta_b, eta_e)``."""
    F = f_values
    c1 = 0.5 * (F[(1, 1)] - F[(-1, 1)])
    c2 = 0.5 * (F[(1, -1)] - F[(-1, -1)])
    c3 = 0.5 * (F[(1, 1)] - F[(1, -1)])
    c4 = 0.5 * (F[(-1, 1)] - F[(-1, -1)])
    scale = 1.0 + max(abs(c) for c in (c1, c2, c3, c4))
    if abs(c1 - c2) <= _CASE_TOL * scale:
        case = "cross"
        segments = (
            {"kind": "line", "orient": "vertical", "jb": c1,
             "separates": ["-b", "+b"]},
            {"kind": "line", "orient": "horizontal", "je": c3,
             "separates": ["-e", "+e"]},
        )
    elif c1 > c2:
        case = "positive_diag"
        segments = (
            {"kind": "ray", "orient": "horizontal", "je": c3, "jb_min": c1,
             "separates": ["+b-e", "+b+e"]},
            {"kind": "ray", "orient": "horizontal", "je": c4, "jb_max": c2,
             "separates": ["-b-e", "-b+e"]},
            {"kind": "ray", "orient": "vertical", "jb": c1, "je_min": c3,
             "separates": ["-b+e", "+b+e"]},
            {"kind": "ray", "orient": "vertical", "jb": c2, "je_max": c4,
             "separates": ["-b-e", "+b-e"]},
            {"kind": "segment", "orient": "diagonal_plus", "offset": c1 - c3,
             "jb_min": c2, "jb_max": c1, "je_min": c4, "je_max": c3,
             "separates": ["-b+e", "+b-e"]},
        )
    else:
        case = "negative_diag"
        segments = (
            {"kind": "ray", "orient": "horizontal", "je": c3, "jb_min": c2,
             "separates": ["+b-e", "+b+e"]},
            {"kind": "ray", "orient": "horizontal", "je": c4, "jb_max": c1,
             "separates": ["-b-e", "-b+e"]},
            {"kind": "ray", "orient": "vertical", "jb": c1, "je_min": c4,
             "separates": ["-b+e", "+b+e"]},
            {"kind": "ray", "orient": "vertical", "jb": c2, "je_max": c3,
             "separates": ["-b-e", "+b-e"]},
            {"kind": "segment", "orient": "diagonal_minus", "offset": c1 + c4,
             "jb_min": c1, "jb_max": c2, "je_min": c3, "je_max": c4,
             "separates": ["-b-e", "+b+e"]},
        )
    return CriticalSet2(edge_b, edge_e, c1, c2, c3, c4, case, segments,
                        f_values)


def analytic_label(cs: CriticalSet2, jb, je):
    """GSP label ``(eta_b, eta_e)`` at (jb, je) from the four exterior
    constants.

    jb and je broadcast together, and eta_b and eta_e have their shape
    (numpy scalars for scalar input); on a tie the first of ``_COMBOS``
    wins.
    """
    jb, je = np.asarray(jb, dtype=np.float64), np.asarray(je, dtype=np.float64)
    vals = np.stack([jb * eta_b + je * eta_e - cs.f_values[(eta_b, eta_e)]
                     for eta_b, eta_e in _COMBOS])
    best = np.argmax(vals, axis=0)
    return _ETA_B[best], _ETA_E[best]


def critical_set_distance(cs: CriticalSet2, jb, je):
    """Euclidean distance from (jb, je) to the critical set; jb and je
    broadcast together."""
    c1, c2, c3, c4 = cs.c1, cs.c2, cs.c3, cs.c4
    jb, je = np.asarray(jb, dtype=np.float64), np.asarray(je, dtype=np.float64)
    if cs.case_kind == "cross":
        return np.minimum(np.abs(jb - c1), np.abs(je - c3))
    if cs.case_kind == "positive_diag":
        k = c1 - c3
        t = np.minimum(np.maximum(0.5 * (jb + je + k), c2), c1)
        ds = (np.hypot(np.maximum(c1 - jb, 0.0), je - c3),
              np.hypot(np.maximum(jb - c2, 0.0), je - c4),
              np.hypot(jb - c1, np.maximum(c3 - je, 0.0)),
              np.hypot(jb - c2, np.maximum(je - c4, 0.0)),
              np.hypot(jb - t, je - (t - k)))
    else:
        s = c1 + c4
        t = np.minimum(np.maximum(0.5 * (jb - je + s), c1), c2)
        ds = (np.hypot(np.maximum(c2 - jb, 0.0), je - c3),
              np.hypot(np.maximum(jb - c1, 0.0), je - c4),
              np.hypot(jb - c1, np.maximum(c4 - je, 0.0)),
              np.hypot(jb - c2, np.maximum(je - c3, 0.0)),
              np.hypot(jb - t, je - (s - t)))
    return np.minimum.reduce(ds)


def expected_critical_b(cs: CriticalSet2, je: float) -> float:
    """Piecewise formula for the b critical value as a function of J_e."""
    if cs.case_kind == "cross":
        return cs.c1
    if cs.case_kind == "positive_diag":
        if je > cs.c3:
            return cs.c1
        if je < cs.c4:
            return cs.c2
        return je + cs.c1 - cs.c3
    if je > cs.c4:
        return cs.c1
    if je < cs.c3:
        return cs.c2
    return cs.c1 + cs.c4 - je


def expected_critical_e(cs: CriticalSet2, jb: float) -> float:
    if cs.case_kind == "cross":
        return cs.c3
    if cs.case_kind == "positive_diag":
        if jb > cs.c1:
            return cs.c3
        if jb < cs.c2:
            return cs.c4
        return jb - (cs.c1 - cs.c3)
    if jb > cs.c2:
        return cs.c3
    if jb < cs.c1:
        return cs.c4
    return cs.c1 + cs.c4 - jb


@dataclass(frozen=True)
class ConsistencyReport:
    checks: tuple[dict, ...]
    max_abs_err: float


def consistency_check(J: CouplingConfig, cs: CriticalSet2) -> ConsistencyReport:
    """Recompute single-bond critical values in each region of the other
    coupling and compare with the piecewise formulas of the critical set."""
    delta = 1.0 + 0.1 * (abs(cs.c1) + abs(cs.c2) + abs(cs.c3) + abs(cs.c4))
    lo_e, hi_e = min(cs.c3, cs.c4), max(cs.c3, cs.c4)
    lo_b, hi_b = min(cs.c1, cs.c2), max(cs.c1, cs.c2)
    reps_e = [("above", hi_e + delta), ("below", lo_e - delta)]
    reps_b = [("above", hi_b + delta), ("below", lo_b - delta)]
    if cs.case_kind != "cross":
        if hi_e - lo_e > 1e-6:
            reps_e.append(("middle", 0.5 * (lo_e + hi_e)))
        if hi_b - lo_b > 1e-6:
            reps_b.append(("middle", 0.5 * (lo_b + hi_b)))
    recomputed = iter(_critical_values(
        [(J.with_value(cs.edge_e, je), cs.edge_b) for _, je in reps_e]
        + [(J.with_value(cs.edge_b, jb), cs.edge_e) for _, jb in reps_b]))
    checks = []
    for region, je in reps_e:
        got = next(recomputed)
        want = expected_critical_b(cs, je)
        checks.append({"edge": "b", "region": region, "other_value": je,
                       "recomputed": got, "expected": want,
                       "abs_err": abs(got - want)})
    for region, jb in reps_b:
        got = next(recomputed)
        want = expected_critical_e(cs, jb)
        checks.append({"edge": "e", "region": region, "other_value": jb,
                       "recomputed": got, "expected": want,
                       "abs_err": abs(got - want)})
    return ConsistencyReport(tuple(checks),
                             max(c["abs_err"] for c in checks))


def grid_labels_enumeration(J: CouplingConfig, edge_b: int, edge_e: int,
                            jb_grid, je_grid) -> np.ndarray:
    """Oracle GSP labels over a (J_b, J_e) grid by exhaustive enumeration.

    Returns an array of shape (len(jb_grid), len(je_grid), 2) with the two
    endpoint sign products of the exact ground state at each grid point.
    Independent of the clamped-solve route: plain enumeration over all
    configurations with vertex 0 pinned, in ``brute_force``'s chunks.  Only
    the product class (eta_b, eta_e) of a configuration sets how its energy
    moves with J_b and J_e, so each class keeps its lowest energy ``e0`` at
    J and the first configuration reaching it, and every grid cell takes the
    argmin over at most four class energies, ordered by those first
    configurations.  Rounding ``e0 - c`` is
    monotone in ``e0``, so this is the first minimizer of the full
    enumeration, except on an exact tie between classes where two ``e0`` of
    one class round to the same energy; exact (integer or dyadic) couplings
    never round two ``e0`` together.
    """
    geom = J.geom
    if geom.n_vertices > MAX_GRID_VERTICES:
        raise BudgetExceededError("enumeration grid oracle limited to "
                                  f"{MAX_GRID_VERTICES} vertices")
    eb, ee = geom.edges[edge_b], geom.edges[edge_e]
    low, first = [np.inf] * 4, [0] * 4      # per class, indexed like _COMBOS
    for start, S, E in _energies(J, {0: 1}):
        rows = np.arange(len(E))
        by_class = np.full((4, len(E)), np.inf)
        by_class[(S[:, eb.u] != S[:, eb.v]) * 2 + (S[:, ee.u] != S[:, ee.v]),
                 rows] = E
        at = np.argmin(by_class, axis=1)
        for k, e in enumerate(by_class[range(4), at].tolist()):
            if e < low[k]:
                low[k], first[k] = e, start + int(at[k])
    classes = [k for _, k in sorted((first[k], k) for k in range(4)
                                    if low[k] < np.inf)]
    sb, se = _ETA_B[classes], _ETA_E[classes]
    xs = np.asarray(jb_grid, dtype=np.float64)[:, None, None] - J.value(edge_b)
    ys = np.asarray(je_grid, dtype=np.float64)[None, :, None] - J.value(edge_e)
    am = np.argmin((np.array(low)[classes] - xs * sb) - ys * se, axis=2)
    return np.stack((sb[am], se[am]), axis=-1).astype(np.int8)


def critical_contour(J: CouplingConfig, edge_id: int) -> Interface:
    """Interface between the minimizers with the edge's endpoint product
    forced +1 and -1; always contains the edge's dual."""
    plus, minus = solve_batch([J, J], _edge_clamps(J.geom, edge_id))
    return interface(J, plus, minus)
