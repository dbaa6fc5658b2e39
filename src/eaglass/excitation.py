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

import math
from dataclasses import dataclass, field
from itertools import product
from math import fsum

import numpy as np

from .disorder import CouplingConfig
from .errors import BudgetExceededError
from .lattice import BoxGeometry
from .solver import Clamp, SpinPair, _spin_products, solve
from .walls import Interface, interface


@dataclass(frozen=True)
class ExcitationRecord:
    state_a: SpinPair
    state_b: SpinPair
    delta_e: float
    h_interior: float
    delta_e_ext: float


def interior_edges(geom: BoxGeometry, vertices) -> list[int]:
    inside = np.zeros(geom.n_vertices, dtype=bool)
    inside[list(vertices)] = True
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
    state_a = solve(J.geom, J, eta)
    state_b = solve(J.geom, J, eta_prime)
    delta_e = state_a.energy - state_b.energy
    h = interior_hamiltonian(J, eta) - interior_hamiltonian(J, eta_prime)
    return ExcitationRecord(state_a, state_b, delta_e, h, delta_e - h)


def edge_excitation(J: CouplingConfig, edge_id: int) -> ExcitationRecord:
    """Excitation from the edge's +_b clamp (equal endpoints) to its -_b one."""
    e = J.geom.edges[edge_id]
    return excitation(J, Clamp.equal_pair(e.u, e.v),
                      Clamp.opposite_pair(e.u, e.v))


def critical_value(J: CouplingConfig, edge_id: int) -> float:
    """Half the exterior energy difference between the +_b and -_b states.

    Independent of the current value of J_b by construction.
    """
    return 0.5 * edge_excitation(J, edge_id).delta_e_ext


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
    labels = []
    for x in values:
        gsp = solve(J.geom, J.with_value(edge_id, x))
        labels.append(gsp.edge_product(edge_id))
    trans = [(values[i], values[i + 1])
             for i in range(len(values) - 1) if labels[i] != labels[i + 1]]
    return FlipCensus(values, tuple(labels), len(trans),
                      trans[0] if len(trans) == 1 else None)


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


# --------------------------------------------------------------------------
# two-bond critical sets

_COMBOS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
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


def _pair_state(J, edge_b, edge_e, eta_b, eta_e) -> SpinPair:
    """Minimizer subject to the two endpoint-product constraints: the best
    solve over every clamp of the endpoints that meets both products.  On an
    exact tie the first clamp wins, the one with e.u signed like b.u."""
    b, e = J.geom.edges[edge_b], J.geom.edges[edge_e]
    verts = list(dict.fromkeys((b.u, b.v, e.u, e.v)))
    best = None
    for rest in product((1, -1), repeat=len(verts) - 1):
        sigma = dict(zip(verts, (1,) + rest))
        if (sigma[b.u] * sigma[b.v] == eta_b
                and sigma[e.u] * sigma[e.v] == eta_e):
            cand = solve(J.geom, J, Clamp(verts, (1,) + rest))
            if best is None or cand.energy < best.energy:
                best = cand
    return best


def two_bond_critical_set(J: CouplingConfig, edge_b: int,
                          edge_e: int) -> CriticalSet2:
    if edge_b == edge_e:
        raise ValueError("edges must differ")
    jb0 = J.value(edge_b)
    je0 = J.value(edge_e)
    f_values = {}
    for eta_b, eta_e in _COMBOS:
        st = _pair_state(J, edge_b, edge_e, eta_b, eta_e)
        # exterior part: strip the two constrained couplings from the energy
        f_values[(eta_b, eta_e)] = st.energy + jb0 * eta_b + je0 * eta_e
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


def analytic_label(cs: CriticalSet2, jb: float, je: float) -> tuple[int, int]:
    """GSP label at (jb, je) from the four exterior constants."""
    best = None
    best_val = -math.inf
    for eta_b, eta_e in _COMBOS:
        val = jb * eta_b + je * eta_e - cs.f_values[(eta_b, eta_e)]
        if val > best_val:
            best_val, best = val, (eta_b, eta_e)
    return best


def critical_set_distance(cs: CriticalSet2, jb: float, je: float) -> float:
    """Euclidean distance from (jb, je) to the critical set."""
    c1, c2, c3, c4 = cs.c1, cs.c2, cs.c3, cs.c4
    if cs.case_kind == "cross":
        return min(abs(jb - c1), abs(je - c3))
    ds = []
    if cs.case_kind == "positive_diag":
        ds.append(math.hypot(max(c1 - jb, 0.0), je - c3))
        ds.append(math.hypot(max(jb - c2, 0.0), je - c4))
        ds.append(math.hypot(jb - c1, max(c3 - je, 0.0)))
        ds.append(math.hypot(jb - c2, max(je - c4, 0.0)))
        k = c1 - c3
        t = min(max(0.5 * (jb + je + k), c2), c1)
        ds.append(math.hypot(jb - t, je - (t - k)))
    else:
        ds.append(math.hypot(max(c2 - jb, 0.0), je - c3))
        ds.append(math.hypot(max(jb - c1, 0.0), je - c4))
        ds.append(math.hypot(jb - c1, max(c4 - je, 0.0)))
        ds.append(math.hypot(jb - c2, max(je - c3, 0.0)))
        s = c1 + c4
        t = min(max(0.5 * (jb - je + s), c1), c2)
        ds.append(math.hypot(jb - t, je - (s - t)))
    return min(ds)


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
    checks = []
    for region, je in reps_e:
        got = critical_value(J.with_value(cs.edge_e, je), cs.edge_b)
        want = expected_critical_b(cs, je)
        checks.append({"edge": "b", "region": region, "other_value": je,
                       "recomputed": got, "expected": want,
                       "abs_err": abs(got - want)})
    for region, jb in reps_b:
        got = critical_value(J.with_value(cs.edge_b, jb), cs.edge_e)
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
    configurations with vertex 0 pinned.
    """
    V = J.geom.n_vertices
    if V - 1 > 21:
        raise BudgetExceededError("enumeration grid oracle limited to 22 vertices")
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
        # vary J_e vectorized for one J_b at a time to bound memory
        e_x = e0 - (x - jb0) * sb
        energies = e_x[None, :] - (ys[:, None] - je0) * se[None, :]
        am = np.argmin(energies, axis=1)
        out[i, :, 0] = sb[am]
        out[i, :, 1] = se[am]
    return out


def critical_contour(J: CouplingConfig, edge_id: int) -> Interface:
    """Interface between the minimizers with the edge's endpoint product
    forced +1 and -1; always contains the edge's dual."""
    e = J.geom.edges[edge_id]
    plus = solve(J.geom, J, Clamp.equal_pair(e.u, e.v))
    minus = solve(J.geom, J, Clamp.opposite_pair(e.u, e.v))
    return interface(J, plus, minus)
