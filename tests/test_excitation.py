import math

import numpy as np
import pytest

from eaglass import excitation as exc
from eaglass.disorder import CouplingConfig, DistributionSpec, sample_couplings
from eaglass.lattice import build_box
from eaglass.solver import Clamp, brute_force, solve
from eaglass.walls import interface

GAUSS = DistributionSpec("gaussian", sigma=1.0)
TOL = 1e-9


def test_identity_clamps_give_zero():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 1, 0)
    cl = Clamp.equal_pair(0, 1)
    rec = exc.excitation(J, cl, cl)
    assert rec.delta_e == 0.0
    assert rec.h_interior == 0.0
    assert rec.delta_e_ext == 0.0


def test_single_edge_box_decomposition():
    g = build_box(1, 2)
    J = CouplingConfig(g, np.array([0.7]))
    rec = exc.excitation(J,
                         Clamp.equal_pair(0, 1), Clamp.opposite_pair(0, 1))
    assert math.isclose(rec.delta_e, -2 * 0.7)
    assert math.isclose(rec.h_interior, -2 * 0.7)
    assert rec.delta_e_ext == 0.0
    assert exc.critical_value(J, 0) == 0.0


def test_record_matches_bruteforce_oracle():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 21, 5)
    b = g.edge_by_key[("v", 0, 1)]
    e = g.edges[b]
    a_set = (e.u, e.v)
    plus, minus = Clamp.equal_pair(*a_set), Clamp.opposite_pair(*a_set)
    rec = exc.excitation(J, plus, minus)
    # oracle: exhaustive clamped enumeration plus direct interior sums
    bf_plus = brute_force(J, plus)
    bf_minus = brute_force(J, minus)
    delta = bf_plus.energy - bf_minus.energy
    h = -J.values[b] * (+1) - (-J.values[b] * (-1))
    assert rec.state_a.same_pair(bf_plus)
    assert rec.state_b.same_pair(bf_minus)
    assert abs(rec.delta_e - delta) <= TOL
    assert abs(rec.h_interior - h) <= TOL
    assert abs(rec.delta_e_ext - (delta - h)) <= TOL


def test_interior_hamiltonian_covers_all_inside_edges():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 4, 4)
    a_set = (0, 1, 3, 4)  # a plaquette: four interior couplings
    assert len(exc.interior_edges(g, a_set)) == 4
    cl = Clamp(a_set, (1, -1, 1, 1))
    inside = {v: s for v, s in zip(cl.vertices, cl.signs)}
    want = -sum(J.values[eid] * inside[g.edges[eid].u] * inside[g.edges[eid].v]
                for eid in exc.interior_edges(g, a_set))
    assert math.isclose(exc.interior_hamiltonian(J, cl), want)


def test_critical_value_against_bisection():
    for i in range(6):
        g = build_box(4, 4)
        J = sample_couplings(g, GAUSS, 100, i)
        b = g.edge_by_key[("v", 0, 1)]
        c = exc.critical_value(J, b)
        lo, hi = exc.locate_flip(J, b)
        assert lo <= c <= hi or min(abs(c - lo), abs(c - hi)) < 1e-9
        assert abs(c - 0.5 * (lo + hi)) <= 1e-9


def test_critical_value_independent_of_jb():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 7, 3)
    b = 4
    c0 = exc.critical_value(J, b)
    for x in (-5.0, 0.0, 2.5, 100.0):
        assert abs(exc.critical_value(J.with_value(b, x), b)) - abs(c0) <= 1e-12
        assert abs(exc.critical_value(J.with_value(b, x), b) - c0) <= 1e-12


def test_critical_value_zero_when_exterior_decoupled():
    g = build_box(3, 3)
    vals = np.zeros(g.n_edges)
    vals[6] = 1.3
    J = CouplingConfig(g, vals)
    assert abs(exc.critical_value(J, 6)) <= 1e-15


def test_gsp_selection_around_critical_value():
    g = build_box(4, 4)
    for i in range(10):
        J = sample_couplings(g, GAUSS, 11, i)
        b = g.edge_by_key[("h", 0, 2)]
        c = exc.critical_value(J, b)
        rec = exc.edge_excitation(J, b)
        assert solve(g, J.with_value(b, c + 1e-6)).same_pair(rec.state_a)
        assert solve(g, J.with_value(b, c - 1e-6)).same_pair(rec.state_b)


def test_flip_census_single_transition():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 17, 2)
    b = 10
    c = exc.critical_value(J, b)
    grid = np.sort(np.concatenate([c + np.linspace(-2, 2, 9), [c + 0.31]]))
    census = exc.flip_census(J, b, grid)
    assert census.n_transitions == 1
    lo, hi = census.transition_interval
    assert lo <= c <= hi
    above = [x for x in grid if x > c + 1e-12]
    census_above = exc.flip_census(J, b, above)
    assert all(l == 1 for l in census_above.labels)
    assert census_above.n_transitions == 0


def test_flip_census_rejects_unsorted():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 17, 2)
    with pytest.raises(ValueError):
        exc.flip_census(J, 0, [1.0, -1.0])


def test_census_label_after_super_satisfy():
    from eaglass.disorder import super_satisfy
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 17, 4)
    b = 5
    J_ss = super_satisfy(J, b, +1)
    census = exc.flip_census(J_ss, b, [J_ss.value(b)])
    assert census.labels == (1,)
    J_ss2 = super_satisfy(J, b, -1)
    census2 = exc.flip_census(J_ss2, b, [J_ss2.value(b)])
    assert census2.labels == (-1,)


def _two_bond_instance(seed, index, adjacent=True):
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, seed, index)
    if adjacent:
        b = g.edge_by_key[("h", 0, 1)]
        e = g.edge_by_key[("v", 0, 1)]
    else:
        b = g.edge_by_key[("h", -1, 0)]
        e = g.edge_by_key[("h", 0, 2)]
    return g, J, b, e


@pytest.mark.parametrize("adjacent", [True, False])
def test_two_bond_invariants(adjacent):
    for i in range(8):
        g, J, b, e = _two_bond_instance(33, i, adjacent)
        cs = exc.two_bond_critical_set(J, b, e)
        assert abs((cs.c1 - cs.c2) - (cs.c3 - cs.c4)) <= TOL
        # constants unchanged under re-randomizing the two couplings
        J2 = J.with_values({b: 5.5, e: -7.25})
        cs2 = exc.two_bond_critical_set(J2, b, e)
        for x, y in ((cs.c1, cs2.c1), (cs.c2, cs2.c2),
                     (cs.c3, cs2.c3), (cs.c4, cs2.c4)):
            assert abs(x - y) <= TOL
        assert cs.case_kind == cs2.case_kind


def test_two_bond_decoupled_cross():
    g = build_box(3, 3)
    vals = np.zeros(g.n_edges)
    b, e = g.edge_by_key[("h", 0, 1)], g.edge_by_key[("v", 0, 1)]
    vals[b], vals[e] = 0.5, -0.3
    J = CouplingConfig(g, vals)
    cs = exc.two_bond_critical_set(J, b, e)
    assert cs.case_kind == "cross"
    for c in (cs.c1, cs.c2, cs.c3, cs.c4):
        assert abs(c) <= 1e-15
    lab = exc.analytic_label(cs, 1.0, -1.0)
    assert lab == (1, -1)


@pytest.mark.parametrize("adjacent", [True, False])
def test_two_bond_grid_against_enumeration(adjacent):
    for i in range(4):
        g, J, b, e = _two_bond_instance(91, i, adjacent)
        cs = exc.two_bond_critical_set(J, b, e)
        xs = np.linspace(-3, 3, 21)
        ys = np.linspace(-3, 3, 21)
        oracle = exc.grid_labels_enumeration(J, b, e, xs, ys)
        cell = xs[1] - xs[0]
        for ix, x in enumerate(xs):
            for iy, y in enumerate(ys):
                if exc.critical_set_distance(cs, x, y) < cell:
                    continue
                want = exc.analytic_label(cs, x, y)
                got = (int(oracle[ix, iy, 0]), int(oracle[ix, iy, 1]))
                assert want == got


@pytest.mark.parametrize("adjacent", [True, False])
def test_consistency_identities(adjacent):
    for i in range(6):
        g, J, b, e = _two_bond_instance(55, i, adjacent)
        cs = exc.two_bond_critical_set(J, b, e)
        rep = exc.consistency_check(J, cs)
        assert rep.max_abs_err <= TOL, rep.checks


def test_consistency_middle_band_formula():
    # in the diagonal band the critical value moves one-for-one with the
    # other coupling
    found = 0
    for i in range(12):
        g, J, b, e = _two_bond_instance(12, i, True)
        cs = exc.two_bond_critical_set(J, b, e)
        if cs.case_kind != "positive_diag" or cs.c3 - cs.c4 < 1e-3:
            continue
        found += 1
        mid = 0.5 * (cs.c3 + cs.c4)
        got = exc.critical_value(J.with_value(e, mid), b)
        assert abs(got - (mid + cs.c1 - cs.c3)) <= TOL
    assert found >= 1


def test_segments_structure():
    for i in range(6):
        g, J, b, e = _two_bond_instance(71, i, True)
        cs = exc.two_bond_critical_set(J, b, e)
        kinds = sorted(s["kind"] for s in cs.segments)
        if cs.case_kind == "cross":
            assert kinds == ["line", "line"]
        else:
            assert kinds == ["ray"] * 4 + ["segment"]
            d = cs.to_json_dict()
            assert set(d) == {"b", "e", "C1", "C2", "C3", "C4", "case",
                              "segments"}


def test_additivity_and_antisymmetry():
    g = build_box(3, 3)
    rng = np.random.default_rng(5)
    for i in range(10):
        J = sample_couplings(g, GAUSS, 202, i)
        verts = tuple(int(v) for v in rng.choice(9, size=3, replace=False))
        clamps = [Clamp(verts, (1,) + tuple(int(rng.integers(2)) * 2 - 1
                                            for _ in verts[1:]))
                  for _ in range(3)]
        r12 = exc.excitation(J, clamps[0], clamps[1])
        r23 = exc.excitation(J, clamps[1], clamps[2])
        r13 = exc.excitation(J, clamps[0], clamps[2])
        assert abs(r12.delta_e_ext + r23.delta_e_ext - r13.delta_e_ext) <= TOL
        r21 = exc.excitation(J, clamps[1], clamps[0])
        assert abs(r12.delta_e_ext + r21.delta_e_ext) <= TOL


def test_interior_independence():
    g = build_box(3, 3)
    rng = np.random.default_rng(6)
    for i in range(10):
        J = sample_couplings(g, GAUSS, 303, i)
        verts = (0, 1, 4, 3)
        cl1 = Clamp(verts, (1, 1, -1, 1))
        cl2 = Clamp(verts, (1, -1, -1, -1))
        rec = exc.excitation(J, cl1, cl2)
        updates = {eid: float(rng.normal() * 2)
                   for eid in exc.interior_edges(g, verts)}
        rec2 = exc.excitation(J.with_values(updates), cl1, cl2)
        assert rec.state_a.same_pair(rec2.state_a)
        assert rec.state_b.same_pair(rec2.state_b)
        assert abs(rec.delta_e_ext - rec2.delta_e_ext) <= TOL


def test_negating_one_coupling_preserves_exterior():
    # quantities not involving J_b are untouched when J_b flips sign
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 404, 0)
    b = 3
    e = g.edges[b]
    rec = exc.excitation(J, Clamp.equal_pair(e.u, e.v),
                         Clamp.opposite_pair(e.u, e.v))
    rec2 = exc.excitation(J.with_value(b, -J.value(b)),
                          Clamp.equal_pair(e.u, e.v),
                          Clamp.opposite_pair(e.u, e.v))
    assert abs(rec.delta_e_ext - rec2.delta_e_ext) <= TOL
    assert rec.state_a.same_pair(rec2.state_a)
    assert rec.state_b.same_pair(rec2.state_b)


def test_excitation_rejects_clamps_on_different_sets():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 1, 0)
    with pytest.raises(ValueError):
        exc.excitation(J, Clamp.equal_pair(0, 1), Clamp.equal_pair(0, 3))
    with pytest.raises(ValueError):
        exc.excitation(J, Clamp((0, 1, 4), (1, 1, -1)),
                       Clamp.opposite_pair(0, 1))


def test_contour_contains_edge_dual():
    g = build_box(1, 2)
    J = CouplingConfig(g, np.array([1.1]))
    iface = exc.critical_contour(J, 0)
    assert iface.edge_ids == frozenset({0})

    # every edge of a few samples, wrap edges and degenerate widths included
    for w, h in ((3, 3), (4, 3), (2, 4)):
        g = build_box(w, h)
        for i in range(3):
            J = sample_couplings(g, GAUSS, 1, 9 + i)
            for e in g.edges:
                iface = exc.critical_contour(J, e.id)
                assert e.id in iface.edge_ids
                # oracle: recompute from brute-force clamped states
                bp = brute_force(J, Clamp.equal_pair(e.u, e.v))
                bm = brute_force(J, Clamp.opposite_pair(e.u, e.v))
                assert iface.edge_ids == interface(J, bp, bm).edge_ids, \
                    (w, h, i, e.id)
