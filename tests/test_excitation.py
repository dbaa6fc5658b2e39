import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eaglass import excitation as exc
from eaglass import lab
from eaglass.disorder import CouplingConfig, DistributionSpec, sample_couplings
from eaglass.lattice import build_box
from eaglass.solver import Clamp, brute_force, solve
from eaglass.walls import interface

from reference import edge_excitation, grid_labels_loop, locate_flip

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


def test_interior_edges_rejects_vertices_outside_the_box():
    # numpy would wrap -1 to vertex 8 of the 3x3 box
    g = build_box(3, 3)
    with pytest.raises(ValueError):
        exc.interior_edges(g, [-1, 8])
    with pytest.raises(ValueError):
        exc.interior_edges(g, [8, 9])


def test_critical_value_against_bisection():
    for i in range(6):
        g = build_box(4, 4)
        J = sample_couplings(g, GAUSS, 100, i)
        b = g.edge_by_key[("v", 0, 1)]
        c = exc.critical_value(J, b)
        lo, hi = locate_flip(J, b)
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
        rec = edge_excitation(J, b)
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
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        interior = ~(exc.critical_set_distance(cs, X, Y) < cell)
        want = np.stack(exc.analytic_label(cs, X, Y), axis=-1)
        assert interior.any()
        np.testing.assert_array_equal(want[interior], oracle[interior])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6), st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
def test_grid_oracle_matches_the_loop(W, H, exact, seed, data):
    # {-1, -0.0, 0.0, 1} couplings on integer grids tie classes exactly
    assume(W * H <= 12)
    g = build_box(W, H)
    assume(g.n_edges >= 2)
    b = data.draw(st.integers(0, g.n_edges - 1))
    e = data.draw(st.integers(0, g.n_edges - 1).filter(lambda x: x != b))
    rng = np.random.default_rng(seed)
    if exact:
        J = CouplingConfig(g, rng.choice([-1.0, -0.0, 0.0, 1.0], g.n_edges))
        xs = np.arange(-3.0, 4.0)
        ys = np.arange(-2.0, 3.0)
    else:
        J = CouplingConfig(g, rng.normal(size=g.n_edges))
        xs = np.linspace(-3, 3, data.draw(st.integers(1, 25)))
        ys = np.linspace(-2, 4, data.draw(st.integers(1, 25)))
    want = grid_labels_loop(J, b, e, xs, ys)
    got = exc.grid_labels_enumeration(J, b, e, xs, ys)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _nine_by_two():
    # 2^17 configurations with vertex 0 pinned: two enumeration chunks
    g = build_box(9, 2)
    J = sample_couplings(g, GAUSS, 4, 0)
    return J, g.edge_by_key[("h", 0, 1)], g.edge_by_key[("v", 0, 0)]


def test_grid_oracle_matches_the_loop_across_chunks():
    J, b, e = _nine_by_two()
    # the ground state has vertex 17 (bit 16 of the index) signed like
    # vertex 0, so its class minimum lies in the second chunk
    assert solve(J.geom, J).signs[17] == 1
    xs = np.linspace(-3, 3, 7)
    got = exc.grid_labels_enumeration(J, b, e, xs, xs)
    assert got.tobytes() == grid_labels_loop(J, b, e, xs, xs).tobytes()


def test_grid_oracle_memory_is_bounded():
    J, b, e = _nine_by_two()
    xs = np.linspace(-3, 3, 41)
    tracemalloc.start()
    try:
        exc.grid_labels_enumeration(J, b, e, xs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# Scalar reference for the two-bond grid check: the formulas of
# ``analytic_label`` and ``critical_set_distance`` one point at a time, with
# ``math.hypot`` and a strict ``>`` that keeps the first maximum, and the
# per-cell loop that counts interior cells and mismatches.


def reference_label(cs, jb, je):
    best = None
    best_val = -math.inf
    for eta_b, eta_e in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        val = jb * eta_b + je * eta_e - cs.f_values[(eta_b, eta_e)]
        if val > best_val:
            best_val, best = val, (eta_b, eta_e)
    return best


def reference_distance(cs, jb, je):
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


def reference_grid_check(cs, xs, ys, oracle):
    """``(interior_cells, mismatches)`` cell by cell: cells closer than one
    grid step to the critical set are skipped."""
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    interior_cells = mismatches = 0
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            if reference_distance(cs, x, y) < cell:
                continue
            interior_cells += 1
            got = (int(oracle[ix, iy, 0]), int(oracle[ix, iy, 1]))
            if reference_label(cs, x, y) != got:
                mismatches += 1
    return interior_cells, mismatches


# quarter steps on [-5, 5]: with constants on quarters too, every label
# value and every distance along an axis is exact, so the grid holds cells
# on the rays, lines and diagonal segment (tied labels, distance 0) and
# cells exactly one step from them
QUARTERS = 0.25 * np.arange(-20, 21)
_quarter = st.integers(-12, 12).map(lambda n: 0.25 * n)


def _check_against_reference(cs, xs, ys, seed):
    """Array and scalar calls of the two-bond helpers agree with the scalar
    reference, and so does the harness's grid check against an oracle with
    some labels flipped."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    eta_b, eta_e = exc.analytic_label(cs, X, Y)
    dist = exc.critical_set_distance(cs, X, Y)
    ref_label = np.array([[reference_label(cs, x, y) for y in ys]
                          for x in xs], dtype=np.int8)
    ref_dist = np.array([[reference_distance(cs, x, y) for y in ys]
                         for x in xs])
    np.testing.assert_array_equal(eta_b, ref_label[..., 0])
    np.testing.assert_array_equal(eta_e, ref_label[..., 1])
    # np.hypot and math.hypot may round one unit in the last place apart
    assert (np.abs(dist - ref_dist) <= np.spacing(ref_dist)).all()
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    assume(((dist < cell) == (ref_dist < cell)).all())
    # scalar calls on the critical set and at every seventh cell
    every_7th = np.arange(dist.size).reshape(dist.shape) % 7 == 0
    for ix, iy in zip(*np.nonzero((ref_dist == 0) | every_7th)):
        x, y = float(xs[ix]), float(ys[iy])
        assert exc.analytic_label(cs, x, y) == reference_label(cs, x, y)
        d = exc.critical_set_distance(cs, x, y)
        assert abs(d - ref_dist[ix, iy]) <= np.spacing(ref_dist[ix, iy])
    flip = np.random.default_rng(seed).random(dist.shape) < 0.1
    oracle = np.where(flip[..., None], -ref_label, ref_label)
    assert (lab._two_bond_grid_check(cs, xs, ys, oracle)
            == reference_grid_check(cs, xs, ys, oracle))
    return ref_dist


@pytest.mark.parametrize("kind, sign", [("cross", 0), ("positive_diag", 1),
                                        ("negative_diag", -1)])
@settings(max_examples=20, deadline=None)
@given(_quarter, _quarter, _quarter, st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_grid_helpers_match_reference_on_the_critical_set(kind, sign, c1, c4,
                                                          f0, steps, seed):
    c2 = c1 - sign * 0.25 * steps       # so C3 = C4 + C1 - C2
    cs = exc._critical_set(0, 1, {(-1, -1): f0, (1, -1): f0 + 2 * c2,
                                  (-1, 1): f0 + 2 * c4,
                                  (1, 1): f0 + 2 * c4 + 2 * c1})
    assert cs.case_kind == kind
    ref_dist = _check_against_reference(cs, QUARTERS, QUARTERS, seed)
    assert (ref_dist == 0).any() and (ref_dist == 0.25).any()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-4, 4), min_size=4, max_size=4),
       st.integers(2, 25), st.integers(2, 25), st.integers(0, 2**32 - 1))
def test_grid_helpers_match_reference(fs, nx, ny, seed):
    cs = exc._critical_set(0, 1, dict(zip(exc._COMBOS, fs)))
    _check_against_reference(cs, np.linspace(-3, 3, nx),
                             np.linspace(-3, 3, ny), seed)


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
