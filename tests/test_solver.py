import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaglass import excitation, solver, walls
from eaglass.disorder import CouplingConfig, DistributionSpec, sample_couplings
from eaglass.errors import BudgetExceededError
from eaglass.lattice import BoxGeometry, build_box
from eaglass.solver import (Clamp, brute_force, canonicalize, energy, solve,
                            verify_gsp)

GAUSS = DistributionSpec("gaussian", sigma=1.0)


def hand_couplings(geom, value=1.0):
    return CouplingConfig(geom, np.full(geom.n_edges, float(value)))


def test_energy_examples():
    g = build_box(1, 2)
    J = hand_couplings(g, 1.5)
    assert energy(J, np.array([1, 1], dtype=np.int8)) == -1.5
    g3 = build_box(3, 3)
    J3 = hand_couplings(g3, 1.0)
    assert energy(J3, np.ones(9, dtype=np.int8)) == -15.0


def test_energy_flip_invariant():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 3, 0)
    s = solve(g, J).signs
    assert energy(J, s) == energy(J, -s)


def test_solve_single_edge():
    g = build_box(1, 2)
    J = CouplingConfig(g, np.array([-2.0]))
    sp = solve(g, J)
    assert sp.energy == -2.0
    assert sp.signs[0] * sp.signs[1] == -1
    assert sp.signs[0] == 1  # canonical anchor


def test_clamp_normalization():
    c = Clamp((5, 2), (-1, 1))  # lowest vertex forced to +1
    assert c.vertices == (2, 5)
    assert c.signs == (1, -1)
    with pytest.raises(ValueError):
        Clamp((1, 1), (1, 1))
    with pytest.raises(ValueError):
        Clamp((1,), (2,))


def test_clamped_ferromagnet_energy():
    g = build_box(3, 3)
    J = hand_couplings(g, 1.0)
    cl = Clamp.opposite_pair(0, 1)
    sp = solve(g, J, cl)
    bf = brute_force(J, cl)
    assert sp.energy == bf.energy
    broken = (sp.energy + 15.0) / 2.0
    assert broken == int(broken) and broken >= 1


def test_clamp_covering_all_vertices():
    g = build_box(2, 2)
    J = sample_couplings(g, GAUSS, 8, 0)
    cl = Clamp((0, 1, 2, 3), (1, -1, -1, 1))
    sp = brute_force(J, cl)
    signs = np.array([1, -1, -1, 1], dtype=np.int8)
    assert np.array_equal(sp.signs, signs)
    assert sp.energy == energy(J, signs)
    assert solve(g, J, cl).same_pair(sp)


def test_tie_flag_and_lex_policy():
    g = build_box(1, 2)
    J = CouplingConfig(g, np.array([0.0]))
    sp = solve(g, J)
    bf = brute_force(J)
    assert sp.tied and bf.tied
    # lexicographically smallest canonical pattern prefers +1 first
    assert np.array_equal(sp.signs, np.array([1, 1], dtype=np.int8))
    assert np.array_equal(bf.signs, sp.signs)


def test_canonicalize_idempotent_and_clamp_aware():
    g = build_box(2, 2)
    s = np.array([-1, 1, -1, 1], dtype=np.int8)
    c = canonicalize(g, s, None)
    assert c[0] == 1
    assert np.array_equal(canonicalize(g, c, None), c)
    # a configuration and its global flip canonicalize identically
    assert np.array_equal(canonicalize(g, -s, None), c)
    cl = Clamp((0, 1), (1, -1))
    c2 = canonicalize(g, s, cl)
    assert c2[2] == 1  # anchor is the lowest unclamped vertex


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(2, 4), st.integers(0, 10**6))
def test_solve_matches_bruteforce(w, h, idx):
    g = build_box(w, h)
    J = sample_couplings(g, GAUSS, 2025, idx)
    a = solve(g, J)
    b = brute_force(J)
    assert np.array_equal(a.signs, b.signs)
    assert a.energy == b.energy


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_clamped_solve_matches_bruteforce(idx, data):
    g = build_box(3, 4)
    J = sample_couplings(g, GAUSS, 4097, idx)
    k = data.draw(st.integers(1, 4))
    verts = data.draw(st.lists(st.integers(0, g.n_vertices - 1),
                               min_size=k, max_size=k, unique=True))
    signs = [1] + data.draw(st.lists(st.sampled_from([1, -1]),
                                     min_size=k - 1, max_size=k - 1))
    cl = Clamp(tuple(verts), tuple(signs))
    a = solve(g, J, cl)
    b = brute_force(J, cl)
    assert np.array_equal(a.signs, b.signs)
    assert a.energy == b.energy
    # clamp respected modulo flip
    ref = {v: s for v, s in zip(cl.vertices, cl.signs)}
    a0 = cl.vertices[0]
    for v, s in ref.items():
        assert a.signs[v] * a.signs[a0] == s * ref[a0]
    # clamped optimum can never beat the free optimum
    free = solve(g, J)
    assert a.energy >= free.energy - 1e-12
    if a.same_pair(free):
        assert a.energy == free.energy


def test_clamp_survives_huge_couplings():
    # clamp-violating rows must stay excluded however large the couplings:
    # a finite penalty is drowned once |J| reaches its size
    rng = np.random.default_rng(31)
    for w, h in ((3, 3), (3, 4), (4, 3), (4, 4)):
        g = build_box(w, h)
        for idx in range(45):
            base = sample_couplings(g, GAUSS, 1031, idx)
            J = CouplingConfig(g, base.values * 1e31)
            verts = rng.choice(g.n_vertices, size=3, replace=False)
            signs = [1] + [int(s) for s in rng.choice([1, -1], size=2)]
            cl = Clamp(tuple(int(v) for v in verts), tuple(signs))
            a = solve(g, J, cl)
            b = brute_force(J, cl)
            assert np.array_equal(a.signs, b.signs), (w, h, idx, cl)
            assert a.energy == b.energy


def test_budget_errors():
    g = build_box(6, 5)
    J = sample_couplings(g, GAUSS, 0, 0)
    with pytest.raises(BudgetExceededError):
        brute_force(J)  # 30 vertices
    wide = build_box(17, 2)
    with pytest.raises(BudgetExceededError):
        solve(wide, sample_couplings(wide, GAUSS, 0, 0))


def test_verify_gsp_ferromagnet():
    g = build_box(3, 3)
    J = hand_couplings(g, 1.0)
    all_up = np.ones(9, dtype=np.int8)
    rep = verify_gsp(J, all_up, max_subset_size=4, max_dual_len=6)
    assert rep.passed
    flipped = all_up.copy()
    flipped[4] = -1
    rep2 = verify_gsp(J, flipped, max_subset_size=2, max_dual_len=4)
    assert not rep2.passed
    assert any(v.kind == "subset" and v.items == (4,) for v in rep2.violations)


def test_verify_gsp_solver_output_sweep():
    g = build_box(5, 5)
    for i in range(40):
        J = sample_couplings(g, GAUSS, 555, i)
        sp = solve(g, J)
        rep = verify_gsp(J, sp, max_subset_size=3, max_dual_len=6)
        assert rep.passed, rep.violations


def test_verify_gsp_exclusion():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 13, 0)
    cl = Clamp.opposite_pair(0, 4)
    sp = solve(g, J, cl)
    rep = verify_gsp(J, sp, max_subset_size=3, max_dual_len=6,
                     exclude=(0, 4))
    assert rep.passed, rep.violations
    assert rep.checked_duals == 0  # dual flips skipped for clamped states


def test_monotone_clamped_energy():
    g = build_box(4, 4)
    for i in range(20):
        J = sample_couplings(g, GAUSS, 99, i)
        free = solve(g, J)
        e = g.edges[5]
        for cl in (Clamp.equal_pair(e.u, e.v), Clamp.opposite_pair(e.u, e.v)):
            clamped = solve(g, J, cl)
            assert clamped.energy >= free.energy - 1e-12
            agrees = free.edge_product(5) == (1 if cl.signs == (1, 1) else -1)
            if agrees:
                assert clamped.same_pair(free)
                assert clamped.energy == free.energy
            else:
                assert clamped.energy > free.energy


def test_ties_match_bruteforce():
    # couplings in {-1, 0, 1} make most optima degenerate, so this drives the
    # tie traceback and its canonical choice against the oracle
    rng = np.random.default_rng(77)
    n_tied = 0
    for w in range(1, 5):
        g = build_box(w, 4)
        for i in range(80):
            J = CouplingConfig(g, rng.integers(-1, 2, g.n_edges).astype(float))
            cl = None
            if i % 2:
                k = int(rng.integers(2, 5))
                verts = rng.choice(g.n_vertices, size=k, replace=False)
                cl = Clamp(tuple(int(v) for v in verts),
                           (1,) + tuple(int(s) for s in rng.choice([1, -1], k - 1)))
            a = solve(g, J, cl)
            b = brute_force(J, cl)
            assert np.array_equal(a.signs, b.signs), (w, i, cl)
            assert a.tied == b.tied and a.energy == b.energy
            n_tied += a.tied
    assert n_tied >= 160


def test_tie_cap():
    g = build_box(4, 4)
    with pytest.raises(BudgetExceededError):
        solve(g, hand_couplings(g, 0.0))  # 2^15 optimal configurations


def test_solve_rejects_couplings_of_another_box():
    # 27 edges each: the values would land on edges of another shape
    J = sample_couplings(build_box(9, 2), GAUSS, 0, 0)
    with pytest.raises(ValueError):
        solve(build_box(3, 5), J)


def test_spins_must_live_on_the_couplings_box():
    # a 5x3 state has 15 vertices, as many as the 3x5 box the couplings hold
    gsp = solve(build_box(5, 3), sample_couplings(build_box(5, 3), GAUSS, 0, 0))
    g = build_box(3, 5)
    J = sample_couplings(g, GAUSS, 0, 0)
    with pytest.raises(ValueError):
        walls.interface(J, solve(g, J), gsp)
    with pytest.raises(ValueError):
        verify_gsp(J, gsp)
    with pytest.raises(ValueError):
        energy(J, gsp)
    with pytest.raises(ValueError):
        walls.satisfaction(J, np.ones(16, dtype=np.int8))


def test_only_solve_takes_a_box_next_to_couplings():
    """Couplings carry their box, so no function also takes one."""
    both = []
    for module in (solver, excitation, walls):
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            params = inspect.signature(fn, eval_str=True).parameters.values()
            kinds = {p.annotation for p in params} | {p.name for p in params}
            if ({BoxGeometry, "geom"} & kinds
                    and {CouplingConfig, "J"} & kinds):
                both.append(f"{module.__name__}.{name}")
    assert both == ["eaglass.solver.solve"]
