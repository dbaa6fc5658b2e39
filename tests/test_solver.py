import ctypes
import hashlib
import inspect
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eaglass import excitation, lab, solver, walls
from eaglass.disorder import CouplingConfig, DistributionSpec, sample_couplings
from eaglass.errors import BudgetExceededError
from eaglass.lab import ExperimentConfig
from eaglass.lattice import BoxGeometry, build_box, horizontal_edges_per_row
from eaglass.solver import (Clamp, brute_force, canonicalize, energy, solve,
                            solve_batch, verify_gsp)

import reference

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
    # numpy integers are stored as int
    c = Clamp(np.array([4, 1]), [np.int8(1), np.int64(-1)])
    assert c == Clamp((1, 4), (1, -1))
    assert all(type(x) is int for x in c.vertices + c.signs)
    # a float vertex would become a cell of another vertex, and a float or
    # bool sign would become +1
    for vertices, signs in [((0.5, 2), (1, 1)), ((0, 2.0), (1, 1)),
                            ((0, 2), (1, 1.5)), ((0, 2), (1, 1.0)),
                            ((0, 2), (1, True)), ((False, 2), (1, 1)),
                            ((0, 2), (1, np.bool_(True))), ((0, 2), (1, 0)),
                            ((0, 2), (1,)), ((0,), (1, -1))]:
        with pytest.raises(ValueError):
            Clamp(vertices, signs)


def test_clamp_rejects_negative_vertices():
    # numpy would wrap -1 to the last vertex
    with pytest.raises(ValueError):
        Clamp((-1, 8), (1, -1))


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


def test_brute_force_across_enumeration_chunks_matches_solve():
    # a 6x3 box free or with one clamped vertex leaves 17 free vertices,
    # which brute_force walks in two chunks of 2^16 configurations; with
    # {-1, 0, 1} couplings its ties, canonical choice and running minimum
    # must carry from one chunk into the other
    g = build_box(6, 3)
    split = 0
    for seed in range(6):
        J = CouplingConfig(g, np.random.default_rng(seed).choice(
            [-1.0, 0.0, 1.0], size=g.n_edges))
        for cl in (None, Clamp((7,), (1,)), Clamp((17,), (1,))):
            lows = [E.min() for _, _, E in
                    solver._energies(J, solver._forced_signs(g, cl))]
            assert len(lows) == 2
            split += lows[0] == lows[1]     # optima in both chunks
            a, b = solve(g, J, cl), brute_force(J, cl)
            assert np.array_equal(a.signs, b.signs), (seed, cl)
            assert a.tied == b.tied
            assert a.energy.hex() == b.energy.hex()
    assert split


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


@pytest.mark.parametrize("bad", [np.zeros(9), np.full(9, 2.0),
                                 np.ones(9, dtype=bool)],
                         ids=["zeros", "twos", "bool"])
def test_raw_signs_must_be_plus_or_minus_one(bad):
    # zeros would give an energy of -0.0 and 86 violations of value 0.0,
    # and a bool array would read False as 0
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 0, 0)
    ones = np.ones(9)
    for fn in (energy, walls.satisfaction, lambda J, s: walls.interface(
            J, s, ones), lambda J, s: walls.interface(J, ones, s), verify_gsp):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            fn(J, bad)
    gsp = solve(g, J)
    signs = gsp.signs.astype(np.float64)
    assert energy(J, signs) == energy(J, -signs) == gsp.energy
    assert verify_gsp(J, signs).passed
    assert walls.interface(J, signs, gsp).is_empty()


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


# boxes of at most 12 vertices, so couplings in {-1, 0, 1} stay far below the
# tie cap and brute_force stays fast
SMALL_SHAPES = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 4), (2, 4), (3, 3),
                (3, 4), (4, 3), (2, 6)]


def _assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.signs, b.signs)
        assert a.energy == b.energy and a.tied == b.tied


def _check_drawn_batch(data, g, max_problems, tied):
    """Draw 1..max_problems gaussian (or, with ``tied``, also {-1, 0, 1})
    coupling sets with free, equal and opposite clamps; the batch must equal
    one solve and one brute force per problem."""
    Js, clamps = [], []
    for _ in range(data.draw(st.integers(1, max_problems))):
        if tied and data.draw(st.booleans()):
            vals = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                      min_size=g.n_edges, max_size=g.n_edges))
            Js.append(CouplingConfig(g, np.array(vals)))
        else:
            idx = data.draw(st.integers(0, 10**6))
            Js.append(sample_couplings(g, GAUSS, 4099, idx))
        u, v = data.draw(st.lists(st.integers(0, g.n_vertices - 1),
                                  min_size=2, max_size=2, unique=True))
        clamps.append(data.draw(st.sampled_from(
            [None, Clamp.equal_pair(u, v), Clamp.opposite_pair(u, v)])))
    batch = solve_batch(Js, clamps)
    _assert_same_states(batch, [solve(g, J, cl) for J, cl in zip(Js, clamps)])
    _assert_same_states(batch, [brute_force(J, cl) for J, cl in zip(Js, clamps)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.data())
def test_solve_batch_matches_solve_and_bruteforce(shape, data):
    _check_drawn_batch(data, build_box(*shape), max_problems=6, tied=True)


# boxes of 16 to 24 vertices, widths 4 to 12, with gaussian couplings only,
# far from the tie cap; at W=12 a sweep holds two problems
MID_SHAPES = [(4, 4), (6, 3), (5, 4), (4, 5), (7, 3), (11, 2), (6, 4),
              (8, 3), (12, 2)]


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(MID_SHAPES), st.data())
def test_solve_batch_matches_solve_and_bruteforce_mid_size(shape, data):
    _check_drawn_batch(data, build_box(*shape), max_problems=3, tied=False)


def _mixed_problems(g, n, seed):
    """n gaussian or {-1, 0, 1} coupling sets with free, equal and opposite
    clamps."""
    rng = np.random.default_rng(seed)
    Js, clamps = [], []
    for i in range(n):
        if i % 3 == 2:
            Js.append(CouplingConfig(
                g, rng.choice([-1.0, 0.0, 1.0], g.n_edges, p=[0.4, 0.2, 0.4])))
        else:
            Js.append(sample_couplings(g, GAUSS, seed, i))
        u, v = (int(x) for x in rng.choice(g.n_vertices, 2, replace=False))
        clamps.append((None, Clamp.equal_pair(u, v),
                       Clamp.opposite_pair(u, v))[i % 3])
    return Js, clamps


@pytest.mark.parametrize("w,h,n", [(7, 4, 21), (10, 2, 19)])
def test_solve_batch_equals_single_solves(w, h, n):
    # at W=10 a sweep holds 8 problems, so 19 problems span three sweeps
    g = build_box(w, h)
    Js, clamps = _mixed_problems(g, n, seed=w)
    single = [solve(g, J, cl) for J, cl in zip(Js, clamps)]
    assert any(sp.tied for sp in single)
    _assert_same_states(solve_batch(Js, clamps), single)


def test_solve_batch_rejects_bad_input():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 0, 0)
    other = sample_couplings(build_box(9, 2), GAUSS, 0, 0)
    with pytest.raises(ValueError):
        solve_batch([J, other], [None, None])
    with pytest.raises(ValueError):
        solve_batch([J, J], [None])
    assert solve_batch([], []) == []
    # one bad problem fails the batch as it fails solve
    outside = Clamp.equal_pair(0, 9)
    with pytest.raises(ValueError):
        solve(g, J, outside)
    with pytest.raises(ValueError):
        solve_batch([J, J], [None, outside])
    flat = build_box(4, 4)
    zero = hand_couplings(flat, 0.0)    # 2^15 optimal configurations
    with pytest.raises(BudgetExceededError):
        solve_batch([hand_couplings(flat), zero], [None, None])


def _draw_mix(rng, mix, size):
    """Couplings of one mix: gaussian over seven decades; integers and
    +-0.0; signed zeros alone; or values near +-1e308, whose sums overflow
    to inf and then, against an inf of the other sign, to NaN."""
    if mix == "gaussian":
        return rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size)
    if mix == "integers":
        return rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size)
    if mix == "zeros":
        return rng.choice([-0.0, 0.0], size)
    return rng.choice([-1.0, 1.0], size) * rng.uniform(0.5, 1.0, size) * 1e308


@pytest.mark.parametrize("width, height", [
    (1, 2), (2, 3), (3, 2), (4, 5), (5, 3), (6, 2), (7, 7), (8, 3), (9, 2),
    (10, 4), (11, 2), (12, 30), (13, 13), (14, 2), (15, 15), (16, 40)])
def test_kernel_row_costs_equal_the_left_to_right_sum(width, height):
    # the kernel builds each row's costs itself, in the summation order of
    # the reference and with no BLAS: a sweep leaves row 0's costs in place,
    # bit for bit, and the frontier after each later row equals the
    # reference steps over the reference row costs.  A free problem builds
    # and keeps the lower half of each row, with column steps of that half
    # and the mirrored step W-1; with vertex 0 forced up (row 0's pin (1, 1):
    # inf on its masks with bit 0 down) every row is whole and runs full column
    # steps (both up to W=13 and on 3 rows beyond, where the numpy steps are
    # slow; not for sums that overflow, whose NaN the frontiers' minima then
    # pass on)
    g = build_box(width, height)
    n_h = horizontal_edges_per_row(width)
    rng = np.random.default_rng(width * height)
    plan = solver._Plan(width, height)
    for mix in ("gaussian", "integers", "zeros", "huge"):
        vals = rng.normal(size=(1, g.n_edges))
        vals[0, :n_h * height] = _draw_mix(rng, mix, n_h * height)
        plan.vals[:1] = vals
        for pinned in (0, 1):
            plan.pins[0] = 0
            plan.pins[0, 0] = pinned
            solver._run_sweep(plan, 0, 1)
            want = reference.row_costs(vals[0], width, height)
            if pinned:
                want[0, ::2] = np.inf
            n = 1 << width - 1 + pinned     # the entries a row keeps
            assert plan.rowcost[0, 0, :n].tobytes() == want[0, :n].tobytes(), \
                mix
            if mix == "huge":
                continue
            rows = height if width <= 13 else min(height, 3)
            vert = vals[0, n_h * height:].reshape(height - 1, width)
            for r in range(rows - 1):
                cur = want[None, r, :n].copy()
                for c in range(width):
                    nxt, bp = np.empty_like(cur), np.empty(cur.shape, np.uint8)
                    if pinned or c < width - 1:
                        reference.column_step(cur, nxt, vert[r, c], bp, c)
                    else:
                        reference.mirror_step(cur, nxt, vert[r, c], bp)
                    cur = nxt
                want[r + 1, :n] += cur[0]
            assert (plan.rowcost[0, :rows, :n].tobytes()
                    == want[:rows, :n].tobytes()), (mix, pinned)


def _kernel_row_costs(width, j_rows):
    """(R, 2^W): the kernel's row costs of each row of horizontal couplings
    ``j_rows`` (R, n_h), each put in row 0 of a problem on a box of height 2
    and swept in blocks of as many problems as one sweep holds.  A free
    problem builds only the lower half of its rows, so each block is swept
    with vertex 0 forced, which builds row 0 whole: once with inf on the
    masks with bit 0 down (row 0's pin (1, 1)), once on those with bit 0 up
    (pin (1, 0)), each time keeping the costs of the other masks."""
    plan = solver._Plan(width, 2)
    n_h = horizontal_edges_per_row(width)
    odd = np.arange(1 << width) % 2 == 1
    out = np.empty((len(j_rows), 1 << width))
    for lo in range(0, len(j_rows), len(plan.rowcost)):
        block = j_rows[lo:lo + len(plan.rowcost)]
        plan.vals[:len(block)] = 0.0
        plan.vals[:len(block), :n_h] = block
        for bit, kept in ((1, odd), (0, ~odd)):
            plan.pins[:len(block)] = 0
            plan.pins[:len(block), 0] = (1, bit)
            solver._run_sweep(plan, 0, len(block))
            out[lo:lo + len(block), kept] = plan.rowcost[:len(block), 0, kept]
    return out


@pytest.mark.parametrize("width, height", [(12, 30), (13, 13), (15, 15),
                                           (16, 40)])
def test_row_costs_in_blocks_equal_one_matmul(width, height):
    # couplings that are integers below 2^20 times a power of two sum
    # exactly in any order, so the kernel's row costs, built row by row and
    # problem by problem, must give the bits of one BLAS matmul of the sign
    # products of each row mask with the couplings ordered by box row
    n_h = horizontal_edges_per_row(width)
    masks = np.arange(1 << width, dtype=np.int64)
    sign = ((masks[:, None] >> np.arange(width)) & 1) * 2.0 - 1.0
    a = np.arange(n_h)
    pairs = sign[:, a] * sign[:, (a + 1) % width]
    rng = np.random.default_rng(width * height)
    for scale in (2.0 ** -10, 1.0, 2.0 ** 10):
        j_rows = scale * (rng.integers(1, 1 << 20, (height, n_h))
                          * rng.choice([-1.0, 1.0], (height, n_h)))
        want = -np.matmul(pairs, np.ascontiguousarray(j_rows.T))
        got = _kernel_row_costs(width, j_rows)
        assert np.array_equal(got.T.view(np.int64), want.view(np.int64))


def test_pairs_hold_the_bit_products_of_each_row_mask():
    # a unit coupling on edge a alone costs minus the product of the spins
    # it joins, so the kernel's row costs of one problem per edge are minus
    # the bit products s_a * s_(a+1 mod W) of each row mask
    for w in range(1, 17):
        masks = np.arange(1 << w, dtype=np.int64)
        sign = ((masks[:, None] >> np.arange(w)) & 1) * 2.0 - 1.0
        a = np.arange(horizontal_edges_per_row(w))
        want = sign[:, a] * sign[:, (a + 1) % w]
        got = -_kernel_row_costs(w, np.eye(len(a))).T
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width, height", [(1, 2), (1, 3), (2, 2)])
def test_verify_gsp_skips_the_global_flip(width, height):
    # with a subset budget of the whole box, the box itself is a connected
    # subset; its flip is the global flip, which has no boundary and costs 0
    g = build_box(width, height)
    for i in range(5):
        J = sample_couplings(g, GAUSS, 31, i)
        sp = solve(g, J)
        b = brute_force(J)
        assert np.array_equal(sp.signs, b.signs) and sp.energy == b.energy
        rep = verify_gsp(J, sp, max_subset_size=g.n_vertices)
        assert rep.passed, rep.violations


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(2, 8), st.data())
def test_verify_gsp_matches_the_per_flip_loop(width, height, data):
    # boxes up to 8x8 (build_box needs height >= 2); gaussian couplings, or
    # couplings in {-1, 0, 1}, whose boundary sums reach 0 (a violation) and
    # -0.0; random spins, budgets and exclude sets
    g = build_box(width, height)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = (rng.normal(size=g.n_edges) if data.draw(st.booleans())
              else rng.choice([-1.0, 0.0, 1.0], g.n_edges))
    J = CouplingConfig(g, values)
    spins = rng.choice(np.array([-1, 1], np.int8), g.n_vertices)
    size, length = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    exclude = tuple(int(v) for v in rng.choice(
        g.n_vertices, data.draw(st.integers(0, min(3, g.n_vertices))), False))
    got = verify_gsp(J, spins, size, length, exclude=exclude)
    want = reference.verify_gsp_loop(J, spins, size, length, exclude=exclude)
    assert (got.checked_subsets, got.checked_duals) == (
        want.checked_subsets, want.checked_duals)
    assert [(v.kind, v.items, _float_bits(v.value)) for v in got.violations] \
        == [(v.kind, v.items, _float_bits(v.value)) for v in want.violations]


@pytest.mark.parametrize("vertex", [-1, 9, 100])
def test_verify_gsp_rejects_excluded_vertices_outside_the_box(vertex):
    # a negative index would wrap onto a real vertex of the membership table
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 13, 0)
    with pytest.raises(ValueError, match="outside"):
        verify_gsp(J, solve(g, J), exclude=(0, vertex))


# --------------------------------------------------------------------------
# a sweep resumes from the last sweep's frontier where their leading rows agree

# boxes the oracle covers, then boxes whose rows 2.. hold 15 or more vertices,
# so all-zero couplings there exceed the tie cap
RESUME_SHAPES = [(1, 2), (3, 3), (4, 3), (3, 4), (2, 5), (2, 6), (1, 8),
                 (5, 5), (4, 6), (3, 7)]


def _first_forced_row(g, clamp):
    """The row of a problem's first forced vertex, H if it has none: its
    sweep keeps only the lower half of the frontiers of the rows above."""
    return g.height if clamp is None else min(clamp.vertices) // g.width


def _swept_bytes(plan, p, sym, start=0):
    """The bytes of problem p's frontiers of rows start.. and backpointers
    of rows start.. that its sweep wrote, for a first forced row ``sym``:
    the lower half of a frontier of a row r < sym, the max(1, 2^(W-3))
    bytes of the codes of a layer's lower half where its step ran on a
    symmetric frontier (r + 1 < sym), the whole of the others."""
    n, h = plan.rowcost.shape[2], plan.rowcost.shape[1]
    return b"".join(
        [plan.rowcost[p, r, :n // 2 if r < sym else n].tobytes()
         for r in range(start, h)]
        + [plan.backptr[r, :, p, :max(1, n // 8) if r + 1 < sym else None]
           .tobytes() for r in range(start, h - 1)])


def _solve_and_bits(Js, clamps):
    """``solve_batch``'s states, or "cap" if the tie cap is hit, with the
    bytes of the frontiers and backpointers its sweep left (see
    ``_swept_bytes``)."""
    try:
        states = solve_batch(Js, clamps)
    except BudgetExceededError:
        states = "cap"
    g, k = Js[0].geom, len(Js)
    plan = solver._plan(g.width, g.height)
    syms = [_first_forced_row(g, cl) for cl in clamps]
    assert plan.sym[:k].tolist() == syms
    return (states, [_swept_bytes(plan, p, sym) for p, sym in enumerate(syms)])


def _fresh(Js, clamps):
    """``_solve_and_bits`` in a new thread, whose new plan sweeps every row."""
    out = []
    worker = threading.Thread(
        target=lambda: out.append(_solve_and_bits(Js, clamps)))
    worker.start()
    worker.join()
    return out[0]


def _assert_same_sweeps(got, want):
    assert got[1:] == want[1:]      # frontiers and backpointers, bit for bit
    if "cap" in (got[0], want[0]):
        assert got[0] == want[0]
    else:
        _assert_same_states(got[0], want[0])


def _draw_values(rng, g, tied):
    """Couplings in {-1, -0.0, 0.0, 1}, which tie, or gaussian ones.  Never
    both in one chain: a real tie of a gaussian value and integers can
    round apart in one summation order and not in another, so solve and
    brute_force may then disagree on ``tied``."""
    if tied:
        return rng.choice([-1.0, -0.0, 0.0, 1.0], g.n_edges)
    return rng.normal(size=g.n_edges)


def _draw_clamp(data, g, first_row=0):
    """No clamp, or an equal or opposite pair on rows first_row.. ."""
    kind = data.draw(st.sampled_from(["none", "equal", "opposite"]))
    if kind == "none":
        return None
    u, v = data.draw(st.lists(
        st.integers(min(first_row, g.height - 2) * g.width, g.n_vertices - 1),
        min_size=2, max_size=2, unique=True))
    return (Clamp.equal_pair if kind == "equal" else Clamp.opposite_pair)(u, v)


def _next_problem(data, rng, g, p, J, clamp, clamp_rows, tied):
    """Couplings equal to J, bit for bit, on the edges entering rows
    0..p-1, redrawn elsewhere, maybe with each kept 0.0 turned into -0.0;
    the same clamp, or one drawn on rows p.. or anywhere."""
    vals = _draw_values(rng, g, tied)
    keep = g.entry_row < p
    vals[keep] = J.values[keep]
    if data.draw(st.integers(0, 3)) == 0:
        vals[keep & (vals == 0.0)] *= -1.0
    if clamp_rows != "same":
        clamp = _draw_clamp(data, g, p if clamp_rows == "below" else 0)
    return CouplingConfig(g, vals), clamp


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RESUME_SHAPES), st.integers(1, 3), st.data())
def test_resumed_sweep_equals_a_fresh_one(shape, k, data):
    g = build_box(*shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tied = g.n_vertices <= 12 and data.draw(st.booleans())
    Js = [CouplingConfig(g, _draw_values(rng, g, tied)) for _ in range(k)]
    clamps = [_draw_clamp(data, g) for _ in range(k)]
    solver._PLANS.store = {}
    for _ in range(data.draw(st.integers(2, 4))):
        got = _solve_and_bits(Js, clamps)
        _assert_same_sweeps(got, _fresh(Js, clamps))
        if got[0] != "cap" and g.n_vertices <= 12:
            _assert_same_states(got[0], [brute_force(J, cl)
                                         for J, cl in zip(Js, clamps)])
        between = data.draw(st.sampled_from(
            ["nothing", "other_shape", "eight_shapes", "tie_cap"]))
        if between == "other_shape":
            other = build_box(g.width + 1, 2)
            solve(other, sample_couplings(other, GAUSS, 1, 0))
        elif between == "eight_shapes":    # drops every plan of the thread
            for h in range(2, 10):
                other = build_box(2, h)
                solve(other, sample_couplings(other, GAUSS, 1, h))
        elif between == "tie_cap" and g.width * (g.height - 2) >= 15:
            # rows 2.. free: the sweep ends, its traceback hits the cap, and
            # the next problems share rows 0 and 1 with it
            zero = g.entry_row >= 2
            Js = [CouplingConfig(g, np.where(zero, 0.0, J.values)) for J in Js]
            with pytest.raises(BudgetExceededError):
                solve_batch(Js, [None] * k)
        p = data.draw(st.integers(0, g.height))     # rows the sweeps share
        clamp_rows = data.draw(st.sampled_from(
            ["same", "same", "below", "anywhere"]))
        Js, clamps = zip(*[_next_problem(data, rng, g, p, J, cl, clamp_rows,
                                         tied) for J, cl in zip(Js, clamps)])
        Js, clamps = list(Js), list(clamps)


def _count_rows(monkeypatch):
    """A counter of the rows the kernel sweeps, through the hook around its
    one call per sweep."""
    swept = [0]

    def counted_sweep(plan, start, k):
        swept[0] += plan.rowcost.shape[1] - 1 - start
        return run_sweep(plan, start, k)

    run_sweep = solver._run_sweep
    monkeypatch.setattr(solver, "_run_sweep", counted_sweep)
    return swept


def test_resume_chain_of_growing_shrinking_and_repeated_prefixes(monkeypatch):
    # K=2 problems on a 5x7 box; each sweep keeps the last one's couplings
    # on rows 0..p-1 and its clamped vertex 2, and redraws the rest, so the
    # clamp's second vertex, on row 6, always lies below the shared rows
    g = build_box(5, 7)
    rows = g.entry_row
    swept, per_sweep = _count_rows(monkeypatch), []
    Js = [sample_couplings(g, GAUSS, 8, k) for k in range(2)]
    solver._PLANS.store = {}
    for i, p in enumerate((7, 5, 5, 3, 6, 6, 2, 0, 4)):
        Js = [CouplingConfig(g, np.where(rows < p, J.values, sample_couplings(
            g, GAUSS, 9, 2 * i + k).values)) for k, J in enumerate(Js)]
        clamps = [Clamp((2, 30 + (i + k) % 5), (1, (-1) ** i))
                  for k in range(2)]
        before = swept[0]
        got = _solve_and_bits(Js, clamps)
        per_sweep.append(swept[0] - before)
        _assert_same_sweeps(got, _fresh(Js, clamps))
    # rows swept: a sweep starts at row p-1 if the last sweep left its
    # frontier there, else at row 0
    assert per_sweep == [6, 2, 2, 6, 1, 1, 6, 6, 3]


def test_resume_needs_as_many_problems_and_a_finished_sweep(monkeypatch):
    g = build_box(4, 5)
    J0, J1, J2 = (sample_couplings(g, GAUSS, 10, i) for i in range(3))
    solver._PLANS.store = {}
    solve_batch([J0, J1], [None, None])
    solve_batch([J0], [None])       # equal to slot 0, so it resumes
    # slot 0 equals the last sweep's problem, but slot 1 is new
    got = _solve_and_bits([J0, J2], [None, None])
    _assert_same_sweeps(got, _fresh([J0, J2], [None, None]))

    def failing_sweep(*args):
        raise RuntimeError("stop mid-sweep")

    run_sweep = solver._run_sweep
    monkeypatch.setattr(solver, "_run_sweep", failing_sweep)
    with pytest.raises(RuntimeError):
        solve_batch([J1, J1], [None, None])     # overwrites the row costs
    monkeypatch.setattr(solver, "_run_sweep", run_sweep)
    got = _solve_and_bits([J0, J2], [None, None])
    _assert_same_sweeps(got, _fresh([J0, J2], [None, None]))


def test_resume_tells_minus_zero_from_zero():
    # with every coupling zero the final frontier keeps signs of zero,
    # which -0.0 couplings on the last row flip: the sweep must not take
    # that row's frontier from a sweep of 0.0 couplings
    g = build_box(3, 3)
    zero = np.zeros(g.n_edges)
    minus = np.where(g.entry_row == g.height - 1, -0.0, 0.0)
    solver._PLANS.store = {}
    for vals in (zero, minus, zero):
        J = CouplingConfig(g, vals)
        _assert_same_sweeps(_solve_and_bits([J], [None]), _fresh([J], [None]))


def test_a_coupling_view_whose_base_changed_is_swept_afresh():
    # CouplingConfig keeps the caller's array without a copy, so a view's
    # base can hold other couplings at the next solve of the same config:
    # the resume must compare them with the couplings the last sweep ran on
    g = build_box(3, 3)
    rng = np.random.default_rng(1)
    base = rng.normal(size=3 * g.n_edges)
    J = CouplingConfig(g, base[:g.n_edges])
    pair = [CouplingConfig(g, base[g.n_edges:2 * g.n_edges]),
            CouplingConfig(g, base[2 * g.n_edges:])]
    clamps = [None, Clamp.opposite_pair(0, 4)]
    solver._PLANS.store = {}
    for _ in range(2):
        _assert_same_states([solve(g, J)], [brute_force(J)])
        base[:] = rng.normal(size=len(base))
    for _ in range(2):
        _assert_same_states(solve_batch(pair, clamps),
                            [brute_force(J, cl) for J, cl in zip(pair, clamps)])
        base[:] = rng.normal(size=len(base))


def test_perturbed_exterior_second_solve_sweeps_only_the_rows_below_the_band(
        monkeypatch):
    cfg = ExperimentConfig.from_dict(dict(
        kind="wall_stats", width=9, height=9, proxy="perturbed_exterior",
        n_list=[1], k_list=[0]))
    band = cfg.height // 2
    swept, per_solve = _count_rows(monkeypatch), []

    def counted_solve(*args):
        before = swept[0]
        out = solve(*args)
        per_solve.append((swept[0] - before) * cfg.width)   # column steps
        return out

    monkeypatch.setattr(lab, "solve", counted_solve)
    solver._PLANS.store = {}
    lab.proxy_perturbed_exterior(cfg, 0)
    assert per_solve == [(cfg.height - 1) * cfg.width,
                         (cfg.height - 1 - band) * cfg.width]   # 72, 36


def test_plan_holds_no_frontier_block():
    # the frontiers a sweep leaves behind live in its row-cost block, so a
    # W=15 plan holds no (K, H, 2^W) frontier block: only the row costs
    # (3,932,160 bytes), the 2-bit backpointer codes (1,720,320), one step
    # frontier (262,144), the couplings (3,480), the pins and anchor (124)
    # and the traceback's first forced rows, masks, counts and path (912)
    plan = solver._plan(15, 15)
    assert sum(a.nbytes for a in vars(plan).values()
               if isinstance(a, np.ndarray)) == 5_919_140


# --------------------------------------------------------------------------
# the kernel's column step c replaces bit c of every mask in place


def _draw_sweep(rng, k, g):
    """Couplings of k problems on box g, each from one mix: integers and
    +-0.0, which tie; signed zeros alone, whose signs every minimum and sum
    must keep; or gaussian values.  A problem may repeat the couplings of
    the problem before it, all of them or only the horizontal ones, whose
    row costs the kernel then copies.  Each has a first forced row drawn
    from 0..H (H: none, a free problem), with a pin of 1 or 2 columns there
    and of up to 2 on each row after it, each with random bits."""
    vals, syms = np.empty((k, g.n_edges)), []
    pins = np.zeros((k, g.height, 2), np.int32)
    horizontal = g.n_edges - g.width * (g.height - 1)
    for p in range(k):
        vals[p] = _draw_mix(
            rng, ("gaussian", "integers", "zeros")[rng.integers(3)],
            g.n_edges)
        repeat = (0, g.n_edges, horizontal)[rng.integers(3) if p else 0]
        vals[p, :repeat] = vals[p - 1, :repeat]
        syms.append(int(rng.integers(g.height + 1)))
        for r in range(syms[-1], g.height):
            cols = rng.integers(g.width, size=rng.integers(r == syms[-1], 3))
            mask = sum({1 << int(c) for c in cols})
            pins[p, r] = mask, mask & int(rng.integers(1 << g.width))
    return vals, pins, syms


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([*range(1, 13), 16]), st.integers(2, 4), st.data())
def test_kernel_sweep_equals_the_bit_replacing_reference(w, h, data):
    # the whole compiled sweep from a start row against the reference row
    # costs, pins, steps and row adds: every backpointer layer and
    # each row's frontier, bit for bit; up to 64 problems (suite7's sweeps)
    # at W <= 7, each with its first forced row sym before, at or after the
    # start.  A row r < sym gets only the lower half of its row costs, and a
    # row r + 1 < sym comes from steps on the symmetric frontier, which
    # write the lower half of the row and the codes of the lower half of
    # each layer, and whose frontiers and codes equal the lower half of full
    # steps over the flipped-and-mirrored frontier; row sym - 1 is filled
    # out before the first full step.  A sweep from row s > 0 starts from
    # the frontier in row s and writes no row above it.  The plan holds at
    # least 2 problems, so that a problem can copy the row costs of the one
    # before it at every width
    g = build_box(w, h)
    with mock.patch.object(solver, "_BATCH_STATES",
                           max(solver._BATCH_STATES, 2 << w)):
        plan = solver._Plan(w, h)
    k = data.draw(st.integers(1, min(len(plan.rowcost), 64 if w <= 7 else 4)))
    start = data.draw(st.integers(0, h - 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals, pins, syms = _draw_sweep(rng, k, g)
    n, half, masks = 1 << w, 1 << w - 1, np.arange(1 << w)
    lo = start + 1 if start else 0
    want = np.full((k, h, n), 7.5)
    want[:, start] = np.where(rng.integers(4, size=(k, n)) == 0, np.inf,
                              rng.normal(size=(k, n)))
    for i in range(k):
        want[i, lo:] = reference.row_costs(vals[i], w, h)[lo:]
        want[i, lo:syms[i], half:] = np.nan     # never built
        for r, (mask, bits) in enumerate(pins[i]):
            if r >= lo and mask:
                want[i, r, (masks & mask) != bits] = np.inf
    plan.rowcost[:k] = want
    plan.rowcost[:k, lo:] = np.nan
    plan.backptr[...] = 0xFF
    plan.vals[:k] = vals
    plan.pins[:k] = pins
    solver._run_sweep(plan, start, k)
    assert plan.sym[:k].tolist() == syms
    syms = np.array(syms)
    vert = vals[:, g.n_edges - w * (h - 1):].reshape(k, h - 1, w)
    for r in range(start, h - 1):
        filled = syms == r + 1          # mask ~m takes the entry of m
        want[filled, r, half:] = want[filled, r, :half][:, ::-1]
        for full in (True, False):
            sel = np.flatnonzero((syms <= r + 1) == full)
            m = n if full else half
            cur = want[sel, r, :m].copy()
            mirrored = np.concatenate([cur, cur[:, ::-1]], axis=1)
            for c in range(w):
                nxt, bp = np.empty_like(cur), np.zeros(cur.shape, np.uint8)
                j = vert[sel, r, c, None, None]
                if full or c < w - 1:
                    reference.column_step(cur, nxt, j, bp, c)
                else:
                    reference.mirror_step(cur, nxt, j[:, 0], bp)
                if not full:
                    step = np.empty_like(mirrored)
                    codes = np.zeros(mirrored.shape, np.uint8)
                    reference.column_step(mirrored, step, j, codes, c)
                    assert np.array_equal(step[:, :half], nxt, equal_nan=True)
                    assert np.array_equal(codes[:, :half], bp)
                    assert (plan.backptr[r, c, sel, max(1, half // 4):]
                            == 0xFF).all()
                    mirrored = step
                layer = reference.unpack(plan.backptr[r, c, sel], n)
                assert np.array_equal(layer[:, :m], bp)
                cur = nxt
            want[sel, r + 1, :m] = cur + want[sel, r + 1, :m]
    # the upper half of a row r < sym keeps the NaN it was filled with, or
    # the fill of row sym - 1
    assert plan.rowcost[:k].tobytes() == want.tobytes()
    assert (plan.backptr[:start] == 0xFF).all()


def test_a_free_sweep_writes_only_the_lower_half_of_each_layer():
    # a free problem's frontiers are symmetric on every row, so its sweep,
    # fresh or resumed, steps on lower halves alone: it writes the first
    # max(1, 2^(W-3)) bytes of each of its backpointer layers, gaussian
    # couplings give no tie there (code 3, as in the fill), and the rest
    # keeps the 0xFF it was filled with
    for w, h in ((1, 3), (2, 4), (3, 3), (4, 5), (7, 4), (12, 3), (16, 2)):
        g, plan = build_box(w, h), solver._Plan(w, h)
        k, half = min(len(plan.rowcost), 3), 1 << w - 1
        written = max(1, half // 4)
        Js = [sample_couplings(g, GAUSS, 13, i) for i in range(k)]
        forced = [solver._pins(w, h, None)] * k
        plan.backptr[...] = 0xFF
        solver._sweep(g, Js, forced, plan)
        below = g.entry_row < h - 1     # the next sweep starts at row h-2
        solver._sweep(g, [CouplingConfig(g, np.where(
            below, J.values, -J.values)) for J in Js], forced, plan)
        assert plan.last[1] == max(h - 2, 0)
        assert plan.sym[:k].tolist() == [h] * k
        assert (plan.backptr[:, :, :k, written:] == 0xFF).all(), (w, h)
        codes = reference.unpack(plan.backptr[:, :, :k, :written], half)
        assert ((codes == 1) | (codes == 2)).all(), (w, h)


def test_a_sweep_reads_no_row_cost_it_did_not_build():
    # row costs filled with NaN and codes with 0xFF: a sweep that read the
    # upper half of a row before a problem's first forced row, which it
    # never builds, or a code it never wrote, would pass the NaN on or walk
    # a wrong path.  At every width, five problems on one coupling array
    # whose first forced rows run H, 1, 2, H, 0: problem p copies its row
    # costs from problem p - 1 only where p - 1's first forced row is not
    # below its own (here p = 2 and 3), and builds them otherwise.  Fresh,
    # then resumed at row H-2 with the last row's couplings flipped; each
    # sweep must equal one in a plan filled with zeros, and the upper
    # halves of the rows it built before row sym - 1 (every row if free)
    # keep their NaN
    for w in range(1, 17):
        h = 3 if w > 12 else 4
        g = build_box(w, h)
        with mock.patch.object(solver, "_BATCH_STATES",
                               max(solver._BATCH_STATES, 5 << w)):
            plans = [solver._Plan(w, h), solver._Plan(w, h)]
        plans[0].rowcost[...], plans[0].backptr[...] = np.nan, 0xFF
        plans[1].rowcost[...], plans[1].backptr[...] = 0.0, 0
        syms = [h, 1, 2, h, 0]
        forced = [solver._pins(w, h, None if r == h else Clamp(
            (r * w + w // 2,), (-1,))) for r in syms]
        J = sample_couplings(g, GAUSS, 23, w)
        last = g.entry_row == h - 1
        for Js, lo in (([J] * 5, 0), ([CouplingConfig(
                g, np.where(last, -J.values, J.values))] * 5, h - 1)):
            got = []
            for plan in plans:
                solver._sweep(g, Js, forced, plan)
                assert plan.last[1] == max(lo - 1, 0)
                assert plan.sym[:5].tolist() == syms
                got.append((solver._best_pairs(g, plan, 5),
                            [_swept_bytes(plan, p, sym, plan.last[1])
                             for p, sym in enumerate(syms)]))
            _assert_same_states(got[0][0], got[1][0])
            assert got[0][1] == got[1][1], w
            for p, sym in enumerate(syms):
                unfilled = plans[0].rowcost[
                    p, lo:h if sym == h else max(sym - 1, 0), 1 << w - 1:]
                assert np.isnan(unfilled).all(), (w, p)


def test_a_free_problem_counts_each_pair_once():
    # a 7x3 box whose couplings are 0 but on the last row's edges: its final
    # frontier's lower half holds that row's costs, and its upper half was
    # never built.  The traceback reads the lower half only, one member of
    # each of the 2^14 optimal pairs, under the tie cap
    g = build_box(7, 3)
    last = np.array([e.u // 7 == 2 and e.v // 7 == 2 for e in g.edges])
    J = CouplingConfig(g, np.where(last, 1.0, 0.0))
    for state in (solve(g, J), solve_batch([J, J], [None, None])[1]):
        assert state.tied and state.energy == -7.0
        assert (state.signs[14:] == state.signs[14]).all()


@pytest.mark.parametrize("seed", range(5))
def test_a_free_solve_compares_flipped_rivals_before_rounding_absorbs_them(
        seed):
    # couplings some 18 decades below the rest on the edges of a box's first
    # two rows: configurations that differ only there have energies that
    # round to one double.  A free sweep meets each configuration's flipped
    # rivals on those rows, while the partial sums are still that small, and
    # returns the exact minimizer, which is unique here.  A sweep that pins
    # vertex 0 at +1 (the solver's free sweep until it kept one member of
    # each pair, and a clamp on vertex 0 today) meets them only after a far
    # larger coupling has absorbed their difference, and reports a tie;
    # so does ``brute_force``, which sums in floating point
    g = build_box(4, 4)
    first = g.entry_row < 2
    rng = np.random.default_rng(seed)
    J = CouplingConfig(g, rng.normal(size=g.n_edges)
                       * np.where(first, 1e-18, 1.0))
    (exact,) = reference.exact_minimizers(J)
    for state in (solve(g, J), solve_batch([J, J], [None, None])[1]):
        assert not state.tied and state.signs.tolist() == exact
    assert solve(g, J, Clamp((0,), (1,))).tied


# each law scales an edge's gaussian coupling by its entry row r of H rows,
# so that the couplings span some 17 decades
_DECADE_LAWS = {
    "small rows first": lambda r, h, rng: 10.0 ** (17 * r / (h - 1) - 17),
    "large rows first": lambda r, h, rng: 10.0 ** (-17 * r / (h - 1)),
    "alternating rows": lambda r, h, rng: 10.0 ** (-17 * (r % 2)),
    "random scales": lambda r, h, rng: 10.0 ** rng.uniform(-17, 0, len(r)),
}


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4),
       st.sampled_from(sorted(_DECADE_LAWS)), st.integers(0, 2**32 - 1),
       st.data())
def test_an_untied_solve_returns_the_unique_exact_minimizer(w, h, law, seed,
                                                            data):
    # where rounding absorbs the difference of two configurations the
    # solver may report a tie, but an untied state is the minimizer of the
    # exact sums; brute_force sums in floating point and is no oracle here
    g = build_box(w, h)
    rng = np.random.default_rng(seed)
    J = CouplingConfig(g, rng.normal(size=g.n_edges)
                       * _DECADE_LAWS[law](g.entry_row, h, rng))
    vertices = data.draw(st.one_of(st.none(), st.lists(
        st.integers(0, g.n_vertices - 1), min_size=1, max_size=3,
        unique=True)))
    clamp = None if vertices is None else Clamp(
        vertices, rng.choice([1, -1], len(vertices)))
    exact = reference.exact_minimizers(J, clamp)
    assume(len(exact) == 1)
    for state in (solve(g, J, clamp), solve_batch([J, J], [None, clamp])[1]):
        assert state.tied or state.signs.tolist() == exact[0]


def test_a_gauge_transform_maps_each_solve_onto_its_image():
    # the gauge map J'_uv = e_u e_v J_uv, with clamp signs e_v s_v, maps
    # every term of every configuration s onto the bit-equal term of e s,
    # and the kernel does the same IEEE operations on it: the tie flags and
    # the tie cap match, and an untied minimizer maps onto its image,
    # canonicalized, with the same energy bits (a tied problem may keep
    # another member of its class).  Every width, gaussian, +-1 and
    # 15-decade couplings, every other problem with a 1-3 vertex clamp
    rng = np.random.default_rng(2207)
    for w in range(1, 17):
        g = build_box(w, int(rng.integers(2, max(2, min(6, 24 // w)) + 1)))
        for i in range(30 if w <= 12 else 6):
            vals = (rng.normal(size=g.n_edges),
                    rng.choice([-1.0, 1.0], g.n_edges),
                    rng.normal(size=g.n_edges)
                    * 10.0 ** rng.integers(-7, 8, g.n_edges))[i % 3]
            e = rng.choice(np.array([-1, 1], np.int8), g.n_vertices)
            clamp = image = None
            if i % 2:
                verts = rng.choice(g.n_vertices, min(g.n_vertices, int(
                    rng.integers(1, 4))), replace=False)
                signs = rng.choice([-1, 1], len(verts))
                clamp = Clamp(verts.tolist(), signs.tolist())
                image = Clamp(verts.tolist(), (e[verts] * signs).tolist())
            states, gauged = [], e[g.eu] * e[g.ev] * vals
            for J, cl in ((CouplingConfig(g, vals), clamp),
                          (CouplingConfig(g, gauged), image)):
                try:
                    states.append(solve(g, J, cl))
                except BudgetExceededError:
                    states.append(None)
            a, b = states
            if a is None or b is None:
                assert a is b, (w, i)
                continue
            assert a.tied == b.tied, (w, i)
            if not a.tied:
                assert _float_bits(a.energy) == _float_bits(b.energy), (w, i)
                want = canonicalize(g, e * a.signs, image)
                assert np.array_equal(b.signs, want), (w, i)


def _vertex_maps(g, rng):
    """Maps of box g onto itself as arrays, vertex v to map[v]: a rotation
    by 1..W-1 columns, the left-right and the up-down reflection."""
    w, h = g.width, g.height
    c, r = np.arange(g.n_vertices) % w, np.arange(g.n_vertices) // w
    return [r * w + (c + int(rng.integers(1, w))) % w, r * w + w - 1 - c,
            (h - 1 - r) * w + c]


def test_rotations_and_reflections_map_each_solve_onto_its_image():
    # a rotation of the cylinder by k columns and its left-right and up-down
    # reflections carry every configuration onto one of the same energy,
    # which the sweep sums in another order: the image of a gaussian
    # problem, free or with a clamp on 1-3 vertices, has its energy within
    # 1e-12 (1 + |E|), and neither is tied, the mapped canonical minimizer.
    # A rotation moves column W-1, whose step alone pairs mirrored entries
    # on a symmetric frontier; the up-down map moves a clamp's first pinned
    # row, where the sweep turns from half to full size
    rng = np.random.default_rng(2311)
    for w in range(3, 17):
        g = build_box(w, int(rng.integers(2, min(6, 48 // w) + 1)))
        maps = _vertex_maps(g, rng)
        edge_of = {frozenset(uv): i
                   for i, uv in enumerate(zip(g.eu.tolist(), g.ev.tolist()))}
        for i in range(12 if w <= 12 else 4):
            vals = rng.normal(size=g.n_edges)
            verts = rng.choice(g.n_vertices, i % 4, replace=False)
            signs = rng.choice([-1, 1], len(verts)).tolist()
            Js, clamps = [CouplingConfig(g, vals)], [Clamp(verts, signs)
                                                     if i % 4 else None]
            for m in maps:
                moved = np.empty(g.n_edges)
                moved[[edge_of[frozenset((m[u], m[v]))]
                       for u, v in zip(g.eu, g.ev)]] = vals
                Js.append(CouplingConfig(g, moved))
                clamps.append(Clamp(m[verts], signs) if i % 4 else None)
            a, *images = solve_batch(Js, clamps)
            for m, clamp, b in zip(maps, clamps[1:], images):
                assert not (a.tied or b.tied), (w, i)
                assert abs(b.energy - a.energy) <= 1e-12 * (1 + abs(a.energy))
                image = np.empty_like(a.signs)
                image[m] = a.signs
                assert np.array_equal(b.signs, canonicalize(g, image, clamp)), \
                    (w, i)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_first_forced_row_anywhere_matches_bruteforce(w, data):
    # free problems and clamps whose lowest vertex lies on any row, so the
    # sweep goes from half steps to full ones before any row, or never;
    # couplings that tie or gaussian ones, up to 4 problems in a batch.
    # Then a chain of sweeps that keep the couplings of the leading rows and
    # move slots from free to clamped and back, each resumed where it can
    # and equal to a fresh sweep and to the oracle
    h = data.draw(st.integers(2, min(6, 14 // w)))
    g = build_box(w, h)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tied = data.draw(st.booleans())

    def clamp():
        row = data.draw(st.integers(0, h))          # h: none
        if row == h:
            return None
        first = row * w + data.draw(st.integers(0, w - 1))
        rest = data.draw(st.lists(st.integers(first + 1, g.n_vertices - 1),
                                  max_size=2, unique=True)
                         if first + 1 < g.n_vertices else st.just([]))
        return Clamp([first, *rest], [data.draw(st.sampled_from([1, -1]))
                                      for _ in range(1 + len(rest))])

    k = data.draw(st.integers(1, 4))
    Js = [CouplingConfig(g, _draw_values(rng, g, tied)) for _ in range(k)]
    clamps = [clamp() for _ in range(k)]
    solver._PLANS.store = {}
    for _ in range(data.draw(st.integers(1, 3))):
        got = _solve_and_bits(Js, clamps)
        _assert_same_sweeps(got, _fresh(Js, clamps))
        _assert_same_states(got[0], [brute_force(J, cl)
                                     for J, cl in zip(Js, clamps)])
        keep = g.entry_row < data.draw(st.integers(0, h))
        Js = [CouplingConfig(g, np.where(keep, J.values,
                                         _draw_values(rng, g, tied)))
              for J in Js]
        clamps = [clamp() if data.draw(st.booleans()) else cl
                  for cl in clamps]


# a child process that builds the kernel with AddressSanitizer and
# UndefinedBehaviorSanitizer into the directory argv[1] and runs free,
# clamped and resumed batches at every width: clamps on column 0, on column
# W-1 (bit 15 at W=16) and on both, and sweeps resumed from one whose pins
# differ only on the last row, below the rows the two sweeps share
_SANITIZED_CHILD = """
import sys
from pathlib import Path
import numpy as np
from eaglass import solver
from eaglass.disorder import CouplingConfig, DistributionSpec, sample_couplings
from eaglass.errors import BudgetExceededError
from eaglass.lattice import build_box
from eaglass.solver import Clamp

solver._CFLAGS = ("-O1", "-g", "-shared", "-fPIC", "-ffp-contract=off",
                  "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
solver._BUILD_DIR = Path(sys.argv[1])
gauss = DistributionSpec("gaussian", sigma=1.0)
rng = np.random.default_rng(17)
for w in range(1, 17):
    h = 3 if w > 12 else 4
    g = build_box(w, h)
    k = min(3, max(1, solver._BATCH_STATES >> w) + 1)
    Js = [sample_couplings(g, gauss, 17, i) for i in range(k)]
    last = g.entry_row == h - 1
    cols = [(0,), (w - 1,), (0, w - 1) if w > 1 else (0,)]
    def clamp(row, i):
        return Clamp([row * w + c for c in cols[i % 3]],
                     [1, -1][:len(cols[i % 3])])
    for j, rows in enumerate((range(h), range(1, h), range(h - 1, h))):
        clamps = [None] + [clamp(int(rng.choice(rows)), i + j)
                           for i in range(k - 1)]
        for _ in range(2):  # the second sweep shares all but the last row
            solver.solve_batch(Js, clamps)
            Js = [CouplingConfig(g, np.where(last, -J.values, J.values))
                  for J in Js]
    n = min(k, len(solver._plan(w, h).rowcost))
    solver.solve_batch(Js[:n], [None] * n)
    for clamps in ([clamp(h - 1, i) for i in range(n)], [None] * n):
        solver.solve_batch(Js[:n], clamps)
        assert solver._plan(w, h).last == (n, h - 2)
    zero = CouplingConfig(g, np.zeros(g.n_edges))
    try:
        solver.solve_batch([zero], [None])
    except BudgetExceededError:
        pass
print("clean")
"""


def test_the_kernel_runs_clean_under_address_and_ub_sanitizers(tmp_path):
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    assert os.path.isabs(runtime), "cc has no AddressSanitizer runtime"
    src = str(Path(solver.__file__).parents[1])
    env = {**os.environ, "LD_PRELOAD": runtime,
           "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _SANITIZED_CHILD,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "clean"
    assert "runtime error" not in proc.stderr, proc.stderr[-4000:]


def test_a_warm_sweep_allocates_nothing():
    # the kernel runs a row's column steps in place in the plan's one step
    # buffer and the couplings and pins go to the plan too; a sweep, free or
    # clamped, allocates only small arrays
    for w, h, k in ((15, 15, 1), (7, 4, 64)):
        g = build_box(w, h)
        Js = [sample_couplings(g, GAUSS, 11, i) for i in range(k)]
        edges = [g.edges[i * 7 % g.n_edges] for i in range(k)]
        for clamps in ([None] * k, [Clamp.opposite_pair(e.u, e.v)
                                    for e in edges]):
            forced = [solver._pins(w, h, cl) for cl in clamps]
            plan = solver._Plan(w, h)
            solver._sweep(g, Js, forced, plan)
            plan.last = None    # no resume: the second sweep runs every row
            tracemalloc.start()
            try:
                solver._sweep(g, Js, forced, plan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 1024, (w, h, k, clamps[0])


def test_only_plan_addresses_reach_the_kernel(monkeypatch):
    # a problem's couplings, pins and anchor reach the kernel through the
    # plan, whose arrays never move: every pointer that a sweep or a
    # traceback takes, free, clamped or resumed, is one of the plan's
    lib, calls = solver._kernel(), []

    class Recorder:
        def __getattr__(self, name):
            def call(*args):
                calls.append((name, args))
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(solver, "_kernel", Recorder)
    solver._PLANS.store = {}
    for w, h, k in ((3, 3, 5), (7, 4, 40), (15, 3, 1)):
        g = build_box(w, h)
        Js = [sample_couplings(g, GAUSS, 29, i) for i in range(k)]
        clamps = [None if i % 3 == 2 else Clamp(
            (i % g.n_vertices, (i + w) % g.n_vertices), (1, -1))
            for i in range(k)]
        last = g.entry_row == h - 1
        flipped = [CouplingConfig(g, np.where(last, -J.values, J.values))
                   for J in Js]
        calls.clear()
        for batch, cls in ((Js, [None] * k), (Js, clamps), (flipped, clamps)):
            solve_batch(batch, cls)
        plan = solver._plan(w, h)
        assert [(name, args[4]) for name, args in calls] == [
            ("eaglass_sweep", 0), ("eaglass_traceback", solver._TIE_CAP),
            ("eaglass_sweep", 0), ("eaglass_traceback", solver._TIE_CAP),
            ("eaglass_sweep", h - 2), ("eaglass_traceback", solver._TIE_CAP)]
        for name, args in calls:
            types = getattr(lib, name).argtypes
            pointers = {a for a, t in zip(args, types) if t is ctypes.c_void_p}
            assert len(pointers) == types.count(ctypes.c_void_p), name
            assert pointers <= set(plan.at.values()), (w, name)


# a child process that builds or loads the kernel in the directory argv[1]
# and prints the digest of eight 7x7 solves; with argv[2] == "no-compiler"
# it may start no process
_KERNEL_CHILD = """
import hashlib, struct, subprocess, sys
from pathlib import Path
from eaglass import solver
from eaglass.disorder import DistributionSpec, sample_couplings
from eaglass.lattice import build_box

def refuse(*args, **kwargs):
    raise AssertionError("the cached kernel started a process")

solver._BUILD_DIR = Path(sys.argv[1])
if sys.argv[2] == "no-compiler":
    subprocess.run = refuse
g = build_box(7, 7)
Js = [sample_couplings(g, DistributionSpec("gaussian", sigma=1.0), 3, i)
      for i in range(8)]
digest = hashlib.sha256()
for p in solver.solve_batch(Js, [None] * 8):
    digest.update(p.signs.tobytes() + struct.pack("<d", p.energy))
print(digest.hexdigest())
"""
_KERNEL_DIGEST = \
    "3b4124428a04f9b48eb650d759bf6380a7b40f0e6bef7f1876d6f13c46e5c283"


def test_racing_builds_share_one_cached_kernel(tmp_path):
    src = str(Path(solver.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def child(mode):
        return subprocess.Popen(
            [sys.executable, "-c", _KERNEL_CHILD, str(tmp_path), mode],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def digest(proc):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        return out.strip()

    # a partial library from a build that died: its name is a build's
    # temporary name, which is never loaded
    name = solver._library_name()
    leftover = tmp_path / f"{name}dead0000.tmp"
    leftover.write_bytes(b"\x7fELF partial")
    racers = [child("build"), child("build")]
    assert [digest(p) for p in racers] == [_KERNEL_DIGEST] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [name, leftover.name])
    assert digest(child("no-compiler")) == _KERNEL_DIGEST


def _sweep_bits_digest():
    """SHA-256 over the frontiers and backpointers of a fresh 13x13 and
    15x15 sweep and over one ``solve_batch`` of 7x7 problems; it imports
    what it uses, since child processes run its source alone."""
    import hashlib, struct
    import numpy as np
    from eaglass import solver
    from eaglass.disorder import DistributionSpec, sample_couplings
    from eaglass.lattice import build_box
    gauss = DistributionSpec("gaussian", sigma=1.0)
    digest = hashlib.sha256()
    for w in (13, 15):
        g, plan = build_box(w, w), solver._Plan(w, w)
        solver._sweep(g, [sample_couplings(g, gauss, 5, w)],
                      [solver._pins(w, w, None)], plan)
        # a free sweep builds and writes only the lower half of each row,
        # and the codes of the lower half of each backpointer layer
        digest.update(plan.rowcost[..., :1 << w - 1].tobytes()
                      + plan.backptr[..., :1 << w - 3].tobytes())
    g = build_box(7, 7)
    Js = [sample_couplings(g, gauss, 5, i) for i in range(8)]
    for p in solver.solve_batch(Js, [None] * 8):
        digest.update(p.signs.tobytes() + struct.pack("<d", p.energy))
    return digest.hexdigest()


def test_solver_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernels by CPU; these two sum some products in
    # another order than the default one, so the solver must use no BLAS
    src = str(Path(solver.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = (inspect.getsource(_sweep_bits_digest)
             + "print(_sweep_bits_digest())\n")
    want = _sweep_bits_digest()
    for core in ("Haswell", "Nehalem"):
        proc = subprocess.run([sys.executable, "-c", child], text=True,
                              capture_output=True, timeout=300,
                              env={**env, "OPENBLAS_CORETYPE": core})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want, core


def test_a_failed_build_names_the_command_and_leaves_no_file(
        tmp_path, monkeypatch):
    broken = tmp_path / "_sweep.c"
    broken.write_text("void eaglass_sweep(void) { return 0 }\n")
    monkeypatch.setattr(solver, "_SOURCE", broken)
    monkeypatch.setattr(solver, "_BUILD_DIR", tmp_path / "cache")
    solver._kernel.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"cc -O3 (.|\n)*error"):
            solver._kernel()
    finally:
        solver._kernel.cache_clear()
    assert list((tmp_path / "cache").iterdir()) == []


def test_an_unusable_cache_directory_builds_into_a_private_one(
        tmp_path, monkeypatch):
    blocked = tmp_path / "file"
    blocked.write_text("not a directory")
    monkeypatch.setattr(solver, "_BUILD_DIR", blocked / "cache")
    solver._kernel.cache_clear()
    try:
        solver._kernel()
        g = build_box(4, 3)
        J = sample_couplings(g, GAUSS, 12, 0)
        assert solve(g, J).same_pair(brute_force(J))
    finally:
        solver._kernel.cache_clear()
    assert list(tmp_path.iterdir()) == [blocked]


# --------------------------------------------------------------------------
# one batched traceback per sweep


def _float_bits(x):
    return struct.pack("<d", x)


def test_solver_bits_are_pinned():
    # one digest over the signs, energy bits and tie flags of: 40 plain and
    # clamped gaussian problems on 7x7 in one batch; 80 {-1, 0, 1} problems
    # on 4x4 with random clamps, where ties are common; the 15x15
    # perturbed-exterior pair, whose second solve resumes from the first
    digest = hashlib.sha256()
    n_tied = 0

    def feed(states):
        nonlocal n_tied
        for sp in states:
            digest.update(sp.signs.tobytes())
            digest.update(_float_bits(sp.energy) + bytes([sp.tied]))
            n_tied += sp.tied

    rng = np.random.default_rng(1107)
    g = build_box(7, 7)
    Js, clamps = [], []
    for i in range(40):
        Js.append(sample_couplings(g, GAUSS, 1107, i))
        e = g.edges[int(rng.integers(g.n_edges))]
        clamps.append((None, Clamp.equal_pair(e.u, e.v),
                       Clamp.opposite_pair(e.u, e.v))[i % 3])
    feed(solve_batch(Js, clamps))
    g = build_box(4, 4)
    Js, clamps = [], []
    for i in range(80):
        Js.append(CouplingConfig(g, rng.integers(-1, 2, g.n_edges).astype(float)))
        k = int(rng.integers(1, 5))
        verts = rng.choice(g.n_vertices, size=k, replace=False)
        clamps.append(None if k == 1 else Clamp(
            tuple(int(v) for v in verts),
            (1,) + tuple(int(s) for s in rng.choice([1, -1], k - 1))))
    feed(solve_batch(Js, clamps))
    g = build_box(15, 15)
    base = sample_couplings(g, GAUSS, 1107, 0)
    band = g.entry_row <= g.height // 2
    pert = CouplingConfig(g, np.where(
        band, base.values, sample_couplings(g, GAUSS, 1107, 1).values))
    solver._PLANS.store = {}
    feed([solve(g, base), solve(g, pert)])
    assert n_tied == 66
    assert digest.hexdigest() == (
        "914dc2c243b41e16aeaedda34aa39fb8e54b8ddebb4d7cf438f7efcd689cce83")


def _draw_problem(data, g):
    """Gaussian or {-1, -0.0, 0.0, 1} couplings, never both in one problem
    (see ``_draw_values``), with no clamp or one on 1 to 4 vertices."""
    if data.draw(st.booleans()):
        vals = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                                  min_size=g.n_edges, max_size=g.n_edges))
        J = CouplingConfig(g, np.array(vals))
    else:
        J = sample_couplings(g, GAUSS, 4111, data.draw(st.integers(0, 10**6)))
    verts = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=0,
                               max_size=min(4, g.n_vertices), unique=True))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(verts),
                               max_size=len(verts)))
    return J, Clamp(verts, signs) if verts else None


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(1, 8), st.integers(2, 5), st.integers(1, 20)),
    st.tuples(st.just(7), st.integers(2, 4), st.just(70)),
    st.tuples(st.integers(13, 16), st.just(3), st.just(1))), st.data())
def test_batched_traceback_matches_the_reference_enumerator(shape, data):
    # build_box needs two rows, so H=2 (one row of backpointers) is the
    # shortest box; at W=7 a sweep holds 64 problems, so K=70 takes two,
    # and each chunk is swept again for the backpointers the reference reads
    w, h, k = shape
    g = build_box(w, h)
    Js, clamps = zip(*[_draw_problem(data, g) for _ in range(k)])
    try:
        batch = solve_batch(Js, clamps)
    except BudgetExceededError:
        batch = None
    want, step = [], len(solver._plan(w, h).rowcost)
    for lo in range(0, k, step):
        chunk = slice(lo, lo + step)
        try:
            solve_batch(Js[chunk], clamps[chunk])
        except BudgetExceededError:
            pass
        plan = solver._plan(w, h)
        for i, (J, cl) in enumerate(zip(Js[chunk], clamps[chunk])):
            try:
                want.append(reference.best_pair(g, J, cl, *reference.unfold(
                    plan.backptr[:, :, i], plan.rowcost[i, -1],
                    _first_forced_row(g, cl))))
            except BudgetExceededError:
                want.append(None)
    if batch is None:
        assert None in want
        return
    for a, b in zip(batch, want, strict=True):
        assert np.array_equal(a.signs, b.signs)
        assert a.tied == b.tied
        assert _float_bits(a.energy) == _float_bits(b.energy)


def _per_problem_sweeps(Js, forced, shared, single, start):
    """Each problem of the sweep ``shared`` last ran, swept alone in the
    plan ``single`` from the frontier ``shared`` started from in row
    ``start``: its row costs built from its own couplings, none copied.
    Asserts that each gives the same frontiers and backpointers."""
    for i, (J, (pins, _)) in enumerate(zip(Js, forced)):
        single.rowcost[0, start] = shared.rowcost[i, start]
        single.vals[0] = J.values
        single.pins[0] = pins
        solver._run_sweep(single, start, 1)
        sym = shared.sym[i]
        assert single.sym[0] == sym
        assert (_swept_bytes(shared, i, sym, start)
                == _swept_bytes(single, 0, sym, start))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RESUME_SHAPES), st.integers(1, 8), st.data())
def test_shared_row_costs_and_kernel_forced_cells_equal_per_problem_ones(
        shape, k, data):
    # k problems on 1 to 3 coupling arrays, whose row costs a sweep copies
    # from the problem before where that holds the same array, with each
    # problem's forced signs written as inf after the copy: every frontier
    # and backpointer the kernel sweeps equals, bit for bit, a sweep of the
    # problem alone; fresh, then resumed from the rows the next sweep shares
    # with it
    g = build_box(*shape)
    k = min(k, solver._BATCH_STATES >> g.width)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tied = data.draw(st.booleans())
    pool = [CouplingConfig(g, _draw_values(rng, g, tied))
            for _ in range(data.draw(st.integers(1, 3)))]
    Js = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(k)]
    clamps = [_draw_clamp(data, g) for _ in range(k)]
    shared, single = solver._Plan(*shape), solver._Plan(*shape)
    for resumed in (False, True):
        forced = [solver._pins(*shape, cl) for cl in clamps]
        solver._sweep(g, Js, forced, shared)
        start = shared.last[1]
        assert (start > 0) == resumed
        _per_problem_sweeps(Js, forced, shared, single, start)
        # the next sweep keeps the couplings entering rows 0..p-1 and the
        # clamps, so it starts at row p-1 >= 1
        keep = g.entry_row < data.draw(st.integers(2, g.height))
        moved = {id(J.values): CouplingConfig(g, np.where(
            keep, J.values, _draw_values(rng, g, tied))) for J in pool}
        Js, pool = [moved[id(J.values)] for J in Js], list(moved.values())


def test_the_kernel_compiles_without_warnings(tmp_path):
    cmd = ["cc", "-O3", "-Wall", "-Wextra", "-Werror", "-ffp-contract=off",
           "-c", str(solver._SOURCE), "-o", str(tmp_path / "sweep.o")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kernel_argtypes_match_the_exported_prototypes():
    # a ctypes signature that disagrees with the C one is undefined
    # behaviour: each exported function takes one c_int per int and one
    # c_void_p per pointer, and returns what its prototype says
    exported = re.findall(r"^(void|int) (eaglass_\w+)\(([^)]*)\)",
                          solver._SOURCE.read_text(), re.MULTILINE)
    assert [name for _, name, _ in exported] == ["eaglass_sweep",
                                                 "eaglass_traceback"]
    lib = solver._kernel()
    for ret, name, params in exported:
        want = []
        for param in params.split(","):
            assert "*" in param or param.split()[0] == "int", param
            want.append(ctypes.c_void_p if "*" in param else ctypes.c_int)
        assert getattr(lib, name).argtypes == want, name
        assert getattr(lib, name).restype == (
            None if ret == "void" else ctypes.c_int), name


def test_a_sweep_that_does_not_fit_the_plan_raises():
    # the checks on the caller's data: the problem count against the plan's
    # capacity and the start row (a pin's mask addresses no memory outside
    # its row, and a clamp vertex outside the box raises in ``_pins``)
    plan = solver._Plan(3, 3)
    cap = len(plan.rowcost)
    for start, k in ((0, cap + 1), (-1, 1), (3, 1)):
        with pytest.raises(ValueError, match="does not fit the plan"):
            solver._run_sweep(plan, start, k)


def test_tie_cap_inside_a_batch():
    g = build_box(4, 4)
    gauss = [sample_couplings(g, GAUSS, 4127, i) for i in range(5)]
    clamps = [None, Clamp.equal_pair(0, 5), Clamp.opposite_pair(3, 12), None,
              Clamp((1, 6, 11), (1, -1, 1))]
    zero = hand_couplings(g, 0.0)       # 2^15 optimal configurations
    with pytest.raises(BudgetExceededError):
        solve_batch(gauss[:2] + [zero] + gauss[2:], clamps[:2] + [None]
                    + clamps[2:])
    batch = solve_batch(gauss, clamps)
    single = [solve(g, J, cl) for J, cl in zip(gauss, clamps)]
    for a, b in zip(batch, single):
        assert a.signs.tobytes() == b.signs.tobytes()
        assert _float_bits(a.energy) == _float_bits(b.energy)
        assert a.tied == b.tied
