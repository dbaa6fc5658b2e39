"""Geometry and enumeration tests, checked against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaglass import lattice
from eaglass.errors import BudgetExceededError
from eaglass.lattice import (build_box, build_dual, connected_subsets,
                             dual_circuits_and_paths, horizontal_edges_per_row)


def flood_fill_connected(geom, subset):
    """Independent connectivity check via BFS over the cylinder graph."""
    subset = set(subset)
    if not subset:
        return False
    start = next(iter(subset))
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for eid in geom.incident[v]:
            e = geom.edges[eid]
            w = e.v if e.u == v else e.u
            if w in subset and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == subset


def brute_connected_subsets(geom, max_size):
    found = set()
    verts = range(geom.n_vertices)
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(verts, size):
            if flood_fill_connected(geom, combo):
                found.add(combo)
    return found


def test_box_counts_3x3():
    g = build_box(3, 3)
    assert g.n_vertices == 9
    assert sum(1 for e in g.edges if e.kind == "h") == 9
    assert sum(1 for e in g.edges if e.kind == "v") == 6
    assert g.n_edges == 15


def test_box_degenerate_widths():
    g1 = build_box(1, 2)
    assert g1.n_vertices == 2
    assert [e.kind for e in g1.edges] == ["v"]
    g2 = build_box(2, 2)
    assert g2.n_vertices == 4
    assert sum(1 for e in g2.edges if e.kind == "h") == 2
    assert g2.n_edges == 4
    # no doubled edge: each unordered vertex pair appears once
    pairs = [frozenset((e.u, e.v)) for e in g2.edges]
    assert len(pairs) == len(set(pairs))


def test_box_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_box(0, 3)
    with pytest.raises(ValueError):
        build_box(3, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6))
def test_box_invariants(w, h):
    g = build_box(w, h)
    assert g.n_vertices == w * h
    cells = {g.vertex_cr(v) for v in range(g.n_vertices)}
    assert cells == {(c, r) for c in range(w) for r in range(h)}
    per_row = horizontal_edges_per_row(w)
    assert g.n_edges == per_row * h + w * (h - 1)
    for e in g.edges:
        if e.kind == "v":
            assert 0 <= e.row < h - 1
    wraps = [e for e in g.edges if e.wrap]
    assert len(wraps) == (h if w >= 3 else 0)


@pytest.mark.parametrize("w, h", [(1, 2), (1, 4), (2, 3), (3, 3), (5, 4)])
def test_entry_row_is_the_upper_endpoint_row(w, h):
    # a horizontal edge enters a row-by-row sweep at its own row and a
    # vertical edge at the row of its upper endpoint
    g = build_box(w, h)
    assert g.entry_row.dtype == np.int64
    assert g.entry_row.tolist() == [e.row + (e.kind == "v") for e in g.edges]
    assert not g.entry_row.flags.writeable
    with pytest.raises(ValueError):
        g.entry_row[0] = 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(2, 5), st.integers(0, 6))
def test_column_shift_is_automorphism(w, h, k):
    g = build_box(w, h)

    def shift(k):
        # vertex id of (c, r) -> vertex id of (c + k mod w, r)
        return [r * w + (c + k) % w for r in range(h) for c in range(w)]

    perm = shift(k)
    mapped = {(frozenset((perm[e.u], perm[e.v])), e.kind) for e in g.edges
              if e.u != e.v}
    orig = {(frozenset((e.u, e.v)), e.kind) for e in g.edges if e.u != e.v}
    assert mapped == orig
    assert shift(w) == list(range(g.n_vertices))


def test_dual_bijection_and_x_axis():
    g = build_box(3, 3)
    d = build_dual(3, 3)
    assert len(d.dual_edges) == g.n_edges
    assert len(d.dual_x_axis) == 3
    for e in g.edges:
        assert d.dual_edges[e.id].id == e.id
    # no dual edge connects two dual-x-axis vertices
    xs = set(d.dual_x_axis)
    for de in d.dual_edges:
        assert not (de.a in xs and de.b in xs)


def test_dual_degenerate():
    d = build_dual(1, 2)
    assert len(d.dual_edges) == 1
    # width-1 cylinder: the vertical edge's dual closes on itself
    assert d.dual_edges[0].a == d.dual_edges[0].b


def test_dual_x_axis_size_matches_paper_box():
    for n in (1, 2, 3):
        d = build_dual(2 * n + 1, 2 * n + 1)
        assert len(d.dual_x_axis) == 2 * n + 1


def test_connected_subsets_small_counts():
    g = build_box(3, 3)
    assert sum(1 for _ in connected_subsets(g, 1)) == 9
    subs2 = list(connected_subsets(g, 2))
    assert len(subs2) == 24  # singletons plus one per edge


def test_connected_subsets_vs_bruteforce_3x3():
    g = build_box(3, 3)
    got = set(connected_subsets(g, 3))
    want = brute_connected_subsets(g, 3)
    assert got == want


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3), st.integers(1, 3))
def test_connected_subsets_exact(w, h, max_size):
    g = build_box(w, h)
    got = connected_subsets(g, max_size)
    assert got == sorted(got)
    assert len(got) == len(set(got))
    for s in got:
        assert flood_fill_connected(g, s)
    assert set(got) == brute_connected_subsets(g, max_size)


def test_connected_subsets_budget(monkeypatch):
    g = build_box(4, 4)
    monkeypatch.setattr(lattice, "ENUM_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        connected_subsets(g, 4)
    # the budget counts every subset, the singletons included
    n_items = len(brute_connected_subsets(g, 3))
    monkeypatch.setattr(lattice, "ENUM_BUDGET", n_items)
    assert len(connected_subsets(g, 3)) == n_items
    monkeypatch.setattr(lattice, "ENUM_BUDGET", n_items - 1)
    with pytest.raises(BudgetExceededError):
        connected_subsets(g, 3)


def brute_circuits_and_paths(d, max_len):
    """Exhaustive DFS over dual edge sequences, as an independent oracle."""
    circuits = set()
    paths = set()
    adj = [[] for _ in range(d.n_dual_vertices)]
    for de in d.dual_edges:
        adj[de.a].append((de.id, de.b))
        if de.b != de.a:
            adj[de.b].append((de.id, de.a))
    xs = set(d.dual_x_axis)

    def walk(start, v, used_e, used_v, for_paths):
        for eid, w in adj[v]:
            if eid in used_e or w == v:
                continue
            if for_paths:
                if w in xs:
                    if w != start:
                        paths.add(frozenset(used_e | {eid}))
                    continue
                if w in used_v:
                    continue
                if len(used_e) + 1 < max_len:
                    walk(start, w, used_e | {eid}, used_v | {w}, True)
            else:
                if w == start and len(used_e) >= 1:
                    circuits.add(frozenset(used_e | {eid}))
                    continue
                if w in used_v:
                    continue
                if len(used_e) + 1 < max_len:
                    walk(start, w, used_e | {eid}, used_v | {w}, False)

    for s in range(d.n_dual_vertices):
        walk(s, s, frozenset(), {s}, False)
    for s in d.dual_x_axis:
        walk(s, s, frozenset(), {s}, True)
    return circuits, paths


def test_dual_circuits_3x3_unit_plaquettes():
    d = build_dual(3, 3)
    items = list(dual_circuits_and_paths(d, 4))
    circuits4 = [seq for kind, seq in items if kind == "circuit" and len(seq) == 4]
    # one per interior primal vertex (middle row): three of them
    assert len(circuits4) == 3
    # wrap circuits of length 3 exist at each interior dual row
    circuits3 = [seq for kind, seq in items if kind == "circuit" and len(seq) == 3]
    assert len(circuits3) == 2


def test_dual_paths_shortest_is_three():
    # X* vertices have degree one, so no dual path of length 2 exists and the
    # shortest X*-to-X* path uses three dual edges over a bottom vertex
    d = build_dual(3, 3)
    assert list(dual_circuits_and_paths(d, 2)) == []
    paths3 = [seq for kind, seq in dual_circuits_and_paths(d, 3)
              if kind == "path"]
    assert len(paths3) == 3


def test_dual_enumeration_matches_oracle():
    for (w, h, ml) in [(3, 3, 4), (3, 3, 6), (2, 3, 4), (4, 3, 5), (5, 5, 6),
                       (1, 4, 6), (7, 7, 4)]:
        d = build_dual(w, h)
        got_c, got_p = [], []
        for kind, seq in dual_circuits_and_paths(d, ml):
            (got_c if kind == "circuit" else got_p).append(frozenset(seq))
        # each item exactly once
        assert len(got_c) == len(set(got_c))
        assert len(got_p) == len(set(got_p))
        want_c, want_p = brute_circuits_and_paths(d, ml)
        assert set(got_c) == want_c
        assert set(got_p) == want_p


def test_no_circuits_width1():
    d = build_dual(1, 2)
    assert list(dual_circuits_and_paths(d, 4)) == []
