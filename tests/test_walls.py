import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaglass import walls as wl
from eaglass.disorder import DistributionSpec, sample_couplings
from eaglass.errors import ConfigError
from eaglass.lattice import build_box, build_dual
from eaglass.solver import solve

GAUSS = DistributionSpec("gaussian", sigma=1.0)


def flood_fill_walls(iface, dual):
    """Independent component decomposition by BFS, for cross-checking."""
    edges = set(iface.edge_ids)
    vert_edges = {}
    for eid in edges:
        d = dual.dual_edges[eid]
        vert_edges.setdefault(d.a, set()).add(eid)
        vert_edges.setdefault(d.b, set()).add(eid)
    seen = set()
    comps = []
    for start in sorted(edges):
        if start in seen:
            continue
        comp = set()
        queue = [start]
        while queue:
            eid = queue.pop()
            if eid in comp:
                continue
            comp.add(eid)
            d = dual.dual_edges[eid]
            for v in (d.a, d.b):
                queue.extend(vert_edges[v] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def random_signs(rng, n):
    return np.where(rng.integers(2, size=n) > 0, 1, -1).astype(np.int8)


def test_interface_identity_and_symmetry():
    g = build_box(4, 4)
    J = sample_couplings(g, GAUSS, 3, 1)
    rng = np.random.default_rng(0)
    a, b = random_signs(rng, 16), random_signs(rng, 16)
    assert wl.interface(J, a, a).is_empty()
    ab = wl.interface(J, a, b).edge_ids
    ba = wl.interface(J, b, a).edge_ids
    assert ab == ba
    # global flips of either argument change nothing
    assert wl.interface(J, -a, b).edge_ids == ab
    assert wl.interface(J, a, -b).edge_ids == ab


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_interface_triangle_property(idx):
    g = build_box(3, 4)
    J = sample_couplings(g, GAUSS, 19, idx)
    rng = np.random.default_rng(idx)
    a, b, c = (random_signs(rng, 12) for _ in range(3))
    iab = wl.interface(J, a, b).edge_ids
    ibc = wl.interface(J, b, c).edge_ids
    iac = wl.interface(J, a, c).edge_ids
    assert iac <= (iab | ibc)


def test_single_flip_walls():
    g = build_box(5, 5)
    J = sample_couplings(g, GAUSS, 23, 0)
    base = solve(g, J).signs
    # interior vertex: the four surrounding dual edges, untethered
    mid = base.copy()
    mid[12] = -mid[12]
    walls = wl.domain_walls(wl.interface(J, base, mid))
    assert len(walls) == 1
    assert len(walls[0].edge_ids) == 4
    assert not walls[0].tethered
    # bottom-row vertex: three dual edges, tethered
    bot = base.copy()
    bot[2] = -bot[2]
    walls_b = wl.domain_walls(wl.interface(J, base, bot))
    assert len(walls_b) == 1
    assert len(walls_b[0].edge_ids) == 3
    assert walls_b[0].tethered
    # two far-separated flips give two walls
    two = base.copy()
    two[2] = -two[2]
    two[22] = -two[22]
    walls_2 = wl.domain_walls(wl.interface(J, base, two))
    assert len(walls_2) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_wall_decomposition_matches_flood_fill(idx):
    g = build_box(4, 4)
    d = build_dual(4, 4)
    J = sample_couplings(g, GAUSS, 29, idx)
    rng = np.random.default_rng(idx + 1)
    a, b = random_signs(rng, 16), random_signs(rng, 16)
    iface = wl.interface(J, a, b)
    walls = wl.domain_walls(iface)
    assert {w.edge_ids for w in walls} == flood_fill_walls(iface, d)
    # walls partition the interface
    union = set()
    for w in walls:
        assert not union & w.edge_ids
        union |= w.edge_ids
    assert union == set(iface.edge_ids)
    # components of one graph share no dual vertex
    for i, w1 in enumerate(walls):
        for w2 in walls[i + 1:]:
            assert not w1.dual_vertices & w2.dual_vertices
    xs = set(d.dual_x_axis)
    for w in walls:
        assert w.tethered == bool(w.dual_vertices & xs)


def hand_wall(dual, edge_ids, tethered):
    verts = set()
    for eid in edge_ids:
        de = dual.dual_edges[eid]
        verts.add(de.a)
        verts.add(de.b)
    return wl.DomainWall(frozenset(edge_ids), frozenset(verts), tethered)


def test_count_Nnk_hand_built():
    g = build_box(7, 5)
    d = build_dual(7, 5)
    # two vertical dual ladders tethered at separated columns
    col_a, col_b = 1, 5
    ladder_a = [g.edge_by_key[("h", g.abs_col(col_a), r)] for r in range(3)]
    ladder_b = [g.edge_by_key[("h", g.abs_col(col_b), r)] for r in range(3)]
    wa = hand_wall(d, ladder_a, True)
    wb = hand_wall(d, ladder_b, True)
    assert wl.count_Nnk([wa, wb], 3, 0, d) == 2
    assert wl.count_Nnk([wa, wb], 3, 2, d) == 2
    assert wl.count_Nnk([wa, wb], 1, 0, d) <= 2
    assert wl.count_Nnk([], 3, 1, d) == 0
    # untethered walls never counted
    wu = hand_wall(d, ladder_a, False)
    assert wl.count_Nnk([wu], 3, 0, d) == 0


def test_count_Nnk_monotone_in_n():
    g = build_box(9, 5)
    d = build_dual(9, 5)
    J = sample_couplings(g, GAUSS, 47, 7)
    a = solve(g, J).signs
    rng = np.random.default_rng(3)
    b = random_signs(rng, g.n_vertices)
    walls = wl.domain_walls(wl.interface(J, a, b))
    for k in (0, 1, 2):
        counts = [wl.count_Nnk(walls, n, k, d) for n in (1, 2, 3, 4)]
        assert counts == sorted(counts)


def test_count_Nnk_bounds_checked():
    d = build_dual(5, 4)
    with pytest.raises(ConfigError):
        wl.count_Nnk([], 3, 0, d)   # 2n reaches full width: wrap-ambiguous
    with pytest.raises(ConfigError):
        wl.count_Nnk([], 1, 9, d)
    with pytest.raises(ConfigError):
        wl.count_Nnk([], 0, 0, d)


def test_wall_bound_check():
    grid = wl.WallCountGrid((1, 2), (0, 1),
                            {(1, 0): 2, (1, 1): 0, (2, 0): 3, (2, 1): 1})
    assert wl.wall_bound_check(grid).passed
    bad = wl.WallCountGrid((1,), (0, 2),
                           {(1, 0): 5, (1, 2): 0})
    rep = wl.wall_bound_check(bad)
    assert not rep.passed
    assert rep.violations[0]["n"] == 1 and rep.violations[0]["k"] == 2
    with pytest.raises(ConfigError):
        wl.wall_bound_check(wl.WallCountGrid((1,), (1,), {(1, 1): 0}))


def test_no_double_tether_negative_control():
    g = build_box(5, 4)
    # a dual path joining two X* vertices: up, across, down
    e_up = g.edge_by_key[("h", g.abs_col(1), 0)]
    e_across = g.edge_by_key[("v", g.abs_col(2), 0)]
    e_down = g.edge_by_key[("h", g.abs_col(2), 0)]
    iface = wl.Interface(g, frozenset((e_up, e_across, e_down)))
    rep = wl.interface_cycle_check(iface)
    assert not rep.passed
    assert set(rep.violations[0]["edges"]) == {e_up, e_across, e_down}
    # excluding a path edge legitimizes the join
    assert wl.interface_cycle_check(iface,
                                    excluded_dual_edges={e_across}).passed
    assert wl.interface_cycle_check(wl.Interface(g, frozenset())).passed


def closed_contour_oracle(iface):
    """Flood-fill oracle on the open dual: a closed contour exists iff some
    component holds a circuit (edges != vertices - 1) or two dual-x-axis
    vertices."""
    dual = iface.dual
    xs = set(dual.dual_x_axis)
    for comp in flood_fill_walls(iface, dual):
        verts = {v for eid in comp for v in dual.dual_edges[eid][1:]}
        if len(comp) != len(verts) - 1 or len(verts & xs) > 1:
            return True
    return False


def test_interface_cycle_check():
    g = build_box(5, 5)
    J = sample_couplings(g, GAUSS, 23, 0)
    base = solve(g, J).signs
    # a single interior flip produces a 4-cycle: the check must catch it
    mid = base.copy()
    mid[12] = -mid[12]
    iface = wl.interface(J, base, mid)
    rep = wl.interface_cycle_check(iface)
    assert not rep.passed
    assert len(rep.violations[0]["edges"]) == 4
    # excluding one cycle edge makes the rest a tree
    one = next(iter(iface.edge_ids))
    assert wl.interface_cycle_check(iface, excluded_dual_edges={one}).passed
    assert wl.interface_cycle_check(
        wl.Interface(g, frozenset())).passed


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 10**6))
def test_cycle_check_matches_oracle(w, h, idx):
    g = build_box(w, h)
    d = build_dual(w, h)
    J = sample_couplings(g, GAUSS, 71, idx)
    rng = np.random.default_rng(idx)
    base = solve(g, J).signs
    flipped = base * random_signs(rng, g.n_vertices)
    iface = wl.interface(J, base, flipped)
    edges = sorted(iface.edge_ids)
    excluded = {int(e) for e in rng.permutation(edges)[:rng.integers(3)]}
    rep = wl.interface_cycle_check(iface, excluded_dual_edges=excluded)
    allowed = set(edges) - excluded
    assert rep.passed == (
        not closed_contour_oracle(wl.Interface(g, frozenset(allowed))))
    # every witness is a cycle of the closed dual inside the allowed edges
    for viol in rep.violations:
        assert set(viol["edges"]) <= allowed
        degree = {}
        for eid in viol["edges"]:
            for v in d.closed[eid]:
                degree[v] = degree.get(v, 0) + 1
        assert set(degree.values()) == {2}


def test_interface_csv_dump(tmp_path):
    g = build_box(5, 5)
    J = sample_couplings(g, GAUSS, 61, 2)
    base = solve(g, J).signs
    other = base.copy()
    other[7] = -other[7]
    iface = wl.interface(J, base, other)
    walls = wl.domain_walls(iface)
    path = tmp_path / "iface.csv"
    wl.dump_interface_csv(iface, walls, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "edge_id,x1,y1,x2,y2,wall_id,tethered"
    assert len(lines) == 1 + len(iface.edge_ids)
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[1]) % 0.5 == 0.0
