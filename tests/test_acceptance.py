"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are fixed here, not configurable: canonical configurations must
match exactly, energies to 1e-12 * (1 + |E|), exterior-energy identities to
1e-9, critical-value invariance to 1e-12.
"""

import json
import time
from pathlib import Path

import numpy as np

from eaglass import excitation as exc
from eaglass import lab
from eaglass import walls as wl
from eaglass.disorder import DistributionSpec, sample_couplings, super_satisfy
from eaglass.lab import run
from eaglass.lattice import build_box
from eaglass.solver import Clamp, brute_force, solve, verify_gsp

from reference import edge_excitation, locate_flip

GAUSS = DistributionSpec("gaussian", sigma=1.0)
SEED = 20260810


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence():
    shapes = [(1, 2), (2, 2), (3, 3), (2, 3), (1, 6), (3, 4), (4, 3), (2, 5),
              (4, 4), (2, 7), (3, 5), (5, 3), (2, 8), (4, 5), (5, 4), (2, 10),
              (1, 20), (3, 6), (6, 3), (16, 1)]
    shapes = [s for s in shapes if s[0] * s[1] <= 20 and s[1] >= 2]
    start = time.monotonic()
    n_run = 0
    for i in range(500):
        w, h = shapes[i % len(shapes)]
        g = build_box(w, h)
        J = sample_couplings(g, GAUSS, SEED, i)
        rng = np.random.default_rng((SEED, i))
        clamp = None
        mode = i % 3
        if mode and g.n_vertices >= 3:
            k = 2 if mode == 1 else 3
            verts = rng.choice(g.n_vertices, size=k, replace=False)
            signs = [1] + [int(rng.integers(2)) * 2 - 1 for _ in range(k - 1)]
            clamp = Clamp(tuple(int(v) for v in verts), tuple(signs))
        a = solve(g, J, clamp)
        b = brute_force(J, clamp)
        assert np.array_equal(a.signs, b.signs), (w, h, i)
        assert abs(a.energy - b.energy) <= 1e-12 * (1 + abs(a.energy))
        assert a.tied == b.tied
        n_run += 1
    elapsed = time.monotonic() - start
    report("1 oracle equivalence", n_run == 500 and elapsed < 120.0,
           f"{n_run} instances in {elapsed:.1f}s")


def test_criterion_2_gsp_verification():
    g = build_box(5, 5)
    violations = 0
    for i in range(200):
        J = sample_couplings(g, GAUSS, SEED + 2, i)
        gsp = solve(g, J)
        rep = verify_gsp(J, gsp, max_subset_size=3, max_dual_len=6)
        violations += len(rep.violations)
    report("2 GSP verification", violations == 0,
           f"200 instances, {violations} violations")


def test_criterion_3_critical_value():
    sizes = [(3, 3), (4, 4), (5, 5), (3, 4), (4, 5)]
    worst_bisect = worst_invar = 0.0
    for i in range(100):
        w, h = sizes[i % len(sizes)]
        g = build_box(w, h)
        J = sample_couplings(g, GAUSS, SEED + 3, i)
        b = g.edge_by_key[("v", 0, 1)]
        c = exc.critical_value(J, b)
        lo, hi = locate_flip(J, b)
        worst_bisect = max(worst_bisect, abs(c - 0.5 * (lo + hi)))
        rng = np.random.default_rng((SEED + 3, i))
        c2 = exc.critical_value(J.with_value(b, float(rng.normal() * 4)), b)
        worst_invar = max(worst_invar, abs(c - c2))
        rec = edge_excitation(J, b)
        assert solve(g, J.with_value(b, c + 1e-6)).same_pair(rec.state_a), i
        assert solve(g, J.with_value(b, c - 1e-6)).same_pair(rec.state_b), i
    report("3 critical value", worst_bisect <= 1e-9 and worst_invar <= 1e-12,
           f"max |C-bisect|={worst_bisect:.2e}, max drift={worst_invar:.2e}")


def test_criterion_4_exterior_energy_properties():
    g = build_box(4, 4)
    worst_add = worst_invar = 0.0
    clamped_violations = 0
    for i in range(100):
        J = sample_couplings(g, GAUSS, SEED + 4, i)
        rng = np.random.default_rng((SEED + 4, i))
        k = int(rng.integers(2, 5))
        verts = tuple(int(v) for v in sorted(
            rng.choice(g.n_vertices, size=k, replace=False)))
        clamps = [Clamp(verts, (1,) + tuple(int(rng.integers(2)) * 2 - 1
                                            for _ in range(k - 1)))
                  for _ in range(3)]
        r12 = exc.excitation(J, clamps[0], clamps[1])
        r23 = exc.excitation(J, clamps[1], clamps[2])
        r13 = exc.excitation(J, clamps[0], clamps[2])
        worst_add = max(worst_add, abs(r12.delta_e_ext + r23.delta_e_ext
                                       - r13.delta_e_ext))
        updates = {eid: float(rng.normal() * 2)
                   for eid in exc.interior_edges(g, verts)}
        r12b = exc.excitation(J.with_values(updates),
                              clamps[0], clamps[1])
        assert r12.state_a.same_pair(r12b.state_a), i
        assert r12.state_b.same_pair(r12b.state_b), i
        worst_invar = max(worst_invar, abs(r12.delta_e_ext - r12b.delta_e_ext))
        rep = verify_gsp(J, r12.state_a, max_subset_size=3,
                         max_dual_len=6, exclude=verts)
        clamped_violations += len(rep.violations)
    report("4 exterior energy properties",
           worst_add <= 1e-9 and worst_invar <= 1e-9
           and clamped_violations == 0,
           f"additivity={worst_add:.2e}, invariance={worst_invar:.2e}, "
           f"clamped violations={clamped_violations}")


def _two_bond_sweep(adjacent, seed, n_instances):
    g = build_box(3, 3)
    if adjacent:
        b, e = g.edge_by_key[("h", 0, 1)], g.edge_by_key[("v", 0, 1)]
    else:
        b, e = g.edge_by_key[("h", -1, 0)], g.edge_by_key[("h", 0, 2)]
    xs = np.linspace(-3.0, 3.0, 41)
    worst_cross = worst_cons = 0.0
    mismatches = 0
    for i in range(n_instances):
        J = sample_couplings(g, GAUSS, seed, i)
        cs = exc.two_bond_critical_set(J, b, e)
        worst_cross = max(worst_cross, abs((cs.c1 - cs.c2) - (cs.c3 - cs.c4)))
        oracle = exc.grid_labels_enumeration(J, b, e, xs, xs)
        mismatches += lab._two_bond_grid_check(cs, xs, xs, oracle)[1]
        worst_cons = max(worst_cons,
                         exc.consistency_check(J, cs).max_abs_err)
    return worst_cross, worst_cons, mismatches


def test_criterion_5_two_bond_geometry():
    wc_a, cons_a, mism_a = _two_bond_sweep(True, SEED + 5, 200)
    wc_s, cons_s, mism_s = _two_bond_sweep(False, SEED + 55, 200)
    ok = (max(wc_a, wc_s) <= 1e-9 and max(cons_a, cons_s) <= 1e-9
          and mism_a + mism_s == 0)
    report("5 two-bond geometry", ok,
           f"400 instances, cross-dev<={max(wc_a, wc_s):.2e}, "
           f"consistency<={max(cons_a, cons_s):.2e}, "
           f"grid mismatches={mism_a + mism_s}")


def test_criterion_6_super_satisfaction():
    g = build_box(5, 5)
    band = 2
    bottom_edges = np.flatnonzero(g.entry_row <= 1)
    forced_ok = contour_ok = proxy_ok = True
    for i in range(100):
        J = sample_couplings(g, GAUSS, SEED + 6, i)
        rng = np.random.default_rng((SEED + 6, i))
        f = int(bottom_edges[rng.integers(len(bottom_edges))])
        s = int(rng.integers(2)) * 2 - 1
        J_ss = super_satisfy(J, f, s)
        gsp = solve(g, J_ss)
        forced_ok &= gsp.edge_product(f) == s
        fe = g.edges[f]
        probes = [e.id for e in g.edges
                  if e.id != f and not {e.u, e.v} & {fe.u, fe.v}]
        picks = rng.choice(len(probes), size=10, replace=False)
        for p in picks:
            contour = exc.critical_contour(J_ss, int(probes[p]))
            contour_ok &= f not in contour.edge_ids
        # pair proxy: same couplings in the bottom band, redrawn above
        alt = sample_couplings(g, GAUSS, SEED + 6, i + (1 << 32))
        vals = alt.values.copy()
        window = np.flatnonzero(g.entry_row <= band)
        vals[window] = J_ss.values[window]
        from eaglass.disorder import CouplingConfig
        J_pert = CouplingConfig(g, vals)
        beta = solve(g, J_pert)
        iface = wl.interface_from_satisfaction(
            g, wl.satisfaction(J_ss, gsp),
            wl.satisfaction(J_pert, beta), edge_ids=window)
        proxy_ok &= f not in iface.edge_ids
    report("6 super-satisfaction", forced_ok and contour_ok and proxy_ok,
           f"100 instances, forced={forced_ok}, contours={contour_ok}, "
           f"proxy interfaces={proxy_ok}")


def test_criterion_7_interface_invariants():
    total = 0
    for proxy, samples in (("excited_pair", 170), ("nested_volumes", 165),
                           ("perturbed_exterior", 165)):
        rep = run(dict(kind="wall_stats", width=11, height=11,
                       master_seed=SEED + 7, samples=samples, proxy=proxy,
                       n_list=[1, 2, 3, 4], k_list=[0, 1, 2, 3]))
        by_name = {p["name"]: p["passed"] for p in rep.properties}
        assert by_name["wall_bound"] and by_name["no_double_tether"], proxy
        total += len(rep.records)
    report("7 interface invariants", total == 500,
           f"{total} pair-proxy interfaces, zero hard violations")


def test_criterion_8_wall_statistics():
    # two processes halve the wall time; criterion 9 shows the hash does
    # not depend on the parallelism degree
    rep = run(dict(kind="wall_stats", width=15, height=15,
                   master_seed=SEED + 8, samples=500, parallel=2,
                   proxy="perturbed_exterior",
                   n_list=[1, 2, 3, 4, 5, 6, 7], k_list=[0, 1, 2, 3]))
    sub = next(p for p in rep.properties if p["name"] == "subadditivity_2sigma")
    worst = max((s["z"] for s in rep.aggregates["subadditivity"]
                 if s["z"] is not None), default=0.0)
    report("8 wall statistics", sub["passed"],
           f"500 samples on 15x15, worst subadditivity z={worst:.2f}")


def test_criterion_9_determinism_across_parallelism():
    base = dict(kind="wall_stats", width=9, height=9, master_seed=SEED + 9,
                samples=12, proxy="excited_pair", n_list=[1, 2, 3],
                k_list=[0, 1])
    hashes = {run({**base, "parallel": p}).content_hash for p in (1, 4, 16)}
    report("9 determinism", len(hashes) == 1,
           f"parallelism 1/4/16 -> {len(hashes)} distinct hash(es)")


def test_property_suite_default_run():
    # the paper-box default: n=3 (7x7), 100 disorder samples, every asserted
    # property must pass
    rep = run(dict(kind="property_suite", width=7, height=7,
                   master_seed=SEED, samples=100, probes=2))
    failed = [p["name"] for p in rep.properties if not p["passed"]]
    report("property suite (defaults)", not failed,
           f"100 samples on 7x7, failures: {failed or 'none'}")


def test_criterion_10_convergence_and_uniqueness(tmp_path):
    conv = run(dict(kind="convergence", n_list=[2, 3, 4, 5, 6],
                    window_width=3, window_height=2,
                    master_seed=SEED + 10, samples=200,
                    out=str(tmp_path / "conv")))
    conv_written = json.loads(Path(conv.summary_path).read_text())
    assert len(conv.aggregates["pairs"]) == 4
    uniq = run(dict(kind="uniqueness_probe", n_pairs=[[2, 3], [3, 4], [4, 5]],
                    window_width=3, window_height=2,
                    master_seed=SEED + 10, samples=200,
                    out=str(tmp_path / "uniq")))
    uniq_written = json.loads(Path(uniq.summary_path).read_text())
    trend = uniq.aggregates["pairs"]
    assert [t["min_n"] for t in trend] == [2, 3, 4]
    freqs = {(p["n_lo"], p["n_hi"]): p["frequency"]
             for p in conv.aggregates["pairs"]}
    report("10 convergence/uniqueness probes",
           conv_written == conv.summary_dict()
           and uniq_written == uniq.summary_dict(),
           f"summaries written as reported; window disagreement by level: "
           f"{freqs}")
