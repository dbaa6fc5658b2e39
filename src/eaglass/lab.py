"""Experiment harness: seeded ensembles, per-sample records, reports.

Every experiment is a pure function of its configuration: per-edge couplings
come from the counter-based sampler, per-sample auxiliary choices from a
seed-sequence keyed by (master seed, sample index), and records are sorted by
sample index before aggregation, so the report content hash is identical at
any parallelism degree.  A failing per-sample hard assertion, or any other
exception in a sample, aborts the run with a reproducer line naming (seed,
sample index, config).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import excitation as exc
from . import walls as wl
from .disorder import (CouplingConfig, DistributionSpec, sample_couplings,
                       super_satisfy, supersatisfied_threshold)
from .errors import ConfigError, HardAssertionFailure, SampleError
from .lattice import BoxGeometry, build_box
from .solver import (MAX_SOLVE_WIDTH, Clamp, brute_force, solve,
                     verify_gsp)

SCHEMA_VERSION = 1
_ALT_SAMPLE_OFFSET = 1 << 32   # index space for perturbed-exterior redraws

PROXY_KINDS = ("excited_pair", "nested_volumes", "perturbed_exterior")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    width: int = 7
    height: int = 7
    dist: DistributionSpec = DistributionSpec("gaussian", sigma=1.0)
    master_seed: int = 0
    samples: int = 1
    parallel: int = 1
    out: str | None = None
    edge: tuple | None = None        # ("h"|"v", absolute column, row)
    edge2: tuple | None = None
    grid_lo: float = -3.0
    grid_hi: float = 3.0
    grid_points: int = 41
    window_width: int = 3
    window_height: int = 2
    n_list: tuple = ()
    k_list: tuple = ()
    n_pairs: tuple = ()
    proxy: str = "excited_pair"
    band_height: int | None = None
    probes: int = 10
    subset_budget: int = 2
    dual_budget: int = 4
    tol: float = 1e-9

    def core_dict(self) -> dict:
        """Config content that determines results: excludes parallelism and
        output location, which must not affect the report hash."""
        d = asdict(self)
        d.pop("parallel")
        d.pop("out")
        d["dist"] = self.dist.to_dict()
        d["schema_version"] = SCHEMA_VERSION
        return _jsonable(d)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        if "dist" in d and not isinstance(d["dist"], DistributionSpec):
            d["dist"] = DistributionSpec.from_dict(d["dist"])
        for key in ("edge", "edge2"):
            if d.get(key) is not None:
                d[key] = _edge_tuple(d[key])
        for key in ("n_list", "k_list"):
            if key in d:
                d[key] = tuple(int(x) for x in d[key])
        if "n_pairs" in d:
            d["n_pairs"] = tuple((int(a), int(b)) for a, b in d["n_pairs"])
        unknown = set(d) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        try:
            cfg = ExperimentConfig(**d)
        except TypeError as e:
            raise ConfigError(str(e)) from e
        validate_config(cfg)
        return cfg


def _edge_tuple(spec) -> tuple:
    try:
        if isinstance(spec, str):
            kind, _, rest = spec.partition(":")
            c, _, r = rest.partition(",")
            spec = (kind, int(c), int(r))
        kind, c, r = spec
        c, r = int(c), int(r)
    except (ValueError, TypeError):
        raise ConfigError(f"bad edge spec {spec!r}; use kind:col,row") from None
    if kind not in ("h", "v"):
        raise ConfigError(f"edge kind must be 'h' or 'v', got {kind!r}")
    return (kind, c, r)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    if cfg.samples < 1:
        raise ConfigError("sample count must be >= 1")
    if cfg.parallel < 1:
        raise ConfigError("parallelism degree must be >= 1")
    _KINDS[cfg.kind].validate(cfg)


def _validate_box(cfg: ExperimentConfig) -> None:
    if cfg.width < 1 or cfg.height < 2:
        raise ConfigError("box must have width >= 1 and height >= 2")
    if cfg.width > MAX_SOLVE_WIDTH:
        raise ConfigError(f"width {cfg.width} exceeds solver budget")


def _validate_verified(cfg: ExperimentConfig) -> None:
    _validate_box(cfg)
    if cfg.subset_budget < 1:
        raise ConfigError("subset_budget must be >= 1")
    if cfg.dual_budget < 1:
        raise ConfigError("dual_budget must be >= 1")


def _validate_two_bond(cfg: ExperimentConfig) -> None:
    _validate_box(cfg)
    if cfg.grid_points < 11:
        raise ConfigError("two-bond map grid must be at least 11x11")
    if not cfg.grid_lo < cfg.grid_hi:
        raise ConfigError("grid_lo must be below grid_hi")
    if cfg.width * cfg.height > 22:
        raise ConfigError("two-bond grid oracle needs at most 22 vertices")
    _two_bond_edges(cfg, build_box(cfg.width, cfg.height))


def _validate_flip_sweep(cfg: ExperimentConfig) -> None:
    _validate_box(cfg)
    geom = build_box(cfg.width, cfg.height)
    _resolve_edge(geom, cfg.edge or _default_edge_key(geom))


def _validate_contour_stats(cfg: ExperimentConfig) -> None:
    _validate_box(cfg)
    if cfg.width < 3:
        raise ConfigError("contour_stats needs width >= 3")
    if cfg.edge:
        _resolve_edge(build_box(cfg.width, cfg.height), cfg.edge)


def _validate_wall_stats(cfg: ExperimentConfig) -> None:
    _validate_box(cfg)
    if cfg.proxy not in PROXY_KINDS:
        raise ConfigError(f"unknown proxy kind {cfg.proxy!r}")
    if not cfg.n_list or not cfg.k_list:
        raise ConfigError("wall_stats requires n_list and k_list")
    if 0 not in cfg.k_list:
        raise ConfigError("k_list must contain 0")
    half = (cfg.width - 1) // 2
    n_cap = half - 1 if cfg.proxy == "nested_volumes" else half
    if max(cfg.n_list) > n_cap:
        raise ConfigError(f"segment n exceeds cap {n_cap} for this proxy")
    if cfg.proxy == "excited_pair":
        if cfg.width < 3:
            raise ConfigError("excited_pair proxy needs width >= 3")
        if cfg.edge:
            _resolve_edge(build_box(cfg.width, cfg.height), cfg.edge)
    if cfg.proxy == "nested_volumes":
        if cfg.width % 2 == 0:
            raise ConfigError("nested_volumes proxy needs odd width")
        if cfg.width + 2 > MAX_SOLVE_WIDTH:
            raise ConfigError("outer nested box exceeds solver budget")
    band = cfg.band_height if cfg.band_height is not None else cfg.height // 2
    if cfg.proxy == "perturbed_exterior":
        if not 1 <= band < cfg.height - 1:
            raise ConfigError("band_height must lie strictly inside the box")
        if max(cfg.k_list) > band:
            raise ConfigError("k_list exceeds the preserved band")
    if max(cfg.k_list) > cfg.height:
        raise ConfigError("k_list exceeds box height")


def _validate_convergence(cfg: ExperimentConfig) -> None:
    if len(cfg.n_list) < 1:
        raise ConfigError("convergence requires a non-empty n_list")
    if list(cfg.n_list) != sorted(set(cfg.n_list)):
        raise ConfigError("n_list must be strictly increasing")
    _validate_ladder(cfg, cfg.n_list)


def _validate_uniqueness_probe(cfg: ExperimentConfig) -> None:
    if not cfg.n_pairs:
        raise ConfigError("uniqueness_probe requires n_pairs")
    _validate_ladder(cfg, [n for pair in cfg.n_pairs for n in pair])


def _validate_ladder(cfg: ExperimentConfig, ns) -> None:
    """Nested square boxes of half-width n around a fixed window."""
    n_min, n_max = min(ns), max(ns)
    if n_min < 1:
        raise ConfigError("box index n must be >= 1")
    if 2 * n_max + 1 > MAX_SOLVE_WIDTH:
        raise ConfigError(f"n={n_max} exceeds solver width budget")
    if cfg.window_width < 1 or cfg.window_height < 1:
        raise ConfigError("window must be at least 1x1")
    # window columns span -floor((w-1)/2) .. ceil((w-1)/2) around center
    if (cfg.window_width - 1) - (cfg.window_width - 1) // 2 > n_min \
            or cfg.window_height > 2 * n_min + 1:
        raise ConfigError("window does not fit in the smallest box")


# --------------------------------------------------------------------------
# shared helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _sample_rng(cfg: ExperimentConfig, index: int, tag: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=cfg.master_seed & ((1 << 64) - 1),
                                spawn_key=(tag, index))
    return np.random.Generator(np.random.Philox(ss))


def _reproducer(cfg: ExperimentConfig, index: int) -> str:
    return json.dumps({"seed": cfg.master_seed, "sample": index,
                       "config": cfg.core_dict()}, sort_keys=True)


def _hard(cond: bool, message: str, cfg: ExperimentConfig, index: int) -> None:
    if not cond:
        raise HardAssertionFailure(
            f"sample {index}: {message}", reproducer=_reproducer(cfg, index))


def _resolve_edge(geom: BoxGeometry, spec) -> int:
    key = _edge_tuple(spec)
    try:
        return geom.edge_by_key[key]
    except KeyError:
        raise ConfigError(f"edge {key} not in geometry "
                          f"{geom.width}x{geom.height}") from None


def _default_edge_key(geom: BoxGeometry) -> tuple:
    return ("v", 0, geom.height // 2)


def _two_bond_edges(cfg: ExperimentConfig, geom: BoxGeometry) -> tuple[int, int]:
    b = _resolve_edge(geom, cfg.edge or ("h", 0, geom.height // 2))
    e = _resolve_edge(geom, cfg.edge2 or _default_edge_key(geom))
    if b == e:
        raise ConfigError(f"two-bond map needs two different edges, got "
                          f"{geom.edges[b].key} twice")
    return b, e


def _window_keys(window_width: int, window_height: int) -> list[tuple]:
    lo = -((window_width - 1) // 2)
    hi = lo + window_width - 1
    keys = []
    for r in range(window_height):
        for c in range(lo, hi):
            keys.append(("h", c, r))
    for r in range(window_height - 1):
        for c in range(lo, hi + 1):
            keys.append(("v", c, r))
    return keys


def _window_signatures(cfg: ExperimentConfig, i: int, ns) -> tuple[list, dict]:
    """Window edge keys, and the GSP's window signature per box index n."""
    keys = _window_keys(cfg.window_width, cfg.window_height)
    sigs: dict[int, tuple] = {}
    for n in ns:
        if n not in sigs:
            geom = build_box(2 * n + 1, 2 * n + 1)
            J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
            gsp = solve(geom, J)
            sigs[n] = tuple(gsp.edge_product(geom.edge_by_key[key])
                            for key in keys)
    return keys, sigs


def _flip_contour(cfg: ExperimentConfig, i: int):
    """An edge and its critical contour."""
    geom = build_box(cfg.width, cfg.height)
    J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
    if cfg.edge:
        b = _resolve_edge(geom, cfg.edge)
    else:
        # bottom-row horizontal edge, column randomized to keep the ensemble
        # invariant under rotations of the cylinder
        col = int(_sample_rng(cfg, i, tag=3).integers(geom.width))
        b = geom.edge_by_key[("h", geom.abs_col(col), 0)]
    return b, exc.critical_contour(J, b)


# --------------------------------------------------------------------------
# proxy pair sources


def proxy_nested_volumes(cfg, index):
    """GSPs of nested boxes compared on the shared edges.

    The comparison cuts the smaller cylinder open along its wrap seam: wrap
    couplings have no counterpart edge in the bigger box, and the duals of
    column-0 vertical edges cross the seam, so dual paths through them do not
    map into the bigger box's dual and the interface invariants would not be
    theorems across them.
    """
    small = build_box(cfg.width, cfg.height)
    big = build_box(cfg.width + 2, cfg.height + 2)
    j_small = sample_couplings(small, cfg.dist, cfg.master_seed, index)
    j_big = sample_couplings(big, cfg.dist, cfg.master_seed, index)
    alpha = solve(small, j_small)
    beta = solve(big, j_big)
    shared = [e.id for e in small.edges
              if not e.wrap and not (e.kind == "v" and e.col == 0)]
    sat_a = wl.satisfaction(j_small, alpha)
    # small-box vertex (c, r) sits at column c + 1 of the bigger box
    v = np.arange(small.n_vertices)
    sat_b = wl.satisfaction(j_small,
                            beta.signs[v + 2 * (v // small.width) + 1])
    return wl.interface_from_satisfaction(small, sat_a, sat_b, shared)


def proxy_perturbed_exterior(cfg, index):
    """GSPs of the same couplings inside a bottom band, redrawn outside it."""
    geom = build_box(cfg.width, cfg.height)
    band = cfg.band_height if cfg.band_height is not None else cfg.height // 2
    j_base = sample_couplings(geom, cfg.dist, cfg.master_seed, index)
    j_alt = sample_couplings(geom, cfg.dist, cfg.master_seed,
                             index + _ALT_SAMPLE_OFFSET)
    # edges with both endpoints in rows 0..band keep their base couplings
    window = np.flatnonzero(np.maximum(geom.eu, geom.ev) // geom.width <= band)
    vals = j_alt.values.copy()
    vals[window] = j_base.values[window]
    j_pert = CouplingConfig(geom, vals)
    alpha = solve(geom, j_base)
    beta = solve(geom, j_pert)
    sat_a = wl.satisfaction(j_base, alpha)
    sat_b = wl.satisfaction(j_pert, beta)
    return wl.interface_from_satisfaction(geom, sat_a, sat_b, window)


# --------------------------------------------------------------------------
# per-sample experiment bodies


def _run_solve(cfg: ExperimentConfig, i: int) -> dict:
    geom = build_box(cfg.width, cfg.height)
    J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
    gsp = solve(geom, J)
    report = verify_gsp(J, gsp, cfg.subset_budget, cfg.dual_budget)
    _hard(report.passed, "ground state fails finite-volume verification", cfg, i)
    return {"sample": i, "energy": gsp.energy, "tied": gsp.tied,
            "pattern": "".join("+" if s > 0 else "-" for s in gsp.signs),
            "checked_subsets": report.checked_subsets,
            "checked_duals": report.checked_duals}


def _run_flip_sweep(cfg: ExperimentConfig, i: int) -> dict:
    geom = build_box(cfg.width, cfg.height)
    J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
    b = _resolve_edge(geom, cfg.edge or _default_edge_key(geom))
    c_val = exc.critical_value(J, b)
    span = max(1.0, 0.5 * (cfg.grid_hi - cfg.grid_lo))
    grid = c_val + np.linspace(-span, span, cfg.grid_points) + span * 1e-3
    census = exc.flip_census(J, b, grid)
    _hard(census.n_transitions == 1,
          f"expected exactly one GSP flip, got {census.n_transitions}", cfg, i)
    lo, hi = census.transition_interval
    _hard(lo <= c_val <= hi,
          "flip interval does not bracket the exterior-energy critical value",
          cfg, i)
    for x, lab in zip(census.values, census.labels):
        if abs(x - c_val) > cfg.tol:
            _hard(lab == (1 if x > c_val else -1),
                  f"label at J_b={x} contradicts critical value", cfg, i)
    return {"sample": i, "edge": b, "critical_value": c_val,
            "interval": [lo, hi], "n_transitions": census.n_transitions}


def _run_two_bond(cfg: ExperimentConfig, i: int) -> dict:
    geom = build_box(cfg.width, cfg.height)
    J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
    b, e = _two_bond_edges(cfg, geom)
    cs = exc.two_bond_critical_set(J, b, e)
    dev = abs((cs.c1 - cs.c2) - (cs.c3 - cs.c4))
    _hard(dev <= cfg.tol, f"C1-C2 != C3-C4 (deviation {dev})", cfg, i)

    xs = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    ys = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    oracle = exc.grid_labels_enumeration(J, b, e, xs, ys)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    mismatches = 0
    interior_cells = 0
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            if exc.critical_set_distance(cs, x, y) < cell:
                continue
            interior_cells += 1
            want = exc.analytic_label(cs, x, y)
            got = (int(oracle[ix, iy, 0]), int(oracle[ix, iy, 1]))
            if want != got:
                mismatches += 1
    _hard(mismatches == 0,
          f"{mismatches} grid cells disagree with the analytic critical set",
          cfg, i)
    cons = exc.consistency_check(J, cs)
    _hard(cons.max_abs_err <= cfg.tol,
          f"piecewise critical-value identity off by {cons.max_abs_err}", cfg, i)
    return {"sample": i, "critical_set": cs.to_json_dict(),
            "case": cs.case_kind, "cross_dev": dev,
            "interior_cells": interior_cells, "mismatches": mismatches,
            "consistency_err": cons.max_abs_err}


def _run_contour_stats(cfg: ExperimentConfig, i: int) -> dict:
    b, iface = _flip_contour(cfg, i)
    _hard(b in iface.edge_ids, "contour misses the flipped edge's dual", cfg, i)
    walls = wl.domain_walls(iface)
    cyc = wl.interface_cycle_check(iface, excluded_dual_edges={b})
    _hard(cyc.passed, "closed dual contour inside contour avoiding the "
          f"flipped edge: {cyc.violations}", cfg, i)
    return {"sample": i, "edge": b, "contour_size": len(iface.edge_ids),
            "n_walls": len(walls),
            "n_tethered": sum(1 for w in walls if w.tethered)}


def _run_wall_stats(cfg: ExperimentConfig, i: int) -> dict:
    excluded = ()
    if cfg.proxy == "excited_pair":
        b, iface = _flip_contour(cfg, i)
        excluded = (b,)
    elif cfg.proxy == "nested_volumes":
        iface = proxy_nested_volumes(cfg, i)
    else:
        iface = proxy_perturbed_exterior(cfg, i)
    walls = wl.domain_walls(iface)
    grid = wl.wall_count_grid(walls, cfg.n_list, cfg.k_list, iface.dual)
    bound = wl.wall_bound_check(grid)
    _hard(bound.passed, f"wall count bound violated: {bound.violations}", cfg, i)
    cyc = wl.interface_cycle_check(iface, excluded_dual_edges=excluded)
    _hard(cyc.passed, f"closed dual contour inside interface: {cyc.violations}",
          cfg, i)
    record = {"sample": i, "proxy": cfg.proxy,
              "interface_size": len(iface.edge_ids),
              "n_walls": len(walls),
              "n_tethered": sum(1 for w in walls if w.tethered),
              "counts": {f"{n},{k}": grid.count(n, k)
                         for n in cfg.n_list for k in cfg.k_list}}
    return record


def _run_convergence(cfg: ExperimentConfig, i: int) -> dict:
    _, sigs = _window_signatures(cfg, i, cfg.n_list)
    agrees = [sigs[a] == sigs[b] for a, b in zip(cfg.n_list, cfg.n_list[1:])]
    return {"sample": i, "agrees": agrees}


def _run_uniqueness(cfg: ExperimentConfig, i: int) -> dict:
    keys, sigs = _window_signatures(
        cfg, i, [n for pair in cfg.n_pairs for n in pair])
    results = []
    for n_lo, n_hi in cfg.n_pairs:
        sig_a, sig_b = sigs[n_lo], sigs[n_hi]
        agree = sig_a == sig_b
        entry = {"pair": [n_lo, n_hi], "agree": agree}
        if not agree:
            entry["disagreeing_edges"] = [list(keys[j]) for j in range(len(keys))
                                          if sig_a[j] != sig_b[j]]
        results.append(entry)
    return {"sample": i, "pairs": results}


def _connected_random_set(geom, rng, size) -> tuple:
    v = int(rng.integers(geom.n_vertices))
    chosen = {v}
    frontier = [v]
    while len(chosen) < size and frontier:
        u = frontier[int(rng.integers(len(frontier)))]
        nbrs = []
        for eid in geom.incident[u]:
            e = geom.edges[eid]
            w = e.v if e.u == u else e.u
            if w not in chosen:
                nbrs.append(w)
        if not nbrs:
            frontier.remove(u)
            continue
        w = nbrs[int(rng.integers(len(nbrs)))]
        chosen.add(w)
        frontier.append(w)
    return tuple(sorted(chosen))


def _random_clamp(rng, vertices) -> Clamp:
    signs = [1] + [int(rng.integers(2)) * 2 - 1 for _ in vertices[1:]]
    return Clamp(vertices, signs)


def _run_property_suite(cfg: ExperimentConfig, i: int) -> dict:
    geom = build_box(cfg.width, cfg.height)
    J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
    rng = _sample_rng(cfg, i, tag=5)
    checks = {}

    gsp = solve(geom, J)
    if geom.n_vertices <= 20:
        oracle = brute_force(J)
        checks["oracle_equivalence"] = (gsp.same_pair(oracle)
                                        and abs(gsp.energy - oracle.energy)
                                        <= 1e-12 * (1 + abs(gsp.energy)))
    report = verify_gsp(J, gsp, cfg.subset_budget, cfg.dual_budget)
    checks["gsp_verified"] = report.passed

    # single-bond critical structure
    b = int(rng.integers(geom.n_edges))
    rec = exc.edge_excitation(J, b)
    c_val = 0.5 * rec.delta_e_ext
    c_repl = exc.critical_value(J.with_value(b, float(rng.normal() * 3.0)), b)
    checks["critical_value_jb_free"] = abs(c_val - c_repl) <= 1e-12
    plus, minus = rec.state_a, rec.state_b
    above = solve(geom, J.with_value(b, c_val + 1e-6))
    below = solve(geom, J.with_value(b, c_val - 1e-6))
    checks["gsp_selection"] = above.same_pair(plus) and below.same_pair(minus)

    # exterior energy difference properties on a random small set
    a_set = _connected_random_set(geom, rng, 2 + int(rng.integers(3)))
    cl1, cl2, cl3 = (_random_clamp(rng, a_set) for _ in range(3))
    r12 = exc.excitation(J, cl1, cl2)
    r23 = exc.excitation(J, cl2, cl3)
    r13 = exc.excitation(J, cl1, cl3)
    checks["additivity"] = abs(r12.delta_e_ext + r23.delta_e_ext
                               - r13.delta_e_ext) <= cfg.tol
    r21 = exc.excitation(J, cl2, cl1)
    checks["antisymmetry"] = abs(r12.delta_e_ext + r21.delta_e_ext) <= cfg.tol
    inner = exc.interior_edges(geom, a_set)
    J_re = J.with_values({eid: float(rng.normal() * 2.0) for eid in inner})
    r12b = exc.excitation(J_re, cl1, cl2)
    checks["interior_independence"] = (
        abs(r12.delta_e_ext - r12b.delta_e_ext) <= cfg.tol
        and r12.state_a.same_pair(r12b.state_a)
        and r12.state_b.same_pair(r12b.state_b))
    clamped_report = verify_gsp(J, r12.state_a, cfg.subset_budget,
                                cfg.dual_budget, exclude=a_set)
    checks["clamped_gsp_off_A"] = clamped_report.passed

    # super-satisfaction forces the edge in every ground state
    f = int(rng.integers(geom.n_edges))
    s = int(rng.integers(2)) * 2 - 1
    J_ss = super_satisfy(J, f, s)
    checks["supersatisfied_strict"] = (abs(J_ss.value(f))
                                       > supersatisfied_threshold(J_ss, f))
    forced = solve(geom, J_ss)
    checks["supersatisfy_forces_sign"] = forced.edge_product(f) == s
    fe = geom.edges[f]
    probes = [e.id for e in geom.edges
              if e.id != f and not {e.u, e.v} & {fe.u, fe.v}]
    rng.shuffle(probes)
    ok = True
    for p in probes[:max(1, cfg.probes)]:
        contour = exc.critical_contour(J_ss, p)
        ok = ok and f not in contour.edge_ids
    checks["supersatisfied_not_in_contours"] = ok

    # interface sanity
    checks["self_interface_empty"] = wl.interface(J, gsp, gsp).is_empty()
    sa, sb, sc = (np.where(rng.integers(2, size=geom.n_vertices) > 0, 1, -1)
                  .astype(np.int8) for _ in range(3))
    iab = wl.interface(J, sa, sb).edge_ids
    ibc = wl.interface(J, sb, sc).edge_ids
    iac = wl.interface(J, sa, sc).edge_ids
    checks["interface_triangle"] = iac <= (iab | ibc)

    for name, passed in checks.items():
        _hard(passed, f"property {name} failed", cfg, i)
    return {"sample": i, **{k: bool(v) for k, v in checks.items()}}


# --------------------------------------------------------------------------
# aggregation


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _property(name: str, detail: str = "hard per-sample",
              passed: bool = True) -> dict:
    return {"name": name, "passed": passed, "detail": detail}


def _aggregate_mean_se(cfg: ExperimentConfig, records: list[dict], key: str,
                       prop: str) -> tuple[dict, list]:
    """Mean and standard error of one record field, and one hard property."""
    mean, se = _mean_se([r[key] for r in records])
    return {f"{key}_mean": mean, f"{key}_se": se}, [_property(prop)]


def _aggregate_two_bond(cfg: ExperimentConfig, records: list[dict]):
    cases = {"cross": 0, "positive_diag": 0, "negative_diag": 0}
    for r in records:
        cases[r["case"]] += 1
    total = len(records)
    aggregates = {
        "case_frequencies": {k: v / total for k, v in cases.items()},
        "max_cross_dev": max(r["cross_dev"] for r in records),
        "max_consistency_err": max(r["consistency_err"] for r in records),
        "grid_mismatches": sum(r["mismatches"] for r in records)}
    return aggregates, [_property("two_bond_exact")]


def _aggregate_contour_stats(cfg: ExperimentConfig, records: list[dict]):
    aggregates, properties = _aggregate_mean_se(cfg, records, "contour_size",
                                                "contour_structure")
    aggregates["tethered_fraction"] = float(
        np.mean([1.0 if r["n_tethered"] else 0.0 for r in records]))
    return aggregates, properties


def _aggregate_wall_stats(cfg: ExperimentConfig, records: list[dict]):
    means = {}
    for n in cfg.n_list:
        for k in cfg.k_list:
            mean, se = _mean_se([r["counts"][f"{n},{k}"] for r in records])
            means[f"{n},{k}"] = {"mean": mean, "se": se}
    splits = []
    n_bad = 0
    for k in cfg.k_list:
        for i1, n1 in enumerate(cfg.n_list):
            for n2 in cfg.n_list[i1:]:
                if (n1 + n2) not in cfg.n_list:
                    continue
                m12 = means[f"{n1 + n2},{k}"]
                m1 = means[f"{n1},{k}"]
                m2 = means[f"{n2},{k}"]
                se_comb = math.sqrt(m12["se"] ** 2 + m1["se"] ** 2
                                    + m2["se"] ** 2)
                excess = m12["mean"] - m1["mean"] - m2["mean"]
                violated = excess > 2.0 * se_comb + 1e-12
                n_bad += violated
                splits.append({"k": k, "n1": n1, "n2": n2,
                               "excess": excess, "se": se_comb,
                               "z": excess / se_comb if se_comb > 0 else None,
                               "violated": violated})
    properties = [_property("wall_bound"), _property("no_double_tether"),
                  _property("subadditivity_2sigma",
                            f"{n_bad} of {len(splits)} splits beyond two "
                            "combined standard errors", n_bad == 0)]
    return {"counts": means, "subadditivity": splits}, properties


def _disagreement_row(n_lo: int, n_hi: int, disagreements: int,
                      total: int) -> dict:
    freq = disagreements / total
    se = math.sqrt(max(freq * (1 - freq), 0.0) / total)
    return {"n_lo": n_lo, "n_hi": n_hi, "disagreements": disagreements,
            "frequency": freq, "stderr": se}


def _aggregate_convergence(cfg: ExperimentConfig, records: list[dict]):
    pairs = [_disagreement_row(cfg.n_list[j], cfg.n_list[j + 1],
                               sum(1 for r in records if not r["agrees"][j]),
                               len(records))
             for j in range(len(cfg.n_list) - 1)]
    mono = all(pairs[j]["frequency"] >= pairs[j + 1]["frequency"]
               for j in range(len(pairs) - 1)) if len(pairs) > 1 else None
    return ({"pairs": pairs, "insufficient_levels": len(cfg.n_list) < 2,
             "monotone_trend": mono},
            [_property("report_complete", "diagnostic only")])


def _aggregate_uniqueness(cfg: ExperimentConfig, records: list[dict]):
    table = []
    for idx, (n_lo, n_hi) in enumerate(cfg.n_pairs):
        row = _disagreement_row(
            n_lo, n_hi, sum(1 for r in records if not r["pairs"][idx]["agree"]),
            len(records))
        table.append({**row, "min_n": min(n_lo, n_hi)})
    return ({"pairs": sorted(table, key=lambda t: t["min_n"])},
            [_property("report_complete", "diagnostic only")])


def _aggregate_property_suite(cfg: ExperimentConfig, records: list[dict]):
    properties = [_property(name, f"{len(records)} samples",
                            all(r[name] for r in records))
                  for name in records[0] if name != "sample"]
    return ({"all_properties_pass": all(p["passed"] for p in properties)},
            properties)


class _Kind(NamedTuple):
    """Per-sample body, report aggregation and config checks of one kind."""
    sample: Callable[[ExperimentConfig, int], dict]
    aggregate: Callable[[ExperimentConfig, list], tuple[dict, list]]
    validate: Callable[[ExperimentConfig], None] = _validate_box


_KINDS = {
    "solve": _Kind(_run_solve, partial(_aggregate_mean_se, key="energy",
                                       prop="gsp_verified"),
                   _validate_verified),
    "flip_sweep": _Kind(_run_flip_sweep, partial(
        _aggregate_mean_se, key="critical_value", prop="single_flip"),
        _validate_flip_sweep),
    "two_bond_map": _Kind(_run_two_bond, _aggregate_two_bond,
                          _validate_two_bond),
    "contour_stats": _Kind(_run_contour_stats, _aggregate_contour_stats,
                           _validate_contour_stats),
    "wall_stats": _Kind(_run_wall_stats, _aggregate_wall_stats,
                        _validate_wall_stats),
    "convergence": _Kind(_run_convergence, _aggregate_convergence,
                         _validate_convergence),
    "uniqueness_probe": _Kind(_run_uniqueness, _aggregate_uniqueness,
                              _validate_uniqueness_probe),
    "property_suite": _Kind(_run_property_suite, _aggregate_property_suite,
                            _validate_verified),
}
EXPERIMENT_KINDS = tuple(_KINDS)


# --------------------------------------------------------------------------
# runner


@dataclass
class RunReport:
    config: dict
    records: list
    aggregates: dict
    properties: list
    wallclock_s: float
    content_hash: str
    summary_path: str | None = None
    records_path: str | None = None

    def summary_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION,
                "kind": self.config["kind"],
                "config": self.config,
                "n_samples": len(self.records),
                "aggregates": self.aggregates,
                "properties": self.properties,
                "content_hash": self.content_hash,
                "wallclock_s": self.wallclock_s}


def _sample_worker(payload):
    cfg, index = payload
    try:
        return index, "ok", _jsonable(_KINDS[cfg.kind].sample(cfg, index))
    except HardAssertionFailure as exc_:
        return index, "hard_fail", {"message": str(exc_),
                                    "reproducer": exc_.reproducer}
    except ConfigError:
        raise
    except Exception:
        # any other failure is an internal error; keep it replayable
        return index, "error", {"message": f"sample {index}: "
                                           f"{traceback.format_exc()}",
                                "reproducer": _reproducer(cfg, index)}


_FAILURES = {"hard_fail": HardAssertionFailure, "error": SampleError}


def run(config: ExperimentConfig | dict) -> RunReport:
    """Execute the configured experiment and write its report files."""
    if isinstance(config, dict):
        cfg = ExperimentConfig.from_dict(config)
    else:
        cfg = config
        validate_config(cfg)
    start = time.monotonic()
    core = cfg.core_dict()
    payloads = [(cfg, i) for i in range(cfg.samples)]
    if cfg.parallel <= 1:
        raw = [_sample_worker(p) for p in payloads]
    else:
        chunk = max(1, cfg.samples // (4 * cfg.parallel))
        with ProcessPoolExecutor(max_workers=cfg.parallel) as pool:
            raw = list(pool.map(_sample_worker, payloads, chunksize=chunk))
    raw.sort(key=lambda t: t[0])
    for index, status, payload in raw:
        if status != "ok":
            raise _FAILURES[status](payload["message"],
                                    reproducer=payload["reproducer"])
    records = [payload for _, _, payload in raw]
    aggregates, properties = _KINDS[cfg.kind].aggregate(cfg, records)
    aggregates = _jsonable({"n_samples": len(records), **aggregates})
    properties = _jsonable(properties)
    digest = hashlib.sha256(json.dumps(
        {"config": core, "records": records, "aggregates": aggregates,
         "properties": properties},
        sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    ).hexdigest()
    report = RunReport(core, records, aggregates, properties,
                       time.monotonic() - start, digest)
    if cfg.out:
        base = str(cfg.out)
        report.records_path = base + ".records.jsonl"
        report.summary_path = base + ".summary.json"
        with open(report.records_path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        with open(report.summary_path, "w") as fh:
            json.dump(report.summary_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
    return report


def validate_summary(summary: dict) -> list[str]:
    """Schema check for a summary document; returns a list of problems."""
    problems = []

    def need(key, types):
        if key not in summary:
            problems.append(f"missing key {key}")
            return False
        if not isinstance(summary[key], types):
            problems.append(f"key {key} has wrong type")
            return False
        return True

    if need("schema_version", int) and summary["schema_version"] != SCHEMA_VERSION:
        problems.append("wrong schema_version")
    if need("kind", str) and summary["kind"] not in EXPERIMENT_KINDS:
        problems.append("unknown kind")
    need("config", dict)
    if need("n_samples", int) and summary["n_samples"] < 1:
        problems.append("n_samples must be >= 1")
    need("aggregates", dict)
    if need("properties", list):
        for p in summary["properties"]:
            if not isinstance(p, dict) or "name" not in p or "passed" not in p:
                problems.append(f"malformed property entry {p!r}")
    if need("content_hash", str) and len(summary["content_hash"]) != 64:
        problems.append("content_hash must be 64 hex chars")
    need("wallclock_s", (int, float))
    if summary.get("kind") in ("convergence", "uniqueness_probe"):
        agg = summary.get("aggregates", {})
        if "pairs" not in agg:
            problems.append("missing pairs table")
        else:
            for row in agg["pairs"]:
                for key in ("n_lo", "n_hi", "disagreements", "frequency",
                            "stderr"):
                    if key not in row:
                        problems.append(f"pairs row missing {key}")
    return problems
