"""Experiment harness: seeded ensembles, per-sample records, reports.

Every experiment is a pure function of its configuration: per-edge couplings
come from the counter-based sampler, per-sample auxiliary choices from a
seed-sequence keyed by (master seed, sample index), and records are aggregated
in sample index order, so the report content hash is identical at any
parallelism degree.  A failing per-sample hard assertion, or any other
exception in a sample, aborts the run with a reproducer line naming (seed,
sample index, config); at any parallelism the lowest failing index raises.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import excitation as exc
from . import walls as wl
from .disorder import (CouplingConfig, DistributionSpec, _draw,
                       _is_finite_number, sample_couplings, super_satisfy,
                       supersatisfied_threshold)
from .errors import ConfigError, HardAssertionFailure, SampleError
from .lattice import BoxGeometry, build_box
from .solver import (MAX_SOLVE_WIDTH, Clamp, brute_force, solve, solve_batch,
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

    def __post_init__(self):
        """Bring the JSON spellings of a field to one form, so that a config
        compares and hashes the same however it was built."""
        if isinstance(self.dist, dict):
            object.__setattr__(self, "dist",
                               DistributionSpec.from_dict(self.dist))
        for key in ("edge", "edge2"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _edge_tuple(getattr(self, key)))
        for key in ("n_list", "k_list", "n_pairs"):
            value = getattr(self, key)
            if isinstance(value, list):
                object.__setattr__(self, key, tuple(
                    tuple(x) if isinstance(x, list) else x for x in value))

    def core_dict(self) -> dict:
        """Config content that determines results: excludes parallelism and
        output location, which must not affect the report hash."""
        d = {name: getattr(self, name) for name in self.__dataclass_fields__
             if name not in ("parallel", "out")}
        d["dist"] = self.dist.to_dict()
        d["schema_version"] = SCHEMA_VERSION
        return _jsonable(d)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
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
    except (ValueError, TypeError):
        raise ConfigError(f"bad edge spec {spec!r}; use kind:col,row") from None
    if not (_is_int(c) and _is_int(r)):
        raise ConfigError(f"bad edge spec {spec!r}; use kind:col,row or "
                          "[kind, col, row] with integer col and row")
    if kind not in ("h", "v"):
        raise ConfigError(f"edge kind must be 'h' or 'v', got {kind!r}")
    return (kind, c, r)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_seq(x) -> bool:
    return isinstance(x, (tuple, list)) and all(_is_int(v) for v in x)


# the type of every config field but the edges, which _edge_tuple checks;
# values are never converted, because the content hash serializes them as
# given (an int grid_lo must stay an int)
_FIELD_TYPES = (
    (lambda x: isinstance(x, str), "a string", ("kind", "proxy")),
    (_is_int, "an integer",
     ("width", "height", "master_seed", "samples", "parallel", "grid_points",
      "window_width", "window_height", "probes", "subset_budget",
      "dual_budget")),
    (lambda x: x is None or _is_int(x), "an integer or null",
     ("band_height",)),
    (_is_finite_number, "a finite number", ("grid_lo", "grid_hi", "tol")),
    (_is_int_seq, "a list of integers", ("n_list", "k_list")),
    (lambda x: isinstance(x, (tuple, list))
     and all(_is_int_seq(p) and len(p) == 2 for p in x),
     "a list of integer pairs", ("n_pairs",)),
    (lambda x: isinstance(x, DistributionSpec), "a distribution spec",
     ("dist",)),
    (lambda x: x is None or isinstance(x, (str, os.PathLike)), "a path",
     ("out",)),
)


def validate_config(cfg: ExperimentConfig) -> None:
    for is_type, expected, fields in _FIELD_TYPES:
        for name in fields:
            if not is_type(getattr(cfg, name)):
                raise ConfigError(f"{name} must be {expected}, "
                                  f"got {getattr(cfg, name)!r}")
    if cfg.kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    for name, low in (("samples", 1), ("parallel", 1), ("probes", 1),
                      ("tol", 0)):
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name} must be >= {low}")
    if not -2**63 <= cfg.master_seed < 2**63:
        raise ConfigError("master_seed must fit in a signed 64-bit integer")
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
    if cfg.width * cfg.height > exc.MAX_GRID_VERTICES:
        raise ConfigError("two-bond grid oracle needs at most "
                          f"{exc.MAX_GRID_VERTICES} vertices")
    _two_bond_edges(cfg, build_box(cfg.width, cfg.height))


def _validate_flip_sweep(cfg: ExperimentConfig) -> None:
    _validate_box(cfg)
    if cfg.grid_points < 2:
        raise ConfigError("flip_sweep grid needs at least 2 points")
    geom = build_box(cfg.width, cfg.height)
    _resolve_edge(geom, cfg.edge or _default_edge_key(geom))


def _validate_wall_stats(cfg: ExperimentConfig) -> None:
    _validate_box(cfg)
    if cfg.proxy not in PROXY_KINDS:
        raise ConfigError(f"unknown proxy kind {cfg.proxy!r}")
    if not cfg.n_list or not cfg.k_list:
        raise ConfigError("wall_stats requires n_list and k_list")
    if 0 not in cfg.k_list:
        raise ConfigError("k_list must contain 0")
    if min(cfg.n_list) < 1 or min(cfg.k_list) < 0:
        raise ConfigError("wall_stats needs every n >= 1 and every k >= 0")
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


def _plain(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} {obj!r} has no JSON form")


def _jsonable(obj):
    """``obj`` as the report holds it: through the JSON codec, numpy values
    as Python ones; a value JSON cannot hold (NaN, inf, a set) raises."""
    return json.loads(json.dumps(obj, allow_nan=False, default=_plain))


def _sample_rng(cfg: ExperimentConfig, index: int, tag: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=cfg.master_seed & ((1 << 64) - 1),
                                spawn_key=(tag, index))
    return np.random.Generator(np.random.Philox(ss))


def _reproducer(cfg: ExperimentConfig, index: int) -> str:
    return json.dumps({"seed": cfg.master_seed, "sample": index,
                       "config": cfg.core_dict()}, sort_keys=True)


def _hard(cond: bool, message: str) -> None:
    if not cond:
        raise HardAssertionFailure(message)


def _resolve_edge(geom: BoxGeometry, key: tuple) -> int:
    try:
        return geom.edge_by_key[key]
    except KeyError:
        raise ConfigError(f"edge {key} not in geometry "
                          f"{geom.width}x{geom.height}") from None


def _default_edge_key(geom: BoxGeometry) -> tuple:
    # vertical edges leave rows 0..H-2 only
    return ("v", 0, min(geom.height // 2, geom.height - 2))


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
    # edges with both endpoints in rows 0..band keep their base couplings;
    # the rest are redrawn as a full draw at the offset index would give them
    window = np.flatnonzero(geom.entry_row <= band)
    outside = np.flatnonzero(geom.entry_row > band)
    vals = j_base.values.copy()
    vals[outside] = _draw(geom, cfg.dist, cfg.master_seed,
                          index + _ALT_SAMPLE_OFFSET, outside)
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
    _hard(report.passed, "ground state fails finite-volume verification")
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
          f"expected exactly one GSP flip, got {census.n_transitions}")
    lo, hi = census.transition_interval
    _hard(lo <= c_val <= hi,
          "flip interval does not bracket the exterior-energy critical value")
    for x, lab in zip(census.values, census.labels):
        if abs(x - c_val) > cfg.tol:
            _hard(lab == (1 if x > c_val else -1),
                  f"label at J_b={x} contradicts critical value")
    return {"sample": i, "edge": b, "critical_value": c_val,
            "interval": [lo, hi], "n_transitions": census.n_transitions}


def _two_bond_grid_check(cs, xs, ys, oracle) -> tuple[int, int]:
    """``(interior_cells, mismatches)`` over the (J_b, J_e) grid ``xs`` x
    ``ys``: the cells at least one grid step from the critical set, and
    those of them whose analytic label differs from ``oracle``'s."""
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    # ~(d < cell) rather than d >= cell: a NaN distance counts as interior
    interior = ~(exc.critical_set_distance(cs, X, Y) < cell)
    eta_b, eta_e = exc.analytic_label(cs, X, Y)
    wrong = (eta_b != oracle[:, :, 0]) | (eta_e != oracle[:, :, 1])
    return (int(np.count_nonzero(interior)),
            int(np.count_nonzero(interior & wrong)))


def _run_two_bond(cfg: ExperimentConfig, i: int) -> dict:
    geom = build_box(cfg.width, cfg.height)
    J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
    b, e = _two_bond_edges(cfg, geom)
    cs = exc.two_bond_critical_set(J, b, e)
    dev = abs((cs.c1 - cs.c2) - (cs.c3 - cs.c4))
    _hard(dev <= cfg.tol, f"C1-C2 != C3-C4 (deviation {dev})")

    xs = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    ys = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    interior_cells, mismatches = _two_bond_grid_check(
        cs, xs, ys, exc.grid_labels_enumeration(J, b, e, xs, ys))
    _hard(mismatches == 0,
          f"{mismatches} grid cells disagree with the analytic critical set")
    cons = exc.consistency_check(J, cs)
    _hard(cons.max_abs_err <= cfg.tol,
          f"piecewise critical-value identity off by {cons.max_abs_err}")
    return {"sample": i, "critical_set": cs.to_json_dict(),
            "case": cs.case_kind, "cross_dev": dev,
            "interior_cells": interior_cells, "mismatches": mismatches,
            "consistency_err": cons.max_abs_err}


def _run_wall_stats(cfg: ExperimentConfig, i: int) -> dict:
    excluded = ()
    if cfg.proxy == "excited_pair":
        # the critical contour of an edge b; unless configured, b lies on the
        # bottom row in a random column, keeping the ensemble invariant under
        # rotations of the cylinder
        geom = build_box(cfg.width, cfg.height)
        J = sample_couplings(geom, cfg.dist, cfg.master_seed, i)
        if cfg.edge:
            b = _resolve_edge(geom, cfg.edge)
        else:
            col = int(_sample_rng(cfg, i, tag=3).integers(geom.width))
            b = geom.edge_by_key[("h", geom.abs_col(col), 0)]
        iface = exc.critical_contour(J, b)
        _hard(b in iface.edge_ids, "contour misses the flipped edge's dual")
        excluded = (b,)
    elif cfg.proxy == "nested_volumes":
        iface = proxy_nested_volumes(cfg, i)
    else:
        iface = proxy_perturbed_exterior(cfg, i)
    walls = wl.domain_walls(iface)
    grid = wl.wall_count_grid(walls, cfg.n_list, cfg.k_list, iface.dual)
    bound = wl.wall_bound_check(grid)
    _hard(bound.passed, f"wall count bound violated: {bound.violations}")
    cyc = wl.interface_cycle_check(iface, excluded_dual_edges=excluded)
    _hard(cyc.passed, f"closed dual contour inside interface: {cyc.violations}")
    record = {"sample": i, "proxy": cfg.proxy,
              "interface_size": len(iface.edge_ids),
              "n_walls": len(walls),
              "n_tethered": sum(1 for w in walls if w.tethered),
              "counts": {f"{n},{k}": grid[(n, k)]
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

    # draw every random choice in its fixed order, then solve all states
    # but the two that need a critical value in one batch
    b = int(rng.integers(geom.n_edges))
    b_clamps = exc._edge_clamps(geom, b)
    J_repl = J.with_value(b, float(rng.normal() * 3.0))
    a_set = _connected_random_set(geom, rng, 2 + int(rng.integers(3)))
    cl1, cl2, cl3 = (_random_clamp(rng, a_set) for _ in range(3))
    inner = exc.interior_edges(geom, a_set)
    J_re = J.with_values({eid: float(rng.normal() * 2.0) for eid in inner})
    f = int(rng.integers(geom.n_edges))
    s = int(rng.integers(2)) * 2 - 1
    J_ss = super_satisfy(J, f, s)
    fe = geom.edges[f]
    probes = [e.id for e in geom.edges
              if e.id != f and not {e.u, e.v} & {fe.u, fe.v}]
    rng.shuffle(probes)
    probe_clamps = [cl for p in probes[:cfg.probes]
                    for cl in exc._edge_clamps(geom, p)]
    jobs = ([(J, None)] + [(J, cl) for cl in b_clamps]
            + [(J_repl, cl) for cl in b_clamps]
            + [(J, cl) for cl in (cl1, cl2, cl3)]
            + [(J_re, cl) for cl in (cl1, cl2)]
            + [(J_ss, None)] + [(J_ss, cl) for cl in probe_clamps])
    (gsp, plus, minus, plus_repl, minus_repl, st1, st2, st3, st1_re, st2_re,
     forced, *probe_states) = solve_batch(*zip(*jobs))

    if geom.n_vertices <= 20:
        oracle = brute_force(J)
        checks["oracle_equivalence"] = (gsp.same_pair(oracle)
                                        and abs(gsp.energy - oracle.energy)
                                        <= 1e-12 * (1 + abs(gsp.energy)))
    report = verify_gsp(J, gsp, cfg.subset_budget, cfg.dual_budget)
    checks["gsp_verified"] = report.passed

    # single-bond critical structure
    c_val = exc._edge_critical_value(J, b, plus, minus)
    c_repl = exc._edge_critical_value(J_repl, b, plus_repl, minus_repl)
    checks["critical_value_jb_free"] = abs(c_val - c_repl) <= 1e-12
    above, below = solve_batch([J.with_value(b, c_val + 1e-6),
                                J.with_value(b, c_val - 1e-6)], [None, None])
    checks["gsp_selection"] = above.same_pair(plus) and below.same_pair(minus)

    # exterior energy difference properties on a random small set
    record = exc.ExcitationRecord.from_states
    r12 = record(J, cl1, cl2, st1, st2)
    r23 = record(J, cl2, cl3, st2, st3)
    r13 = record(J, cl1, cl3, st1, st3)
    checks["additivity"] = abs(r12.delta_e_ext + r23.delta_e_ext
                               - r13.delta_e_ext) <= cfg.tol
    r21 = record(J, cl2, cl1, st2, st1)
    checks["antisymmetry"] = abs(r12.delta_e_ext + r21.delta_e_ext) <= cfg.tol
    r12b = record(J_re, cl1, cl2, st1_re, st2_re)
    checks["interior_independence"] = (
        abs(r12.delta_e_ext - r12b.delta_e_ext) <= cfg.tol
        and r12.state_a.same_pair(r12b.state_a)
        and r12.state_b.same_pair(r12b.state_b))
    clamped_report = verify_gsp(J, r12.state_a, cfg.subset_budget,
                                cfg.dual_budget, exclude=a_set)
    checks["clamped_gsp_off_A"] = clamped_report.passed

    # super-satisfaction forces the edge in every ground state, and keeps it
    # out of the critical contours of disjoint edges
    checks["supersatisfied_strict"] = (abs(J_ss.value(f))
                                       > supersatisfied_threshold(J_ss, f))
    checks["supersatisfy_forces_sign"] = forced.edge_product(f) == s
    checks["supersatisfied_not_in_contours"] = all(
        f not in wl.interface(J_ss, plus_p, minus_p).edge_ids
        for plus_p, minus_p in zip(probe_states[::2], probe_states[1::2]))

    # interface sanity
    checks["self_interface_empty"] = wl.interface(J, gsp, gsp).is_empty()
    sa, sb, sc = (np.where(rng.integers(2, size=geom.n_vertices) > 0, 1, -1)
                  .astype(np.int8) for _ in range(3))
    iab = wl.interface(J, sa, sb).edge_ids
    ibc = wl.interface(J, sb, sc).edge_ids
    iac = wl.interface(J, sa, sc).edge_ids
    checks["interface_triangle"] = iac <= (iab | ibc)

    for name, passed in checks.items():
        _hard(passed, f"property {name} failed")
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
    # interface_cycle_check enforces what "no_double_tether" names (no dual
    # path joins two dual-x-axis vertices); the name is part of the hash
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


def _sample(cfg: ExperimentConfig, index: int) -> dict:
    """One sample's record as the report holds it; any failure raises with
    the reproducer that replays this sample alone."""
    try:
        return _jsonable(_KINDS[cfg.kind].sample(cfg, index))
    except HardAssertionFailure as e:
        raise HardAssertionFailure(f"sample {index}: {e}",
                                   reproducer=_reproducer(cfg, index)) from None
    except Exception:
        # any other failure is an internal error; keep it replayable
        raise SampleError(f"sample {index}: {traceback.format_exc()}",
                          reproducer=_reproducer(cfg, index)) from None


def run(config: ExperimentConfig | dict) -> RunReport:
    """Execute the configured experiment and write its report files."""
    if isinstance(config, dict):
        cfg = ExperimentConfig.from_dict(config)
    else:
        cfg = config
        validate_config(cfg)
    paths = ([f"{cfg.out}.records.jsonl", f"{cfg.out}.summary.json"]
             if cfg.out else [])
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise ConfigError(f"output directory of {str(cfg.out)!r} "
                          "does not exist")
    for path in paths:      # checked before any sample, written after all
        if os.path.isdir(path):
            raise ConfigError(f"report path {path!r} is a directory")
    start = time.monotonic()
    core = cfg.core_dict()
    sample = partial(_sample, cfg)
    if cfg.parallel <= 1:
        records = list(map(sample, range(cfg.samples)))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every worker at the first submit, so start no more
        # than there are samples
        workers = min(cfg.parallel, cfg.samples)
        chunk = max(1, cfg.samples // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(sample, range(cfg.samples),
                                    chunksize=chunk))
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
    if paths:
        report.records_path, report.summary_path = paths
        with open(report.records_path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        with open(report.summary_path, "w") as fh:
            json.dump(report.summary_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
    return report
