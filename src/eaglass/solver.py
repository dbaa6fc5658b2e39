"""Exact minimizers of the box Hamiltonian, with a brute-force oracle.

``solve`` runs a row-by-row dynamic program over per-row spin bitmasks in
O(height * width * 2^width): each row-to-row transition is W column steps,
step c replacing bit c of every mask in place, and the wrap coupling enters
through the intra-row cost.  A small C kernel, ``_sweep.c``, builds the row
costs and runs every row and column step of a sweep in one call and its
traceback in another; it is compiled with the system's ``cc`` on first use
and cached in the package's ``__pycache__`` (see ``_kernel``).  Backpointers
record every optimal choice as a 2-bit code, so exact ties are enumerated
and broken deterministically: the returned configuration has the
lexicographically smallest canonical bit pattern among all minimizers, and
the pair is flagged as tied.  The traceback walks each problem's optimal
configurations depth first, a tie branching the walk, and keeps the
smallest canonical one; a problem with more than ``_TIE_CAP`` (20,000) of
them raises ``BudgetExceededError``.  Python then only turns row masks into
signs and sums the energies.

``solve_batch`` runs K problems on one box shape through each kernel sweep
and traceback: each problem keeps its own slots of the row-cost, frontier
and backpointer blocks, so its energies, backpointers and optimum are
bit-identical to a solve of its own.  A sweep holds at most 2^13 frontier
entries (K * 2^W), so from width 13 on every problem runs alone; ``solve``
is the K=1 case.  A row's costs are minus its horizontal energy per row
mask, summed edge by edge from 0.0; the kernel copies a problem's row
costs from the problem before it where their horizontal couplings have the
same bits and builds them otherwise, so the solver calls no BLAS and its
bits do not depend on the machine's BLAS kernel.

Each thread keeps one plan of arrays per box shape, and the plan remembers
its last sweep.  A sweep of as many problems whose couplings and forced
signs equal the last sweep's, bit for bit, on rows 0..p resumes from the
frontiers that sweep left after row p: two solves that share their leading
rows (the perturbed-exterior pair) sweep the shared rows once.  Couplings
compare with the plan's copy of the last sweep's, never with a caller's
array, whose base (a ``CouplingConfig`` keeps a view) may have changed.

Configurations are pairs modulo a global flip.  A clamp's signs pin one
representative, held in the plan as one pin per row next to the couplings
(see ``_pins``) and entered by the kernel as infinite row costs.  With no
field a row mask and its flip cost the same until a problem's first forced
row, so on the rows before it the kernel builds and keeps only the masks
with bit W-1 down and runs half-size steps; a free problem forces nothing,
sweeps at half size throughout and traces back one member of each pair.
Its entries are the minima of a vertex-0-pinned sweep's over each mask and
its flip, so it finds the same optimal pairs, unless rounding makes two of
them tie.  It meets a configuration's flipped rivals earlier than a pinned
sweep would, while their partial sums are smaller: where couplings span
some 15 decades and the small ones come first, a pinned sweep compares the
rivals only after a far larger coupling has absorbed their difference and
can report a tie where this one finds the exact minimizer.  The stored
canonical form gives +1 to the lowest-indexed vertex not determined by the
clamp (vertex 0 when free), so equal pairs compare equal elementwise;
``brute_force`` pins vertex 0 at +1.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from math import fsum
from pathlib import Path

import numpy as np

from .errors import BudgetExceededError
from .disorder import CouplingConfig
from .lattice import (BoxGeometry, build_box, build_dual,
                      connected_subsets, dual_circuits_and_paths)

MAX_SOLVE_WIDTH = 16
MAX_BRUTE_VERTICES = 24
_TIE_CAP = 20000


def _integer(x) -> int:
    """A Python or numpy integer as ``int``; bools and floats raise."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"clamp vertices and signs are integers, not {x!r}")
    return int(x)


@dataclass(frozen=True)
class Clamp:
    """Relative spins on a vertex set, stored with the lowest vertex at +1."""

    vertices: tuple[int, ...]
    signs: tuple[int, ...]

    def __init__(self, vertices, signs):
        vertices, signs = list(vertices), list(signs)
        if len(vertices) != len(signs):
            raise ValueError(f"{len(vertices)} clamp vertices for "
                             f"{len(signs)} signs")
        pairs = sorted(zip(map(_integer, vertices), map(_integer, signs)))
        if not pairs:
            raise ValueError("clamp must cover at least one vertex")
        vs = tuple(v for v, _ in pairs)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate clamp vertices")
        if vs[0] < 0:
            raise ValueError(f"negative clamp vertex {vs[0]}")
        ss = tuple(s for _, s in pairs)
        if any(s not in (1, -1) for s in ss):
            raise ValueError("clamp signs must be +1 or -1")
        if ss[0] < 0:
            ss = tuple(-s for s in ss)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "signs", ss)

    @staticmethod
    def equal_pair(u: int, v: int) -> "Clamp":
        return Clamp((u, v), (1, 1))

    @staticmethod
    def opposite_pair(u: int, v: int) -> "Clamp":
        return Clamp((u, v), (1, -1))


@dataclass(frozen=True)
class SpinPair:
    """A spin configuration modulo global flip, in canonical form."""

    geom: BoxGeometry
    signs: np.ndarray = field(compare=False)
    energy: float
    tied: bool = False

    def __post_init__(self):
        self.signs.setflags(write=False)

    def edge_product(self, edge_id: int) -> int:
        e = self.geom.edges[edge_id]
        return int(self.signs[e.u]) * int(self.signs[e.v])

    def same_pair(self, other: "SpinPair") -> bool:
        return bool(np.array_equal(self.signs, other.signs)
                    or np.array_equal(self.signs, -other.signs))


def _edge_terms(J: CouplingConfig, spins) -> np.ndarray:
    """J_e * s_u * s_v per edge for a ``SpinPair`` or ±1 signs in the order
    of J's vertices; the solver's pairs hold int8 ±1 and skip the check."""
    geom = J.geom
    if isinstance(spins, SpinPair):
        if spins.geom is not geom and spins.geom != geom:
            raise ValueError("spin pair and couplings live on different boxes")
        signs = spins.signs
    else:
        signs = np.asarray(spins)
        if signs.dtype.kind not in "iuf" or np.count_nonzero(abs(signs) != 1):
            raise ValueError("signs must be +1 or -1")
    if signs.shape != (geom.n_vertices,):
        raise ValueError(f"{signs.shape} signs for {geom.n_vertices} vertices")
    return J.values * signs[geom.eu] * signs[geom.ev]


def energy(J: CouplingConfig, spins) -> float:
    """-sum of J_e * s_u * s_v over all box edges, compensated summation."""
    return -fsum(_edge_terms(J, spins))


def canonical_anchor(geom: BoxGeometry, clamp: Clamp | None) -> int:
    if clamp is None:
        return 0
    clamped = set(clamp.vertices)
    for v in range(geom.n_vertices):
        if v not in clamped:
            return v
    return clamp.vertices[0]


def canonicalize(geom: BoxGeometry, signs: np.ndarray, clamp: Clamp | None) -> np.ndarray:
    anchor = canonical_anchor(geom, clamp)
    out = signs if signs[anchor] > 0 else -signs
    return np.ascontiguousarray(out, dtype=np.int8)


def _forced_signs(geom: BoxGeometry, clamp: Clamp | None) -> dict[int, int]:
    """Absolute signs pinning one representative of each pair modulo flip."""
    if clamp is None:
        return {0: 1}
    for v in clamp.vertices:
        if not 0 <= v < geom.n_vertices:
            raise ValueError(f"clamp vertex {v} outside geometry")
    return dict(zip(clamp.vertices, clamp.signs))


@lru_cache(maxsize=1024)
def _pins(width: int, height: int,
          clamp: Clamp | None) -> tuple[np.ndarray, int]:
    """A clamp's ``_forced_signs`` as the kernel takes them, read-only pins
    (H, 2), and its canonical anchor on a width x height box: pin r holds a
    mask of row r's forced columns and the bits a row mask must hold there
    (1 for a +1 sign).  A free problem forces no vertex: its sweep keeps one
    member of each flipped pair itself."""
    geom, pins = build_box(width, height), np.zeros((height, 2), np.int32)
    for v, s in (_forced_signs(geom, clamp) if clamp else {}).items():
        pins[v // width] |= (1 << v % width, (s > 0) << v % width)
    pins.setflags(write=False)
    return pins, canonical_anchor(geom, clamp)


def _pattern(signs: np.ndarray) -> bytes:
    return ((1 - signs) // 2).astype(np.uint8).tobytes()


# --------------------------------------------------------------------------
# transfer-matrix solver


_SOURCE = Path(__file__).with_name("_sweep.c")
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_BUILD_DIR = Path(__file__).with_name("__pycache__")


@lru_cache(maxsize=1)
def _kernel():
    """The C sweep ``eaglass_sweep``, built on first use into ``_BUILD_DIR``,
    or into a directory of this process's own where that is not writable.

    The library's name hashes the source, the flags and the machine, so a
    cache hit starts no process.  A build writes a temporary file and
    renames it into place: processes racing to build each load a whole
    library, and a partial file is never loaded."""
    name = _library_name()
    path = _BUILD_DIR / name
    if not path.exists():
        path = _build(name)
    lib = ctypes.CDLL(str(path))
    lib.eaglass_sweep.argtypes = [ctypes.c_int] * 5 + [ctypes.c_void_p] * 6
    lib.eaglass_sweep.restype = None
    lib.eaglass_traceback.argtypes = [ctypes.c_int] * 5 + [ctypes.c_void_p] * 7
    return lib


def _library_name() -> str:
    key = hashlib.sha256(_SOURCE.read_bytes()
                         + repr((_CFLAGS, platform.machine())).encode())
    return f"_sweep-{key.hexdigest()[:20]}.so"


def _build(name: str) -> Path:
    out = _BUILD_DIR
    try:
        out.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=name, dir=out)
    except OSError:
        out = Path(tempfile.mkdtemp(prefix="eaglass-"))
        atexit.register(shutil.rmtree, out, True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=name, dir=out)
    os.close(fd)
    cmd = ["cc", *_CFLAGS, "-o", tmp, str(_SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"building the sweep kernel failed: "
                               f"{' '.join(cmd)}\n{proc.stderr}")
        os.replace(tmp, out / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out / name


# frontier entries swept together, K * 2^W: small boxes share a sweep's
# fixed cost and its traceback, and a box of width 13 or more runs alone
_BATCH_STATES = 1 << 13

_PLANS = threading.local()


class _Plan:
    """The arrays of one box shape, kept per thread, with room for
    ``len(rowcost)`` problems in one sweep.  Reusing the row-cost and
    backpointer blocks avoids the stall of a fresh allocation per solve.
    ``backptr[r, c, k]`` holds the 2-bit codes of problem k's column step c
    of row r, four to a byte.  The kernel runs a row's column steps in place
    in ``buf``, so a warm sweep allocates no frontier-sized array;
    ``vals[k]`` holds a copy of problem k's couplings, which the kernel, the
    traceback and the next sweep's resume read, and ``pins[k]``,
    ``anchor[k]`` its ``_pins``.

    ``rowcost[k, r]`` holds problem k's row costs of row r, which the kernel
    builds, then its frontier after row r: on a row before ``sym[k]``, the
    problem's first forced row (H if none), only the lower half of each,
    which the sweep writes.  The traceback writes ``rows``, ``count`` and
    ``path``.  The arrays never move, so ``at`` keeps their addresses, the
    only ones the kernel calls take.  ``last`` remembers the sweep that last
    ran to its end, whose couplings and pins the plan still holds: its
    problem count and start row s.  That sweep left its backpointers in
    ``backptr`` and its frontiers in ``rowcost[:, r]`` for every r >= s, so
    a sweep of as many problems that agrees with it on the leading rows
    resumes from there (see ``_resume_row``)."""

    def __init__(self, width: int, height: int):
        n = 1 << width
        k = max(1, _BATCH_STATES >> width)
        self.backptr = np.empty((height - 1, width, k, (n + 3) // 4), np.uint8)
        self.rowcost = np.empty((k, height, n))
        self.buf = np.empty(n)
        self.vals = np.empty((k, build_box(width, height).n_edges))
        self.pins = np.empty((k, height, 2), np.int32)
        self.anchor = np.empty(k, np.int32)
        self.sym, self.count = np.empty(k, np.int32), np.empty(k, np.int32)
        self.rows = np.empty((k, height), np.int32)
        self.path = np.empty((height - 1) * width + 1, np.uint32)
        self.at = {name: a.ctypes.data for name, a in vars(self).items()}
        self.last = None


def _plan(width: int, height: int) -> _Plan:
    """This thread's plan for one box shape; at most 8 shapes are kept."""
    store = _PLANS.__dict__.setdefault("store", {})
    key = (width, height)
    if key not in store:
        if len(store) >= 8:
            store.clear()
        store[key] = _Plan(width, height)
    return store[key]


def solve(geom: BoxGeometry, J: CouplingConfig,
          clamp: Clamp | None = None) -> SpinPair:
    """Exact minimizer over configurations modulo flip respecting the clamp;
    ``geom`` must be ``J.geom`` (kept because perfbench's tracer reads it)."""
    if J.geom is not geom and J.geom != geom:
        raise ValueError("couplings live on another box than geom")
    return _solve_all(geom, [J], [clamp])[0]


def solve_batch(Js: list[CouplingConfig],
                clamps: list[Clamp | None]) -> list[SpinPair]:
    """``solve(J.geom, J, clamp)`` for each pair of ``zip(Js, clamps)``, bit
    for bit; all couplings live on one box, and the problems share each
    sweep of the transfer kernel."""
    Js, clamps = list(Js), list(clamps)
    if len(Js) != len(clamps):
        raise ValueError(f"{len(Js)} couplings for {len(clamps)} clamps")
    if not Js:
        return []
    geom = Js[0].geom
    if any(J.geom is not geom and J.geom != geom for J in Js):
        raise ValueError("batched couplings live on different boxes")
    return _solve_all(geom, Js, clamps)


def _solve_all(geom: BoxGeometry, Js, clamps) -> list[SpinPair]:
    W, H = geom.width, geom.height
    if W > MAX_SOLVE_WIDTH:
        raise BudgetExceededError(
            f"width {W} exceeds solver budget {MAX_SOLVE_WIDTH}")
    forced = [_pins(W, H, clamp) for clamp in clamps]
    plan = _plan(W, H)
    step = len(plan.rowcost)    # the problems one sweep holds
    out = []
    for lo in range(0, len(Js), step):
        chunk = slice(lo, lo + step)
        _sweep(geom, Js[chunk], forced[chunk], plan)
        out += _best_pairs(geom, plan, len(Js[chunk]))
    return out


def _sweep(geom: BoxGeometry, Js, forced, plan: _Plan) -> None:
    """Run the transfer kernel over K problems of ``plan``'s shape, each with
    its ``_pins``, which go to ``plan.pins`` and ``plan.anchor`` as its
    couplings go to ``plan.vals``; their final frontiers end in
    ``rowcost[:, -1]`` (the lower half of a free problem's), backpointers in
    ``backptr`` and first forced rows in ``sym``.  Every problem goes through
    the same elementwise operations as it would alone, so its frontier and
    backpointers do not depend on the batch.

    Each row's frontier is the sum of the last column step and the row's
    costs, stored over those costs, so the frontiers stay in ``rowcost``.
    The sweep starts at the row ``_resume_row`` gives, from the frontier the
    last sweep left there; the backpointers above it are the last sweep's,
    which are the same bits."""
    pins = np.array([p for p, _ in forced])
    start = _resume_row(geom, plan, Js, pins)
    for k, J in enumerate(Js):
        plan.vals[k] = J.values
    plan.pins[:len(Js)] = pins
    plan.anchor[:len(Js)] = [anchor for _, anchor in forced]
    _run_sweep(plan, start, len(Js))
    plan.last = (len(Js), start)


def _run_sweep(plan: _Plan, start: int, k: int) -> None:
    """Rows ``start``..H-2 of the first ``k`` problems in one call of the C
    kernel, on their couplings in ``plan.vals`` and their pins in
    ``plan.pins``.  The kernel builds the row costs of the rows it sweeps
    into, or of every row from row 0, and problem i copies them from problem
    i-1 where their horizontal couplings have the same bits and i-1's first
    forced row is not below its own; it then writes inf into the row costs
    of each row mask that breaks a pin (see ``_pins``)."""
    h, w = plan.rowcost.shape[1], plan.backptr.shape[1]
    if k > len(plan.rowcost) or not 0 <= start < h:
        raise ValueError(f"a sweep of {k} problems from row {start} "
                         "does not fit the plan")
    at = plan.at
    _kernel().eaglass_sweep(
        w, h, k, plan.backptr.shape[2], start, at["rowcost"], at["buf"],
        at["backptr"], at["sym"], at["vals"], at["pins"])


def _resume_row(geom: BoxGeometry, plan: _Plan, Js, pins) -> int:
    """The row a sweep of ``Js`` with ``pins`` (K, H, 2) can start from, 0
    for a full sweep; clears the plan's memory, since the sweep overwrites
    it.

    The frontier after row p depends only on the couplings of the edges
    with ``geom.entry_row <= p`` and on the pins of rows 0..p.  If every
    problem agrees with the last sweep's problem in its slot on rows 0..p,
    and that sweep left its frontier after row p, the sweep starts there.
    The pins compare with ``plan.pins`` in one array comparison, and each
    problem's couplings with the copy the last sweep ran on, never with the
    caller's array, whose contents may have changed since.  They compare as
    bits, since -0.0 == 0.0, up to the first problem that rules a resume
    out."""
    last, plan.last = plan.last, None
    if last is None or last[0] != len(Js):
        return 0
    need = max(last[1], 1) + 1  # rows that must agree for any resume
    repinned = (pins != plan.pins[:len(Js)]).any(axis=(0, 2))
    # rows 0..agree-1 are equal in every problem
    agree = int(repinned.argmax()) if repinned.any() else geom.height
    for J, old in zip(Js, plan.vals):
        if agree < need:
            return 0
        moved = geom.entry_row[J.values.view(np.int64) != old.view(np.int64)]
        agree = int(moved.min(initial=agree))
    return agree - 1 if agree >= need else 0


def _best_pairs(geom: BoxGeometry, plan: _Plan, K: int) -> list[SpinPair]:
    """The canonical optimum of each of the K problems of the sweep ``plan``
    last ran, from the C traceback, which walks every optimal configuration
    of each problem and keeps the smallest canonical one; it raises for a
    problem with more than ``_TIE_CAP`` of them.  ``plan.anchor`` holds
    each problem's canonical anchor, which sets the canonical flip."""
    W, H = geom.width, geom.height
    at = plan.at
    status = _kernel().eaglass_traceback(
        W, H, K, plan.backptr.shape[2], _TIE_CAP, at["rowcost"],
        at["backptr"], at["sym"], at["anchor"], at["path"],
        at["rows"], at["count"])
    if status == 2:
        raise RuntimeError("no admissible configuration (unsatisfiable clamp?)")
    if status:
        raise BudgetExceededError("tie degeneracy exceeds enumeration cap")
    counts = plan.count[:K].tolist()
    bits = (plan.rows[:K, :, None] >> np.arange(W)) & 1
    signs = (2 * bits - 1).astype(np.int8).reshape(K, H * W)
    # energy(J, s) of each problem, bit for bit: the same products, one fsum
    terms = plan.vals[:K] * signs[:, geom.eu] * signs[:, geom.ev]
    return [SpinPair(geom, s, -fsum(t), tied=bool(n > 1))
            for s, t, n in zip(signs, terms.tolist(), counts)]


# --------------------------------------------------------------------------
# brute-force oracle

_CHUNK_BITS = 16


def _spin_products(geom: BoxGeometry, base: np.ndarray, free, idx: np.ndarray):
    """Spin rows and their edge products, one row per index in ``idx``.

    Row i copies ``base`` and sets vertex free[j] to +1 / -1 from bit j of
    idx[i]; the products are s_u * s_v per edge as float64.
    """
    S = np.repeat(base[None, :], len(idx), axis=0)
    for j, v in enumerate(free):
        S[:, v] = (((idx >> j) & 1) * 2 - 1).astype(np.int8)
    return S, (S[:, geom.eu] * S[:, geom.ev]).astype(np.float64)


def _energies(J: CouplingConfig, forced: dict[int, int]):
    """Every configuration with the ``forced`` signs as ``(start, signs,
    energies)`` per chunk of at most 2^16: row i of ``signs`` sets the j-th
    vertex not forced from bit j of start + i (see ``_spin_products``), and
    ``energies[i]`` is its -(products @ J.values)."""
    geom = J.geom
    free = [v for v in range(geom.n_vertices) if v not in forced]
    base = np.zeros(geom.n_vertices, dtype=np.int8)
    for v, s in forced.items():
        base[v] = s
    total = 1 << len(free)
    step = 1 << min(len(free), _CHUNK_BITS)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        S, prod = _spin_products(geom, base, free, idx)
        E = -(prod @ J.values)
        del prod                # before the caller builds on the chunk
        yield start, S, E


def brute_force(J: CouplingConfig, clamp: Clamp | None = None) -> SpinPair:
    """Exhaustive minimum over all configurations modulo flip.

    Same canonicalization and tie policy as ``solve``; kept independent of it
    (plain enumeration, no dynamic programming).
    """
    geom = J.geom
    if geom.n_vertices > MAX_BRUTE_VERTICES:
        raise BudgetExceededError(
            f"{geom.n_vertices} vertices exceed brute-force budget")
    best_energy = np.inf
    best_pat = None
    best_signs = None
    n_best = 0
    for _, S, E in _energies(J, _forced_signs(geom, clamp)):
        m = float(E.min())
        if m < best_energy:
            best_energy = m
            best_pat = None
            best_signs = None
            n_best = 0
        if m <= best_energy:
            for row in np.flatnonzero(E == best_energy):
                n_best += 1
                canon = canonicalize(geom, S[row], clamp)
                pat = _pattern(canon)
                if best_pat is None or pat < best_pat:
                    best_pat, best_signs = pat, canon
    return SpinPair(geom, best_signs, energy(J, best_signs), tied=n_best > 1)


# --------------------------------------------------------------------------
# ground-state-pair verification


@dataclass(frozen=True)
class GspViolation:
    kind: str            # "subset" | "circuit" | "path"
    items: tuple         # vertex ids for subsets, edge ids for dual objects
    value: float


@dataclass(frozen=True)
class GspReport:
    checked_subsets: int
    checked_duals: int
    violations: tuple[GspViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@lru_cache(maxsize=32)
def _gsp_table(width, height, max_subset_size, max_dual_len):
    """``verify_gsp``'s flips as (kind, items): each connected subset but the
    whole box, whose flip is the global flip, then each dual circuit and
    path.  ``member[i]`` marks subset i's vertices; ``groups`` pairs the
    positions of the flips of L boundary edges with their edge ids, (N_L, L)."""
    geom = build_box(width, height)
    subsets = [s for s in connected_subsets(geom, max_subset_size)
               if len(s) < geom.n_vertices]
    member = np.zeros((len(subsets), geom.n_vertices), dtype=bool)
    for i, subset in enumerate(subsets):
        member[i, list(subset)] = True
    duals = list(dual_circuits_and_paths(build_dual(width, height),
                                         max_dual_len))
    cuts = [np.flatnonzero(row)
            for row in member[:, geom.eu] != member[:, geom.ev]]
    cuts += [np.array(eids, dtype=np.int64) for _, eids in duals]
    lengths = np.array([len(cut) for cut in cuts])
    positions = [np.flatnonzero(lengths == n) for n in set(lengths.tolist())]
    groups = [(pos, np.stack([cuts[i] for i in pos])) for pos in positions]
    return [("subset", s) for s in subsets] + duals, member, groups


def verify_gsp(J: CouplingConfig, spins,
               max_subset_size: int = 3, max_dual_len: int = 6,
               exclude: tuple[int, ...] = ()) -> GspReport:
    """Report every finite-volume ground-state-property violation: a flip
    whose boundary terms J_e * s_u * s_v sum to <= 0, subsets first, then
    dual sets.  Flips of L boundary edges are summed in one ``sum(axis=1)``,
    which adds each row as a 1-D sum of that flip would.

    Subsets S intersecting ``exclude`` (a clamp's vertex set) are skipped;
    with a non-empty ``exclude`` the dual circuit/path route is skipped too,
    since those flips are not clamp-preserving in general.  A vertex of
    ``exclude`` outside the box raises ``ValueError``.
    """
    geom = J.geom
    contrib = _edge_terms(J, spins)
    excluded = np.fromiter(exclude, dtype=np.int64)
    if ((excluded < 0) | (excluded >= geom.n_vertices)).any():
        raise ValueError(f"excluded vertices {tuple(exclude)} outside box")
    flips, member, groups = _gsp_table(geom.width, geom.height,
                                       max_subset_size, max_dual_len)
    values = np.empty(len(flips))
    for pos, eids in groups:
        values[pos] = contrib[eids].sum(axis=1)
    checked = np.full(len(flips), not len(excluded))   # no dual set if any
    checked[:len(member)] = ~member[:, excluded].any(axis=1)
    n_sub = int(checked[:len(member)].sum())
    violations = tuple(GspViolation(*flips[i], float(values[i]))
                       for i in np.flatnonzero(checked & (values <= 0.0)))
    return GspReport(n_sub, int(checked.sum()) - n_sub, violations)
