"""In-memory spans around the public functions of eaglass's layers.

``Tracer.installed()`` wraps every public function of the layer modules
(``lab`` only at its entry point ``run``) and rebinds each module attribute
that refers to one of them, so calls made through ``from .solver import
solve`` style imports are traced too.  Generator functions are left alone:
their work runs while the caller iterates, so it stays in the caller's self
time.  A span is ``[name, start_ns, end_ns, parent_index, info]``; the root
span of every tree is one ``lab.run`` call.
"""

from __future__ import annotations

import inspect
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("lattice", "disorder", "solver", "excitation", "walls", "lab")
LABEL_FUNCTIONS = ("excitation.analytic_label",
                   "excitation.critical_set_distance")
TETHER_CHECKS = ("walls.no_double_tether_check", "walls.interface_cycle_check")


def _solve_info(args, kwargs, result):
    geom = args[0]
    clamp = args[2] if len(args) > 2 else kwargs.get("clamp")
    return {"clamped": clamp is not None, "tied": bool(result.tied),
            "states": (geom.height - 1) * geom.width * (1 << geom.width)}


def _sample_info(args, kwargs, result):
    return {"edges": len(result.values)}


_INFO = {"solver.solve": _solve_info,
         "disorder.sample_couplings": _sample_info}


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module.__name__
            and not inspect.isgeneratorfunction(obj)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        stack = self._stack
        faults = name == "solver.solve"

        def wrapper(*args, **kwargs):
            spans = self.spans
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if faults:
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, result)
                if faults:
                    rec[4]["minflt"] = (resource.getrusage(
                        resource.RUSAGE_SELF).ru_minflt - minflt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"eaglass.{layer}"]
            names = ["run"] if layer == "lab" else _public_functions(module)
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        saved = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "eaglass" and not mod_name.startswith("eaglass."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, entry[1])
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)


def span_problems(spans, wall_ns: int) -> list[str]:
    """Ways in which the spans of one ``lab.run`` call are not a sound tree.

    ``wall_ns`` is the time the caller measured around that call.  The one
    root must be ``lab.run``, no longer than ``wall_ns`` and short of it by
    no more than the wrapper's own overhead; every span must lie inside its
    parent.
    """
    roots = [i for i, sp in enumerate(spans) if sp[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != "lab.run":
        return [f"roots {[spans[i][0] for i in roots]}, not one lab.run"]
    problems = []
    root_ns = spans[roots[0]][2] - spans[roots[0]][1]
    if not wall_ns - (0.05 * wall_ns + 1e6) <= root_ns <= wall_ns + 1e3:
        problems.append(f"lab.run span {root_ns} ns against {wall_ns} ns "
                        "measured around it")
    for name, start, end, parent, _ in spans:
        if parent >= 0 and not (spans[parent][1] <= start <= end
                                <= spans[parent][2]):
            problems.append(f"{name} [{start}, {end}] outside its parent "
                            f"{spans[parent][0]}")
            break
    return problems


def summarize(spans) -> dict:
    """Exact counts and per-name times of one span list.

    ``names`` maps a span name to ``[calls, self_ns, total_ns]``; self time
    is the span's duration minus that of its direct children.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    names: dict[str, list[int]] = {}
    counts = Counter()
    faults = 0
    outer_exc = [-1] * len(spans)     # outermost excitation span above i
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        rec = names.setdefault(name, [0, 0, 0])
        rec[0] += 1
        rec[1] += dur - child_ns[i]
        rec[2] += dur
        inherited = outer_exc[parent] if parent >= 0 else -1
        if inherited >= 0:
            outer_exc[i] = inherited
        elif name.startswith("excitation."):
            outer_exc[i] = i
            counts["exc_calls"] += 1
        if name == "solver.solve":
            counts["exc_solves"] += inherited >= 0
            counts["clamped"] += info["clamped"]
            counts["tied"] += info["tied"]
            counts["dp_states"] += info["states"]
            faults += info["minflt"]
        elif name == "disorder.sample_couplings":
            counts["edges"] += info["edges"]
    for name, rec in names.items():
        counts[f"calls:{name}"] = rec[0]
    return {"names": names, "counts": counts, "minor_faults": faults}


def merge(summaries) -> dict:
    names: dict[str, list[int]] = {}
    counts = Counter()
    for s in summaries:
        for name, rec in s["names"].items():
            acc = names.setdefault(name, [0, 0, 0])
            for k in range(3):
                acc[k] += rec[k]
        counts.update(s["counts"])
    return {"names": names, "counts": counts,
            "minor_faults": sum(s["minor_faults"] for s in summaries)}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, samples: int) -> dict[str, float]:
    """Per-sample layer metrics (names as in BENCHMARK.json) of a summary."""
    names, counts = summary["names"], summary["counts"]

    def rec(name):
        return names.get(name, (0, 0, 0))

    def self_ms(*span_names):
        return sum(rec(n)[1] for n in span_names) / 1e6 / samples

    def layer_ms(layer):
        return sum(r[1] for n, r in names.items()
                   if n.split(".", 1)[0] == layer) / 1e6 / samples

    def calls(*span_names):
        return sum(rec(n)[0] for n in span_names) / samples

    solve = rec("solver.solve")
    return {
        "solver.ns_per_state": _ratio(solve[1], counts["dp_states"]),
        "solver.dp_states": counts["dp_states"] / samples,
        "solver.solve.self_ms": self_ms("solver.solve"),
        "solver.solve.minor_faults": summary["minor_faults"] / samples,
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.clamped_calls": counts["clamped"] / samples,
        "solver.solve.ms_per_call": _ratio(solve[2] / 1e6, solve[0]),
        "solver.tie_fraction": _ratio(counts["tied"], solve[0]),
        "solver.verify_gsp.calls": calls("solver.verify_gsp"),
        "solver.verify_gsp.self_ms": self_ms("solver.verify_gsp"),
        "solver.energy.self_ms": self_ms("solver.energy"),
        "excitation.solves_per_call": _ratio(counts["exc_solves"],
                                             counts["exc_calls"]),
        "excitation.critical_value.calls": calls("excitation.critical_value"),
        "excitation.critical_contour.calls":
            calls("excitation.critical_contour"),
        "excitation.self_ms": layer_ms("excitation"),
        "excitation.label_calls": calls(*LABEL_FUNCTIONS),
        "excitation.label_self_ms": self_ms(*LABEL_FUNCTIONS),
        "excitation.grid_labels_enumeration.self_ms":
            self_ms("excitation.grid_labels_enumeration"),
        "disorder.sample_couplings.calls": calls("disorder.sample_couplings"),
        "disorder.sample_couplings.self_ms":
            self_ms("disorder.sample_couplings"),
        "disorder.us_per_edge": _ratio(rec("disorder.sample_couplings")[1]
                                       / 1e3, counts["edges"]),
        "walls.self_ms": layer_ms("walls"),
        "walls.domain_walls.self_ms": self_ms("walls.domain_walls"),
        "walls.tether_checks.self_ms": self_ms(*TETHER_CHECKS),
        "walls.wall_count_grid.self_ms": self_ms("walls.wall_count_grid"),
        "lab.run.self_ms": layer_ms("lab"),
    }
