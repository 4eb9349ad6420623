"""Spans around the public functions of every abelfrac module.

The package imports functions by name (``from .quadrature import
singular_integral``), so a wrapper has to replace the function in every
module namespace that holds it, not only in the defining module.
``Tracer.install`` does that and ``Tracer.restore`` puts every original
back.  Spans stay in memory as flat arrays (name id, parent index, start,
end) and are written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: layer -> public functions wrapped in that layer
TARGETS = {
    "special_functions": ("gamma", "log_gamma", "beta", "reflection_factor"),
    "functions": ("PowerSum.__call__", "PiecewisePowerSum.__call__",
                  "TabulatedFunction.__call__"),
    "quadrature": ("kernel_integral", "singular_integral", "singular_integral_tabulated",
                   "tabulated_derivative_kernel", "smooth_integral",
                   "left_weighted_integral", "graded_mesh"),
    "fracops": ("rl_integral", "caputo_derivative", "rl_power_sum", "caputo_power_sum",
                "caputo_limit_at_zero", "composition_check", "monomial_frac_derivative"),
    "abel_solver": ("forward", "solve_series", "solve_convolution", "solve_theorem",
                    "solve_piecewise", "solve_on_grid"),
    # solve_ivp is scipy's, timed where tautochrone calls it
    "tautochrone": ("reconstruct_curve", "simulate_descent", "descent_time_integral",
                    "solve_ivp"),
    "verify": ("run_all_checks",),
    "cli": ("main", "parse_function_spec", "read_tabulated_csv", "_emit"),
}
LAYERS = tuple(TARGETS)
MARK = "__bench_span__"


def span_name(layer: str, attr: str) -> str:
    if attr.endswith(".__call__"):
        return f"{layer}.call.{attr.split('.')[0]}"
    if layer == "verify" and attr.startswith("check_"):
        return f"verify.{attr[len('check_'):]}"
    return f"{layer}.{attr.lstrip('_')}"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "abelfrac" or name.startswith("abelfrac."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(traced, MARK, name)
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for layer in LAYERS:
            importlib.import_module(f"abelfrac.{layer}")
        modules = _package_modules()
        for layer, attrs in TARGETS.items():
            home = sys.modules[f"abelfrac.{layer}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(cls.__dict__[meth], span_name(layer, attr)))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(original, span_name(layer, attr))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        # run_all_checks iterates a tuple captured at import
        verify = sys.modules["abelfrac.verify"]
        checks = tuple(self._wrap(c, span_name("verify", c.__name__)) for c in verify._ALL_CHECKS)
        self._patch(verify, "_ALL_CHECKS", checks)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names, dtype=str),
        }


def leftover_wrappers() -> list[str]:
    """Names of every traced wrapper still reachable from the package."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if hasattr(v, MARK)]
            elif isinstance(value, tuple):
                found += [f"{mod.__name__}.{key}[]" for v in value if hasattr(v, MARK)]
    return found


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its direct children cover
    (the union of their intervals, clipped to the span)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros(start.size)
    reach = {}
    order = np.lexsort((start, parent))
    for i in order[parent[order] >= 0].tolist():
        p = int(parent[i])
        lo = max(start[i], start[p], reach.get(p, -np.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, -np.inf), hi)
    return (end - start) - covered


def layer_total(spans: dict, layer: str) -> float:
    """Seconds inside ``layer``: spans of the layer whose parent is not in it."""
    layer_of = np.array([str(n).split(".")[0] == layer for n in spans["names"]], dtype=bool)
    if not layer_of.any():
        return 0.0
    inside = layer_of[spans["name"]]
    parent = spans["parent"]
    parent_inside = np.zeros_like(inside)
    has = parent >= 0
    parent_inside[has] = inside[parent[has]]
    top = inside & ~parent_inside
    return float(np.sum(spans["end"][top] - spans["start"][top]))


def summarize(spans: dict) -> dict:
    """name -> {"calls", "self_s", "total_s"}; total_s sums only spans with
    no ancestor of the same name, so recursion is not counted twice."""
    names = [str(n) for n in spans["names"]]
    nid, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], parent)
    calls = np.bincount(nid, minlength=len(names))
    selfs = np.bincount(nid, weights=own, minlength=len(names))
    # a span is outermost for its name unless an ancestor carries the name
    outer = np.ones(nid.size, dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        idx = np.nonzero(anc >= 0)[0]
        same = nid[anc[idx]] == nid[idx]
        outer[idx[same]] = False
        anc[idx] = np.where(same, -1, parent[anc[idx]])
    totals = np.bincount(nid[outer], weights=dur[outer], minlength=len(names))
    return {n: {"calls": int(calls[i]), "self_s": float(selfs[i]), "total_s": float(totals[i])}
            for i, n in enumerate(names)}
