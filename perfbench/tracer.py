"""Span tracing around discop's public functions, from outside the program.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every ``discop`` namespace that binds the original,
because modules import each other's functions by name.  Each call records a
span (name, start, end, parent) in memory; ``uninstall`` restores the
originals.  A few layers also record work counts taken from their arguments
or return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

#: the layers, as module names under discop
LAYERS = ("config", "series", "symbols", "quadrature", "_numutil", "norms",
          "operators", "kernels", "harness")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _powq_info(args, kwargs, result):
    return {"elements": int(getattr(args[0], "size", 1))}


def _pairwise_info(args, kwargs, result):
    n_rad, n_ang = int(args[4]), int(args[5])
    nodes = n_rad * n_ang
    # two forward transforms of the (n_rad, n_ang) nodal values and one
    # inverse transform per radius pair
    return {"node_pairs": nodes * nodes, "fft_size": (2 + n_rad) * nodes}


def _refine_info(args, kwargs, result):
    return {"levels": len(result.trace)}


def _sup_info(args, kwargs, result):
    return {"zoom_steps": len(result.trace) - 1}


def _bound_info(args, kwargs, result):
    pairs = mismatches = 0
    for row in result.rows:
        levels = [int(r) * int(a) for r, a, _ in row.eq_intermediate_sq.trace]
        mismatches += row.nodes_checked != levels[-1] ** 2
        pairs += sum(n * n for n in levels)
    return {"node_pairs": pairs, "nodes_checked_mismatches": mismatches}


def _lift_info(args, kwargs, result):
    return {"node_pairs": sum((int(r) * int(a)) ** 2 for r, a, _ in result.bergman_sq.trace)}


def _emit_info(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result.values())}


#: per-layer work counts, keyed by "layer.function"
INFO = {
    "numutil.powq": _powq_info,
    "norms.pairwise_difference_integral": _pairwise_info,
    "quadrature.refine_until": _refine_info,
    "kernels.estimate_sup": _sup_info,
    "operators.bound_check": _bound_info,
    "operators.lift_norm_check": _lift_info,
    "harness.emit_reports": _emit_info,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, info]
        self._stack = []
        self._patches = []

    def _wrap(self, name, func):
        spans, stack, info_fn = self.spans, self._stack, INFO.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info_fn is not None:
                span[4] = info_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "discop" or n.startswith("discop.")]
        for layer in LAYERS:
            module = importlib.import_module(f"discop.{layer}")
            for attr, func in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{_layer(module.__name__)}.{attr}", func)
                for ns in modules:
                    for bound, value in vars(ns).copy().items():
                        if value is func:
                            self._patches.append((ns, bound, func))
                            setattr(ns, bound, wrapper)

    def uninstall(self):
        for ns, bound, func in reversed(self._patches):
            setattr(ns, bound, func)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, and summed counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, info) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in (info or {}).items():
                entry[key] += value
        return out

    def powq_elements_under(self, layer: str) -> int:
        """powq elements whose calling span belongs to ``layer``."""
        return sum(
            info["elements"] for name, _, _, parent, info in self.spans
            if name == "numutil.powq" and parent >= 0
            and self.spans[parent][0].startswith(layer + ".")
        )

    def nesting_errors(self) -> int:
        """Spans that do not lie inside their parent span."""
        return sum(
            1 for _, start, end, parent, _ in self.spans
            if parent >= 0 and not (self.spans[parent][1] <= start <= end <= self.spans[parent][2])
        )
