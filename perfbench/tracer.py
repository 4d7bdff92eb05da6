"""Spans and work counts around loctime's layer functions.

``Tracer.install`` replaces each target function with a wrapper that
times the call, charges its duration to the calling span and adds a
work count read from the arguments or the result.  Where a module
imported a function by name (``from .quadrature import
integrate_interval``), the binding in that module is replaced too, so
calls between layers are seen.  The wrappers pass arguments and results
through untouched; the benchmark checks that traced values are
bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _size(i: int, name: str):
    def count(args, kwargs, result):
        return int(np.size(kwargs[name] if name in kwargs else args[i]))
    return count


def _evaluations(args, kwargs, result):
    return int(result.evaluations)


def _ensemble(args, kwargs):
    return kwargs["ens"] if "ens" in kwargs else args[0]


def _pair_evals(args, kwargs, result):
    ens = _ensemble(args, kwargs)
    m = ens.times.size - 1
    return ens.n_paths * m * (m - 1) // 2


def _paths(args, kwargs, result):
    return int(result.n_paths)


def _path_cells(args, kwargs, result):
    return int(result.n_paths * result.d * result.grid.n_cells)


def _wick_paths(args, kwargs, result):
    return int(np.size(result))


def _series_orders(args, kwargs, result):
    return len(result.orders)


@dataclass(frozen=True)
class Target:
    module: str
    attr: str            # "function" or "Class.method"
    span: str
    count: Callable | None = None


TARGETS = (
    Target("loctime.quadrature", "integrate_triangle_singular",
           "quadrature.triangle", _evaluations),
    Target("loctime.quadrature", "integrate_interval",
           "quadrature.interval", _evaluations),
    Target("loctime.fracops", "PairingTable.__init__",
           "fracops.pairing_table_build"),
    Target("loctime.fracops", "PairingTable.v_tau", "fracops.pairing",
           _size(1, "t1")),
    Target("loctime.fracops", "PairingTable.v_rate", "fracops.pairing",
           _size(1, "t")),
    Target("loctime.stransform", "s_local_time", "stransform.s_local_time"),
    Target("loctime.stransform", "exp_truncated", "stransform.exp_truncated",
           _size(0, "x")),
    Target("loctime.kernels", "kernel_value", "kernels.kernel_value"),
    Target("loctime.kernels", "kernel_value_regularized",
           "kernels.kernel_value"),
    Target("loctime.kernels", "series_reconstruction", "kernels.series",
           _series_orders),
    Target("loctime.mc", "sample_paths_cholesky", "mc.cholesky", _paths),
    Target("loctime.mc", "sample_paths_whitenoise", "mc.whitenoise",
           _path_cells),
    Target("loctime.mc", "mc_local_time_regularized", "mc.estimator",
           _pair_evals),
    Target("loctime.mc", "mc_s_transform", "mc.estimator", _pair_evals),
    # Private, but it is where the Wick weights are computed, both for
    # mc_weight_check and inside mc_s_transform.
    Target("loctime.mc", "_wick_weights", "mc.wick", _wick_paths),
    Target("loctime.mc", "mc_grid_bias", "mc.grid_bias"),
)

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("quadrature.triangle_calls", "count"),
    ("quadrature.triangle_s", "s"),
    ("quadrature.triangle_evals", "count"),
    ("quadrature.interval_calls", "count"),
    ("quadrature.interval_s", "s"),
    ("quadrature.interval_evals", "count"),
    ("quadrature.outer_self_s", "s"),
    ("fracops.pairing_table_builds", "count"),
    ("fracops.pairing_table_build_s", "s"),
    ("fracops.pairing_points", "count"),
    ("fracops.pairing_s", "s"),
    ("stransform.s_local_time_calls", "count"),
    ("stransform.s_local_time_s", "s"),
    ("stransform.exp_truncated_points", "count"),
    ("stransform.exp_truncated_s", "s"),
    ("kernels.kernel_value_calls", "count"),
    ("kernels.kernel_value_s", "s"),
    ("kernels.series_orders", "count"),
    ("kernels.series_s", "s"),
    ("mc.cholesky_paths", "count"),
    ("mc.cholesky_s", "s"),
    ("mc.whitenoise_path_cells", "count"),
    ("mc.whitenoise_s", "s"),
    ("mc.pair_evals", "count"),
    ("mc.estimator_s", "s"),
    ("mc.pair_ns_per_eval", "ns"),
    ("mc.wick_paths", "count"),
    ("mc.wick_s", "s"),
    ("mc.grid_bias_s", "s"),
)


class Tracer:
    """Span recorder; totals are kept per span name, not per call."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        # (parent span, child span) -> time of the child inside the parent
        self.nested: defaultdict = defaultdict(float)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, span: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.calls[span] += 1
                tracer.total[span] += dt
                tracer.self_time[span] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    tracer.nested[(parent[0], span)] += dt
            if count is not None:
                tracer.work[span] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "loctime" or name.startswith("loctime.")]
        for t in TARGETS:
            owner = sys.modules.get(t.module)
            cls_name, _, name = t.attr.rpartition(".")
            if cls_name and owner is not None:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, name, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(t.span, orig, t.count)
            if cls_name:
                self._undo.append((owner, name, orig))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``reset``."""
        c, w, t = self.calls, self.work, self.total
        pairs = w["mc.estimator"]
        estimator_s = self.self_time["mc.estimator"]
        return {
            "quadrature.triangle_calls": c["quadrature.triangle"],
            "quadrature.triangle_s": t["quadrature.triangle"],
            "quadrature.triangle_evals": w["quadrature.triangle"],
            "quadrature.interval_calls": c["quadrature.interval"],
            "quadrature.interval_s": t["quadrature.interval"],
            "quadrature.interval_evals": w["quadrature.interval"],
            "quadrature.outer_self_s": (
                t["quadrature.triangle"]
                - self.nested[("quadrature.triangle", "quadrature.interval")]),
            "fracops.pairing_table_builds": c["fracops.pairing_table_build"],
            "fracops.pairing_table_build_s": t["fracops.pairing_table_build"],
            "fracops.pairing_points": w["fracops.pairing"],
            "fracops.pairing_s": t["fracops.pairing"],
            "stransform.s_local_time_calls": c["stransform.s_local_time"],
            "stransform.s_local_time_s": t["stransform.s_local_time"],
            "stransform.exp_truncated_points": w["stransform.exp_truncated"],
            "stransform.exp_truncated_s": t["stransform.exp_truncated"],
            "kernels.kernel_value_calls": c["kernels.kernel_value"],
            "kernels.kernel_value_s": t["kernels.kernel_value"],
            "kernels.series_orders": w["kernels.series"],
            "kernels.series_s": t["kernels.series"],
            "mc.cholesky_paths": w["mc.cholesky"],
            "mc.cholesky_s": t["mc.cholesky"],
            "mc.whitenoise_path_cells": w["mc.whitenoise"],
            "mc.whitenoise_s": t["mc.whitenoise"],
            "mc.pair_evals": pairs,
            "mc.estimator_s": estimator_s,
            "mc.pair_ns_per_eval": 1e9 * estimator_s / pairs if pairs else 0.0,
            "mc.wick_paths": w["mc.wick"],
            "mc.wick_s": t["mc.wick"],
            "mc.grid_bias_s": t["mc.grid_bias"],
        }
