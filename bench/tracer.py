"""Wrappers installed around predsens functions from the benchmark's side.

Two kinds exist. :class:`Stopwatch` times ``integrate_ode`` and counts its
steps; every run installs it. :class:`Tracer`, installed on top of it in the
traced run only, wraps the public functions of every layer and records one
span per call (name, start, end, parent, raised) in flat arrays held in
memory; the per-layer metrics are computed from those spans when a pass
ends, and the spans are written out when the run ends.

A wrapper replaces the function object in every ``predsens`` module that
holds it, because the modules import each other's functions by name.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

#: Layer (predsens module) -> functions wrapped in a traced run. A dotted
#: entry names a method. ``conditioning.closure`` is the field returned by
#: ``make_conditioned_field``; it is wrapped as it is returned.
TRACED = {
    "model": ("finite_difference_jacobian", "SystemStack.field_block"),
    "sensitivity": ("solve_checked", "jacobian_grid", "total_derivative_table",
                    "steady_state_solve", "reduced_field"),
    "conditioning": ("conditioned_field", "make_conditioned_field",
                     "conditioning_matrix", "frozen_sensitivity_provider",
                     "noisy_sensitivity_provider"),
    "integrate": ("integrate_ode", "manifold_error"),
    "stability": ("eigenvalues", "jacobian_at", "classify_local_stability",
                  "block_triangular_form", "contraction_check",
                  "distance_bound_margins"),
    "bilevel": ("total_gradient", "sensitivity", "lower_solve", "reduced_hessian_fd",
                "classify_point", "solve_discrete"),
    "casestudies": ("rlc_stack", "run_black_start", "black_start_metrics",
                    "write_black_start_csv"),
    "cli": ("write_trajectory_csv",),
    "registry": ("get_stack",),
}

CLOSURE = "conditioning.closure"


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "predsens" or name.startswith("predsens."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _install(layer: str, qualname: str, make_wrapper) -> None:
    module = importlib.import_module(f"predsens.{layer}")
    if "." in qualname:
        cls_name, method = qualname.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make_wrapper(getattr(cls, method)))
        return
    original = getattr(module, qualname)
    _replace_everywhere(original, make_wrapper(original))


class Stopwatch:
    """Accumulates wall time spent inside ``integrate_ode`` and the RK4 steps
    of the trajectories it returns, whether or not a check later accepts them."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0

    def install(self) -> None:
        clock = time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    traj = fn(*args, **kwargs)
                finally:
                    self.seconds += clock() - t0
                self.steps += traj.times.size - 1
                return traj
            return timed

        _install("integrate", "integrate_ode", make)


class Tracer:
    """In-memory span recorder; span ids are indices into the arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name_id)

    def truncate(self, n: int) -> None:
        """Drop every span recorded after the first ``n``."""
        for arr in (self.name_id, self.parent, self.start, self.end, self.raised):
            del arr[n:]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        name_id, parent, start, end, raised = (self.name_id, self.parent, self.start,
                                               self.end, self.raised)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer, qualnames in TRACED.items():
            for qualname in qualnames:
                name = f"{layer}.{qualname}"
                if name == "conditioning.make_conditioned_field":
                    _install(layer, qualname, self._wrap_compiler)
                else:
                    _install(layer, qualname, lambda fn, _n=name: self.wrap(_n, fn))

    def _wrap_compiler(self, fn):
        traced = self.wrap("conditioning.make_conditioned_field", fn)
        return lambda *args, **kwargs: self.wrap(CLOSURE, traced(*args, **kwargs))

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self) if hi is None else hi
        return {
            "name_id": np.array(self.name_id[lo:hi], dtype=np.int16),
            "parent": np.array(self.parent[lo:hi], dtype=np.int64),
            "start_ns": np.array(self.start[lo:hi], dtype=np.int64),
            "end_ns": np.array(self.end[lo:hi], dtype=np.int64),
            "raised": np.array(self.raised[lo:hi], dtype=np.int8),
        }

    def summarize(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self nanoseconds, raised count,
        and (for ``sensitivity.solve_checked``) calls made under a
        ``sensitivity.steady_state_solve`` span. Spans ``lo..hi-1`` must form
        closed trees whose roots have no parent."""
        a = self.arrays(lo, hi)
        n = hi - lo
        rel_parent = a["parent"] - lo
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = rel_parent >= 0
        child_time = np.bincount(rel_parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time

        steady = self._ids.get("sensitivity.steady_state_solve", -1)
        under_steady = np.zeros(n, dtype=bool)
        anc = rel_parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            under_steady[live] |= a["name_id"][anc[live]] == steady
            anc[live] = rel_parent[anc[live]]

        solve = self._ids.get("sensitivity.solve_checked", -1)
        out: dict[str, dict[str, float]] = {}
        ids = a["name_id"]
        for nid in np.unique(ids):
            sel = ids == nid
            out[self.names[int(nid)]] = {
                "calls": int(sel.sum()),
                "incl_ns": float(dur[sel].sum()),
                "self_ns": float(self_time[sel].sum()),
                "raised": int(a["raised"][sel].sum()),
                "under_steady": int((sel & under_steady).sum()) if nid == solve else 0,
            }
        return out

    def save(self, path) -> None:
        arrays = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **arrays)
