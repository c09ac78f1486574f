"""Span tracing for traced benchmark runs, done from outside the package.

A traced run replaces amrkit functions and methods with wrappers that record
one span per call: (name, start, end, parent, run id).  Spans stay in memory
and are written out when the run ends.  Span names are the per-layer metric
stems, ``<layer>.<function>``, so a layer is the part before the first dot.

Module-level functions are replaced in every loaded amrkit module that holds
them, because several modules import ``fill_boundary``, ``parallel_copy``,
``sum_boundary``, ``_execute_plan`` and ``sfc_distribute`` by name; replacing
only the defining module would silently miss those calls.  Per-item scalar
methods (``BoxArray.owner_at``, ``Box.intersect``, ``IntVect``) are not
wrapped: they run hundreds of thousands of times per run, and their counts
come from ``amrkit.counters`` instead.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time

import numpy as np

# (span name, defining module, attribute path).  An attribute path with a dot
# names a method on a class.
TARGETS = (
    ("advect.step", "amrkit.advect", "AdvectionSolver.step"),
    ("advect.regrid", "amrkit.advect", "AdvectionSolver.regrid"),
    ("coarse_fine.crse_add", "amrkit.coarse_fine", "FluxRegister.crse_add"),
    ("coarse_fine.fine_add", "amrkit.coarse_fine", "FluxRegister.fine_add"),
    ("coarse_fine.reflux", "amrkit.coarse_fine", "FluxRegister.reflux"),
    ("coarse_fine.fill_patch", "amrkit.coarse_fine", "fill_patch"),
    ("coarse_fine.average_down", "amrkit.coarse_fine", "average_down"),
    ("coarse_fine.interp_to_fine", "amrkit.coarse_fine", "interp_to_fine"),
    ("fabarray.fill_boundary", "amrkit.fabarray", "fill_boundary"),
    ("fabarray.parallel_copy", "amrkit.fabarray", "parallel_copy"),
    ("fabarray.sum_boundary", "amrkit.fabarray", "sum_boundary"),
    ("fabarray.execute", "amrkit.fabarray", "_execute_plan"),
    ("amr_core.regrid", "amrkit.amr_core", "AmrHierarchy.regrid"),
    ("amr_core.cluster_tags", "amrkit.amr_core", "cluster_tags"),
    ("amr_core.enforce_proper_nesting", "amrkit.amr_core", "enforce_proper_nesting"),
    ("boxarray.intersections", "amrkit.boxarray", "BoxArray.intersections"),
    ("distribution.sfc_distribute", "amrkit.distribution", "sfc_distribute"),
    ("transport.send", "amrkit.transport", "Transport.send"),
    ("transport.drain", "amrkit.transport", "Transport.drain"),
    ("particles.keyed_uniforms", "amrkit.particles", "keyed_uniforms"),
    ("particles.redistribute", "amrkit.particles", "redistribute"),
    ("particles.particle_to_mesh", "amrkit.particles", "particle_to_mesh"),
    ("particles.mesh_to_particle", "amrkit.particles", "mesh_to_particle"),
    ("particles.fill_neighbors", "amrkit.particles", "fill_neighbors"),
    ("particles.build_neighbor_list", "amrkit.particles", "build_neighbor_list"),
    ("kernels.neighbor_pairs", "amrkit.kernels", "neighbor_pairs"),
    ("kernels.deposit_cic", "amrkit.kernels", "deposit_cic"),
    ("kernels.gather_cic", "amrkit.kernels", "gather_cic"),
    ("eb.parse_csg", "amrkit.eb", "parse_csg"),
    ("eb.compute_moments", "amrkit.eb", "compute_moments"),
    # prune is a BoxArray method, but on a covered-box predicate all of its
    # work is EB geometry evaluation
    ("eb.prune", "amrkit.boxarray", "BoxArray.prune"),
    ("eb.build_level_set", "amrkit.eb", "build_level_set"),
    ("eb.redistribute_small_cells", "amrkit.eb", "redistribute_small_cells"),
    ("eb.csg_eval", "amrkit.eb", "ImplicitFunction.__call__"),
    ("plotfile.write_plotfile", "amrkit.plotfile", "write_plotfile"),
    ("plotfile.wait", "amrkit.plotfile", "WriteHandle.wait"),
    ("plotfile.read_plotfile", "amrkit.plotfile", "read_plotfile"),
    ("plotfile.write_checkpoint", "amrkit.plotfile", "write_checkpoint"),
    ("plotfile.read_checkpoint", "amrkit.plotfile", "read_checkpoint"),
)


def _nbytes(*arrays):
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _on_deposit(tracer, args, out):
    # pos, weights read; the output buffer is updated in place
    tracer.add("kernels.deposit_cic.bytes", _nbytes(args[0], args[1], args[5]))


def _on_gather(tracer, args, out):
    tracer.add("kernels.gather_cic.bytes", _nbytes(args[0], args[4], out))


def _on_csg(tracer, args, out):
    tracer.add("eb.csg_points", int(np.shape(args[1])[0]) if np.ndim(args[1]) > 1 else 1)


def _on_write(tracer, args, out):
    tracer.add("plotfile.records", sum(len(m.ba) for m in args[1]))


# Extra quantities computed from a call's arguments and result.
_HOOKS = {
    "kernels.deposit_cic": _on_deposit,
    "kernels.gather_cic": _on_gather,
    "eb.csg_eval": _on_csg,
    "plotfile.write_plotfile": _on_write,
}

# CSG nodes call their operands, which are ImplicitFunctions too; only the
# outermost evaluation gets a span so that csg_eval time is not double counted.
_NO_NESTING = {"eb.csg_eval"}


class Tracer:
    """In-memory span store for one run; spans record on the main thread only."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.thread = threading.get_ident()
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.quantities = {}
        self.lookups = 0  # plan cache lookups, hits plus builds
        self.missing = []  # targets absent from the loaded amrkit
        self._stack = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name, amount):
        self.quantities[name] = self.quantities.get(name, 0) + amount

    def recording(self):
        """Wrappers record only inside a root span and on the main thread, so
        set-up and the untimed checks between steps leave no spans."""
        return bool(self._stack) and threading.get_ident() == self.thread

    def in_span(self, name):
        return bool(self._stack) and self.names[self._stack[-1]] == name

    @contextlib.contextmanager
    def span(self, name):
        """The benchmark's own root spans, around each step and rebuild."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- analysis ------------------------------------------------------------

    def table(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.names)
        if not n:
            return {}
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (end - start).astype(np.float64) * 1e-9
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = dur - child
        uniq, inv = np.unique(np.asarray(self.names), return_inverse=True)
        calls = np.bincount(inv, minlength=len(uniq))
        incl = np.bincount(inv, weights=dur, minlength=len(uniq))
        slf = np.bincount(inv, weights=own, minlength=len(uniq))
        return {
            str(name): {"calls": int(c), "s": float(i), "self_s": float(s)}
            for name, c, i, s in zip(uniq, calls, incl, slf)
        }

    def write(self, path):
        """Write every span as [name index, start ns, end ns, parent]."""
        names = sorted(set(self.names))
        index = {nm: k for k, nm in enumerate(names)}
        t0 = min(self.start) if self.start else 0
        rows = [
            [index[nm], s - t0, e - t0, p]
            for nm, s, e, p in zip(self.names, self.start, self.end, self.parent)
        ]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": names, "spans": rows}, fh)


def _wrap(tracer, name, fn):
    hook = _HOOKS.get(name)
    no_nesting = name in _NO_NESTING

    def traced(*args, **kwargs):
        if not tracer.recording() or (no_nesting and tracer.in_span(name)):
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, out)
        return out

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _wrap_cached_plan(tracer, fn):
    """Count plan-cache lookups and give each plan build its own span."""

    def traced(key, builder):
        if not tracer.recording():
            return fn(key, builder)
        tracer.lookups += 1

        def build():
            idx = tracer.open("fabarray.plan_build")
            try:
                return builder()
            finally:
                tracer.close(idx)

        return fn(key, build)

    traced.__wrapped__ = fn
    return traced


def _amrkit_modules():
    return [m for k, m in list(sys.modules.items()) if k == "amrkit" or k.startswith("amrkit.")]


class install:
    """Context manager: wrap every target for the duration of the block."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _replace_everywhere(self, orig, new):
        for mod in _amrkit_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def __enter__(self):
        # a target that a later version of amrkit renamed is skipped and
        # listed, so the coverage test names it instead of the run failing
        for name, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            *cls_name, attr = path.split(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name[0], None)
            orig = None if owner is None else getattr(owner, attr, None)
            if orig is None:
                self.tracer.missing.append(name)
            elif cls_name:
                self._undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, _wrap(self.tracer, name, orig))
            else:
                self._replace_everywhere(orig, _wrap(self.tracer, name, orig))
        orig = getattr(sys.modules["amrkit.fabarray"], "_cached_plan", None)
        if orig is None:
            self.tracer.missing.append("fabarray.plan_build")
        else:
            self._replace_everywhere(orig, _wrap_cached_plan(self.tracer, orig))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
