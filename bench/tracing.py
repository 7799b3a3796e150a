"""Spans around the calls into each layer of layerlab, recorded from the
benchmark's own files.

``install`` wraps the public functions at every place where a layerlab
module holds them (the defining module and each module that imported
them), and the ``eval`` of every radial solution the sphere solver and
the plate profile return.  A span records its name, start, end, parent
span and op; spans are kept in flat arrays in memory and written out when
the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from array import array
from time import perf_counter

import numpy as np

LAYERLAB_MODULES = ("layerlab", "layerlab.kernels", "layerlab.materials",
                    "layerlab.plate", "layerlab.sphere", "layerlab.series",
                    "layerlab.regimes", "layerlab.cli")

# (layer name, defining module, attribute)
TARGETS = (
    ("kernels.solve_linear_bvp", "layerlab.kernels", "solve_linear_bvp"),
    ("kernels.integrate", "layerlab.kernels", "integrate"),
    ("kernels.bessel_ratio", "layerlab.kernels", "bessel_ratio"),
    ("kernels.find_root", "layerlab.kernels", "find_root"),
    ("sphere.solve_sphere", "layerlab.sphere", "solve_sphere"),
    ("sphere.sphere_force", "layerlab.sphere", "sphere_force"),
    ("sphere.sphere_field", "layerlab.sphere", "sphere_field"),
    ("sphere.sphere_potential", "layerlab.sphere", "sphere_potential"),
    ("series.solve_theta", "layerlab.series", "solve_theta"),
    ("plate.solve_plate", "layerlab.plate", "solve_plate"),
    ("plate.field", "layerlab.plate", "field"),
    ("plate.force_factor", "layerlab.plate", "force_factor"),
    ("plate.apparent_modulus", "layerlab.plate", "apparent_modulus"),
    ("regimes.classify", "layerlab.regimes", "classify"),
    ("regimes.plate_transitions", "layerlab.regimes", "plate_transitions"),
    ("cli.main", "layerlab.cli", "main"),
)
BVP_EVAL = "kernels.bvp_eval"
RADIAL_EVAL = "plate.radial_eval"
OP, SETUP = "bench.op", "bench.setup"

# counters beside calls and self_s
COUNTS = {
    "kernels.solve_linear_bvp": ("panels", "refine_passes"),
    BVP_EVAL: ("points",),
    "kernels.integrate": ("evals",),
    "sphere.sphere_field": ("points",),
    "sphere.sphere_potential": ("points",),
    RADIAL_EVAL: ("points",),
    "plate.field": ("points",),
}
LAYERS = tuple(t[0] for t in TARGETS[:4]) + (BVP_EVAL,) + tuple(t[0] for t in TARGETS[4:]) \
    + (RADIAL_EVAL,)


def metric_names() -> list[str]:
    """Per-layer metric names, in BENCHMARK.json order."""
    names = []
    for layer in LAYERS:
        names.append(layer + ".calls")
        names += [f"{layer}.{c}" for c in COUNTS.get(layer, ())]
        names.append(layer + ".self_s")
    return names + ["bench.self_s"]


class Tracer:
    """Flat in-memory span store.  ``enabled`` is cleared while the
    benchmark checks outputs, so checks leave no spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self.current_op = -1
        self.enabled = True

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def self_times(self):
        name, parent, op, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return dur, dur - child

    def metrics(self) -> dict[str, float]:
        name, _, _, _, _ = self.arrays()
        _, selft = self.self_times()
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=selft, minlength=len(self.names))
        out = {}
        for m in metric_names():
            layer, _, what = m.rpartition(".")
            if m == "bench.self_s":
                out[m] = float(sum(self_s[self._ids[n]] for n in (OP, SETUP) if n in self._ids))
            elif what == "calls":
                out[m] = int(calls[self._ids[layer]]) if layer in self._ids else 0
            elif what == "self_s":
                out[m] = float(self_s[self._ids[layer]]) if layer in self._ids else 0.0
            else:
                out[m] = int(self.counts.get(m, 0))
        return out

    def closure(self) -> str | None:
        """Children nest inside their parents, and within each op (and the
        set-up) the self times of all its spans add up to its duration."""
        name, parent, op, start, end = self.arrays()
        if np.any(np.isnan(end)):
            return "a span was never closed"
        nested = parent >= 0
        if np.any(start[nested] < start[parent[nested]]) or np.any(end[nested] > end[parent[nested]]):
            return "a span lies outside its parent"
        dur, selft = self.self_times()
        roots = np.flatnonzero(~nested)
        if not np.all(np.isin(name[roots], [self.name_id(OP), self.name_id(SETUP)])):
            return "a span was opened outside every op and the set-up"
        sums = np.bincount(op + 1, weights=selft)
        for r in roots:
            if abs(sums[op[r] + 1] - dur[r]) > 1e-9 + 1e-9 * dur[r]:
                return (f"op {op[r]}: self times add up to {sums[op[r] + 1]!r} s, "
                        f"not its duration {dur[r]!r} s")
        return None

    def dump(self, path) -> None:
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(path, name=name, parent=parent, op=op,
                            start=start, end=end, names=np.array(self.names))

    # -- wrapping ----------------------------------------------------------

    def span(self, name: str, fn, count=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(self, out, args, kwargs)
                return out
            finally:
                self.close(i)

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def region(self, name: str):
        """A span of the benchmark's own (an op, the set-up)."""
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)


def _points(key):
    def count(tr, out, args, kwargs):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args[1:3]))
        tr.add(key, math.prod(shape))
    return count


def _eval_points(key):
    def count(tr, out, args, kwargs):
        tr.add(key, np.size(args[0]))
    return count


def _bvp_count(tr, out, args, kwargs):
    """Panels of the solution, refinement passes from the final panel
    count against the starting mesh (the alt method doubles it)."""
    panels = out.meta["panels"]
    tr.add("kernels.solve_linear_bvp.panels", panels)
    mesh = kwargs.get("mesh")
    if mesh is not None and np.ndim(mesh) == 1:
        start = (len(mesh) - 1) * (2 if kwargs.get("method") == "alt" else 1)
        tr.add("kernels.solve_linear_bvp.refine_passes", round(math.log2(panels / start)))
    out.eval = tr.span(BVP_EVAL, out.eval, _eval_points(BVP_EVAL + ".points"))


def _integrate_count(tr, out, args, kwargs):
    tr.add("kernels.integrate.evals", out.evals)


COUNTERS = {
    "kernels.solve_linear_bvp": _bvp_count,
    "kernels.integrate": _integrate_count,
    "sphere.sphere_field": _points("sphere.sphere_field.points"),
    "sphere.sphere_potential": _points("sphere.sphere_potential.points"),
    "plate.field": _points("plate.field.points"),
}


def _replace_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def _lookup(modname: str, attr: str):
    mod = importlib.import_module(modname)
    if not hasattr(mod, attr):
        raise RuntimeError(f"cannot trace {modname}.{attr}: no such name")
    return getattr(mod, attr)


def install(tracer: Tracer) -> None:
    """Wrap every target at every layerlab module that holds it.  Fails
    loudly if a wrapped name no longer exists."""
    modules = [importlib.import_module(m) for m in LAYERLAB_MODULES]
    for layer, modname, attr in TARGETS:
        original = _lookup(modname, attr)
        _replace_everywhere(modules, original,
                            tracer.span(layer, original, COUNTERS.get(layer)))

    profile = _lookup("layerlab.plate", "radial_profile")

    def radial_profile(*args, **kwargs):  # no span: its evaluator is the layer
        out = profile(*args, **kwargs)
        if tracer.enabled:
            out.eval = tracer.span(RADIAL_EVAL, out.eval, _eval_points(RADIAL_EVAL + ".points"))
        return out

    _replace_everywhere(modules, profile, functools.update_wrapper(radial_profile, profile))
