"""Spans and counters around axicyl's public functions, installed from outside.

`install()` wraps every public function and method of the layer modules and
rebinds each name wherever a caller looks it up: modules import with
`from .x import y`, so `axicyl.evolution.dissipation_sample` is patched as
well as `axicyl.diagnostics.dissipation_sample`.  Nothing in `src/` changes.

Two kinds of wrapper:

* span: records (id, name, start, end, parent id, run id, extra) when the
  call returns.  The parent is the innermost open span of the same thread;
  a worker thread's outermost span adopts the main thread's innermost open
  span (the sweep that dispatched it).  The run id is the id of the
  enclosing `evolution.run_simulation` span, else of the outermost span.
* count: only counts calls.  Used for the stencils and pointwise helpers,
  so their time stays in the callers' self time and tracing stays cheap.

Spans stay in memory and are written out once, by `dump()`.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("grid", "fields", "elliptic", "evolution", "diagnostics", "manufactured", "config", "cli")

# span names the benchmark reports under a shorter layer name
ALIASES = {
    "elliptic.TridiagBatch.__init__": "elliptic.tridiag_factor",
    "elliptic.TridiagBatch.solve": "elliptic.tridiag_solve",
    "elliptic.EllipticSolver.solve_stream": "elliptic.solve_stream",
    "elliptic.EllipticSolver.heat_step": "elliptic.heat_step",
    "elliptic.EllipticSolver.apply_heat_operator": "elliptic.apply_heat_operator",
    "evolution.Stepper.step": "evolution.step",
    "evolution.Stepper.record": "evolution.record",
}

COUNT_ONLY_LAYERS = {"grid"}
COUNT_ONLY = {
    "evolution.advect_centered",
    "evolution.advect_upwind",
    "evolution.swirl_vorticity_source",
    "diagnostics.velocity_gradient_squared",
    "diagnostics.full_velocity_gradient_squared",
}

RUN_SPAN = "evolution.run_simulation"
SOURCE_SPAN = "manufactured.source_eval"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, itertools.count] = defaultdict(itertools.count)
        self.bytes: dict[str, list[int]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[tuple[int, int]] = []
        self._local.stack = self._main_stack  # install() runs on the main thread

    def _stack(self) -> list[tuple[int, int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, fn, extra=None, post=None):
        """fn wrapped in a span; extra(args) -> JSON value stored with the span,
        post(args, kwargs, result) -> result runs after the span closes."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, run = stack[-1]
            elif self._main_stack:
                parent, run = self._main_stack[-1]
            else:
                parent, run = None, None
            sid = next(ids)
            if run is None or name == RUN_SPAN:
                run = sid
            stack.append((sid, run))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, run, extra(args) if extra else None))
            return post(args, kwargs, result) if post else result

        return wrapped

    def count(self, name: str, fn):
        counter = self.counts[name]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapped

    def dump(self, path) -> None:
        data = {
            "spans": self.spans,
            "counts": {k: next(c) for k, c in self.counts.items()},
            "bytes": {k: sum(v) for k, v in self.bytes.items()},
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _solve_shape(args):
    batch, rhs = args[0], args[1]
    return [batch.M, batch.n, rhs.dtype.itemsize]


def _file_bytes(tracer: Tracer, name: str, index: int, key: str):
    def post(args, kwargs, result):
        path = kwargs[key] if key in kwargs else args[index]
        tracer.bytes[name].append(os.path.getsize(path))
        return result

    return post


def _wrap_sources(tracer: Tracer):
    def post(args, kwargs, bound):
        for key in ("source_gamma", "source_omega"):
            bound[key] = tracer.span(SOURCE_SPAN, bound[key])
        return bound

    return post


def _wrapper(tracer: Tracer, layer: str, name: str, fn):
    if layer in COUNT_ONLY_LAYERS or name in COUNT_ONLY:
        return tracer.count(name, fn)
    name = ALIASES.get(name, name)
    if name == "elliptic.tridiag_solve":
        return tracer.span(name, fn, extra=_solve_shape)
    if name == "fields.checkpoint_save":
        return tracer.span(name, fn, post=_file_bytes(tracer, name, 1, "path"))
    if name == "cli.write_csv":
        return tracer.span(name, fn, post=_file_bytes(tracer, name, 0, "path"))
    if name == "manufactured.ManufacturedSolution.bind":
        return tracer.span(name, fn, post=_wrap_sources(tracer))
    return tracer.span(name, fn)


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if attr.startswith("_") and name not in ALIASES:
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrapper(tracer, layer, name, raw.__func__)))
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrapper(tracer, layer, name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrapper(tracer, layer, name, raw))


def _wrap_module(tracer: Tracer, layer: str, mod) -> None:
    replaced = {}
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            if not issubclass(obj, BaseException):
                _wrap_class(tracer, layer, obj)
        elif inspect.isfunction(obj):
            replaced[id(obj)] = (obj, _wrapper(tracer, layer, f"{layer}.{attr}", obj))
    # rebind every alias of a wrapped function, in every axicyl module
    for other in [m for n, m in sys.modules.items() if n == "axicyl" or n.startswith("axicyl.")]:
        for attr, obj in list(vars(other).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(other, attr, hit[1])


class _WrapWhenImported(importlib.abc.MetaPathFinder):
    """Wraps a layer the CLI imports lazily (manufactured pulls in sympy) once
    it is imported, so tracing does not add that import to other workloads."""

    def __init__(self, tracer: Tracer, pending: dict[str, str]):
        self.tracer = tracer
        self.pending = pending  # module name -> layer

    def find_spec(self, fullname, path, target=None):
        layer = self.pending.pop(fullname, None)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            _wrap_module(self.tracer, layer, module)

        spec.loader.exec_module = exec_module
        return spec


def install() -> Tracer:
    """Wrap the layer modules' public API in place and return the tracer."""
    tracer = Tracer()
    importlib.import_module("axicyl.cli")
    pending = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"axicyl.{layer}")
        if mod is None:
            pending[f"axicyl.{layer}"] = layer
        else:
            _wrap_module(tracer, layer, mod)
    if pending:
        sys.meta_path.insert(0, _WrapWhenImported(tracer, pending))
    return tracer
