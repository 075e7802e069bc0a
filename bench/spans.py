"""Per-layer spans recorded from the benchmark's side of the package boundary.

``install`` walks the imported ``fracvar`` modules at run time and wraps

* every function or class a module imports from another fracvar module,
  rebound in the importing module's namespace (module objects imported as
  ``from . import expr`` are replaced by a proxy whose functions are
  wrapped, and function-valued module dicts such as the CLI's operator table
  have their entries rebound);
* the package's public names (``fracvar.__all__``) in their defining
  module, so same-module calls such as ``ml_eval`` -> ``ml_eval_spectral``
  are seen too;
* the public methods, ``__init__`` and ``__post_init__`` of every class
  reached that way (exceptions excepted).

Nothing is looked up by a hard-coded import path, so renames drop a span
instead of breaking the benchmark. A layer is the defining module's short
name; ``parallel`` counts as ``analysis``.

Spans are aggregated as they close: a span's self time is its duration minus
the durations of its child spans, added to its layer. Counters come from
call arguments and public results (hooks below).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("mlf", "kernel", "grids", "operators", "fde", "expr", "analysis", "cli")
_LAYER_OF = {"parallel": "analysis"}
_SKIP_MODULES = {"errors", "__main__"}

BOUNDED_OPS = {"aux_integral_1", "aux_integral_2", "rl_deriv_ns", "caputo_deriv_ns"}
SINGULAR_OPS = {"rl_integral_varorder", "rl_deriv_classical", "caputo_deriv_classical"}


class Tracer:
    """Span stack plus running totals; one per traced process."""

    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []      # [start, child_time, layer, family]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._wrapped: dict[int, object] = {}

    def totals(self) -> dict[str, float]:
        """Self times and counters accumulated so far."""
        out = {f"{k}.self_s": v for k, v in self.self_s.items()}
        out.update(self.counts)
        return out

    @contextlib.contextmanager
    def recording(self, layer: str):
        """Turn tracing on for the duration of one root span of ``layer``."""
        self.enabled = True
        frame = self._open(layer, None)
        try:
            yield
        finally:
            self._close(frame)
            self.enabled = False

    def _open(self, layer, family):
        parent_family = self.stack[-1][3] if self.stack else None
        frame = [perf_counter(), 0.0, layer, family or parent_family]
        self.stack.append(frame)
        return frame

    def _close(self, frame) -> float:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        layer = frame[2]
        self.self_s[layer] += own
        if layer == "operators" and frame[3]:
            self.self_s[f"operators.{frame[3]}"] += own
        if self.stack:
            self.stack[-1][1] += duration
        return duration

    def wrap(self, fn, layer: str, name: str, hook=None):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        if getattr(fn, "__bench_traced__", False):
            return fn
        family = ("bounded" if name in BOUNDED_OPS else
                  "singular" if name in SINGULAR_OPS else None)
        hook = hook or HOOKS.get(name)
        sig = _signature(fn) if hook is not None else None
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # the work happens on each resume, not when the generator is made
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(layer, family) if tracer.enabled else None
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            tracer._close(frame)
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = tracer._open(layer, family)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = tracer._close(frame)
                if hook is not None:
                    hook(tracer, sig, args, kwargs, result, duration)
                return result

        traced.__bench_traced__ = True
        self._wrapped[key] = traced
        return traced


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _arg(sig, args, kwargs, name, index):
    if sig is not None:
        try:
            return sig.bind(*args, **kwargs).arguments.get(name)
        except TypeError:
            pass
    return args[index] if len(args) > index else kwargs.get(name)


# --- counters ------------------------------------------------------------------------


def _ml_array(tr, sig, args, kwargs, result, duration):
    tr.counts["mlf.evals"] += int(np.size(result))


def _ml_scalar(tr, sig, args, kwargs, result, duration):
    # values the vectorized evaluator reroutes here were counted already
    if tr.stack and tr.stack[-1][2] == "mlf":
        return
    tr.counts["mlf.evals"] += 1


def _ml_spectral(tr, sig, args, kwargs, result, duration):
    tr.counts["mlf.fallback_evals"] += 1


def _operator(tr, sig, args, kwargs, result, duration):
    f = _arg(sig, args, kwargs, "f", 1)
    tr.counts["operators.nodes"] += int(np.size(f.grid))


def _solve(tr, sig, args, kwargs, result, duration):
    iters = np.asarray(result.newton_iters)
    max_newton = getattr(sys.modules.get("fracvar.fde"), "MAX_NEWTON", None)
    tr.counts["fde.newton_iters"] += int(np.sum(iters))
    if max_newton is not None:
        tr.counts["fde.bisection_nodes"] += int(np.sum(iters > max_newton))
    tr.maxima["fde.residual_norm"] = max(tr.maxima["fde.residual_norm"],
                                         float(result.residual_norm))


def _evaluate(tr, sig, args, kwargs, result, duration):
    tr.counts["expr.evals"] += 1


def _from_callable(tr, sig, args, kwargs, result, duration):
    n = int(np.size(result.grid))
    has_deriv = _arg(sig, args, kwargs, "deriv", 5) is not None
    tr.counts["grids.scalar_samples"] += n * (2 if has_deriv else 1)


def _spec_build(tr, sig, args, kwargs, result, duration):
    tr.counts["kernel.spec_builds"] += 1


def _suite(tr, sig, args, kwargs, result, duration):
    name = _arg(sig, args, kwargs, "name", 0)
    tr.counts["analysis.cases"] += sum(int(r.cases_run) for r in result)
    tr.counts[f"analysis.suite_s.{name}"] += duration


HOOKS = {
    "_ml_neg_array": _ml_array,
    "ml_eval": _ml_scalar,
    "ml_eval_spectral": _ml_spectral,
    "solve_fde": _solve,
    "evaluate": _evaluate,
    "from_callable": _from_callable,
    "default_suite_run": _suite,
    **{name: _operator for name in BOUNDED_OPS | SINGULAR_OPS},
}
_CLASS_HOOKS = {("KernelSpec", "__post_init__"): _spec_build}


# --- installation ----------------------------------------------------------------------


def _layer(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) != 2 or parts[0] != "fracvar" or parts[1] in _SKIP_MODULES:
        return None
    return _LAYER_OF.get(parts[1], parts[1])


def _own_class(obj) -> bool:
    return (inspect.isclass(obj) and _layer(obj.__module__) is not None
            and not issubclass(obj, BaseException))


def _wrap_class(tracer: Tracer, cls, done: set) -> None:
    if cls in done:
        return
    done.add(cls)
    layer = _layer(cls.__module__)
    for name, member in list(vars(cls).items()):
        if name.startswith("_") and name not in ("__init__", "__post_init__"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            wrapped = tracer.wrap(member.__func__, layer, name)
            setattr(cls, name, type(member)(wrapped))
        elif inspect.isfunction(member):
            hook = _CLASS_HOOKS.get((cls.__name__, name))
            setattr(cls, name, tracer.wrap(member, layer, name, hook))


class _ModuleProxy(types.ModuleType):
    """Stands in for a fracvar module imported as a module object."""

    def __init__(self, module, tracer: Tracer, layer: str):
        super().__init__(module.__name__)
        self.__dict__["_target"] = module
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                self.__dict__[name] = tracer.wrap(obj, layer, name)

    def __getattr__(self, name):
        return getattr(self.__dict__["_target"], name)


def install(tracer: Tracer) -> list[str]:
    """Wrap the package's layer boundaries; returns the wrapped names."""
    package = importlib.import_module("fracvar")
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name in _SKIP_MODULES:
            continue
        modules[info.name] = importlib.import_module(f"fracvar.{info.name}")
    names: set[str] = set()
    classes: set = set()

    def wrap_function(fn):
        layer = _layer(fn.__module__)
        names.add(f"{layer}:{fn.__name__}")
        return tracer.wrap(fn, layer, fn.__name__)

    # the package's public names, rebound in their defining modules
    for public in getattr(package, "__all__", ()):
        obj = getattr(package, public, None)
        if inspect.isfunction(obj) and _layer(obj.__module__):
            wrapped = wrap_function(obj)
            setattr(sys.modules[obj.__module__], obj.__name__, wrapped)
            setattr(package, public, wrapped)
        elif _own_class(obj):
            _wrap_class(tracer, obj, classes)

    # everything one module imports from another
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            imported = getattr(obj, "__module__", module.__name__) != module.__name__
            if inspect.isfunction(obj) and _layer(obj.__module__) and imported:
                setattr(module, name, wrap_function(obj))
            elif _own_class(obj) and imported:
                _wrap_class(tracer, obj, classes)
            elif isinstance(obj, types.ModuleType) and _layer(obj.__name__) \
                    and obj is not module:
                layer = _layer(obj.__name__)
                setattr(module, name, _ModuleProxy(obj, tracer, layer))
                names.add(f"{layer}:<module {obj.__name__}>")
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and _layer(value.__module__):
                        obj[key] = wrap_function(value)
    names.update(f"{_layer(c.__module__)}:{c.__name__}" for c in classes)
    return sorted(names)
