"""Per-layer spans recorded from outside the program.

:func:`install` replaces every public function of the liqlab layer modules
with a wrapper that times the call, in every liqlab namespace that holds a
reference to it (``from .golden import golden_section_max`` copies the name
into ``impact`` and ``catbond``, so each copy is rebound).  Spans nest on a
stack: a span's self time is its duration minus the time of the spans it
directly contains.  A few wrappers also count work the call did (bytes
written, recurrence steps, objective evaluations).

Everything is kept in memory and read once with :meth:`Tracer.snapshot`.
"""

from __future__ import annotations

import inspect
import time
from types import ModuleType

LAYERS = ("cli", "config", "experiments", "paths", "kernels", "golden",
          "impact", "catbond", "cycle", "cpmm")

# Left unwrapped because a wrapper would cost about as much as the call:
# fmt runs once per CSV cell (1.6 M times for 200 x 4096 paths), the growth
# functions once per objective evaluation (golden.fn_evals counts those).
# Their time stays in the caller's span.
UNWRAPPED = {"experiments.fmt", "catbond.single_bond_growth",
             "catbond.two_bond_growth", "impact.growth_per_time_fou"}


class _Span:
    __slots__ = ("calls", "incl", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        self.counts = {"experiments.write_csv.bytes": 0,
                       "kernels.self_financing.steps": 0,
                       "kernels.fou_euler.steps": 0,
                       "golden.fn_evals": 0,
                       "golden.max_iter_hits": 0,
                       "paths.auto_fallbacks": 0}
        self._stack: list[float] = []

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, _Span())
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(self, signature, args, kwargs)
            stack.append(0.0)
            span.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_time += elapsed - inner
                if span.depth == 0:
                    span.incl += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                after(result)
            return result

        return traced

    def snapshot(self) -> dict:
        spans = {name: {"calls": s.calls, "s": s.incl, "self_s": s.self_time}
                 for name, s in self.spans.items()}
        return {"spans": spans, "counts": dict(self.counts)}


def _no_op(result) -> None:
    return None


def _hook_write_csv(tracer, signature, args, kwargs):
    def after(path):
        tracer.counts["experiments.write_csv.bytes"] += path.stat().st_size
    return args, kwargs, after


def _hook_self_financing(tracer, signature, args, kwargs):
    prices = args[0] if args else kwargs["prices"]
    rows, cols = prices.shape
    tracer.counts["kernels.self_financing.steps"] += rows * (cols - 1)
    return args, kwargs, _no_op


def _hook_fou_euler(tracer, signature, args, kwargs):
    shocks = args[4] if len(args) > 4 else kwargs["shocks"]
    tracer.counts["kernels.fou_euler.steps"] += shocks.size
    return args, kwargs, _no_op


def _hook_golden(tracer, signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    objective = bound.arguments["fn"]
    evals = [0]

    def counted(x):
        evals[0] += 1
        return objective(x)

    bound.arguments["fn"] = counted

    def after(result):
        tracer.counts["golden.fn_evals"] += evals[0]
        # two evaluations seed the bracket, then one per iteration
        if evals[0] - 2 >= bound.arguments["max_iter"]:
            tracer.counts["golden.max_iter_hits"] += 1
    return bound.args, bound.kwargs, after


def _hook_generate_fbm(tracer, signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    if bound.arguments["method"] != "auto":
        return args, kwargs, _no_op

    def after(path):
        if path.meta.startswith("cholesky"):
            tracer.counts["paths.auto_fallbacks"] += 1
    return args, kwargs, after


_HOOKS = {"experiments.write_csv": _hook_write_csv,
          "kernels.self_financing": _hook_self_financing,
          "kernels.fou_euler": _hook_fou_euler,
          "golden.golden_section_max": _hook_golden,
          "paths.generate_fbm": _hook_generate_fbm}


def install(package: ModuleType, modules: dict[str, ModuleType]) -> Tracer:
    """Wrap the public functions of each layer module; return the tracer.

    A function bound under several names in its module (``kernels.fou_euler``
    is ``kernels.fou_euler_numpy``) gets one span, named by its shortest name.
    """
    tracer = Tracer()
    wrappers = {}
    for layer in LAYERS:
        module = modules[layer]
        names: dict[int, tuple] = {}
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                names.setdefault(id(obj), (obj, []))[1].append(attr)
        for original, attrs in names.values():
            name = f"{layer}.{min(attrs, key=lambda a: (len(a), a))}"
            if name not in UNWRAPPED:
                wrappers[id(original)] = (original, tracer.wrap(name, original))
    for namespace in [package, *modules.values()]:
        for attr, obj in list(vars(namespace).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(namespace, attr, entry[1])
    return tracer
