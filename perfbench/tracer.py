"""Span tracing of the library from outside it.

``install`` wraps the public functions of every layer module, plus the
few private kernels the per-layer metrics need, and rebinds each wrapper
under every name a ``multiarm`` module holds the function by (so
``design_known.equicorr_max_quantile`` is traced as well as
``distributions.equicorr_max_quantile``). Dataclass validation in
``multiarm.model`` is traced by wrapping each ``__post_init__``.

Spans are kept in memory as a call tree aggregated by path: each node
holds the calls, total and self time of one span name under one parent
path, plus counters (nodes, rows, draws, ...). Self time is the span's
duration minus that of its child spans. The tree is written out when the
run ends. Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

LAYERS = (
    "model",
    "distributions",
    "_quad",
    "posterior",
    "design_known",
    "design_unknown",
    "dunnett",
    "montecarlo",
    "datasets",
)

# Private kernels that per-layer metrics are defined on.
PRIVATE = {
    "_quad": ("_adaptive_quad",),
    "distributions": ("_normal_max_cdf_batch",),
    "posterior": ("_joint_below_given_control", "_all_below_known_batch"),
}


class Node:
    __slots__ = ("name", "calls", "total", "self_time", "counters", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters: dict[str, float] = {}
        self.children: dict[str, Node] = {}

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "counters": self.counters,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    """Collects spans into a call tree; ``reset`` starts a new pass."""

    def __init__(self) -> None:
        self.node_build_s = 0.0
        self.node_cache: Any = None
        self.reset()

    def reset(self) -> None:
        self.root = Node("root")
        self._stack: list[list[Any]] = [[self.root, 0.0, 0.0]]
        self.quantile_requests = 0
        self.quantile_repeats = 0
        self._quantile_keys: set[tuple] = set()

    def enter(self, name: str) -> Node:
        parent = self._stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        self._stack.append([node, time.perf_counter(), 0.0])
        return node

    def exit(self) -> None:
        node, start, child_time = self._stack.pop()
        duration = time.perf_counter() - start
        node.calls += 1
        node.total += duration
        node.self_time += duration - child_time
        self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        node = self.enter(name)
        try:
            yield node
        finally:
            self.exit()

    def note_quantile(self, key: tuple) -> None:
        self.quantile_requests += 1
        if key in self._quantile_keys:
            self.quantile_repeats += 1
        else:
            self._quantile_keys.add(key)

    def process_counters(self) -> dict[str, float]:
        info = self.node_cache.cache_info() if self.node_cache is not None else None
        return {
            "node_cache_misses": float(info.misses if info else 0),
            "node_build_s": self.node_build_s,
        }

    def dump(self) -> dict[str, Any]:
        return {
            "tree": self.root.to_dict(),
            "process": self.process_counters(),
            "quantile_requests": self.quantile_requests,
            "quantile_repeats": self.quantile_repeats,
        }


def _rows(offsets: Any) -> int:
    shape = getattr(offsets, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


def _make_wrapper(tracer: Tracer, layer: str, short: str, fn: Callable) -> Callable:
    """A span named ``layer.short`` around ``fn``, with the counters its
    metrics need."""
    name = f"{layer}.{short}"

    if short in ("refine", "refine_vector"):

        @functools.wraps(fn)
        def refine_wrapper(evaluate, *args, **kwargs):
            node = tracer.enter(name)
            sizes: list[int] = []

            def counted(n: int):
                sizes.append(n)
                return evaluate(n)

            try:
                result = fn(counted, *args, **kwargs)
                node.count("accepted_nodes", sizes[-1])
                return result
            finally:
                node.count("evaluated_nodes", sum(sizes))
                tracer.exit()

        return refine_wrapper

    def span_name(args: tuple, kwargs: dict) -> str:
        if short == "decide":
            precision = args[1] if len(args) > 1 else kwargs["precision"]
            kind = {
                "KnownPrecision": "known",
                "PerArmPrecision": "per_arm",
                "GammaPrecision": "gamma",
            }[type(precision).__name__]
            return f"{name}.{kind}"
        if short == "equicorr_max_cdf":
            spec = args[0] if args else kwargs["spec"]
            return f"{name}.{'normal' if spec.df == float('inf') else 't'}"
        return name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        node = tracer.enter(span_name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if short == "legendre_rule":
            node.count("nodes", args[2] if len(args) > 2 else kwargs["n"])
        elif short == "_joint_below_given_control":
            node.count("rows", _rows(args[1] if len(args) > 1 else kwargs["offsets"]))
        elif short == "equicorr_max_quantile":
            spec = args[0] if args else kwargs["spec"]
            p = args[1] if len(args) > 1 else kwargs["p"]
            tracer.note_quantile((spec.k, spec.rho, spec.df, p))
        elif short == "posterior_probs":
            mc = args[3] if len(args) > 3 else kwargs["mc"]
            node.count("draws", mc.n_draws)
        elif short == "boundary_curve":
            node.count("points", len(result.points))
        return result

    return wrapper


def _wrap_post_init(tracer: Tracer, cls: type) -> None:
    original = cls.__post_init__

    @functools.wraps(original)
    def post_init(self):
        tracer.enter("model.construct")
        try:
            original(self)
        finally:
            tracer.exit()

    cls.__post_init__ = post_init


def _timed_node_cache(tracer: Tracer, quad: Any) -> None:
    """Replace the cached Gauss-Legendre rule function with a timed one
    holding a fresh cache of the same size, so misses and build time
    count from the moment tracing starts."""
    build = quad._leggauss.__wrapped__
    maxsize = quad._leggauss.cache_parameters()["maxsize"]

    def timed(n: int):
        start = time.perf_counter()
        try:
            return build(n)
        finally:
            tracer.node_build_s += time.perf_counter() - start

    cached = functools.lru_cache(maxsize=maxsize)(timed)
    quad._leggauss = cached
    tracer.node_cache = cached


def install(tracer: Tracer) -> None:
    """Wrap every layer of the already importable ``multiarm`` package."""
    modules = {layer: importlib.import_module(f"multiarm.{layer}") for layer in LAYERS}
    importlib.import_module("multiarm.cli")
    wrapped: dict[int, Callable] = {}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                if layer == "model" and hasattr(value, "__post_init__"):
                    _wrap_post_init(tracer, value)
                continue
            own = inspect.isfunction(value) and value.__module__ == module.__name__
            if (own and not attr.startswith("_")) or attr in PRIVATE.get(layer, ()):
                wrapped[id(value)] = _make_wrapper(tracer, layer.lstrip("_"), attr, value)
    package = [m for name, m in sys.modules.items() if name == "multiarm" or name.startswith("multiarm.")]
    for module in package:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and callable(value):
                setattr(module, attr, wrapped[id(value)])
    _timed_node_cache(tracer, modules["_quad"])
