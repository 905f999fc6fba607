"""Span tracing of the library's layers from outside the package.

Every public function of every layer module is replaced, in each module
namespace that holds it, by a wrapper that opens a span on entry and closes
it on exit.  A span's parent is the span open when it started, so a span's
self time is its duration minus the durations of its direct children.  The
specify workload opens millions of spans, so each closed span is folded into
per-function totals at once instead of being kept.  Counters that the
benchmark needs but no function returns directly (terms before and after
pruning, multiplications, ...) are taken from arguments and results by
per-function hooks, outside the span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "perms",
    "embeddings",
    "restrictions",
    "system",
    "disambiguate",
    "counting",
    "sampler",
    "oracle",
    "jsonio",
)


def _coefficients_hook(counts, args, result):
    spec, order = args[0], args[1]
    # schoolbook convolution: one product per (term, child after the first,
    # size n, split m < n), i.e. (k - 1) * order * (order - 1) / 2 per term
    k_minus_one = sum(
        len(t.children) - 1 for eq in spec.equations.values() for t in eq.terms
    )
    counts["counting.coefficients.mults"] += k_minus_one * order * (order - 1) // 2
    counts["counting.cN_bits"] += result[spec.root][order].bit_length()


def _prune_hook(counts, args, result):
    counts["system.prune_terms.terms_in"] += len(args[0])
    counts["system.prune_terms.terms_out"] += len(result)


def _disambiguate_hook(counts, args, result):
    counts["disambiguate.terms_in"] += len(args[0].terms)
    counts["disambiguate.terms_out"] += len(result.terms)


def _specification_hook(counts, args, result):
    counts["disambiguate.equations"] += len(result.equations)
    counts["disambiguate.terms"] += sum(len(eq.terms) for eq in result.equations.values())


HOOKS = {
    "counting.coefficients": _coefficients_hook,
    "system.prune_terms": _prune_hook,
    "disambiguate.disambiguate": _disambiguate_hook,
    "disambiguate.specification": _specification_hook,
}


def _is_cached(obj) -> bool:
    return callable(getattr(obj, "cache_info", None))


def layer_functions() -> dict[str, object]:
    """'layer.name' -> function, for every public function a layer defines."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"permspec.{layer}"]
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if (inspect.isfunction(obj) or _is_cached(obj)) and getattr(
                obj, "__module__", None
            ) == module.__name__:
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Per-function span totals: calls, inclusive seconds, self seconds."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = [[0.0]]
        self._cached: dict[str, object] = {}
        self._cache_before: dict[str, object] = {}

    def _close(self, name: str, duration: float, child: float) -> None:
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        self._stack[-1][0] += duration

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one call's work."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._close(name, duration, frame[0])

    def _wrap(self, name: str, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                close(name, duration, frame[0])
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every layer function for its wrapper in every permspec module
        namespace that holds it; restore the originals on exit."""
        originals = layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        self._cached = {n: fn for n, fn in originals.items() if _is_cached(fn)}
        self._cache_before = {n: fn.cache_info() for n, fn in self._cached.items()}
        namespaces = [
            vars(module)
            for name, module in list(sys.modules.items())
            if name == "permspec" or name.startswith("permspec.")
        ]
        swapped = []
        for ns in namespaces:
            for attr, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    ns[attr] = wrapper
                    swapped.append((ns, attr, value))
        try:
            yield self
        finally:
            for ns, attr, value in swapped:
                ns[attr] = value

    def cache_counts(self) -> dict[str, list[int]]:
        """[hits, misses] of each memoized layer function while installed."""
        out = {}
        for name, fn in self._cached.items():
            info, before = fn.cache_info(), self._cache_before[name]
            out[name] = [info.hits - before.hits, info.misses - before.misses]
        return out
