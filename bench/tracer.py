"""Spans around the public functions of each ``apmod`` module, from outside it.

``install`` wraps, in each of the ten layer modules:

* every public module-level function (plain or ``lru_cache``), plus the
  private entry points in ``EXTRA_FUNCTIONS`` that the per-layer metrics
  name, in every ``apmod`` namespace that binds it: ``from .primes import
  least_prime_factor_table`` in ``progressions`` is wrapped as well as the
  definition in ``primes``.  Spans are named ``<module>.<function>``, with
  a leading ``_`` dropped;
* every public method and static method of every class the module defines,
  such as ``SieveWeights.sums_over_range`` or ``SmoothBump.hat``, named
  ``<module>.<Class>.<method>``.  Properties, ``_``-prefixed and dunder
  methods, and generator methods (whose body runs after the call returns)
  are left alone; their time is the caller's self time.

A wrapper records one span per call (function, parent span, per-job root
span, start and end in ``perf_counter_ns``) in flat in-memory arrays and
calls the original, so ``lru_cache`` behaviour is untouched; ``cache_info``
and ``cache_clear`` stay reachable on the wrapper.  On a cache miss it adds
the ``nbytes`` of the returned arrays to a per-function *computed* byte
count.  ``span_cost_ns`` measures, in the same process, what a wrapper adds
to one call, so the cost of tracing a run can be estimated from its span
count.

``self_times`` derives each span's self time (its duration minus the part
its child spans cover) from the arrays alone, so it also runs on a span
file written by another process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from array import array
from time import perf_counter_ns

LAYERS = (
    "primes",
    "progressions",
    "identities",
    "harman",
    "expsums",
    "arith",
    "buchstab",
    "completion",
    "dispersion",
    "cli",
)

# entry points the per-layer metrics name that are not public module functions
EXTRA_FUNCTIONS = {"expsums": ("_pair_tables",)}
# span_cost_ns: calls per timing, and timings whose median it reports
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 5


def _nbytes(value) -> int:
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("q")
        self.end = array("q")
        self.bytes_built: dict[str, int] = {}
        self.cache_info: dict[str, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """A span-recording stand-in for ``fn`` reported as ``name``."""
        fid = len(self.names)
        self.names.append(name)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            self.cache_info[name] = info
            self.bytes_built[name] = 0
        stack, fns, parents, roots = self._stack, self.fn, self.parent, self.root
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            roots.append(stack[0] if stack else idx)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            misses = info().misses if info is not None else 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()
            if info is not None and info().misses != misses:
                self.bytes_built[name] += _nbytes(result)
            return result

        if info is not None:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> None:
        """Wrap the layer functions and methods in every loaded ``apmod`` namespace."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"apmod.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
                    continue
                routine = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                named = attr in EXTRA_FUNCTIONS.get(layer, ())
                if routine and (not attr.startswith("_") or named):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr.lstrip('_')}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "apmod" and not mod_name.startswith("apmod."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            static = isinstance(obj, staticmethod)
            fn = obj.__func__ if static else obj
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or inspect.isgeneratorfunction(fn):
                continue
            wrapper = self.wrap(f"{prefix}.{attr}", fn)
            setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def span_cost_ns(self) -> dict[str, float]:
        """Median ns a wrapper adds to one call: {"plain": ..., "cached": ...}.

        Times ``CALIBRATION_CALLS`` calls of an empty function with and without
        its wrapper, ``CALIBRATION_REPEATS`` times, for a plain and an
        ``lru_cache`` function
        (whose wrapper also reads ``cache_info``).  The calibration spans are
        dropped again, so the arrays keep only the spans recorded before.
        """
        n_names, n_spans = len(self.names), len(self.fn)

        def empty():
            return None

        out = {}
        for kind, fn in (("plain", empty), ("cached", functools.lru_cache(maxsize=1)(empty))):
            wrapped = self.wrap(f"calibration.{kind}", fn)
            samples = []
            for _ in range(CALIBRATION_REPEATS):
                t0 = perf_counter_ns()
                for _ in range(CALIBRATION_CALLS):
                    fn()
                t1 = perf_counter_ns()
                for _ in range(CALIBRATION_CALLS):
                    wrapped()
                t2 = perf_counter_ns()
                samples.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
                for column in self.arrays().values():
                    del column[n_spans:]
            out[kind] = statistics.median(samples)
            name = self.names.pop()
            self.cache_info.pop(name, None)
            self.bytes_built.pop(name, None)
        assert len(self.names) == n_names
        return out

    def cache_stats(self) -> dict[str, dict[str, int]]:
        out = {}
        for name, info in self.cache_info.items():
            ci = info()
            out[name] = {
                "hits": ci.hits,
                "misses": ci.misses,
                "bytes_built": self.bytes_built[name],
            }
        return out

    def arrays(self) -> dict[str, array]:
        return {
            "fn": self.fn,
            "parent": self.parent,
            "root": self.root,
            "start": self.start,
            "end": self.end,
        }


def self_times(parent, start, end):
    """Per-span self time in ns: duration minus the time its children cover.

    Spans come from one thread and nest, so a span's children are disjoint
    intervals inside it and the covered time is the sum of their durations.
    """
    import numpy as np

    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered
