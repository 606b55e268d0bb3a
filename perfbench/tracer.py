"""Outside-in tracer: wraps every public function of each modclass module.

A layer is one module of ``src/modclass``.  ``Tracer.install`` replaces each
public function defined in a layer module by a timing wrapper, in every
namespace that bound it: the defining module, each ``from .x import y`` copy
in the other modclass modules, and the package ``__init__``.  Calls made
through module globals therefore hit the wrappers too.  Methods and private
helpers are not wrapped; their time is booked to the wrapped function that
called them.

Spans are kept in memory as flat ``(function, parent, start_ns, end_ns)``
records and written once, by ``write``, after the measurement.  Self time is
a span's duration minus the durations of its child spans.  Total time counts
only the outermost span of a recursive function.  Generator functions are
timed per ``next()``, so the work of their body is not booked to the consumer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("dsl", "rings", "ideals", "modules", "decompose", "properties", "pp", "classify", "corpus", "cli")

# Ring constructors, whose allocations are measured with tracemalloc.
CONSTRUCTORS = frozenset(
    "rings." + name
    for name in (
        "cyclic_ring",
        "galois_field",
        "least_irreducible_poly",
        "matrix_ring",
        "triangular_ring",
        "poly_quotient_ring",
        "product_ring",
        "ring_from_tables",
    )
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Counters taken at the layer boundary from arguments and results.  Each hook
# reads only what the current signatures expose and skips what is missing.


def _count_axioms(c, args, kwargs, report):
    c["rings.verify_ring_axioms.triples"] += int(getattr(report, "checked_triples", 0))
    c["rings.verify_ring_axioms.sampled"] += getattr(report, "mode", None) == "sampled"


def _count_lattice(c, args, kwargs, result):
    c["modules.lattice_size"] += len(result)


def _count_hom_mask(c, args, kwargs, mask):
    c["modules.hom_candidates"] += len(mask)
    c["modules.hom_valid"] += int(mask.sum())


def _count_hom_iter(c, args, kwargs, _gen):
    source, target = _arg(args, kwargs, 0, "source"), _arg(args, kwargs, 1, "target")
    rng = _arg(args, kwargs, 3, "rng")
    draws = _arg(args, kwargs, 4, "random_tries", 20_000)
    space = target.size**source.num_generators
    drawn = draws if rng is not None and space > 1 else 0
    c["modules.hom_candidates"] += space + drawn
    c["modules.iter_hom_images.random_draws"] += drawn


def _count_flat(c, args, kwargs, report):
    c["properties.checked_relations"] += int(getattr(report, "checked_relations", 0))


def _witness_space(module, phi) -> int:
    return module.size ** (phi.free + phi.bound)


def _count_invariant(c, args, kwargs, _result):
    module = _arg(args, kwargs, 0, "module")
    phi, psi = _arg(args, kwargs, 1, "phi"), _arg(args, kwargs, 2, "psi")
    c["pp.witness_space"] += _witness_space(module, phi) + _witness_space(module, psi)


def _count_pp_evaluate(c, args, kwargs, _result):
    c["pp.witness_space"] += _witness_space(_arg(args, kwargs, 0, "module"), _arg(args, kwargs, 1, "phi"))


HOOKS = {
    "rings.verify_ring_axioms": _count_axioms,
    "modules.all_submodules": _count_lattice,
    "modules.hom_image_mask": _count_hom_mask,
    "modules.iter_hom_images": _count_hom_iter,
    "properties.is_flat_module": _count_flat,
    "pp.baur_monk_invariant": _count_invariant,
    "pp.pp_evaluate": _count_pp_evaluate,
}

# Counter bumped once per item a traced generator yields.
ITEM_COUNTERS = {"modules.iter_hom_images": "modules.hom_valid"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[list[int]] = []  # open frames: [span, function, start_ns, child_ns]
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.depth: list[int] = []
        self.top_ns = 0
        self.counters: Counter = Counter()
        self.track_alloc = False
        self.peak_alloc = 0
        self._alloc_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"modclass.{layer}")
        modules = {name: mod for name, mod in sys.modules.items() if name == "modclass" or name.startswith("modclass.")}
        for layer in LAYERS:
            mod = modules[f"modclass.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for namespace in modules.values():
                    for bound, value in list(vars(namespace).items()):
                        if value is obj:
                            self._patches.append((namespace, bound, obj))
                            setattr(namespace, bound, wrapper)

    def uninstall(self) -> None:
        for namespace, bound, original in reversed(self._patches):
            setattr(namespace, bound, original)
        self._patches.clear()

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the installed wrappers."""
        del self.spans[:]
        for column in (self.calls, self.self_ns, self.total_ns):
            column[:] = [0] * len(column)
        self.top_ns = 0
        self.counters.clear()

    # -- span bookkeeping ------------------------------------------------------
    # The wrappers below inline their bookkeeping: a function call per span
    # would double the tracer's cost on the hottest paths.  A frame on the
    # stack is [span index, time spent in child spans].

    def _alloc_start(self) -> None:
        if self.track_alloc and not self._alloc_depth:
            tracemalloc.start()
        self._alloc_depth += 1

    def _alloc_stop(self) -> None:
        self._alloc_depth -= 1
        if self.track_alloc and not self._alloc_depth:
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _wrap(self, name: str, func):
        fn = len(self.names)
        self.names.append(name)
        for column in (self.calls, self.self_ns, self.total_ns, self.depth):
            column.append(0)
        hook = HOOKS.get(name)
        counters, stack, spans = self.counters, self.stack, self.spans
        calls, self_ns, total_ns, depth = self.calls, self.self_ns, self.total_ns, self.depth
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(func):
            item_counter = ITEM_COUNTERS.get(name)

            # One span per next(), aggregated but not stored: a consumer can
            # pull millions of items.  Spans opened inside a next() record the
            # consumer's span as their parent.
            @functools.wraps(func)
            def traced_generator(*args, **kwargs):
                inner = func(*args, **kwargs)
                if hook:
                    hook(counters, args, kwargs, inner)
                try:
                    while True:
                        parent = stack[-1] if stack else None
                        frame = [parent[0] if parent else -1, 0]
                        stack.append(frame)
                        depth[fn] += 1
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            elapsed = clock() - start
                            stack.pop()
                            calls[fn] += 1
                            self_ns[fn] += elapsed - frame[1]
                            depth[fn] -= 1
                            if not depth[fn]:
                                total_ns[fn] += elapsed
                            if parent:
                                parent[1] += elapsed
                            else:
                                self.top_ns += elapsed
                        if item_counter:
                            counters[item_counter] += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        alloc = name in CONSTRUCTORS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if alloc:
                self._alloc_start()
            parent = stack[-1] if stack else None
            frame = [len(spans) >> 2, 0]
            spans.extend((fn, parent[0] if parent else -1, 0, 0))
            stack.append(frame)
            depth[fn] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                spans[4 * frame[0] + 2] = start
                spans[4 * frame[0] + 3] = end
                calls[fn] += 1
                self_ns[fn] += elapsed - frame[1]
                depth[fn] -= 1
                if not depth[fn]:
                    total_ns[fn] += elapsed
                if parent:
                    parent[1] += elapsed
                else:
                    self.top_ns += elapsed
                if alloc:
                    self._alloc_stop()
            if hook:
                hook(counters, args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------------

    def stat(self, name: str, field: str) -> float:
        if name not in self.names:
            return 0
        i = self.names.index(name)
        return {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9, "total_s": self.total_ns[i] / 1e9}[field]

    def self_s(self, prefix: str) -> float:
        return sum(self.self_ns[i] for i, name in enumerate(self.names) if name.startswith(prefix)) / 1e9

    def write(self, stem: Path, extra: dict) -> None:
        """Write the function table and counters as JSON, and the spans as an
        (n, 4) int64 array of (function, parent span, start_ns, end_ns)."""
        functions = {
            name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9, "total_s": self.total_ns[i] / 1e9}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        payload = {**extra, "functions": functions, "counters": dict(self.counters), "names": self.names}
        stem.with_suffix(".json").write_text(json.dumps(payload, indent=1), encoding="utf-8")
        np.save(stem.with_suffix(".npy"), np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4))
