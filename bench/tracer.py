"""Span tracer that wraps vancoh's public functions from outside.

Installing a ``Tracer`` replaces every binding of each public function of
the ``loader``, ``model``, ``engine``, ``linalg``, ``report`` and ``cli``
modules with a wrapper, in every loaded module: ``engine`` and ``cli``
import functions by name, so wrapping the defining module alone would miss
most calls.  Uninstalling restores the originals.

Each call records a span (name, start, end, parent, document) in flat
arrays.  A span's self time is its duration minus the durations of its
child spans and minus the tracer's own bookkeeping done inside it.  Calls
into ``linalg`` also record the largest matrix shape and entry bit length
among their arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("loader", "model", "engine", "linalg", "report", "cli")

# Engine stages, timed inclusively over their outermost spans.
STAGES = {
    "engine.build_j": ("engine.build_j",),
    "engine.decompose": ("engine.decompose",),
    "engine.six_term": ("engine.six_term_check",),
    "engine.bounds": ("engine.upper_bound_lowest", "engine.lower_bound_lowest",
                      "engine.min_bound", "engine.polar_bounds"),
}


class Tracer:
    """Records spans while installed; ``collect`` aggregates and resets."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.doc = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self.stack: list[int] = []
        self.doc_id = -1
        self.max_bits = 0
        self.max_cells = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"vancoh.{layer}")
        from vancoh.linalg import IntegerMatrix, Submodule
        self._types = (IntegerMatrix, Submodule)
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for layer in LAYERS:
            mod = sys.modules[f"vancoh.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, measure=layer == "linalg")
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, wrapper)
                            self._saved.append((m, name, fn))

    def uninstall(self) -> None:
        for m, name, fn in reversed(self._saved):
            setattr(m, name, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, qualname: str, fn, measure: bool):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        name_of, parent, doc = self.name_of, self.parent, self.doc
        start, end, excluded, stack = self.start, self.end, self.excluded, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            doc.append(self.doc_id)
            end.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[idx] = t1
                stack.pop()
            if measure:
                self._measure((args, kwargs, result))
            if stack:
                excluded[stack[-1]] += (t0 - t_in) + (perf_counter() - t1)
            return result

        return wrapper

    def _matrices(self, obj, out: list) -> None:
        matrix_type, submodule_type = self._types
        if isinstance(obj, matrix_type):
            out.append(obj)
        elif isinstance(obj, submodule_type):
            out.append(obj.basis)
        elif isinstance(obj, (tuple, list)):
            for x in obj:
                self._matrices(x, out)
        elif isinstance(obj, dict):
            for x in obj.values():
                self._matrices(x, out)

    def _measure(self, obj) -> None:
        found: list = []
        self._matrices(obj, found)
        for m in found:
            cells = m.rows * m.cols
            if not cells:
                continue
            if cells > self.max_cells:
                self.max_cells = cells
            top = max(max(r) for r in m.data)
            low = min(min(r) for r in m.data)
            bits = max(top, -low).bit_length()
            if bits > self.max_bits:
                self.max_bits = bits

    # -- aggregation --------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """(name, start, end, parent index, document) of every span so far."""
        return [(self.names[self.name_of[i]], self.start[i], self.end[i],
                 self.parent[i], self.doc[i]) for i in range(len(self.start))]

    def collect(self) -> dict:
        """Calls, self time and stage time per function; then reset."""
        n = len(self.start)
        names, name_of, parent = self.names, self.name_of, self.parent
        start, end, excluded = self.start, self.end, self.excluded
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]

        stage_bit = {}
        for k, (stage, members) in enumerate(STAGES.items()):
            for member in members:
                stage_bit[member] = (stage, 1 << k)
        bit_of = [stage_bit.get(name, (None, 0)) for name in names]
        mask = [0] * n

        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        stage_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            nid = name_of[i]
            name = names[nid]
            dur = end[i] - start[i]
            calls[name] += 1
            self_s[name] += dur - child[i] - excluded[i]
            p = parent[i]
            if p >= 0:
                mask[i] = mask[p] | bit_of[name_of[p]][1]
            stage, bit = bit_of[nid]
            if bit and not mask[i] & bit:
                stage_s[stage] += dur

        out = {"calls": dict(calls), "self_s": dict(self_s), "stage_s": dict(stage_s),
               "max_entry_bits": self.max_bits, "max_cells": self.max_cells,
               "spans": n}
        for arr in (self.name_of, self.parent, self.doc, self.start, self.end, self.excluded):
            del arr[:]
        self.max_bits = 0
        self.max_cells = 0
        return out
