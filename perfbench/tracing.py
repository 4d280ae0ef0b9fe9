"""Spans and counts recorded from outside the program, by rebinding module attributes.

Inside the program the layers call each other through module globals
(``enumeration.successor_ln``, ``adjacency.star_factorize``,
``cells.is_lexical``, ``oracle.compare``, ...). While a ``Tracer`` is
installed those globals point at wrappers that record a span (name, start,
end, parent) per call; ``uninstall`` puts every original back.

What is wrapped:

- every function a module imported from another alphaseq module, so each
  call across a layer boundary is a span named after the callee's module;
- the public functions of ``enumeration`` and ``oracle`` at their own
  binding, because ``cli`` and ``oracle.verify_range`` reach them through the
  module object; generators they return get a span per ``next``;
- ``adjacency.star_factorize``, whose calls are counted per workload;
- ``compare`` and ``is_lexical`` only count calls: they run hundreds of
  thousands of times per run, so their time stays with the calling layer.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("core", "cells", "adjacency", "enumeration", "oracle", "cli")
COUNT_ONLY = ("compare", "is_lexical")
# functions wrapped at their own module's binding too: None for all public ones
OWN_BINDINGS = {"enumeration": None, "oracle": None, "adjacency": ("star_factorize",)}


def modules() -> dict[str, types.ModuleType]:
    return {m: importlib.import_module(f"alphaseq.{m}") for m in MODULES}


def layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    short = mod.rpartition(".")[2]
    return short if mod.startswith("alphaseq.") and short in MODULES else None


class Tracer:
    """Spans in flat arrays (a few million per run fit in tens of MB) plus call counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call (and each ``next`` of a generator it returns) is a span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        open_, close = self._open, self._close

        def traced_iter(gen):
            while True:
                idx = open_(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(idx)
                yield item

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            return traced_iter(out) if isinstance(out, types.GeneratorType) else out

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        mods = modules()
        plan = []
        for short, mod in mods.items():
            own = OWN_BINDINGS.get(short, ())
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = layer_of(value)
                if home is None:
                    continue
                if attr in COUNT_ONLY:
                    plan.append((mod, attr, self.counter(f"{home}.{attr}", value)))
                elif home != short or own is None or attr in own:
                    plan.append((mod, attr, self.span(f"{home}.{attr}", value)))
        for mod, attr, wrapper in plan:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def span_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.name.count(nid)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: span time not covered by child spans.

        Spans that belong to no layer (the benchmark's own) are reported under
        ``bench``.
        """
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layer = [n.partition(".")[0] for n in self.names]
        out: Counter[str] = Counter()
        for i, nid in enumerate(self.name):
            out[layer[nid]] += self.end[i] - self.start[i] - child[i]
        return {k: v / 1e9 for k, v in out.items()}

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        path.parent.mkdir(exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
