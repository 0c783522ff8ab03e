"""Spans around pdckit's public functions, recorded from outside the program.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper, in every pdckit namespace that holds it (hom_reference
imports `reduced_density` from jsa by name, for example), and
`uninstall()` puts the originals back.  A wrapper records a span
(name, start, end, parent) in memory; `layer_metrics()` turns the spans
into per-function busy time, self time and call counts per round.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("scenario", "cli", "jsa", "hom_reference", "photon_stats", "twin_hom")


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.first_round = None
        self.rounds = 0
        self.busy = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        self.grid_n = 0
        self.em_iterations = 0
        self._stack = []
        self._restore = []

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, time.perf_counter(), parent)
                stack.pop()
            self._observe(label, result)
            return result

        return wrapper

    def _observe(self, label: str, result) -> None:
        if label == "jsa.evaluate_jsa":
            self.grid_n = max(self.grid_n, *result.amplitude.shape)
        elif label in ("photon_stats.ml_invert", "photon_stats.invert_loss_only"):
            self.em_iterations += result.iterations

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if n == "pdckit" or n.startswith("pdckit.")]
        for short in MODULES:
            module = importlib.import_module(f"pdckit.{short}")
            for name, fn in _public_functions(module):
                wrapper = self._wrap(f"{short}.{name}", fn)
                for space in namespaces:
                    for attr, value in list(vars(space).items()):
                        if value is fn:
                            self._restore.append((space, attr, fn))
                            setattr(space, attr, wrapper)
            for cls_name in getattr(module, "__all__", ()):
                cls = getattr(module, cls_name)
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for attr, value in list(vars(cls).items()):
                    if isinstance(value, classmethod) and not attr.startswith("_"):
                        wrapped = self._wrap(f"{short}.{attr}", value.__func__)
                        self._restore.append((cls, attr, value))
                        setattr(cls, attr, classmethod(wrapped))

    def uninstall(self) -> None:
        for space, attr, value in reversed(self._restore):
            setattr(space, attr, value)
        self._restore.clear()

    def end_round(self) -> None:
        """Fold this round's spans into the totals and start afresh.

        Busy time counts a span only when no enclosing span has the same
        name, so a function that calls itself is not counted twice.  The
        first round's spans are kept for `write`.
        """
        spans = self.spans
        for name, start, end, parent in spans:
            duration = end - start
            self.calls[name] += 1
            self.own[name] += duration
            if parent >= 0:
                self.own[spans[parent][0]] -= duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                self.busy[name] += duration
        if self.first_round is None:
            self.first_round = list(spans)
        spans.clear()
        self.rounds += 1

    def layer_metrics(self) -> dict[str, float]:
        """Per-round busy seconds (.s), self seconds (.self_s) and .calls."""
        metrics = {}
        for name in self.calls:
            metrics[f"{name}.s"] = self.busy[name] / self.rounds
            metrics[f"{name}.self_s"] = self.own[name] / self.rounds
            metrics[f"{name}.calls"] = self.calls[name] / self.rounds
        metrics["jsa.grid_n"] = self.grid_n
        metrics["jsa.grid_mb"] = self.grid_n**2 * 16 / 2**20
        metrics["photon_stats.em_iterations"] = self.em_iterations / self.rounds
        return metrics

    def write(self, path) -> None:
        """Write the first traced round's spans as JSON lines, from its start."""
        spans = self.first_round or []
        origin = spans[0][1] if spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent in spans:
                handle.write(json.dumps({"name": name, "start": start - origin,
                                         "end": end - origin, "parent": parent}) + "\n")
