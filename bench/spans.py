"""Span recorder around the public functions of ebrsim's layers.

Wrapping happens in the benchmark, not in the package: each traced
function is replaced by a wrapper in every ``ebrsim`` module namespace
that binds it, so calls made through ``from .x import f`` bindings are
seen too. Parent stacks are thread-local because sweep points can run on
pool threads; a span opened on a thread with an empty stack is a child
of the open root span (``cli.main``), since one client drives one call
at a time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from array import array
from time import perf_counter


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Records spans while installed and folds them into per-layer totals."""

    def __init__(self, layers: list[tuple[str, str, str]]):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root: int | None = None
        self._spans: list[tuple[int, int | None, str, float, float]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.names = [name for name, _, _ in layers]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.durations = {name: array("d") for name in self.names}
        modules = [m for k, m in sys.modules.items() if k == "ebrsim" or k.startswith("ebrsim.")]
        for name, module, attr in layers:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
                self._spans.append((sid, parent, name, start, end))

        return wrapper

    def install(self) -> None:
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    def fold(self) -> None:
        """Turn the recorded spans into per-layer calls, self time and durations."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, start, end in self._spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for sid, _, name, start, end in self._spans:
            kids = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
            self.calls[name] += 1
            self.self_s[name] += (end - start) - _covered([k for k in kids if k[0] < k[1]])
            self.durations[name].append(end - start)
        self._spans = []

    def p50_us(self, name: str) -> float:
        d = self.durations[name]
        return statistics.median(d) * 1e6 if d else 0.0
