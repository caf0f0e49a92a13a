"""In-memory span tracer that wraps library functions from outside.

The benchmark never edits the library: it swaps named functions and
methods for timing (or counting) wrappers while a traced run is active
and puts the originals back afterwards, so the untraced run measures
unmodified code.

A span is ``[name, start, end, parent]`` where ``parent`` is the index
of the enclosing span in ``Tracer.spans`` (-1 for a root). Self time is
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        # counts[(root span name, counter name)]; roots separate set-up from ops
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int = 1) -> None:
        root = self.spans[self._stack[0]][0] if self._stack else ""
        self.counts[(root, name)] += n

    def timed(self, name: str, fn, on_call=None):
        """Wrap ``fn`` in a span; ``on_call(args, kwargs)`` runs first, untimed."""

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that each call is counted but not timed."""

        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; ``owner`` is a
        module or a class."""
        if isinstance(owner, type):
            self.patch_method(owner, attr, make)
        else:
            self.patch_function(owner, attr, make)

    def patch_function(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(original)`` in every loaded
        module of the same package that holds the same object, so names
        imported with ``from x import f`` are wrapped too."""
        original = getattr(module, attr)
        wrapper = make(original)
        package = module.__name__.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, make) -> None:
        """Replace a method (plain or classmethod) defined on ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(make(original.__func__))
        else:
            wrapper = make(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method) of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def roots_of(spans) -> list[int]:
    """Index of the root span of each span (parents precede children)."""
    roots: list[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots


def children_of(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            kids.setdefault(parent, []).append(i)
    return kids


def self_times(spans) -> list[float]:
    """Duration minus the union of child intervals, clipped to the span."""
    kids = children_of(spans)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(kids.get(i, ()), key=lambda k: spans[k][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
