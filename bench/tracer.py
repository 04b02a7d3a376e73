"""In-memory span recorder that wraps functions at their lookup site.

A span is (name, start, end, parent); the parent is the span that was open
when this one started, so spans nest the way the calls did. Spans live in
four flat lists rather than one object per span: a traced training run
records tens of thousands of them, and per-span container objects would
drive the garbage collector harder than the untraced program does.

`patch` replaces an attribute on a module or class and remembers the
original; `restore` puts every original back, newest first.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Union

NameFn = Union[str, Callable[..., str]]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: NameFn) -> Callable:
        """`fn` recorded as a span; `name` may be a function of the call
        arguments, for one callable that serves several layers."""
        begin, end = self.begin, self.end
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)
        return traced

    def counted(self, fn: Callable, key: str) -> Callable:
        """`fn` counted under `key`, with no span (for calls too frequent
        and too small to time one by one)."""
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return tallied

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement: Callable) -> None:
        """Set owner.attr, keeping the original for restore()."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span never overlap (one caller, no threads), so the
        time they cover is the sum of their durations."""
        durs = self.durations()
        out = list(durs)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= durs[idx]
        return out

    def totals(self) -> dict:
        """{name: (calls, total self seconds, total inclusive seconds)}."""
        out: dict = {}
        for name, own, dur in zip(self.names, self.self_times(),
                                  self.durations()):
            calls, s, d = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, s + own, d + dur)
        return out

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False
