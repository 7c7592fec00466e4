"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on the
``perf_counter`` clock, the span that was open when it started, and
optional attributes computed from the call.  Spans stay in memory; the
benchmark reduces them to per-layer metrics when the run ends.
"""

from __future__ import annotations

import time


class Tracer:
    """Records spans for functions wrapped at the names callers use."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: list = []
        self._open: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``attrs(args, kwargs, result)`` may return a value stored with the
        span; it runs after the span has ended, so it is not timed.
        """
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.attrs.append(None)
            self.ends.append(0.0)
            self._open.append(i)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                self.attrs[i] = attrs(args, kwargs, result)
            return result

        return traced

    def replace(self, owner, attr: str, value):
        """Set ``owner.attr`` to ``value`` until ``restore``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, attrs=None):
        """Replace ``owner.attr`` by its traced wrapper until ``restore``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]


def self_times(parents, durations) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(durations)
    for child, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[child]
    return [d - c for d, c in zip(durations, covered)]


def has_ancestor(parents, names, index: int, name: str) -> bool:
    """True when some enclosing span of span ``index`` is named ``name``."""
    p = parents[index]
    while p >= 0:
        if names[p] == name:
            return True
        p = parents[p]
    return False
