"""Timing spans installed from outside the program, and the statistics the
benchmark derives from them.

A ``Recorder`` replaces a function at the module attribute where its caller
looks it up with a wrapper that records one span per call: name, start,
end, thread and the enclosing span of the same thread. Spans stay in memory
until the caller writes them out. ``restore`` puts every original back.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Recorder",
    "union_length",
    "self_time",
    "tail_percentile",
]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list[tuple[tuple, dict, Any]]] = {}
        self._stack = threading.local()
        self._originals: list[tuple[Any, str, Callable]] = []

    def wrap(self, owner: Any, attr: str, name: str, keep: bool = False) -> None:
        """Record a span named `name` around every call of `owner.attr`; with
        `keep`, also remember each call's arguments and result."""
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack.__dict__.setdefault("names", [])
            parent = stack[-1] if stack else None
            stack.append(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(name, start, end, threading.get_ident(), parent)
                )
            if keep:
                recorder.results.setdefault(name, []).append((args, kwargs, result))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the part its children cover.

    Children may overlap one another (spans of pool threads do), so the
    covered part is the length of their union, clipped to the parent.
    """
    clipped = [
        (max(start, s), min(end, e)) for s, e in children if min(end, e) > max(start, s)
    ]
    return (end - start) - union_length(clipped)


_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def tail_percentile(samples: Iterable[float], beyond: int = 10) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) for the highest percentile of a
    fixed ladder that leaves at least `beyond` samples above its rank.

    The value is the nearest-rank percentile. None when even the median
    leaves fewer than `beyond` samples above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in _LADDER:
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
        if n - rank >= beyond:
            best = (pct, ordered[rank - 1], n)
    return best

