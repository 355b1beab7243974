"""In-memory spans recorded from outside the program.

A :class:`Tracer` records spans (name, start, end, parent, request id)
around the calls the benchmark makes into each layer, and — only while
tracing is on — around selected public methods of the program, which it
patches in :meth:`Tracer.install` and restores in :meth:`Tracer.remove`.
With tracing off nothing is patched and :meth:`Tracer.span` is a no-op,
so the untraced run measures the program as shipped.

Spans are kept in memory and written out once, at the end of the run
(:meth:`Tracer.dump`).  Forked children (cluster workers) stop tracing
at the fork: their spans could never reach the parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_MISSING = object()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "rows")

    def __init__(self, id: int, name: str, start: float, end: float,
                 parent: Optional[int], request: Optional[int],
                 rows: Optional[int] = None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.rows = rows

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration - covered(children[span.id], span.start,
                                             span.end)
            for span in spans}


def coverage(spans: List[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the top-level spans."""
    if end <= start:
        raise ValueError("empty wall-time window")
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return covered(top, start, end) / (end - start)


class Tracer:
    """Span recorder; a disabled tracer records and patches nothing."""

    def __init__(self, enabled: bool, clock: Callable[[], float]
                 = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        self._next_id = 0
        if enabled and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False
        self.spans = []
        self._stack = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, request: Optional[int] = None,
             rows: Optional[int] = None):
        """Record one span around the ``with`` body (no-op when off)."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(self._next_id, name, self.clock(), 0.0,
                      None if parent is None else parent.id, request, rows)
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()
            self.spans.append(record)

    def in_span(self, name: str) -> bool:
        return any(open_span.name == name for open_span in self._stack)

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str,
              rows: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` in a span named ``name`` until removal.

        ``rows`` maps the call's arguments to a row count stored on the
        span.  A call made while a span of the same name is open (a
        method calling its own overload) is not recorded again.
        """
        original = owner.__dict__.get(attr, _MISSING) \
            if hasattr(owner, "__dict__") else _MISSING
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            if not tracer.enabled or tracer.in_span(name):
                return target(*args, **kwargs)
            count = rows(*args, **kwargs) if rows is not None else None
            with tracer.span(name, rows=count):
                return target(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, traced))

    def remove(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def select(self, names: Iterable[str] = (),
               roots: Optional[Iterable[str]] = None) -> List[Span]:
        """Spans with one of ``names`` (all if empty) under ``roots``."""
        wanted = set(names)
        by_id = {span.id: span for span in self.spans}
        allowed = None if roots is None else set(roots)

        def root_of(span: Span) -> str:
            while span.parent is not None:
                span = by_id[span.parent]
            return span.name

        return [span for span in self.spans
                if (not wanted or span.name in wanted)
                and (allowed is None or root_of(span) in allowed)]

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict()) + "\n")
