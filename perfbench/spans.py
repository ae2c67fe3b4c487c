"""In-memory spans recorded by the benchmark around calls into each layer.

Spans are opened only by benchmark code, around the public functions it
calls (``get_qaoa_objective``, ``minimize_qaoa``, ``QAOAObjective.__call__``,
``simulate_qaoa``, ``get_expectation``, ``get_expectation_batch``,
``QAOAService.submit``); the library itself is not instrumented.  The current span travels in a :mod:`contextvars`
variable, so each asyncio client task nests its own spans.  A span opened
on another thread (an engine call the service runs on its executor) has no
parent; it names the requests it served in ``links`` instead, and counts
as their child.

The module is named ``spans`` so that it does not shadow the standard
library's ``trace``.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    links: tuple[int, ...] = ()
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar(f"perfbench-span-{id(self)}", default=None))

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(self, name: str, *, links: tuple[int, ...] = (),
             span_id: int | None = None, **attrs):
        """Record ``name`` around the body; yields the span id."""
        sid = self.new_id() if span_id is None else span_id
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, parent, name, start, end,
                                   tuple(links), attrs))

    def wrap(self, name: str, func):
        """``func`` with a span around every call."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    # -- analysis -------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds.

        A span's self time is its duration minus the part of its interval
        that its children (and the spans linked to it) cover.  Spans of
        concurrent requests overlap, so a layer's sum can exceed wall time.
        """
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            for owner in ({span.parent} | set(span.links)) - {None}:
                children[owner].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.id, ()))
            totals[span.name] += span.duration - covered
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path, extra: dict) -> None:
        """Write every span and ``extra`` as one JSON document."""
        doc = dict(extra, spans=[dataclasses.asdict(s) for s in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _union_length(intervals) -> float:
    """Total length covered by ``(lo, hi)`` intervals (empty ones allowed)."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
