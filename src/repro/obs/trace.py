"""Structured run tracing: a span tree per observe-and-optimize cycle.

The paper's framework (Figure 2) chains workflow analysis -> SE/CSS
enumeration -> statistics selection -> instrumented execution -> catalog
reconciliation -> re-optimization.  Each of those stages has its own
failure and performance modes, and after the parallel backends (PR 1),
the fault-tolerant scheduler (PR 2) and the shared statistics catalog
(PR 3) a single run touches all of them.  A :class:`Tracer` records the
whole cycle as one tree of :class:`Span` objects:

- **phase spans** -- screen (only with a quality gate, one
  ``quarantine`` point per screened source) / enumerate / selection /
  execution / reconcile / optimization, opened by the pipeline;
- **block and boundary spans** -- one per scheduled task, opened by the
  scheduler, annotated with attempts, retries, timeouts and failure
  kinds;
- **operator points** -- zero-duration child spans for every plan point a
  block materializes, carrying the actual row count, whether a tap fired
  there and, added by the pipeline after the run, the estimated row count
  when a prior prediction existed (previous cycle or catalog);
- **catalog annotations** -- hits consumed at zero cost, entries
  refreshed, SEs drifted.

Tracing is strictly opt-in: every integration point takes ``tracer=None``
by default, and ``None`` is the only off switch -- hot paths guard their
annotation work with ``tracer is None``.  A span or point always
parents under its thread's current span (the innermost one that thread
opened or :meth:`Tracer.activate`-d), so a caller never names a parent.

Clocks are injectable: ``clock`` supplies monotonic span timings and
``wall_clock`` the document timestamp, so tests drive traces with fake
clocks and assert exact durations.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: version written into exported trace documents (see repro.obs.export)
TRACE_FORMAT_VERSION = 1


class Span:
    """One timed node of the trace tree.

    ``kind`` classifies the node (``run``, ``phase``, ``block``,
    ``boundary``, ``operator``, ``failure`` ...); ``attrs`` is a flat
    JSON-able annotation dict.  ``end`` stays ``None`` until the span is
    closed; operator *points* are instant (``end == start``).
    """

    __slots__ = ("name", "kind", "start", "end", "attrs", "children")

    def __init__(
        self,
        name: str,
        kind: str = "phase",
        start: float = 0.0,
        attrs: dict | None = None,
    ):
        self.name = name
        self.kind = kind
        self.start = start
        self.end: float | None = None
        self.attrs: dict = attrs or {}
        self.children: list[Span] = []

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str | None = None, name: str | None = None) -> list["Span"]:
        """Descendant spans (including self) matching kind and/or name."""
        return [
            span
            for span in self.walk()
            if (kind is None or span.kind == kind)
            and (name is None or span.name == name)
        ]

    def first(self, kind: str | None = None, name: str | None = None) -> "Span | None":
        matches = self.find(kind=kind, name=name)
        return matches[0] if matches else None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        from repro.core.persistence import PersistenceError

        if not isinstance(doc, dict) or "name" not in doc:
            raise PersistenceError(
                f"corrupt trace span: expected an object with a name, "
                f"got {doc!r}"
            )
        span = cls(
            str(doc["name"]),
            kind=str(doc.get("kind", "phase")),
            start=float(doc.get("start", 0.0)),
            attrs=dict(doc.get("attrs", {})),
        )
        end = doc.get("end")
        span.end = None if end is None else float(end)
        span.children = [cls.from_dict(c) for c in doc.get("children", [])]
        return span


class Tracer:
    """Builds one span tree per run; thread-safe, thread-aware parenting.

    Every span and point parents under its thread's current span.  A
    block attempt bounded by a deadline runs on its own thread, which
    :meth:`activate`-s the block's task span first, so the block's
    operator points land under it there too.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        wall_clock: Callable[[], float] = time.time,
        **attrs,
    ):
        self.clock = clock
        self.started_at = wall_clock()
        self.root = Span("run", kind="run", start=clock(), attrs=dict(attrs))
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span:
        """The innermost open span on this thread (the root otherwise)."""
        stack = self._stack()
        return stack[-1] if stack else self.root

    # ------------------------------------------------------------------
    def start(self, name: str, kind: str = "phase", **attrs) -> Span:
        """Open a span under this thread's current span."""
        parent = self.current()
        span = Span(name, kind=kind, start=self.clock(), attrs=attrs)
        with self._lock:
            parent.children.append(span)
        self._stack().append(span)
        return span

    def end(self, span: Span, **attrs) -> Span:
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        return span

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """A phase span around the ``with`` body, under this thread's current."""
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def point(self, name: str, kind: str = "operator", **attrs) -> Span:
        """An instant child of this thread's current span (start == end);
        never pushed on the stack."""
        parent = self.current()
        now = self.clock()
        span = Span(name, kind=kind, start=now, attrs=attrs)
        span.end = now
        with self._lock:
            parent.children.append(span)
        return span

    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Make ``span`` this thread's current parent without re-timing it."""
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            if stack and stack[-1] is span:
                stack.pop()

    # ------------------------------------------------------------------
    def finish(self, **attrs) -> Span:
        """Close the root span (idempotent) and return it."""
        if self.root.end is None or attrs:
            self.root.end = self.clock()
            self.root.attrs.update(attrs)
        return self.root

    def find(self, kind: str | None = None, name: str | None = None) -> list[Span]:
        return self.root.find(kind=kind, name=name)

    def to_dict(self) -> dict:
        """The exportable trace document (see :mod:`repro.obs.export`)."""
        self.finish()
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "kind": "trace",
            "started_at": self.started_at,
            "root": self.root.to_dict(),
        }


__all__ = [
    "Span",
    "TRACE_FORMAT_VERSION",
    "Tracer",
]
