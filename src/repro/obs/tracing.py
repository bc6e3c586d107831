"""Tracing: nestable, thread-safe wall-time spans with a JSON export.

The paper's efficiency story (Section 6.5, Table 5) is stage-level:
per-query estimation cost online, per-epoch training cost offline.  A
:class:`Tracer` makes those stages first-class — every instrumented
layer opens a ``span("name", **attrs)`` around its phase, spans nest
into a tree per thread, and the finished tree exports as structured
JSON (``to_dict`` / ``export``) or as a flame-style indented text
summary (``flame``) for reading at the terminal.

Design constraints, in order:

* **Near-zero cost when off.**  The default tracer everywhere is
  :data:`NULL_TRACER`; its ``span()`` returns one cached no-op context
  manager, so the hot paths pay a single attribute check.  The
  instrumentation-overhead benchmark holds the *enabled* tracer under
  5% on a training run; disabled it is unmeasurable.
* **Thread safety by construction.**  The active span stack is
  thread-local; a span's parent is always on the same thread, so no
  lock is held while a span is open.  Spans started on a thread with
  no local parent become roots (appended under the tracer lock) —
  the threaded HTTP front-end produces one root per request worker.
* **Bounded trees.**  Hot loops do not open a span per step; they
  accumulate phase durations into the enclosing span's counters
  (:meth:`Tracer.add`) and materialise one aggregate child span per
  phase at epoch end (:meth:`Tracer.record`).

Stdlib only.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional

from ..atomic import write_json

TRACE_SCHEMA = "repro.obs.trace/v1"


class Span:
    """One timed stage: name, attributes, counters, children.

    ``duration_s`` is perf_counter-based; ``start_unix`` is wall-clock
    (for correlating traces across processes).  ``counters`` holds
    float accumulators (e.g. per-phase seconds summed over a hot loop);
    ``attrs`` holds JSON-able identity (epoch number, batch size, ...).
    """

    __slots__ = ("name", "attrs", "counters", "children", "thread",
                 "start_unix", "duration_s", "_t0")

    def __init__(self, name: str, attrs: Optional[Dict] = None):
        self.name = str(name)
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.thread = threading.current_thread().name
        self.start_unix = time.time()
        self.duration_s = 0.0
        self._t0 = time.perf_counter()

    def add(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def finish(self) -> "Span":
        self.duration_s = time.perf_counter() - self._t0
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_unix": round(self.start_unix, 6),
            "duration_s": round(self.duration_s, 9),
            "thread": self.thread,
            "attrs": dict(self.attrs),
            "counters": {k: round(v, 9)
                         for k, v in self.counters.items()},
            "children": [c.to_dict() for c in self.children],
        }


class _NullSpanContext:
    """The no-op context manager handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager for one live span of an enabled tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict):
        self._tracer = tracer
        self._span = Span(name, attrs)

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error",
                                        f"{exc_type.__name__}: {exc}")
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects a forest of spans; one instance per traced activity.

    Use :meth:`span` as a context manager around each stage; nesting
    follows the call stack per thread.  :meth:`add` accumulates a
    counter on the innermost open span of the calling thread (no-op
    with no open span), and :meth:`record` attaches an already-timed
    aggregate child — the bounded-tree alternative to a span per loop
    iteration.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._created_unix = time.time()

    # -- span lifecycle --------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a span; ``with tracer.span("stage", k=v) as s:``."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return _SpanContext(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        span.finish()
        # Tolerate out-of-order exits rather than corrupting the tree.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            while stack and stack[-1] is not span:
                stack.pop().finish()
            if stack:
                stack.pop()

    # -- in-span helpers -------------------------------------------------
    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Accumulate a counter on the current span (no-op without one)."""
        if not self.enabled:
            return
        span = self.current()
        if span is not None:
            span.add(counter, amount)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the current span (no-op without one)."""
        if not self.enabled:
            return
        span = self.current()
        if span is not None:
            span.attrs.update(attrs)

    def record(self, name: str, duration_s: float, **attrs) -> None:
        """Attach a completed child span with an externally measured
        duration — used to materialise per-phase aggregates (e.g. the
        summed forward/backward/optimizer time of one epoch) without a
        span per hot-loop iteration."""
        if not self.enabled:
            return
        span = Span(name, attrs)
        span.duration_s = float(duration_s)
        parent = self.current()
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- export ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            roots = list(self.roots)
        return {
            "schema": TRACE_SCHEMA,
            "created_unix": round(self._created_unix, 6),
            "spans": [s.to_dict() for s in roots],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def export(self, path: str) -> str:
        """Write the trace JSON to ``path``; returns the path."""
        write_json(path, self.to_dict())
        return path

    def reset(self) -> None:
        with self._lock:
            self.roots = []
        self._local = threading.local()

    # -- human-readable summary ------------------------------------------
    def flame(self, min_fraction: float = 0.0) -> str:
        """Flame-style indented text summary of the span forest.

        Each line shows the span's duration, its share of the parent,
        and its counters; children below ``min_fraction`` of their
        parent are elided into a ``...`` line.
        """
        lines: List[str] = []
        with self._lock:
            roots = list(self.roots)

        def walk(span: Span, depth: int, parent_s: Optional[float]):
            share = ""
            if parent_s and parent_s > 0:
                share = f" ({100.0 * span.duration_s / parent_s:5.1f}%)"
            counters = ""
            if span.counters:
                counters = "  [" + ", ".join(
                    f"{k}={v:.4g}" for k, v in
                    sorted(span.counters.items())) + "]"
            lines.append(f"{'  ' * depth}{span.duration_s:9.4f}s{share}  "
                         f"{span.name}{counters}")
            elided = 0
            for child in span.children:
                if (span.duration_s > 0 and min_fraction > 0 and
                        child.duration_s / span.duration_s < min_fraction):
                    elided += 1
                    continue
                walk(child, depth + 1, span.duration_s)
            if elided:
                lines.append(f"{'  ' * (depth + 1)}... "
                             f"({elided} spans elided)")

        for root in roots:
            walk(root, 0, None)
        return "\n".join(lines)


NULL_TRACER = Tracer(enabled=False)
"""Shared disabled tracer: the default for every instrumented layer."""
