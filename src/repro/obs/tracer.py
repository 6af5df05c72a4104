"""Nestable trace spans and global counters.

A :class:`Span` measures one named region of work — wall-clock *and* CPU
time, plus free-form attributes — and remembers its parent, so a
collection of spans reconstructs the call tree of a pipeline run or a
served request.  A :class:`Tracer` collects spans; nesting is tracked
per thread (a span opened while another is active on the same thread
becomes its child automatically).

Tracing is **off by default**.  Instrumented code calls the module-level
:func:`span` helper, which returns a shared no-op context manager while
no tracer is installed — the disabled cost is one global read and one
function call, small enough that hot paths can stay instrumented
permanently (the pipeline benchmark asserts < 2% overhead).

Cross-process propagation: the parallel pipeline executor hands the
parent span id to each pool worker inside the task payload; the worker
builds its own :class:`Tracer`, opens its spans under that foreign
parent id, and ships the finished spans back as plain dicts for the
coordinator to :meth:`~Tracer.adopt`.  Span ids embed the pid, so ids
never collide across the pool.

Counters are simpler: a process-global name → value map, always on
(increments are per-call, not per-element), exposed by the serving
layer's ``/metrics`` endpoint via :func:`counters_snapshot`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed region: identity, parentage, clocks and attributes."""

    name: str
    span_id: str
    parent_id: str | None = None
    start_wall: float = 0.0  # epoch seconds
    wall_s: float = 0.0
    cpu_s: float = 0.0
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe, what manifests persist)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span from its :meth:`to_dict` form."""
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_wall=data.get("start_wall", 0.0),
            wall_s=data.get("wall_s", 0.0),
            cpu_s=data.get("cpu_s", 0.0),
            pid=data.get("pid", 0),
            tid=data.get("tid", 0),
            attrs=dict(data.get("attrs", {})),
        )


class _ActiveSpan:
    """Context manager that times one span and maintains the nest stack."""

    __slots__ = ("_tracer", "_span", "_t0", "_c0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.wall_s = time.perf_counter() - self._t0
        span.cpu_s = time.process_time() - self._c0
        if exc_type is not None:
            span.attrs.setdefault("error", repr(exc))
        self._tracer._pop(span)


class _NullSpan:
    """The shared do-nothing span used while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()

#: Process-wide span serial.  Deliberately NOT per-tracer: a pooled
#: worker process builds a fresh Tracer for every task it executes, and
#: per-tracer serials would restart at 1 each time, colliding once the
#: coordinator merges the spans of two tasks run by the same worker.
_span_serial = itertools.count(1)


class Tracer:
    """Collects finished spans; thread-safe; one instance per run."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------

    @staticmethod
    def _next_id() -> str:
        return f"{os.getpid():x}.{next(_span_serial):x}"

    def span(self, name: str, parent_id: str | None = None, **attrs) -> _ActiveSpan:
        """Open a span; nests under the thread's active span by default.

        Pass ``parent_id`` explicitly to graft under a foreign span (the
        process-pool handoff) or to force a root.
        """
        if parent_id is None:
            stack = getattr(self._local, "stack", None)
            if stack:
                parent_id = stack[-1].span_id
            else:
                parent_id = getattr(self._local, "default_parent", None)
        span = Span(
            name=name,
            span_id=self._next_id(),
            parent_id=parent_id,
            start_wall=time.time(),  # repro: allow[determinism] span epoch anchor
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, span)

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", [])
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._finished.append(span)

    # -- cross-process / cross-thread handoff --------------------------

    def set_thread_parent(self, span_id: str | None) -> None:
        """Ambient parent for spans opened on *this* thread.

        Used on the far side of a handoff (pool worker, request thread)
        where the logical parent lives in another process or thread.
        """
        self._local.default_parent = span_id

    def current_span_id(self) -> str | None:
        """The id of this thread's innermost active span, if any."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].span_id
        return getattr(self._local, "default_parent", None)

    def adopt(self, span_dicts: list[dict]) -> None:
        """Graft spans recorded elsewhere (a pool worker) into this tracer."""
        spans = [Span.from_dict(d) for d in span_dicts]
        with self._lock:
            self._finished.extend(spans)

    # -- results -------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """All finished spans, ordered by start time."""
        with self._lock:
            return sorted(self._finished, key=lambda s: s.start_wall)

    def to_dicts(self) -> list[dict]:
        """JSON-safe span list, ordered by start time."""
        return [span.to_dict() for span in self.finished_spans()]


# -- module-level current tracer (the instrumentation entry point) ------

_install_lock = threading.Lock()  # repro: allow[forksafety] held only around a two-field swap, never across a fork
_current: Tracer | None = None


def install(tracer: Tracer | None) -> Tracer | None:
    """Make ``tracer`` the process-wide current tracer; returns the old one.

    Pass ``None`` to disable tracing (the default state).
    """
    global _current
    with _install_lock:
        previous = _current
        _current = tracer
    return previous


def current() -> Tracer | None:
    """The installed tracer, or ``None`` while tracing is disabled."""
    return _current


def enabled() -> bool:
    """Whether a tracer is currently installed."""
    return _current is not None


def span(name: str, **attrs):
    """Open a span on the current tracer, or a no-op when disabled.

    This is the call instrumented code embeds in hot paths::

        with obs.span("extract_od_flows", areas=n) as sp:
            ...
            sp.set(pairs=built)
    """
    tracer = _current
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


# -- global counters ----------------------------------------------------

_counter_lock = threading.Lock()  # repro: allow[forksafety] held only around a dict increment, never across a fork
_counters: dict[str, float] = {}


def counter(name: str, delta: float = 1) -> None:
    """Add ``delta`` to the process-global counter ``name``.

    Counters are always on; callers increment once per operation (with
    the batch size as the delta), never once per element.
    """
    with _counter_lock:
        _counters[name] = _counters.get(name, 0) + delta


def counters_snapshot() -> dict[str, float]:
    """A point-in-time copy of every counter."""
    with _counter_lock:
        return dict(sorted(_counters.items()))


# repro: allow[reachability] test harness: tests/obs/conftest.py isolates counters per test
def reset_counters() -> None:
    """Zero every counter (test isolation)."""
    with _counter_lock:
        _counters.clear()
