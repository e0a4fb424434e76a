"""The recorders: a free no-op default and the real collector.

The module-level active recorder is what every instrumented call site
consults::

    rec = observe.active()
    if not rec.enabled:          # NullRecorder: one attribute read
        return self._run(...)
    with rec.span("fm.run", policy=cfg.policy) as sp:
        ...

* :class:`NullRecorder` is installed by default.  ``enabled`` is a
  class attribute (``False``), ``span()`` hands back a shared no-op
  context manager, and every other method is a ``pass`` -- the whole
  disabled path is one attribute read plus, on the coarse-grained call
  sites that do not branch, one no-op context manager.
  The ``overhead`` gate of ``benchmarks/gates.py`` bounds the cost.
* :class:`TraceRecorder` collects the real thing: a span stack per
  thread (``threading.local``), counters/histograms/roots behind one
  lock, so engine code running under a thread pool records safely.
  Cross-**process** collection does not share the recorder: each worker
  records into a fresh ``TraceRecorder`` and ships a picklable
  :meth:`~TraceRecorder.fragment` home, which the parent folds in with
  :meth:`~TraceRecorder.merge_fragment` (see ``runtime/pool.py``).

Span nesting is well-formed by construction: closing a span implicitly
closes anything still open above it on the same thread's stack, and
double-closes are ignored (``tests/runtime/test_observe_properties.py``
drives arbitrary open/close interleavings through this).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.runtime.observe.trace import (
    METRICS_SCHEMA,
    Span,
    Trace,
    event_record,
    merge_counters,
    merge_histograms,
    serialize_histograms,
    spans_from_dicts,
)


class _NullSpan:
    """Shared no-op span context manager (one instance per process)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled-by-default recorder: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: Union[int, float] = 1) -> None:
        pass

    def hist(self, name: str, value: Union[int, float]) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def merge_fragment(self, fragment: dict) -> None:
        pass

    def fragment(self) -> dict:
        return {"spans": [], "events": [], "counters": {}, "histograms": {}}


_NULL_RECORDER = NullRecorder()


class _LiveSpan:
    """Context manager binding one :class:`Span` to the recorder stack.

    Created by :meth:`TraceRecorder.span`; the underlying span is opened
    on ``__enter__`` (so an unentered handle records nothing) and closed
    on ``__exit__``.  An exception propagating out marks the span with
    an ``error`` attribute -- the summarizer and the Table II
    reconstruction skip error-marked spans.
    """

    __slots__ = ("_recorder", "_name", "_attrs", "span")

    def __init__(
        self, recorder: "TraceRecorder", name: str, attrs: Dict[str, Any]
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> "_LiveSpan":
        self.span = self._recorder.open_span(self._name, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.span is not None:
            self._recorder.close_span(
                self.span,
                error=exc_type.__name__ if exc_type is not None else None,
            )
        return False

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the live span."""
        if self.span is not None:
            self.span.attrs.update(attrs)
        else:
            self._attrs.update(attrs)


class TraceRecorder:
    """The real collector (see module docstring)."""

    enabled = True

    def __init__(self, meta: Optional[dict] = None) -> None:
        self.meta = dict(meta or {})
        self.roots: List[Span] = []
        self.events: List[dict] = []
        self.counters: Dict[str, Union[int, float]] = {}
        self.histograms: Dict[str, Dict[int, int]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- span stack ----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: Any) -> _LiveSpan:
        """A context manager recording one timed span."""
        return _LiveSpan(self, name, attrs)

    def open_span(self, name: str, attrs: Optional[dict] = None) -> Span:
        """Open a span as a child of this thread's innermost open span.

        Low-level API (the property tests and :class:`_LiveSpan` use
        it); prefer ``with rec.span(...)`` in instrumentation.
        """
        span = Span(name, dict(attrs or {}))
        span.start = time.perf_counter() - self._epoch
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    def close_span(self, span: Span, error: Optional[str] = None) -> None:
        """Close ``span``; anything opened inside and still open closes
        with it (same end time).  Closing an already-closed span is a
        no-op, so nesting stays well-formed under any call order."""
        stack = self._stack()
        if span not in stack:
            return
        end = time.perf_counter() - self._epoch
        while stack:
            top = stack.pop()
            if not top.closed:
                top.duration = max(0.0, end - top.start)
            if top is span:
                break
        if error is not None:
            span.attrs.setdefault("error", error)

    # -- flat stores ---------------------------------------------------
    def count(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` to the named monotonic counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def hist(self, name: str, value: Union[int, float]) -> None:
        """Record one occurrence of ``int(value)`` in the named histogram."""
        key = int(value)
        with self._lock:
            buckets = self.histograms.setdefault(name, {})
            buckets[key] = buckets.get(key, 0) + 1

    def event(self, name: str, **fields: Any) -> None:
        """A point record, attached to the innermost open span (or the
        trace's top level when no span is open)."""
        record = event_record(name, fields)
        stack = self._stack()
        if stack:
            stack[-1].events.append(record)
        else:
            with self._lock:
                self.events.append(record)

    # -- cross-process collection --------------------------------------
    def fragment(self) -> dict:
        """This recorder's state as one picklable/JSON-able dict.

        Workers call this after finishing an item; the parent folds the
        result in with :meth:`merge_fragment`.
        """
        with self._lock:
            return {
                "spans": [s.to_dict() for s in self.roots],
                "events": [dict(e) for e in self.events],
                "counters": dict(self.counters),
                "histograms": {
                    name: dict(buckets)
                    for name, buckets in self.histograms.items()
                },
            }

    def merge_fragment(self, fragment: dict) -> None:
        """Fold a worker fragment into this recorder.

        Fragment root spans become children of the innermost open span
        (or trace roots); counters and histograms merge by addition --
        associative and commutative, so the fold order across workers
        cannot change any total.
        """
        spans = spans_from_dicts(fragment.get("spans", ()))
        events = [
            event_record(str(e["name"]), dict(e.get("fields", {})))
            for e in fragment.get("events", ())
        ]
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent.children.extend(spans)
            parent.events.extend(events)
        else:
            with self._lock:
                self.roots.extend(spans)
                self.events.extend(events)
        with self._lock:
            merge_counters(self.counters, fragment.get("counters", {}))
            merge_histograms(self.histograms, fragment.get("histograms", {}))

    # -- export --------------------------------------------------------
    def trace(self) -> Trace:
        """The collected state as a :class:`Trace` (live references)."""
        return Trace(
            spans=self.roots,
            counters=self.counters,
            histograms=self.histograms,
            events=self.events,
            meta=self.meta,
        )

    def to_dict(self) -> dict:
        """JSON form of the full trace."""
        return self.trace().to_dict()

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace JSON to ``path``."""
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )

    def metrics_dict(self) -> dict:
        """Counters + histograms only (the ``--metrics-out`` payload)."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "counters": dict(self.counters),
                "histograms": serialize_histograms(self.histograms),
            }

    def save_metrics(self, path: Union[str, Path]) -> None:
        """Write the metrics JSON to ``path``."""
        Path(path).write_text(
            json.dumps(self.metrics_dict(), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )


class TracedValue:
    """A worker result bundled with the worker's trace fragment.

    ``runtime.pool`` wraps item results in this when tracing is enabled,
    unwraps the value before journaling/returning it, and merges the
    fragment into the parent recorder -- so checkpoint journals always
    store the bare value and resumes stay compatible either way.
    """

    __slots__ = ("value", "fragment")

    def __init__(self, value: Any, fragment: dict) -> None:
        self.value = value
        self.fragment = fragment

    def __reduce__(self):
        return (TracedValue, (self.value, self.fragment))


# -- the active recorder ----------------------------------------------
_ACTIVE: Union[NullRecorder, TraceRecorder] = _NULL_RECORDER


def active() -> Union[NullRecorder, TraceRecorder]:
    """The recorder instrumented code should talk to right now."""
    return _ACTIVE


def set_recorder(
    recorder: Optional[Union[NullRecorder, TraceRecorder]],
) -> Union[NullRecorder, TraceRecorder]:
    """Install ``recorder`` (``None`` restores the no-op default);
    returns the previously active recorder."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else _NULL_RECORDER
    return previous


@contextmanager
def use(
    recorder: Optional[Union[NullRecorder, TraceRecorder]],
) -> Iterator[Union[NullRecorder, TraceRecorder]]:
    """Scoped :func:`set_recorder`: restores the previous recorder on
    exit, exception or not."""
    previous = set_recorder(recorder)
    try:
        yield active()
    finally:
        set_recorder(previous)
