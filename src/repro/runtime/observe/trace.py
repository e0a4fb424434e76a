"""Trace data model: spans, events, counters, histograms.

One trace is a forest of :class:`Span` trees plus three flat stores --
monotonic **counters** (name -> number), **histograms** (name -> value
-> occurrence count) and top-level **events** (point records emitted
outside any span).  Everything serializes to plain JSON under the
``repro-trace/1`` schema:

.. code-block:: json

    {
      "schema": "repro-trace/1",
      "meta": {"...": "free-form run description"},
      "spans": [
        {"name": "multilevel", "attrs": {"seed": 3},
         "start": 0.0012, "duration": 0.4831,
         "events": [{"name": "fm.pass", "fields": {"moves_made": 41}}],
         "children": ["..."]}
      ],
      "events": [],
      "counters": {"fm.runs": 12},
      "histograms": {"fm.pass.moves": {"41": 2, "40": 1}}
    }

``start`` offsets are seconds relative to the owning recorder's epoch
(its construction time); spans merged in from a worker process keep the
*worker's* offsets, so only ``duration`` is comparable across process
boundaries.  A ``duration`` of ``-1.0`` marks a span that was never
closed.

Histogram keys are integers in memory and strings on disk (JSON object
keys); :func:`merge_histograms` accepts either.  Counter and histogram
merging is plain addition, which makes it associative and commutative --
the property that lets :meth:`TraceRecorder.merge_fragment
<repro.runtime.observe.recorder.TraceRecorder.merge_fragment>` combine
worker fragments in any grouping without changing the totals
(``tests/runtime/test_observe_properties.py`` proves it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

SCHEMA = "repro-trace/1"
METRICS_SCHEMA = "repro-metrics/1"


class TraceFormatError(ValueError):
    """A file or payload that is not a well-formed ``repro-trace/1`` trace."""


OPEN_DURATION = -1.0
"""Sentinel ``duration`` of a span that was never closed."""


class Span:
    """One node of the span tree (a named, timed, attributed region)."""

    __slots__ = ("name", "attrs", "start", "duration", "events", "children")

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        start: float = 0.0,
        duration: float = OPEN_DURATION,
        events: Optional[List[dict]] = None,
        children: Optional[List["Span"]] = None,
    ) -> None:
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.start = start
        self.duration = duration
        self.events = events if events is not None else []
        self.children = children if children is not None else []

    @property
    def closed(self) -> bool:
        """True once the span has a recorded duration."""
        return self.duration >= 0.0

    def to_dict(self) -> dict:
        """JSON form (schema above)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "duration": self.duration,
            "events": [dict(e) for e in self.events],
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, pre-order."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, attrs={self.attrs}, "
            f"children={len(self.children)}, events={len(self.events)})"
        )


def event_record(name: str, fields: Dict[str, Any]) -> dict:
    """The canonical event dict (see schema)."""
    return {"name": name, "fields": fields}


def span_from_dict(payload: dict) -> Span:
    """Parse one serialized span (recursively)."""
    return Span(
        name=str(payload["name"]),
        attrs=dict(payload.get("attrs", {})),
        start=float(payload.get("start", 0.0)),
        duration=float(payload.get("duration", OPEN_DURATION)),
        events=[
            event_record(str(e["name"]), dict(e.get("fields", {})))
            for e in payload.get("events", ())
        ],
        children=[span_from_dict(c) for c in payload.get("children", ())],
    )


def spans_from_dicts(payloads: Iterable[dict]) -> List[Span]:
    """Parse a serialized span forest."""
    return [span_from_dict(p) for p in payloads]


def merge_counters(
    target: Dict[str, Union[int, float]],
    source: Dict[str, Union[int, float]],
) -> None:
    """Add ``source`` counters into ``target`` (in place)."""
    for name, value in source.items():
        target[name] = target.get(name, 0) + value


def merge_histograms(
    target: Dict[str, Dict[int, int]],
    source: Dict[str, Dict[Any, int]],
) -> None:
    """Add ``source`` histograms into ``target`` (in place).

    Source bucket keys may be strings (fresh off JSON); they are
    normalised back to integers.
    """
    for name, buckets in source.items():
        into = target.setdefault(name, {})
        for key, count in buckets.items():
            key = int(key)
            into[key] = into.get(key, 0) + count


def serialize_histograms(
    histograms: Dict[str, Dict[int, int]]
) -> Dict[str, Dict[str, int]]:
    """JSON form: bucket keys become strings."""
    return {
        name: {str(k): buckets[k] for k in sorted(buckets)}
        for name, buckets in histograms.items()
    }


def parse_histograms(payload: Dict[str, Dict[str, int]]) -> Dict[str, Dict[int, int]]:
    """Inverse of :func:`serialize_histograms`."""
    return {
        name: {int(k): int(v) for k, v in buckets.items()}
        for name, buckets in payload.items()
    }


class Trace:
    """A parsed trace file (or a recorder's completed state)."""

    def __init__(
        self,
        spans: List[Span],
        counters: Optional[Dict[str, Union[int, float]]] = None,
        histograms: Optional[Dict[str, Dict[int, int]]] = None,
        events: Optional[List[dict]] = None,
        meta: Optional[dict] = None,
    ) -> None:
        self.spans = spans
        self.counters = counters if counters is not None else {}
        self.histograms = histograms if histograms is not None else {}
        self.events = events if events is not None else []
        self.meta = meta if meta is not None else {}

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        """Parse a serialized trace; rejects unknown schema families."""
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise TraceFormatError(
                f"not a {SCHEMA} trace (schema field is {schema!r})"
            )
        return cls(
            spans=spans_from_dicts(payload.get("spans", ())),
            counters=dict(payload.get("counters", {})),
            histograms=parse_histograms(payload.get("histograms", {})),
            events=[
                event_record(str(e["name"]), dict(e.get("fields", {})))
                for e in payload.get("events", ())
            ],
            meta=dict(payload.get("meta", {})),
        )

    def to_dict(self) -> dict:
        """JSON form (schema above)."""
        return {
            "schema": SCHEMA,
            "meta": dict(self.meta),
            "spans": [s.to_dict() for s in self.spans],
            "events": [dict(e) for e in self.events],
            "counters": dict(self.counters),
            "histograms": serialize_histograms(self.histograms),
        }

    def walk(self) -> Iterator[Span]:
        """Every span in the forest, depth-first, pre-order."""
        for root in self.spans:
            yield from root.walk()

    def find_spans(self, name: str) -> List[Span]:
        """All spans with ``name``, in pre-order."""
        return [s for s in self.walk() if s.name == name]


def load_trace(path: Union[str, Path]) -> Trace:
    """Read and parse a trace JSON file.

    Raises :class:`TraceFormatError` (naming ``path``) when the file is
    not valid JSON or not a well-formed trace; a missing file raises
    :class:`FileNotFoundError`.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        return Trace.from_dict(json.loads(text))
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise TraceFormatError(
            f"{path}: not a valid {SCHEMA} trace ({exc})"
        ) from exc


def span_shape(span: Span) -> dict:
    """The timing-free view of a span tree (golden-trace comparisons).

    Wall-clock fields (``start``/``duration``) vary run to run; name,
    attributes, events and tree structure are deterministic for a
    seeded study, which is exactly what the golden tests freeze.
    """
    return {
        "name": span.name,
        "attrs": dict(span.attrs),
        "events": [dict(e) for e in span.events],
        "children": [span_shape(c) for c in span.children],
    }


def trace_shape(trace: Trace) -> dict:
    """Timing-free view of a whole trace (spans + counters + hists)."""
    return {
        "spans": [span_shape(s) for s in trace.spans],
        "events": [dict(e) for e in trace.events],
        "counters": dict(trace.counters),
        "histograms": serialize_histograms(trace.histograms),
    }
