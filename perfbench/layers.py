"""Per-layer accounting: span wrappers around each layer's entry point,
self time per layer, and the per-layer metric catalogue.

The traced pass installs :func:`instrumented` wrappers that open one
``repro.runtime.observe`` span around every call into a layer.  The
drivers bind several entry points at import time, so each wrapper
replaces the name the *caller* looks up (``repro.partition.multilevel
.coarsen``, not ``repro.partition.matching.coarsen``).  Spans the
program opens itself (``fm.run``, ``multilevel``, ``refine``, ...) land
in the same recorder and are mapped onto the same layers.

Self time is a span's duration minus the part of it covered by its
children.  Spans recorded in a pool worker carry a ``lane`` attribute;
their start offsets come from the worker's clock, so they never count
as cover for a parent-process span, and their times are process-seconds
summed over workers rather than wall time.
"""

from __future__ import annotations

import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import difficulty as _difficulty
from repro.partition import kwayfm as _kwayfm
from repro.partition import multilevel as _multilevel
from repro.partition import multistart as _multistart
from repro.partition.fm import FMBipartitioner
from repro.partition.kwayfm import KWayFMRefiner
from repro.runtime import observe, resolve_jobs
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.observe import Span

UNATTRIBUTED = "unattributed"

SPAN_LAYERS: Dict[str, str] = {
    # spans opened by the benchmark's wrappers
    "partition.fm": "partition.fm",
    "partition.kwayfm": "partition.kwayfm",
    "kwayfm.construction": "partition.kwayfm",
    "partition.matching": "partition.matching",
    "hypergraph.contraction": "hypergraph.contraction",
    "partition.initial": "partition.initial",
    "multistart.start": "partition.multistart",
    "runtime.pool": "runtime.pool",
    "runtime.checkpoint": "runtime.checkpoint",
    "hypergraph.generators": "hypergraph.generators",
    "core.regimes": "core.regimes",
    "core.difficulty": "core.difficulty",
    "bench.setup": UNATTRIBUTED,
    "bench.round": UNATTRIBUTED,
    # spans the program opens itself
    "fm.run": "partition.fm",
    "kwayfm.run": "partition.kwayfm",
    "multilevel": "partition.multilevel",
    "coarsen": "partition.multilevel",
    "refine": "partition.multilevel",
    "initial_partition": "partition.multilevel",
    "vcycle": "partition.multilevel",
    "multistart": "partition.multistart",
}
"""Span name -> layer.  A span whose name is not listed belongs to the
layer of its nearest listed ancestor, so spans added inside the program
later refine a layer's breakdown without moving time between layers."""


# -- wrappers ------------------------------------------------------------
_MAIN_PID = os.getpid()


def _spanned(name: str, fn: Callable, **attrs: Any) -> Callable:
    def wrapper(*args, **kwargs):
        with observe.span(name, **attrs):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _start(fn: Callable) -> Callable:
    """One ``multistart.start`` span per engine start; in a pool worker
    the span opens a lane named after the worker process."""

    def wrapper(self, start_seed):
        pid = os.getpid()
        attrs = {} if pid == _MAIN_PID else {"lane": f"worker-{pid}"}
        with observe.span("multistart.start", **attrs):
            return fn(self, start_seed)

    wrapper.__wrapped__ = fn
    return wrapper


def _pool(fn: Callable) -> Callable:
    """``runtime.pool`` spans only around calls that use worker
    processes; ``jobs=1`` runs inline and is not pool work."""

    def wrapper(task, items, jobs=1, **kwargs):
        workers = min(resolve_jobs(jobs), len(items))
        if workers <= 1:
            return fn(task, items, jobs=jobs, **kwargs)
        with observe.span("runtime.pool", jobs=workers, items=len(items)):
            return fn(task, items, jobs=jobs, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _journal_record(fn: Callable) -> Callable:
    def wrapper(self, *args, **kwargs):
        with observe.span("runtime.checkpoint", op="record") as span:
            fn(self, *args, **kwargs)
        # Every record rewrites the whole file, so the bytes it wrote are
        # the file's size afterwards (computed, not an I/O counter).
        span.set(bytes=self.path.stat().st_size)

    wrapper.__wrapped__ = fn
    return wrapper


def _journal_lookup(fn: Callable) -> Callable:
    def wrapper(self, *args, **kwargs):
        with observe.span("runtime.checkpoint", op="lookup"):
            return fn(self, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _targets() -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    def named(span: str, **attrs: Any) -> Callable[[Callable], Callable]:
        return lambda fn: _spanned(span, fn, **attrs)

    return [
        (FMBipartitioner, "run", named("partition.fm")),
        (KWayFMRefiner, "run", named("partition.kwayfm")),
        (_kwayfm, "kway_balanced_construction", named("kwayfm.construction")),
        (_multilevel, "heavy_edge_matching", named("partition.matching")),
        (_multilevel, "random_matching", named("partition.matching")),
        (_multilevel, "coarsen", named("hypergraph.contraction")),
        (_multilevel, "random_balanced_bipartition", named("partition.initial")),
        (_multilevel, "terminal_seeded_bipartition", named("partition.initial")),
        (_multistart, "random_balanced_bipartition", named("partition.initial")),
        (_multistart, "parallel_map", _pool),
        (_multistart.MultilevelStartTask, "__call__", _start),
        (_multistart.FlatFMStartTask, "__call__", _start),
        (_multistart.KWayStartTask, "__call__", _start),
        (CheckpointJournal, "record", _journal_record),
        (CheckpointJournal, "lookup", _journal_lookup),
        (_difficulty, "find_good_solution", named("core.regimes", step="reference")),
    ]


@contextmanager
def instrumented() -> Iterator[None]:
    """Wrap every layer entry point in a span; restore them on exit.

    Pool workers fork from this process while the wrappers are in place,
    so worker-side calls are wrapped too.
    """
    saved = []
    try:
        for owner, attr, wrap in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- self time -----------------------------------------------------------
def covered_length(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


@dataclass
class LayerTimes:
    """Self time per layer, split by lane, plus per-span-name tallies."""

    parent_s: Dict[str, float] = field(default_factory=dict)
    worker_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    durations: Dict[str, List[float]] = field(default_factory=dict)

    def self_s(self, layer: str) -> float:
        """Parent-process plus worker self time of ``layer``."""
        return self.parent_s.get(layer, 0.0) + self.worker_s.get(layer, 0.0)


def layer_times(roots: Sequence[Span]) -> LayerTimes:
    """Walk a span forest and attribute every span's self time."""
    out = LayerTimes()
    stack: List[Tuple[Span, str, Optional[str]]] = [
        (root, UNATTRIBUTED, None) for root in roots
    ]
    while stack:
        span, parent_layer, parent_lane = stack.pop()
        lane = span.attrs.get("lane", parent_lane)
        layer = SPAN_LAYERS.get(span.name, parent_layer)
        out.calls[span.name] = out.calls.get(span.name, 0) + 1
        out.durations.setdefault(span.name, []).append(span.duration)
        same_lane = [
            (c.start, c.start + c.duration)
            for c in span.children
            if c.closed and c.attrs.get("lane", lane) == lane
        ]
        own = span.duration - covered_length(
            same_lane, span.start, span.start + span.duration
        )
        bucket = out.parent_s if lane is None else out.worker_s
        bucket[layer] = bucket.get(layer, 0.0) + max(0.0, own)
        stack.extend((c, layer, lane) for c in span.children)
    return out


def tail_percentile(samples: Sequence[float]) -> Tuple[float, int]:
    """(value, percentile) of the highest whole percentile from p50 up
    with at least ten samples beyond it (nearest rank).  With fewer than
    twenty samples no such percentile exists and the median is returned
    as p50."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = -(-q * n // 100)  # ceil(q * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], q
    return (statistics.median(ordered) if ordered else 0.0), 50


# -- metric catalogue ----------------------------------------------------
@dataclass(frozen=True)
class Metric:
    """One reported metric and, for per-layer metrics, what it predicts:
    the end-to-end metrics it should move, the workloads where it should
    move them, and the workloads where it should not move at all."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    layer: str = ""
    moves: Tuple[str, ...] = ()
    on: Tuple[str, ...] = ()
    not_on: Tuple[str, ...] = ()


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("starts_per_s", "starts/s", "higher", 0.24),
    Metric("cpu_s_per_start", "s", "lower", 0.24),
    Metric("cut_mean", "nets", "lower", 0.2),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
)

ALL = ("multilevel", "flat_fm", "sweep", "kway")
_FM = dict(layer="partition.fm", on=("multilevel", "flat_fm", "sweep"),
           not_on=("kway",))
_KWAY = dict(layer="partition.kwayfm", on=("kway",),
             not_on=("multilevel", "flat_fm", "sweep"))
_COARSE_ON = ("multilevel", "sweep")
_COARSE_OFF = ("flat_fm", "kway")
_POOL = dict(layer="runtime.pool", on=("sweep",),
             not_on=("multilevel", "flat_fm", "kway"))
_JOURNAL = dict(layer="runtime.checkpoint", on=("sweep",),
                not_on=("multilevel", "flat_fm", "kway"))
_SPEED = ("starts_per_s",)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("fm.calls", "count", "lower", moves=_SPEED, **_FM),
    Metric("fm.passes", "count", "lower", moves=_SPEED, **_FM),
    Metric("fm.moves", "count", "lower", moves=_SPEED, **_FM),
    Metric("fm.useful_move_ratio", "ratio", "higher", moves=_SPEED, **_FM),
    Metric("fm.bucket_inserts_per_move", "ratio", "lower", moves=_SPEED,
           **_FM),
    Metric("fm.self_s", "s", "lower", moves=_SPEED, **_FM),
    Metric("fm.moves_per_s", "moves/s", "higher", moves=_SPEED, **_FM),
    Metric("kwayfm.calls", "count", "lower", moves=_SPEED, **_KWAY),
    Metric("kwayfm.passes", "count", "lower", moves=_SPEED, **_KWAY),
    Metric("kwayfm.moves", "count", "lower", moves=_SPEED, **_KWAY),
    Metric("kwayfm.self_s", "s", "lower", moves=_SPEED, **_KWAY),
    Metric("kwayfm.moves_per_s", "moves/s", "higher", moves=_SPEED, **_KWAY),
    Metric("match.calls", "count", "lower", layer="partition.matching",
           moves=_SPEED, on=_COARSE_ON, not_on=_COARSE_OFF),
    Metric("match.merges", "count", "higher", layer="partition.matching",
           moves=_SPEED, on=_COARSE_ON, not_on=_COARSE_OFF),
    Metric("match.self_s", "s", "lower", layer="partition.matching",
           moves=_SPEED, on=_COARSE_ON, not_on=_COARSE_OFF),
    Metric("contract.calls", "count", "lower",
           layer="hypergraph.contraction", moves=_SPEED, on=_COARSE_ON,
           not_on=_COARSE_OFF),
    Metric("contract.pins_dropped", "count", "higher",
           layer="hypergraph.contraction", moves=_SPEED, on=_COARSE_ON,
           not_on=_COARSE_OFF),
    Metric("contract.self_s", "s", "lower", layer="hypergraph.contraction",
           moves=_SPEED, on=_COARSE_ON, not_on=_COARSE_OFF),
    Metric("initial.calls", "count", "lower", layer="partition.initial",
           moves=_SPEED, on=("flat_fm", "multilevel"), not_on=("kway",)),
    Metric("initial.self_s", "s", "lower", layer="partition.initial",
           moves=_SPEED, on=("flat_fm", "multilevel"), not_on=("kway",)),
    Metric("multilevel.levels", "count", "lower",
           layer="partition.multilevel", moves=_SPEED, on=_COARSE_ON,
           not_on=_COARSE_OFF),
    Metric("multilevel.self_s", "s", "lower", layer="partition.multilevel",
           moves=_SPEED, on=_COARSE_ON, not_on=_COARSE_OFF),
    Metric("multistart.starts", "count", "higher",
           layer="partition.multistart", moves=_SPEED, on=ALL),
    Metric("multistart.start_p50_ms", "ms", "lower",
           layer="partition.multistart", moves=_SPEED, on=ALL),
    Metric("multistart.start_ptail_ms", "ms", "lower",
           layer="partition.multistart", moves=_SPEED, on=ALL),
    Metric("multistart.start_ptail_pct", "percentile", "higher",
           layer="partition.multistart", on=ALL),
    Metric("pool.calls", "count", "lower", moves=_SPEED, **_POOL),
    Metric("pool.items", "count", "lower", moves=_SPEED, **_POOL),
    Metric("pool.map_s", "s", "lower", moves=_SPEED, **_POOL),
    Metric("pool.busy_s", "s", "lower",
           moves=("starts_per_s", "cpu_s_per_start"), **_POOL),
    Metric("pool.idle_frac", "fraction", "lower",
           moves=("starts_per_s", "cpu_s_per_start"), **_POOL),
    Metric("pool.overhead_ms_per_call", "ms", "lower",
           moves=("starts_per_s", "cpu_s_per_start"), **_POOL),
    Metric("pool.retries", "count", "lower",
           moves=("starts_per_s", "cpu_s_per_start"), **_POOL),
    Metric("pool.serial_fallbacks", "count", "lower",
           moves=("starts_per_s", "cpu_s_per_start"), **_POOL),
    Metric("journal.writes", "count", "lower", moves=_SPEED, **_JOURNAL),
    Metric("journal.write_s", "s", "lower", moves=_SPEED, **_JOURNAL),
    Metric("journal.bytes_written", "bytes-computed", "lower", moves=_SPEED,
           **_JOURNAL),
    Metric("setup.generate_s", "s", "lower", layer="hypergraph.generators",
           moves=("setup_s",), on=ALL),
    Metric("setup.reference_s", "s", "lower", layer="core.regimes",
           moves=("setup_s",), on=("flat_fm", "sweep")),
    Metric("trace.overhead_ratio", "ratio", "lower", layer="runtime.observe",
           on=ALL),
    Metric("trace.unattributed_frac", "fraction", "lower",
           layer="runtime.observe", on=ALL),
)


# -- per-layer metrics from one traced round -----------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    setup_roots: Sequence[Span],
    round_root: Span,
    counters: Dict[str, float],
    untraced_round_s: float,
) -> Tuple[Dict[str, float], LayerTimes]:
    """Every :data:`PER_LAYER` metric from one traced set-up + round.

    ``counters`` are the round's own counter increments.  Percentiles of
    start times come with their sample count, ``multistart.starts``.
    """
    times = layer_times([*setup_roots, round_root])
    setup_times = layer_times(setup_roots)
    round_times = layer_times([round_root])

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    def calls(span_name: str) -> float:
        return float(round_times.calls.get(span_name, 0))

    fm_moves = count("fm.moves")
    kway_moves = count("kwayfm.moves")
    fm_self = round_times.self_s("partition.fm")
    kway_self = round_times.self_s("partition.kwayfm")

    starts = round_times.durations.get("multistart.start", [])
    tail, tail_pct = tail_percentile(starts)

    pool_spans = [s for s in round_root.walk() if s.name == "runtime.pool"]
    # A pool span's lane-tagged children are the worker-side starts it ran.
    pool_busy = [
        sum(c.duration for c in s.children if "lane" in c.attrs)
        for s in pool_spans
    ]
    map_s = sum(s.duration for s in pool_spans)
    capacity = sum(s.attrs["jobs"] * s.duration for s in pool_spans)
    busy_s = sum(pool_busy)
    overhead_s = sum(
        s.duration - busy / s.attrs["jobs"]
        for s, busy in zip(pool_spans, pool_busy)
    )

    records = [
        s for s in round_root.walk()
        if s.name == "runtime.checkpoint" and s.attrs.get("op") == "record"
    ]
    traced_wall = sum(r.duration for r in (*setup_roots, round_root))
    unattributed = times.parent_s.get(UNATTRIBUTED, 0.0)

    metrics = {
        "fm.calls": calls("partition.fm"),
        "fm.passes": count("fm.passes"),
        "fm.moves": fm_moves,
        "fm.useful_move_ratio": _ratio(count("fm.best_prefix_moves"),
                                       fm_moves),
        "fm.bucket_inserts_per_move": _ratio(count("fm.bucket.inserts"),
                                             fm_moves),
        "fm.self_s": fm_self,
        "fm.moves_per_s": _ratio(fm_moves, fm_self),
        "kwayfm.calls": calls("partition.kwayfm"),
        "kwayfm.passes": count("kwayfm.passes"),
        "kwayfm.moves": kway_moves,
        "kwayfm.self_s": kway_self,
        "kwayfm.moves_per_s": _ratio(kway_moves, kway_self),
        "match.calls": calls("partition.matching"),
        "match.merges": count("match.heavy.merges")
        + count("match.random.merges"),
        "match.self_s": round_times.self_s("partition.matching"),
        "contract.calls": calls("hypergraph.contraction"),
        "contract.pins_dropped": count("contract.pins_dropped"),
        "contract.self_s": round_times.self_s("hypergraph.contraction"),
        "initial.calls": calls("partition.initial"),
        "initial.self_s": round_times.self_s("partition.initial"),
        "multilevel.levels": count("multilevel.levels"),
        "multilevel.self_s": round_times.self_s("partition.multilevel"),
        "multistart.starts": float(len(starts)),
        "multistart.start_p50_ms": 1000.0 * (
            statistics.median(starts) if starts else 0.0
        ),
        "multistart.start_ptail_ms": 1000.0 * tail,
        "multistart.start_ptail_pct": float(tail_pct),
        "pool.calls": float(len(pool_spans)),
        "pool.items": float(sum(s.attrs["items"] for s in pool_spans)),
        "pool.map_s": map_s,
        "pool.busy_s": busy_s,
        "pool.idle_frac": 1.0 - _ratio(busy_s, capacity) if capacity else 0.0,
        "pool.overhead_ms_per_call": 1000.0 * _ratio(
            overhead_s, len(pool_spans)
        ),
        "pool.retries": count("pool.retries"),
        "pool.serial_fallbacks": count("pool.serial_fallbacks"),
        "journal.writes": float(len(records)),
        "journal.write_s": sum(r.duration for r in records),
        "journal.bytes_written": float(
            sum(r.attrs.get("bytes", 0) for r in records)
        ),
        "setup.generate_s": sum(
            setup_times.durations.get("hypergraph.generators", [])
        ),
        "setup.reference_s": sum(
            s.duration
            for root in (*setup_roots, round_root)
            for s in root.walk()
            if s.name == "core.regimes" and s.attrs.get("step") == "reference"
        ),
        "trace.overhead_ratio": _ratio(round_root.duration, untraced_round_s),
        "trace.unattributed_frac": _ratio(unattributed, traced_wall),
    }
    return {name: float(value) for name, value in metrics.items()}, times

