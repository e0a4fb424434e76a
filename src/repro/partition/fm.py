"""Flat Fiduccia--Mattheyses bipartitioning with fixed vertices.

This is the paper's workhorse: pass-based iterative improvement where
every movable vertex moves at most once per pass, the best prefix of the
move sequence is restored at pass end, and passes repeat until one fails
to improve.  Three selection policies are provided:

* ``lifo``  -- classic FM; the most recently inserted vertex of the best
  gain bucket moves first;
* ``fifo``  -- the oldest vertex of the best bucket moves first;
* ``clip``  -- CLIP (Dutt--Deng): buckets are keyed by accumulated gain
  *updates* since the start of the pass, so cells adjacent to recent
  moves float to the top, sweeping out clusters.

Fixed vertices (the paper's subject) never enter the buckets but still
contribute to net pin counts, so they anchor the gains of their
neighbours exactly as propagated terminals do in top-down placement.
Section III's pass-cutoff heuristic is the ``pass_move_limit_fraction``
knob: every pass after the first stops once that fraction of the movable
vertices has moved.

Kernel layout
-------------

The inner loop is a flat-list kernel.  The engine owns persistent
plain-list buffers -- per-side net pin counts
(``_cnt0/_cnt1``), per-side pin-id sums (``_ids0/_ids1``) and the
per-vertex exact gains (``_gain``) -- plus one reusable
:class:`GainBucket` per side.  The invariants:

* Between passes, ``cnt``/``ids`` and ``gain`` are exact with respect to
  ``parts``.  A pass mutates them move by move and the end-of-pass
  rollback restores them *incrementally*, by flipping either the undone
  suffix backwards or (from a pass-start snapshot) the kept prefix
  forwards with the same delta-gain formulas, so pass setup is
  O(movable) bucket inserts instead of the historical O(pins)
  count-and-gain rebuild.
* ``ids0[e]``/``ids1[e]`` hold the sum of pin ids of net ``e`` on each
  side; when a side's pin count is 1 the id sum *is* the unique pin, so
  the single-pin gain update is O(1) instead of a scan of ``epins[e]``.
* A whole-net gain update only happens when the net lies entirely on
  one side, so every pin it touches sits in that side's bucket: the
  bucket adjust needs no per-pin side test.

The kernel preserves the *exact* move sequence of the straightforward
implementation retained as a test oracle in ``tests/oracles/fm.py``:
same moves in the same order, same pass records, same cuts, bit for
bit.  ``tests/partition/test_fm_kernel_differential.py`` and the
``fm`` gate of ``benchmarks/gates.py`` enforce this; ``perfbench/``
measures the speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.gainbucket import GainBucket
from repro.runtime.observe import recorder as _observe
from repro.partition.solution import FREE, Bipartition, validate_fixture

POLICIES = ("lifo", "fifo", "clip")

_HARD_PASS_CAP = 200
"""Safety bound on passes per run when ``max_passes < 0``.

FM converges in well under 20 passes on every instance in the
literature (the paper's Table II reports ~6); the cap only guards
against pathological non-termination.
"""

_NIL = -2
"""GainBucket link terminator, mirrored here for the inlined hot loop."""


@dataclass(frozen=True)
class FMConfig:
    """Tuning knobs of the flat FM engine.

    ``pass_move_limit_fraction`` below 1.0 enables the paper's Section III
    cutoff: passes after the first stop once ``fraction * movable`` moves
    have been made.  ``max_passes < 0`` means "until no improvement".
    ``record_moves`` keeps the full per-pass move sequence on the result
    (used by the differential tests and the kernel benchmark).
    """

    policy: str = "lifo"
    max_passes: int = -1
    pass_move_limit_fraction: float = 1.0
    record_moves: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if not 0.0 < self.pass_move_limit_fraction <= 1.0:
            raise ValueError("pass_move_limit_fraction must be in (0, 1]")
        if self.max_passes == 0:
            raise ValueError("max_passes must be nonzero (or negative)")


@dataclass(frozen=True)
class PassRecord:
    """Statistics of one FM pass (the raw material of Table II)."""

    pass_index: int
    movable: int
    moves_made: int
    best_prefix: int
    cut_before: int
    cut_after: int
    feasible_after: bool

    @property
    def moved_fraction(self) -> float:
        """Moves made / movable vertices (0 when nothing is movable)."""
        return self.moves_made / self.movable if self.movable else 0.0

    @property
    def wasted_moves(self) -> int:
        """Moves undone by the end-of-pass rollback."""
        return self.moves_made - self.best_prefix

    @property
    def best_prefix_fraction(self) -> float:
        """Position of the restored best solution within the pass."""
        return self.best_prefix / self.moves_made if self.moves_made else 0.0


@dataclass
class FMResult:
    """Outcome of an FM run."""

    solution: Bipartition
    passes: List[PassRecord] = field(default_factory=list)
    initial_cut: int = 0
    move_logs: List[List[int]] = field(default_factory=list)
    """Per-pass move sequences (pre-rollback); filled only when the
    config sets ``record_moves``."""

    @property
    def num_passes(self) -> int:
        """Passes executed (including the final non-improving one)."""
        return len(self.passes)

    @property
    def total_moves(self) -> int:
        """Moves attempted across all passes."""
        return sum(p.moves_made for p in self.passes)


# Lexicographic solution-quality key: a feasible solution always beats an
# infeasible one; among feasible ones lower cut wins, then tighter
# balance; among infeasible ones lower violation wins (so FM repairs
# balance first), then lower cut.
_QualityKey = Tuple[int, float, float]


def _resize_zq(arr: List[int], length: int) -> None:
    """Resize an int list in place, zero-filling any growth."""
    cur = len(arr)
    if cur > length:
        del arr[length:]
    elif cur < length:
        arr.extend([0] * (length - cur))


def _record_fm_run(recorder, span, config: FMConfig, result: FMResult) -> None:
    """Emit the trace of one completed FM run (enabled recorders only).

    Everything here is read off the result's pass records, so the
    kernel's hot loop carries zero instrumentation.  Bucket traffic is
    derived rather than counted in the loop: each pass inserts every
    movable vertex once and each executed move pops one entry.  A pass
    "triggers the cutoff" when its move count reached the Section III
    limit while movable vertices remained.
    """
    span.set(
        initial_cut=result.initial_cut,
        final_cut=result.solution.cut,
        passes=result.num_passes,
    )
    recorder.count("fm.runs")
    recorder.count("fm.passes", result.num_passes)
    recorder.count("fm.moves", result.total_moves)
    fraction = config.pass_move_limit_fraction
    for record in result.passes:
        recorder.event(
            "fm.pass",
            pass_index=record.pass_index,
            movable=record.movable,
            moves_made=record.moves_made,
            best_prefix=record.best_prefix,
            cut_before=record.cut_before,
            cut_after=record.cut_after,
            feasible_after=record.feasible_after,
        )
        recorder.count("fm.best_prefix_moves", record.best_prefix)
        recorder.count("fm.wasted_moves", record.wasted_moves)
        recorder.count("fm.bucket.inserts", record.movable)
        recorder.count("fm.bucket.pops", record.moves_made)
        recorder.hist("fm.pass.moves", record.moves_made)
        recorder.hist("fm.pass.best_prefix", record.best_prefix)
        if (
            record.pass_index > 0
            and fraction < 1.0
            and record.moves_made < record.movable
            and record.moves_made == max(1, int(fraction * record.movable))
        ):
            recorder.count("fm.cutoff_triggers")


class FMBipartitioner:
    """Reusable FM engine bound to one (graph, balance, fixture) triple.

    The engine carries persistent pass state (see the module docstring);
    every :meth:`run` re-derives that state from its initial assignment,
    so one engine instance can serve any number of runs -- including
    interleaved runs from multistart drivers -- as long as they are
    sequential.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Optional[Sequence[int]] = None,
        config: Optional[FMConfig] = None,
    ) -> None:
        if balance.num_parts != 2:
            raise ValueError("FMBipartitioner is strictly 2-way")
        self.balance = balance
        self.config = config or FMConfig()

        # Persistent kernel buffers.  _bind sizes them to the bound graph;
        # rebind() re-shapes them in place instead of reallocating, which
        # is what makes one engine serve a whole multilevel hierarchy.
        self._cnt0: List[int] = []
        self._cnt1: List[int] = []
        self._ids0: List[int] = []
        self._ids1: List[int] = []
        self._gain: List[int] = []
        self._snap_cnt0: List[int] = []
        self._snap_cnt1: List[int] = []
        self._snap_ids0: List[int] = []
        self._snap_ids1: List[int] = []
        self._snap_gain: List[int] = []
        self._snap_parts: List[int] = []
        self._buckets: Optional[Tuple[GainBucket, GainBucket]] = None

        self.graph: Optional[Hypergraph] = None
        self.fixture: Optional[List[int]] = None
        self._bind(graph, fixture)

    def rebind(
        self,
        graph: Hypergraph,
        fixture: Optional[Sequence[int]] = None,
    ) -> "FMBipartitioner":
        """Re-target the engine at a new ``(graph, fixture)`` pair.

        All graph-derived state is recomputed, but every kernel buffer and
        both gain buckets are resized in place rather than reallocated --
        the engine-pool fast path for multilevel drivers that refine a
        stack of similarly-shaped graphs.  Returns ``self``.
        """
        new_fixture = (
            list(fixture)
            if fixture is not None
            else [FREE] * graph.num_vertices
        )
        if graph is self.graph and new_fixture == self.fixture:
            return self
        self._bind(graph, new_fixture)
        return self

    def _bind(
        self,
        graph: Hypergraph,
        fixture: Optional[Sequence[int]],
    ) -> None:
        """Derive all per-graph state; reuse buffer allocations."""
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, 2)
        self.graph = graph
        self.fixture = list(fixture)

        # Per-vertex/per-net adjacency sliced once from the graph's CSR
        # lists (its cache if built, else a copy that is not cached);
        # weights and areas alias those lists (read-only).
        net_ptr, net_pins, vtx_ptr, vtx_nets, net_weights, areas = (
            graph.csr_lists(cache=False)
        )
        self._vnets: List[List[int]] = [
            vtx_nets[vtx_ptr[v] : vtx_ptr[v + 1]] for v in range(n)
        ]
        self._epins: List[List[int]] = [
            net_pins[net_ptr[e] : net_ptr[e + 1]]
            for e in range(graph.num_nets)
        ]
        self._eweight: List[int] = net_weights
        self._areas: List[float] = areas
        self._movable: List[int] = [
            v for v in range(n) if self.fixture[v] == FREE
        ]
        self._free_mask: List[bool] = [f == FREE for f in self.fixture]
        self._max_gain = max(
            (
                sum(self._eweight[e] for e in self._vnets[v])
                for v in self._movable
            ),
            default=0,
        )
        # Escape slack for balance windows narrower than one cell: the
        # smallest positive movable area is the quantum by which loads
        # can change, so transient violations up to it must be passable
        # or FM deadlocks on tight tolerances (e.g. 2% of a tiny block).
        self._escape_slack = min(
            (
                self._areas[v]
                for v in self._movable
                if self._areas[v] > 0
            ),
            default=0.0,
        )

        # Kernel buffers, resized in place.  cnt/ids are fully rewritten
        # by _init_run_state and gain is set per movable vertex, so stale
        # tails from a previous binding are never read.
        num_nets = graph.num_nets
        _resize_zq(self._cnt0, num_nets)
        _resize_zq(self._cnt1, num_nets)
        _resize_zq(self._ids0, num_nets)
        _resize_zq(self._ids1, num_nets)
        _resize_zq(self._gain, n)

        # Pass-start snapshots for the cheaper-direction restore: when a
        # pass keeps fewer moves than it undoes, restoring the snapshot
        # (C-speed slice copies) and replaying the kept prefix forward
        # beats replaying the undone suffix backwards.
        _resize_zq(self._snap_cnt0, num_nets)
        _resize_zq(self._snap_cnt1, num_nets)
        _resize_zq(self._snap_ids0, num_nets)
        _resize_zq(self._snap_ids1, num_nets)
        _resize_zq(self._snap_gain, n)
        if len(self._snap_parts) != n:
            self._snap_parts = [0] * n

        # One reusable bucket per side; reset() per pass instead of two
        # fresh allocations.  CLIP keys are accumulated updates, whose
        # magnitude is bounded by 2 * max_gain (see GainBucket.adjust).
        limit = (
            2 * self._max_gain
            if self.config.policy == "clip"
            else self._max_gain
        )
        if self._buckets is None:
            self._buckets = (GainBucket(n, limit), GainBucket(n, limit))
        else:
            self._buckets[0].resize(n, limit)
            self._buckets[1].resize(n, limit)
        self._bucket_limit = limit

    @property
    def num_movable(self) -> int:
        """Number of free vertices."""
        return len(self._movable)

    # ------------------------------------------------------------------
    def run(self, initial_parts: Sequence[int]) -> FMResult:
        """Improve ``initial_parts`` and return the best solution found.

        Fixed vertices are forced onto their mandated side before the
        first pass, so any initial assignment for them is tolerated.
        The starting cut is read off the pin counts the run derives
        anyway.

        With a :mod:`repro.runtime.observe` recorder active, the run is
        wrapped in an ``fm.run`` span carrying one ``fm.pass`` event per
        pass -- emitted *after* the kernel returns, from the pass records
        it produces anyway, so the move sequence is untouched and traced
        runs stay bit-identical to untraced ones.
        """
        recorder = _observe.active()
        if not recorder.enabled:
            return self._run(initial_parts)
        with recorder.span(
            "fm.run",
            policy=self.config.policy,
            movable=len(self._movable),
        ) as span:
            result = self._run(initial_parts)
            _record_fm_run(recorder, span, self.config, result)
        return result

    def _run(self, initial_parts: Sequence[int]) -> FMResult:
        """The uninstrumented engine (see :meth:`run`)."""
        graph = self.graph
        n = graph.num_vertices
        if len(initial_parts) != n:
            raise ValueError("initial_parts length mismatch")
        parts = [
            f if f != FREE else int(p)
            for p, f in zip(initial_parts, self.fixture)
        ]
        for v, p in enumerate(parts):
            if p not in (0, 1):
                raise ValueError(f"vertex {v} assigned to invalid side {p}")

        loads = [0.0, 0.0]
        for v in range(n):
            loads[parts[v]] += self._areas[v]
        cut = self._init_run_state(parts)
        result = FMResult(
            solution=Bipartition(parts=parts, cut=cut), initial_cut=cut
        )
        if not self._movable:
            return result

        max_passes = self.config.max_passes
        if max_passes < 0:
            max_passes = _HARD_PASS_CAP
        record_moves = self.config.record_moves
        pass_index = 0
        while pass_index < max_passes:
            key_before = self._progress_key(cut, loads)
            record, cut, move_log = self._run_pass(
                parts, loads, cut, pass_index
            )
            result.passes.append(record)
            if record_moves:
                result.move_logs.append(move_log)
            pass_index += 1
            # Another pass is justified only by a cut improvement (or a
            # violation reduction while infeasible).  Imbalance alone is
            # a within-pass tie-breaker: chaining passes on epsilon
            # imbalance gains could run for an astronomically long time
            # without ever touching the cut.
            if not self._progress_key(cut, loads) < key_before:
                break
        result.solution = Bipartition(parts=parts, cut=cut)
        return result

    # ------------------------------------------------------------------
    def _init_run_state(self, parts: List[int]) -> int:
        """Derive cnt/ids/gain from ``parts`` (once per run).

        Subsequent passes keep these buffers exact incrementally: moves
        update them forward and the rollback flips moves back, so no
        per-pass rebuild is needed.  Returns the cut of ``parts``, which
        the pin counts already imply (nets with pins on both sides).
        """
        cnt0 = self._cnt0
        cnt1 = self._cnt1
        ids0 = self._ids0
        ids1 = self._ids1
        epins = self._epins
        eweight = self._eweight
        cut = 0
        for e in range(len(epins)):
            c0 = 0
            s0 = 0
            c1 = 0
            s1 = 0
            for v in epins[e]:
                if parts[v]:
                    c1 += 1
                    s1 += v
                else:
                    c0 += 1
                    s0 += v
            cnt0[e] = c0
            cnt1[e] = c1
            ids0[e] = s0
            ids1[e] = s1
            if c0 and c1:
                cut += eweight[e]

        vnets = self._vnets
        gain = self._gain
        for v in self._movable:
            vn = vnets[v]
            g = 0
            if parts[v]:
                for e in vn:
                    w = eweight[e]
                    if cnt1[e] == 1:
                        g += w
                    if cnt0[e] == 0:
                        g -= w
            else:
                for e in vn:
                    w = eweight[e]
                    if cnt0[e] == 1:
                        g += w
                    if cnt1[e] == 0:
                        g -= w
            gain[v] = g
        return cut

    # ------------------------------------------------------------------
    def _run_pass(
        self,
        parts: List[int],
        loads: List[float],
        cut: int,
        pass_index: int,
    ) -> Tuple[PassRecord, int, List[int]]:
        """One FM pass; leaves ``parts``/``loads`` at the best prefix.

        This is the kernel: bucket links, pin counts and gains are
        manipulated through pre-bound local references, and the
        single-pin and two-pin gain updates use the id-sum buffers
        described in the module docstring.
        """
        epins = self._epins
        eweight = self._eweight
        vnets = self._vnets
        areas = self._areas
        gain = self._gain
        free = self._free_mask
        cnt0 = self._cnt0
        cnt1 = self._cnt1
        ids0 = self._ids0
        ids1 = self._ids1
        clip = self.config.policy == "clip"
        fifo = self.config.policy == "fifo"

        # Snapshot the pass-start net/gain state (C-speed slice copies).
        # The end-of-pass restore then picks the cheaper direction:
        # replay the undone suffix backwards, or restore the snapshot
        # and replay the kept prefix forwards.  Final passes keep
        # nothing, so their restore collapses to the copies alone.
        snap_cnt0 = self._snap_cnt0
        snap_cnt1 = self._snap_cnt1
        snap_ids0 = self._snap_ids0
        snap_ids1 = self._snap_ids1
        snap_gain = self._snap_gain
        snap_parts = self._snap_parts
        snap_cnt0[:] = cnt0
        snap_cnt1[:] = cnt1
        snap_ids0[:] = ids0
        snap_ids1[:] = ids1
        snap_gain[:] = gain
        snap_parts[:] = parts

        b0, b1 = self._buckets
        b0.reset()
        b1.reset()

        # Local views of the bucket internals for the inlined hot loop.
        # Writes go through these shared lists; the scalar max/count
        # state lives in the two small lists below and is written back
        # to the bucket objects before returning.
        limit = self._bucket_limit
        h0, t0, p0, n0 = b0._head, b0._tail, b0._prev, b0._next
        k0, pr0 = b0._key, b0._present
        h1, t1, p1, n1 = b1._head, b1._tail, b1._prev, b1._next
        k1, pr1 = b1._key, b1._present
        maxi = [-1, -1]
        counts = [0, 0]
        NIL = _NIL

        # Pass-start inserts, inlined (fresh LIFO head pushes into the
        # just-reset buckets).  CLIP keys start at 0, inserted in
        # ascending actual-gain order so the LIFO head of the zero
        # bucket pops best-gain-first.
        if clip:
            order = sorted(self._movable, key=gain.__getitem__)
        else:
            order = self._movable
        c0 = 0
        c1 = 0
        for v in order:
            if clip:
                key = 0
                idx = limit
            else:
                key = gain[v]
                idx = key + limit
            if parts[v]:
                oh = h1[idx]
                n1[v] = oh
                p1[v] = NIL
                if oh != NIL:
                    p1[oh] = v
                else:
                    t1[idx] = v
                h1[idx] = v
                k1[v] = key
                pr1[v] = True
                c1 += 1
                if idx > maxi[1]:
                    maxi[1] = idx
            else:
                oh = h0[idx]
                n0[v] = oh
                p0[v] = NIL
                if oh != NIL:
                    p0[oh] = v
                else:
                    t0[idx] = v
                h0[idx] = v
                k0[v] = key
                pr0[v] = True
                c0 += 1
                if idx > maxi[0]:
                    maxi[0] = idx
        counts[0] = c0
        counts[1] = c1

        movable_count = len(self._movable)
        if pass_index == 0 or self.config.pass_move_limit_fraction >= 1.0:
            move_limit = movable_count
        else:
            move_limit = max(
                1, int(self.config.pass_move_limit_fraction * movable_count)
            )

        balance = self.balance
        mn0, mn1 = balance.min_loads[0], balance.min_loads[1]
        mx0, mx1 = balance.max_loads[0], balance.max_loads[1]

        slack = self._escape_slack
        start0 = t0 if fifo else h0
        start1 = t1 if fifo else h1
        nav0 = p0 if fifo else n0
        nav1 = p1 if fifo else n1

        cut_before = cut
        move_log: List[int] = []
        log_append = move_log.append
        nmoves = 0
        best_prefix = 0
        best_cut = cut
        # Scalar-decomposed _QualityKey of the best prefix so far (the
        # per-move comparison avoids tuple allocation).
        bk_state, bk_a, bk_b = self._quality_key(cut, loads)
        l0 = loads[0]
        l1 = loads[1]

        while nmoves < move_limit:
            # ---- selection (inlined _select_move) -------------------
            # The balance gate allows a move that is strictly feasible,
            # that reduces the violation (the "before" pair violation is
            # loop-invariant per side and hoisted), or -- the escape
            # hatch -- that leaves the heavier (or equal) side with a
            # violation within the escape slack.  Without the hatch FM
            # deadlocks on balance windows narrower than one cell; the
            # rollback still restores the best *feasible* prefix, so
            # final solutions never rely on it.
            best_v = -1
            best_sel_key = 0
            best_side = 0
            # Side 0 scan (first feasible vertex of the best bucket).
            idx = maxi[0]
            if idx >= 0:
                before = 0.0
                if l0 < mn0:
                    before = mn0 - l0
                elif l0 > mx0:
                    before = l0 - mx0
                if l1 < mn1:
                    before += mn1 - l1
                elif l1 > mx1:
                    before += l1 - mx1
                hatch_ok = l0 >= l1
                while idx >= 0:
                    v = start0[idx]
                    while v != NIL:
                        av = areas[v]
                        ns = l0 - av
                        nt = l1 + av
                        if mn0 <= ns <= mx0 and mn1 <= nt <= mx1:
                            break
                        after = 0.0
                        if ns < mn0:
                            after = mn0 - ns
                        elif ns > mx0:
                            after = ns - mx0
                        if nt < mn1:
                            after += mn1 - nt
                        elif nt > mx1:
                            after += nt - mx1
                        if after < before or (hatch_ok and after <= slack):
                            break
                        v = nav0[v]
                    if v != NIL:
                        best_v = v
                        best_sel_key = idx - limit
                        break
                    idx -= 1
            # Side 1 scan; buckets strictly below side 0's best key are
            # pruned, equal keys tie-break to the heavier source side.
            idx = maxi[1]
            if idx >= 0 and not (best_v >= 0 and idx - limit < best_sel_key):
                before = 0.0
                if l1 < mn1:
                    before = mn1 - l1
                elif l1 > mx1:
                    before = l1 - mx1
                if l0 < mn0:
                    before += mn0 - l0
                elif l0 > mx0:
                    before += l0 - mx0
                hatch_ok = l1 >= l0
                while idx >= 0:
                    if best_v >= 0 and idx - limit < best_sel_key:
                        break
                    v = start1[idx]
                    while v != NIL:
                        av = areas[v]
                        ns = l1 - av
                        nt = l0 + av
                        if mn1 <= ns <= mx1 and mn0 <= nt <= mx0:
                            break
                        after = 0.0
                        if ns < mn1:
                            after = mn1 - ns
                        elif ns > mx1:
                            after = ns - mx1
                        if nt < mn0:
                            after += mn0 - nt
                        elif nt > mx0:
                            after += nt - mx0
                        if after < before or (hatch_ok and after <= slack):
                            break
                        v = nav1[v]
                    if v != NIL:
                        key = idx - limit
                        if (
                            best_v < 0
                            or key > best_sel_key
                            or (key == best_sel_key and l1 > l0)
                        ):
                            best_v = v
                            best_side = 1
                            best_sel_key = key
                        break
                    idx -= 1
            if best_v < 0:
                break
            v = best_v
            s = best_side
            t = 1 - s

            # Per-side views for the remove and the delta propagation
            # (source-side bucket arrays unsuffixed, target-side with a
            # trailing underscore).
            if s:
                hd, tl, pv, nx, ky = h1, t1, p1, n1, k1
                ht_, tt_, pt_, nt_, kt_ = h0, t0, p0, n0, k0
                cs_, ct_ = cnt1, cnt0
                iss_, ist_ = ids1, ids0
                pres_s, pres_t = pr1, pr0
            else:
                hd, tl, pv, nx, ky = h0, t0, p0, n0, k0
                ht_, tt_, pt_, nt_, kt_ = h1, t1, p1, n1, k1
                cs_, ct_ = cnt0, cnt1
                iss_, ist_ = ids0, ids1
                pres_s, pres_t = pr0, pr1

            # ---- lock v: inlined bucket remove ----------------------
            idx = ky[v] + limit
            pu = pv[v]
            nu = nx[v]
            if pu != NIL:
                nx[pu] = nu
            else:
                hd[idx] = nu
            if nu != NIL:
                pv[nu] = pu
            else:
                tl[idx] = pu
            pres_s[v] = False
            c = counts[s] - 1
            counts[s] = c
            if c == 0:
                maxi[s] = -1
            elif idx == maxi[s] and hd[idx] == NIL:
                m = idx
                while m >= 0 and hd[m] == NIL:
                    m -= 1
                maxi[s] = m

            gv = gain[v]
            cut -= gv

            # ---- delta-gain propagation around each net of v --------
            # ``v`` itself is locked, so gain updates skip it; its own
            # gain flips sign exactly (the move reverses every one of
            # its net contributions).
            # A whole-net update fires only while the net lies on one
            # side -- the source before the move, the target after it --
            # so every pin it adjusts sits in that side's bucket.
            # Bucket adjusts are inlined and sign-specialized: a +w
            # adjust can only raise the max index (if the source bucket
            # was the max, the destination is higher still), a -w adjust
            # can only lower it (walk down when the max bucket empties).
            for e in vnets[v]:
                w = eweight[e]
                if w:
                    ct = ct_[e]
                    # ct == 0 means the net lies entirely on the source
                    # side, so cs equals the net size: cs == 2 is the
                    # dominant two-pin-net case, where the other pin is
                    # the id-sum minus v -- no epins scan at all.
                    cs2 = cs_[e] if ct == 0 else 0
                    if cs2 == 2:
                        u = iss_[e] - v
                        if free[u]:
                            gain[u] += w
                            if pres_s[u]:
                                kk = ky[u]
                                idxo = kk + limit
                                pu = pv[u]
                                nu = nx[u]
                                if pu != NIL:
                                    nx[pu] = nu
                                else:
                                    hd[idxo] = nu
                                if nu != NIL:
                                    pv[nu] = pu
                                else:
                                    tl[idxo] = pu
                                idx2 = idxo + w
                                oh = hd[idx2]
                                nx[u] = oh
                                pv[u] = NIL
                                if oh != NIL:
                                    pv[oh] = u
                                else:
                                    tl[idx2] = u
                                hd[idx2] = u
                                ky[u] = kk + w
                                if idx2 > maxi[s]:
                                    maxi[s] = idx2
                    elif cs2 > 2:
                        for u in epins[e]:
                            if u != v and free[u]:
                                gain[u] += w
                                if pres_s[u]:
                                    kk = ky[u]
                                    idxo = kk + limit
                                    pu = pv[u]
                                    nu = nx[u]
                                    if pu != NIL:
                                        nx[pu] = nu
                                    else:
                                        hd[idxo] = nu
                                    if nu != NIL:
                                        pv[nu] = pu
                                    else:
                                        tl[idxo] = pu
                                    idx2 = idxo + w
                                    oh = hd[idx2]
                                    nx[u] = oh
                                    pv[u] = NIL
                                    if oh != NIL:
                                        pv[oh] = u
                                    else:
                                        tl[idx2] = u
                                    hd[idx2] = u
                                    ky[u] = kk + w
                                    if idx2 > maxi[s]:
                                        maxi[s] = idx2
                    elif ct == 1:
                        u = ist_[e]
                        if free[u]:
                            gain[u] -= w
                            if pres_t[u]:
                                kk = kt_[u]
                                idxo = kk + limit
                                pu = pt_[u]
                                nu = nt_[u]
                                if pu != NIL:
                                    nt_[pu] = nu
                                else:
                                    ht_[idxo] = nu
                                if nu != NIL:
                                    pt_[nu] = pu
                                else:
                                    tt_[idxo] = pu
                                idx2 = idxo - w
                                oh = ht_[idx2]
                                nt_[u] = oh
                                pt_[u] = NIL
                                if oh != NIL:
                                    pt_[oh] = u
                                else:
                                    tt_[idx2] = u
                                ht_[idx2] = u
                                kt_[u] = kk - w
                                if idxo == maxi[t] and ht_[idxo] == NIL:
                                    m = idxo
                                    while ht_[m] == NIL:
                                        m -= 1
                                    maxi[t] = m
                cs_[e] -= 1
                ct_[e] += 1
                iss_[e] -= v
                ist_[e] += v
                if w:
                    cs = cs_[e]
                    # cs == 0 means the net now lies entirely on the
                    # target side (ct includes v), so ct == 2 is again
                    # the two-pin-net case with an O(1) other-pin.
                    ct2 = ct_[e] if cs == 0 else 0
                    if ct2 == 2:
                        u = ist_[e] - v
                        if free[u]:
                            gain[u] -= w
                            if pres_t[u]:
                                kk = kt_[u]
                                idxo = kk + limit
                                pu = pt_[u]
                                nu = nt_[u]
                                if pu != NIL:
                                    nt_[pu] = nu
                                else:
                                    ht_[idxo] = nu
                                if nu != NIL:
                                    pt_[nu] = pu
                                else:
                                    tt_[idxo] = pu
                                idx2 = idxo - w
                                oh = ht_[idx2]
                                nt_[u] = oh
                                pt_[u] = NIL
                                if oh != NIL:
                                    pt_[oh] = u
                                else:
                                    tt_[idx2] = u
                                ht_[idx2] = u
                                kt_[u] = kk - w
                                if idxo == maxi[t] and ht_[idxo] == NIL:
                                    m = idxo
                                    while ht_[m] == NIL:
                                        m -= 1
                                    maxi[t] = m
                    elif ct2 > 2:
                        for u in epins[e]:
                            if u != v and free[u]:
                                gain[u] -= w
                                if pres_t[u]:
                                    kk = kt_[u]
                                    idxo = kk + limit
                                    pu = pt_[u]
                                    nu = nt_[u]
                                    if pu != NIL:
                                        nt_[pu] = nu
                                    else:
                                        ht_[idxo] = nu
                                    if nu != NIL:
                                        pt_[nu] = pu
                                    else:
                                        tt_[idxo] = pu
                                    idx2 = idxo - w
                                    oh = ht_[idx2]
                                    nt_[u] = oh
                                    pt_[u] = NIL
                                    if oh != NIL:
                                        pt_[oh] = u
                                    else:
                                        tt_[idx2] = u
                                    ht_[idx2] = u
                                    kt_[u] = kk - w
                                    if idxo == maxi[t] and ht_[idxo] == NIL:
                                        m = idxo
                                        while ht_[m] == NIL:
                                            m -= 1
                                        maxi[t] = m
                    elif cs == 1:
                        u = iss_[e]
                        if free[u]:
                            gain[u] += w
                            if pres_s[u]:
                                kk = ky[u]
                                idxo = kk + limit
                                pu = pv[u]
                                nu = nx[u]
                                if pu != NIL:
                                    nx[pu] = nu
                                else:
                                    hd[idxo] = nu
                                if nu != NIL:
                                    pv[nu] = pu
                                else:
                                    tl[idxo] = pu
                                idx2 = idxo + w
                                oh = hd[idx2]
                                nx[u] = oh
                                pv[u] = NIL
                                if oh != NIL:
                                    pv[oh] = u
                                else:
                                    tl[idx2] = u
                                hd[idx2] = u
                                ky[u] = kk + w
                                if idx2 > maxi[s]:
                                    maxi[s] = idx2

            parts[v] = t
            gain[v] = -gv
            av = areas[v]
            if s:
                l1 -= av
                l0 += av
            else:
                l0 -= av
                l1 += av
            log_append(v)
            nmoves += 1

            # ---- inlined _quality_key + best-prefix tracking --------
            viol = 0.0
            if l0 < mn0:
                viol = mn0 - l0
            elif l0 > mx0:
                viol = l0 - mx0
            if l1 < mn1:
                viol += mn1 - l1
            elif l1 > mx1:
                viol += l1 - mx1
            if viol == 0.0:
                state = 0
                a = cut
                b = l0 - l1 if l0 >= l1 else l1 - l0
            else:
                state = 1
                a = viol
                b = cut
            if state < bk_state or (
                state == bk_state
                and (a < bk_a or (a == bk_a and b < bk_b))
            ):
                bk_state = state
                bk_a = a
                bk_b = b
                best_cut = cut
                best_prefix = nmoves

        # Write the scalar bucket state back so reset() stays coherent.
        b0._max_index, b1._max_index = maxi
        b0._count, b1._count = counts

        # ---- restore the best prefix (cheaper direction) ------------
        # Each undo is itself a move, so the same delta formulas restore
        # cnt/ids/gain exactly; buckets are left alone (next pass resets
        # them) so only the gain scalars are updated here.  Flipping the
        # undone suffix backwards is the default; when the pass keeps
        # fewer moves than it undoes, copying the pass-start snapshot
        # back and flipping the kept prefix forwards is cheaper.
        moves_made = len(move_log)
        undone = move_log[best_prefix:]
        undone.reverse()
        # Loads are floats of arbitrary vertex areas, so either way they
        # are unwound with the backward delta arithmetic the reference
        # uses (addition is not associative); two flops per undone
        # move, no net traversal.
        for v in undone:
            av = areas[v]
            if parts[v]:
                l1 -= av
                l0 += av
            else:
                l0 -= av
                l1 += av
        loads[0] = l0
        loads[1] = l1
        if best_prefix <= moves_made - best_prefix:
            cnt0[:] = snap_cnt0
            cnt1[:] = snap_cnt1
            ids0[:] = snap_ids0
            ids1[:] = snap_ids1
            gain[:] = snap_gain
            parts[:] = snap_parts
            flips = move_log[:best_prefix]
        else:
            flips = undone
        for v in flips:
            s = parts[v]
            cs_ = cnt1 if s else cnt0
            ct_ = cnt0 if s else cnt1
            iss_ = ids1 if s else ids0
            ist_ = ids0 if s else ids1
            for e in vnets[v]:
                w = eweight[e]
                if w:
                    ct = ct_[e]
                    cs2 = cs_[e] if ct == 0 else 0
                    if cs2 == 2:
                        u = iss_[e] - v
                        if free[u]:
                            gain[u] += w
                    elif cs2 > 2:
                        for u in epins[e]:
                            if u != v and free[u]:
                                gain[u] += w
                    elif ct == 1:
                        u = ist_[e]
                        if free[u]:
                            gain[u] -= w
                cs_[e] -= 1
                ct_[e] += 1
                iss_[e] -= v
                ist_[e] += v
                if w:
                    cs = cs_[e]
                    ct2 = ct_[e] if cs == 0 else 0
                    if ct2 == 2:
                        u = ist_[e] - v
                        if free[u]:
                            gain[u] -= w
                    elif ct2 > 2:
                        for u in epins[e]:
                            if u != v and free[u]:
                                gain[u] -= w
                    elif cs == 1:
                        u = iss_[e]
                        if free[u]:
                            gain[u] += w
            parts[v] = 1 - s
            gain[v] = -gain[v]
        cut = best_cut

        record = PassRecord(
            pass_index=pass_index,
            movable=movable_count,
            moves_made=moves_made,
            best_prefix=best_prefix,
            cut_before=cut_before,
            cut_after=cut,
            feasible_after=self.balance.is_feasible(loads),
        )
        return record, cut, move_log

    # ------------------------------------------------------------------
    def _quality_key(self, cut: int, loads: Sequence[float]) -> _QualityKey:
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut), abs(loads[0] - loads[1]))
        return (1, violation, float(cut))

    def _progress_key(
        self, cut: int, loads: Sequence[float]
    ) -> Tuple[int, float]:
        """Coarser key deciding whether another pass is worthwhile:
        imbalance tie-breaking is dropped (see the run loop)."""
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut))
        return (1, violation)
