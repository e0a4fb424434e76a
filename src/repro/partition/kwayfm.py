"""Direct k-way FM refinement with fixed vertices.

Section V of the paper leaves open "whether multiway partitioning is as
affected by fixed terminals".  Answering it needs a multiway engine, so
this module implements direct k-way FM (Sanchis-style greedy moves under
the cut-nets objective) rather than only recursive bisection:

* every free vertex owns up to ``k - 1`` candidate moves; the engine
  tracks each vertex's *best* move in a gain bucket and revalidates
  lazily on pop (stale entries are re-inserted with their fresh gain);
* a pass moves each vertex at most once, tracks the best feasible
  prefix, and rolls back to it, exactly like the 2-way engine;
* fixed vertices contribute pin counts but never move.

The cut-nets objective (weight of nets spanning >= 2 blocks) matches
:func:`repro.partition.solution.cut_size` for any k.

Like the 2-way engine, the hot path is a flat-list kernel: the refiner
owns a persistent plain-list pin-count buffer (``cnt[e * k + p]``)
and a net-span buffer, derived once per :meth:`KWayFMRefiner.run` and
kept exact across passes by the rollback (flip the undone suffix back,
or restore a pass-start snapshot and flip the kept prefix forwards),
plus one reusable :class:`GainBucket` reset per pass.  The move sequence
is bit-identical to the straightforward engine retained as a test
oracle in ``tests/oracles/fm.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.gainbucket import GainBucket
from repro.partition.solution import FREE, validate_fixture
from repro.runtime.observe import recorder as _observe

_KWAY_PASS_CAP = 100

_NIL = -2
"""GainBucket link terminator, mirrored here for the inlined hot loop."""


@dataclass(frozen=True)
class KWayFMConfig:
    """Tuning knobs of the k-way engine.

    ``record_moves`` keeps the per-pass ``(vertex, source, target)`` move
    logs on the result (differential tests and the kernel benchmark).
    """

    max_passes: int = -1
    pass_move_limit_fraction: float = 1.0
    record_moves: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.pass_move_limit_fraction <= 1.0:
            raise ValueError("pass_move_limit_fraction must be in (0, 1]")
        if self.max_passes == 0:
            raise ValueError("max_passes must be nonzero (or negative)")


@dataclass
class KWayFMResult:
    """Outcome of a k-way FM run."""

    parts: List[int]
    cut: int
    initial_cut: int
    num_passes: int = 0
    total_moves: int = 0
    pass_moves: List[int] = field(default_factory=list)
    move_logs: List[List[Tuple[int, int, int]]] = field(default_factory=list)
    """Per-pass pre-rollback move triples; filled only when the config
    sets ``record_moves``."""


class KWayFMRefiner:
    """Greedy direct k-way FM bound to (graph, balance, fixture).

    The refiner is reusable: persistent pin-count/span buffers are
    re-derived at the start of every :meth:`run`, so one instance can
    serve many sequential starts (the multistart driver caches one per
    worker process).
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Optional[Sequence[int]] = None,
        config: Optional[KWayFMConfig] = None,
    ) -> None:
        self.graph = graph
        self.balance = balance
        self.num_parts = balance.num_parts
        if self.num_parts < 2:
            raise ValueError("need at least two blocks")
        self.config = config or KWayFMConfig()
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, self.num_parts)
        self.fixture = list(fixture)

        # Adjacency sliced from the graph's CSR lists (its cache if built,
        # else a copy that is not cached); weights and areas alias those
        # lists (read-only).
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
        self._max_gain = max(
            (
                sum(self._eweight[e] for e in self._vnets[v])
                for v in self._movable
            ),
            default=0,
        )
        self._escape_slack = min(
            (
                self._areas[v]
                for v in self._movable
                if self._areas[v] > 0
            ),
            default=0.0,
        )

        # Persistent kernel buffers: flat pin counts (cnt[e*k + p]) and
        # per-net block spans, kept exact across passes; plus a reusable
        # bucket and the per-vertex stored-target side array for the
        # lazy-revalidation scheme.
        num_nets = graph.num_nets
        k = self.num_parts
        self._zero_cnt = [0] * (num_nets * k)
        self._cnt = [0] * (num_nets * k)
        self._spans = [0] * num_nets
        self._bucket = GainBucket(n, self._max_gain)
        self._stored_target = [-1] * n
        # Scratch arrays for the inlined best-move net classification
        # (at most one entry per incident net of a single vertex).
        max_degree = max((len(vn) for vn in self._vnets), default=0)
        self._crit_base = [0] * max_degree
        self._crit_weight = [0] * max_degree
        # Pass-start snapshots for the cheaper-direction restore (see
        # the 2-way kernel): when a pass keeps fewer moves than it
        # undoes, restoring these C-speed copies and replaying the kept
        # prefix forwards beats unwinding the undone suffix.
        self._snap_cnt = [0] * (num_nets * k)
        self._snap_spans = [0] * num_nets
        self._snap_parts: List[int] = [0] * n

    # ------------------------------------------------------------------
    def run(
        self,
        initial_parts: Sequence[int],
        seed: int = 0,
    ) -> KWayFMResult:
        """Refine ``initial_parts``; fixed vertices are forced first.

        The starting cut is read off the pin counts the run derives
        anyway.

        Under an active :mod:`repro.runtime.observe` recorder the run is
        wrapped in a ``kwayfm.run`` span with one ``kwayfm.pass`` event
        per pass, emitted after the kernel returns -- traced runs stay
        bit-identical to untraced ones.
        """
        recorder = _observe.active()
        if not recorder.enabled:
            return self._run(initial_parts, seed)
        with recorder.span(
            "kwayfm.run",
            parts=self.num_parts,
            movable=len(self._movable),
        ) as span:
            result = self._run(initial_parts, seed)
            span.set(
                initial_cut=result.initial_cut,
                final_cut=result.cut,
                passes=result.num_passes,
            )
            recorder.count("kwayfm.runs")
            recorder.count("kwayfm.passes", result.num_passes)
            recorder.count("kwayfm.moves", result.total_moves)
            for pass_index, moves in enumerate(result.pass_moves):
                recorder.event(
                    "kwayfm.pass", pass_index=pass_index, moves_made=moves
                )
                recorder.hist("kwayfm.pass.moves", moves)
        return result

    def _run(
        self,
        initial_parts: Sequence[int],
        seed: int = 0,
    ) -> KWayFMResult:
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
            if not 0 <= p < self.num_parts:
                raise ValueError(f"vertex {v} in invalid block {p}")

        loads = [0.0] * self.num_parts
        for v in range(n):
            loads[parts[v]] += self._areas[v]
        cut = self._init_run_state(parts)
        result = KWayFMResult(parts=parts, cut=cut, initial_cut=cut)
        if not self._movable:
            return result

        rng = random.Random(seed)
        record_moves = self.config.record_moves
        max_passes = self.config.max_passes
        if max_passes < 0:
            max_passes = _KWAY_PASS_CAP
        while result.num_passes < max_passes:
            key_before = self._progress_key(cut, loads)
            cut, moves, log = self._run_pass(parts, loads, cut, rng,
                                             result.num_passes)
            result.num_passes += 1
            result.total_moves += moves
            result.pass_moves.append(moves)
            if record_moves:
                result.move_logs.append(log)
            if not self._progress_key(cut, loads) < key_before:
                break
        result.parts = parts
        result.cut = cut
        return result

    # ------------------------------------------------------------------
    def _init_run_state(self, parts: List[int]) -> int:
        """Derive pin counts and spans from ``parts`` (once per run).

        Returns the cut of ``parts``: the weight of nets spanning more
        than one block, read off the spans just computed.
        """
        k = self.num_parts
        cnt = self._cnt
        cnt[:] = self._zero_cnt
        spans = self._spans
        epins = self._epins
        eweight = self._eweight
        cut = 0
        for e in range(len(epins)):
            base = e * k
            for v in epins[e]:
                cnt[base + parts[v]] += 1
            span = 0
            for p in range(base, base + k):
                if cnt[p]:
                    span += 1
            spans[e] = span
            if span > 1:
                cut += eweight[e]
        return cut

    # ------------------------------------------------------------------
    def _progress_key(
        self, cut: int, loads: Sequence[float]
    ) -> Tuple[int, float]:
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut))
        return (1, violation)

    def _quality_key(
        self, cut: int, loads: Sequence[float]
    ) -> Tuple[int, float, float]:
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut), max(loads) - min(loads))
        return (1, violation, float(cut))

    def _move_allowed(
        self, loads: List[float], weight: float, source: int, target: int
    ) -> bool:
        """Balance gate slow path (the strictly-feasible case is inlined).

        Violation-reducing moves are allowed, and so is a move off the
        heavier (or equal) block whose violation stays within the escape
        slack, so tight windows cannot deadlock the pass.
        """
        if self.balance.allows_move(loads, weight, source, target):
            return True
        if loads[source] < loads[target]:
            return False
        after = list(loads)
        after[source] -= weight
        after[target] += weight
        return self.balance.violation(after) <= self._escape_slack

    def _run_pass(
        self,
        parts: List[int],
        loads: List[float],
        cut: int,
        rng: random.Random,
        pass_index: int,
    ) -> Tuple[int, int, List[Tuple[int, int, int]]]:
        k = self.num_parts
        cnt = self._cnt
        spans = self._spans
        vnets = self._vnets
        areas = self._areas
        eweight = self._eweight
        mnl = self.balance.min_loads
        mxl = self.balance.max_loads
        move_allowed = self._move_allowed
        crit_b = self._crit_base
        crit_w = self._crit_weight
        NIL = _NIL

        snap_cnt = self._snap_cnt
        snap_spans = self._snap_spans
        snap_parts = self._snap_parts
        snap_cnt[:] = cnt
        snap_spans[:] = spans
        snap_parts[:] = parts

        # The single reusable bucket, with its internals bound as locals
        # for the inlined insert/pop; the scalar max/count state is kept
        # in plain ints and written back before returning so reset()
        # stays coherent.
        bucket = self._bucket
        bucket.reset()
        blimit = bucket._limit
        bh = bucket._head
        bt = bucket._tail
        bp = bucket._prev
        bn = bucket._next
        bky = bucket._key
        bpr = bucket._present
        bmaxi = -1
        bcount = 0

        stored_target = self._stored_target
        order = list(self._movable)
        rng.shuffle(order)
        for v in order:
            # ---- best (gain, target) of v over feasible targets ----
            # Classify v's nets once -- the per-target contribution of
            # a net depends on the target only for "critical" span-2
            # nets where v is alone on its side (those gain +w iff the
            # target already holds a pin).  Everything else is
            # target-independent: span >= 3 nets stay cut wherever v
            # goes (0); span-1 nets with other pins on side s become
            # cut everywhere (-w); singleton nets never change (0).
            # The same code runs again at pop time below; calling one
            # shared method instead measured slower.
            s = parts[v]
            av = areas[v]
            base_gain = 0
            nc = 0
            for e in vnets[v]:
                w = eweight[e]
                if not w:
                    continue
                span = spans[e]
                if span == 2:
                    if cnt[e * k + s] == 1:
                        crit_b[nc] = e * k
                        crit_w[nc] = w
                        nc += 1
                elif span == 1 and cnt[e * k + s] != 1:
                    base_gain -= w
            new_src = loads[s] - av
            src_ok = mnl[s] <= new_src <= mxl[s]
            gain = 0
            target = -1
            best_load = 0.0
            for t in range(k):
                if t == s:
                    continue
                lt = loads[t]
                if not (
                    (src_ok and mnl[t] <= lt + av <= mxl[t])
                    or move_allowed(loads, av, s, t)
                ):
                    continue
                g = base_gain
                for i in range(nc):
                    if cnt[crit_b[i] + t]:
                        g += crit_w[i]
                if target < 0 or g > gain or (g == gain and lt < best_load):
                    gain = g
                    target = t
                    best_load = lt
            if target >= 0:
                # inlined bucket insert at the fresh gain
                idx = gain + blimit
                oh = bh[idx]
                bn[v] = oh
                bp[v] = NIL
                if oh != NIL:
                    bp[oh] = v
                else:
                    bt[idx] = v
                bh[idx] = v
                bky[v] = gain
                bpr[v] = True
                bcount += 1
                if idx > bmaxi:
                    bmaxi = idx
                stored_target[v] = target

        movable_count = len(self._movable)
        if pass_index == 0 or self.config.pass_move_limit_fraction >= 1.0:
            move_limit = movable_count
        else:
            move_limit = max(
                1,
                int(self.config.pass_move_limit_fraction * movable_count),
            )

        move_log: List[Tuple[int, int, int]] = []  # (v, source, target)
        log_append = move_log.append
        nmoves = 0
        best_prefix = 0
        best_cut = cut
        bk_state, bk_a, bk_b = self._quality_key(cut, loads)

        while nmoves < move_limit and bcount:
            # ---- inlined pop_max: LIFO head of the max bucket -------
            v = bh[bmaxi]
            nu = bn[v]
            bh[bmaxi] = nu
            if nu != NIL:
                bp[nu] = NIL
            else:
                bt[bmaxi] = NIL
            bpr[v] = False
            bcount -= 1
            stored_gain = bky[v]
            if bcount == 0:
                bmaxi = -1
            elif nu == NIL:
                while bh[bmaxi] == NIL:
                    bmaxi -= 1
            # ---- fresh best (gain, target) of v (same as above) ------
            s = parts[v]
            av = areas[v]
            base_gain = 0
            nc = 0
            for e in vnets[v]:
                w = eweight[e]
                if not w:
                    continue
                span = spans[e]
                if span == 2:
                    if cnt[e * k + s] == 1:
                        crit_b[nc] = e * k
                        crit_w[nc] = w
                        nc += 1
                elif span == 1 and cnt[e * k + s] != 1:
                    base_gain -= w
            new_src = loads[s] - av
            src_ok = mnl[s] <= new_src <= mxl[s]
            gain = 0
            target = -1
            best_load = 0.0
            for t in range(k):
                if t == s:
                    continue
                lt = loads[t]
                if not (
                    (src_ok and mnl[t] <= lt + av <= mxl[t])
                    or move_allowed(loads, av, s, t)
                ):
                    continue
                g = base_gain
                for i in range(nc):
                    if cnt[crit_b[i] + t]:
                        g += crit_w[i]
                if target < 0 or g > gain or (g == gain and lt < best_load):
                    gain = g
                    target = t
                    best_load = lt
            if target < 0:
                continue  # no longer feasible; drop from this pass
            if gain != stored_gain or target != stored_target[v]:
                # Stale entry: re-insert with the fresh gain unless the
                # fresh gain is still the bucket maximum.
                if bcount and gain < bmaxi - blimit:
                    idx = gain + blimit
                    oh = bh[idx]
                    bn[v] = oh
                    bp[v] = NIL
                    if oh != NIL:
                        bp[oh] = v
                    else:
                        bt[idx] = v
                    bh[idx] = v
                    bky[v] = gain
                    bpr[v] = True
                    bcount += 1
                    if idx > bmaxi:
                        bmaxi = idx
                    stored_target[v] = target
                    continue
            # Apply the move.
            for e in vnets[v]:
                base = e * k
                c = cnt[base + s] - 1
                cnt[base + s] = c
                if c == 0:
                    spans[e] -= 1
                ct = cnt[base + target]
                if ct == 0:
                    spans[e] += 1
                cnt[base + target] = ct + 1
            parts[v] = target
            loads[s] -= av
            loads[target] += av
            cut -= gain
            log_append((v, s, target))
            nmoves += 1
            # ---- inlined _quality_key + best-prefix tracking --------
            viol = 0.0
            for blk in range(k):
                lb = loads[blk]
                lo = mnl[blk]
                if lb < lo:
                    viol += lo - lb
                elif lb > mxl[blk]:
                    viol += lb - mxl[blk]
            if viol == 0.0:
                state = 0
                a = cut
                b_ = max(loads) - min(loads)
            else:
                state = 1
                a = viol
                b_ = cut
            if state < bk_state or (
                state == bk_state
                and (a < bk_a or (a == bk_a and b_ < bk_b))
            ):
                bk_state = state
                bk_a = a
                bk_b = b_
                best_cut = cut
                best_prefix = nmoves

        bucket._count = bcount
        bucket._max_index = bmaxi

        # Restore the best prefix, cheaper direction first.  Each undo
        # is itself a move, so flipping the undone suffix backwards
        # restores cnt/spans exactly -- no rebuild next pass.  When the
        # pass keeps fewer moves than it undoes, copying the pass-start
        # snapshot back and flipping the kept prefix forwards is
        # cheaper.  Loads are floats, so either way they are unwound
        # with the backward delta arithmetic the reference uses (float
        # addition is not associative).
        undone = move_log[best_prefix:]
        undone.reverse()
        for v, s, t in undone:
            av = areas[v]
            loads[t] -= av
            loads[s] += av
        if best_prefix <= len(move_log) - best_prefix:
            cnt[:] = snap_cnt
            spans[:] = snap_spans
            parts[:] = snap_parts
            flips = move_log[:best_prefix]
        else:
            flips = [(v, t, s) for v, s, t in undone]
        for v, src, dst in flips:
            for e in vnets[v]:
                base = e * k
                c = cnt[base + src] - 1
                cnt[base + src] = c
                if c == 0:
                    spans[e] -= 1
                cd = cnt[base + dst]
                if cd == 0:
                    spans[e] += 1
                cnt[base + dst] = cd + 1
            parts[v] = dst
        return best_cut, len(move_log), move_log


def kway_balanced_construction(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Sequence[int],
    rng: random.Random,
) -> List[int]:
    """Random balanced k-way construction (fixed vertices forced).

    Free vertices are visited largest-first (random shuffle breaks area
    ties) and each is assigned to the feasible block with the most
    remaining capacity, random among ties.  Extracted from
    :func:`kway_fm_partition` so multistart drivers can pair it with a
    cached refiner; the rng consumption order is part of the determinism
    contract (shuffle, then one ``rng.choice`` per free vertex).
    """
    num_parts = balance.num_parts
    n = graph.num_vertices

    parts = [0] * n
    loads = [0.0] * num_parts
    free = []
    for v in range(n):
        f = fixture[v]
        if f == FREE:
            free.append(v)
        else:
            parts[v] = f
            loads[f] += graph.area(v)
    rng.shuffle(free)
    free.sort(key=graph.area, reverse=True)
    targets = [
        (lo + hi) / 2.0
        for lo, hi in zip(balance.min_loads, balance.max_loads)
    ]
    for v in free:
        remaining = [targets[b] - loads[b] for b in range(num_parts)]
        best = max(remaining)
        choices = [b for b, r in enumerate(remaining) if r == best]
        block = rng.choice(choices)
        parts[v] = block
        loads[block] += graph.area(v)
    return parts


def kway_fm_partition(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Optional[Sequence[int]] = None,
    config: Optional[KWayFMConfig] = None,
    seed: int = 0,
    refiner: Optional[KWayFMRefiner] = None,
) -> KWayFMResult:
    """Construct-and-refine: random balanced k-way start, then k-way FM.

    ``refiner``, when supplied, must be bound to the same
    (graph, balance, fixture) triple; passing one lets callers reuse its
    persistent kernel buffers across many seeds instead of rebuilding
    the engine per start.
    """
    num_parts = balance.num_parts
    n = graph.num_vertices
    if fixture is None:
        fixture = [FREE] * n
    validate_fixture(fixture, n, num_parts)
    rng = random.Random(seed)

    parts = kway_balanced_construction(graph, balance, fixture, rng)

    if refiner is None:
        refiner = KWayFMRefiner(
            graph, balance, fixture=fixture, config=config
        )
    return refiner.run(parts, seed=rng.getrandbits(32))
