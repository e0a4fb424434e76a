"""Reference (pre-kernel) FM implementations, kept verbatim.

These are the straightforward per-pass-rebuild engines that shipped
before the flat-array kernel rewrite of :mod:`repro.partition.fm` and
:mod:`repro.partition.kwayfm`.  They rebuild the net pin counts and all
gains from scratch at the start of every pass and allocate fresh gain
buckets each time -- clear, slow, and easy to audit.

They exist for two reasons:

* **Differential testing.**  The kernel's contract is *bit-identical
  move sequences*: same moves in the same order, same pass records, same
  cuts.  ``tests/partition/test_fm_kernel_differential.py`` drives both
  implementations over random instances and asserts exactly that.
* **Gating.**  The ``fm`` and ``kway`` gates of ``benchmarks/gates.py``
  compare both implementations on larger generated instances.

Do not optimize this module.  Its value is that it stays simple enough
to be obviously correct; the kernel is the one that is allowed to be
clever.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import (
    _HARD_PASS_CAP,
    FMConfig,
    FMResult,
    PassRecord,
    _QualityKey,
)
from repro.partition.gainbucket import GainBucket
from repro.partition.kwayfm import _KWAY_PASS_CAP, KWayFMConfig, KWayFMResult
from repro.partition.solution import (
    FREE,
    Bipartition,
    cut_size,
    validate_fixture,
)


class ReferenceFMBipartitioner:
    """Seed FM engine: per-pass rebuilds, fresh buckets, linear scans."""

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Optional[Sequence[int]] = None,
        config: Optional[FMConfig] = None,
    ) -> None:
        if balance.num_parts != 2:
            raise ValueError("ReferenceFMBipartitioner is strictly 2-way")
        self.graph = graph
        self.balance = balance
        self.config = config or FMConfig()
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, 2)
        self.fixture = list(fixture)

        self._vnets: List[List[int]] = [
            list(graph.vertex_nets(v)) for v in range(n)
        ]
        self._epins: List[List[int]] = [
            list(graph.net_pins(e)) for e in range(graph.num_nets)
        ]
        self._eweight: List[int] = list(graph.net_weights)
        self._areas: List[float] = list(graph.areas)
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

    @property
    def num_movable(self) -> int:
        """Number of free vertices."""
        return len(self._movable)

    # ------------------------------------------------------------------
    def run(self, initial_parts: Sequence[int]) -> FMResult:
        """Improve ``initial_parts`` and return the best solution found."""
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
        cut = cut_size(graph, parts)
        result = FMResult(
            solution=Bipartition(parts=parts, cut=cut), initial_cut=cut
        )
        if not self._movable:
            return result

        max_passes = self.config.max_passes
        if max_passes < 0:
            max_passes = _HARD_PASS_CAP
        pass_index = 0
        while pass_index < max_passes:
            key_before = self._progress_key(cut, loads)
            record, cut, moves = self._run_pass(parts, loads, cut, pass_index)
            result.passes.append(record)
            if self.config.record_moves:
                result.move_logs.append(moves)
            pass_index += 1
            if not self._progress_key(cut, loads) < key_before:
                break
        result.solution = Bipartition(parts=parts, cut=cut)
        return result

    # ------------------------------------------------------------------
    def _run_pass(
        self,
        parts: List[int],
        loads: List[float],
        cut: int,
        pass_index: int,
    ) -> Tuple[PassRecord, int, List[int]]:
        """One FM pass; leaves ``parts``/``loads`` at the best prefix."""
        graph = self.graph
        epins = self._epins
        eweight = self._eweight
        vnets = self._vnets
        areas = self._areas
        clip = self.config.policy == "clip"
        fifo = self.config.policy == "fifo"

        # Net pin counts per side, rebuilt from scratch every pass.
        num_nets = graph.num_nets
        cnt = [[0, 0] for _ in range(num_nets)]
        for e in range(num_nets):
            c = cnt[e]
            for v in epins[e]:
                c[parts[v]] += 1

        # Actual gains of all movable vertices, also from scratch.
        gain = [0] * graph.num_vertices
        for v in self._movable:
            s = parts[v]
            g = 0
            for e in vnets[v]:
                c = cnt[e]
                w = eweight[e]
                if c[s] == 1:
                    g += w
                if c[1 - s] == 0:
                    g -= w
            gain[v] = g

        limit = 2 * self._max_gain if clip else self._max_gain
        buckets = (
            GainBucket(graph.num_vertices, limit),
            GainBucket(graph.num_vertices, limit),
        )
        if clip:
            for v in sorted(self._movable, key=lambda u: gain[u]):
                buckets[parts[v]].insert(v, 0)
        else:
            for v in self._movable:
                buckets[parts[v]].insert(v, gain[v])

        movable_count = len(self._movable)
        if pass_index == 0 or self.config.pass_move_limit_fraction >= 1.0:
            move_limit = movable_count
        else:
            move_limit = max(
                1, int(self.config.pass_move_limit_fraction * movable_count)
            )

        cut_before = cut
        move_log: List[int] = []
        best_prefix = 0
        best_cut = cut
        best_key = self._quality_key(cut, loads)

        while len(move_log) < move_limit:
            v = self._select_move(buckets, loads, fifo)
            if v is None:
                break
            s = parts[v]
            t = 1 - s
            buckets[s].remove(v)  # lock v for the rest of the pass
            cut -= gain[v]

            for e in vnets[v]:
                c = cnt[e]
                w = eweight[e]
                if w:
                    if c[t] == 0:
                        self._bump_all_free(e, w, gain, buckets, parts)
                    elif c[t] == 1:
                        self._bump_single(e, t, -w, gain, buckets, parts, v)
                c[s] -= 1
                c[t] += 1
                if w:
                    if c[s] == 0:
                        self._bump_all_free(e, -w, gain, buckets, parts)
                    elif c[s] == 1:
                        self._bump_single(e, s, w, gain, buckets, parts, v)

            parts[v] = t
            loads[s] -= areas[v]
            loads[t] += areas[v]
            move_log.append(v)

            key = self._quality_key(cut, loads)
            if key < best_key:
                best_key = key
                best_cut = cut
                best_prefix = len(move_log)

        moves_made = len(move_log)
        for v in reversed(move_log[best_prefix:]):
            t = parts[v]
            s = 1 - t
            parts[v] = s
            loads[t] -= areas[v]
            loads[s] += areas[v]
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
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut))
        return (1, violation)

    def _select_move(
        self,
        buckets: Tuple[GainBucket, GainBucket],
        loads: List[float],
        fifo: bool,
    ) -> Optional[int]:
        areas = self._areas
        best_v: Optional[int] = None
        best_side = -1
        best_key = 0
        for side in (0, 1):
            bucket = buckets[side]
            for v in bucket.iter_descending(fifo=fifo):
                key = bucket.key_of(v)
                if best_v is not None and key < best_key:
                    break
                if self._move_allowed(loads, areas[v], side, 1 - side):
                    if (
                        best_v is None
                        or key > best_key
                        or (key == best_key and loads[side] > loads[best_side])
                    ):
                        best_v, best_side, best_key = v, side, key
                    break
        return best_v

    def _move_allowed(
        self, loads: List[float], weight: float, source: int, target: int
    ) -> bool:
        if self.balance.allows_move(loads, weight, source, target):
            return True
        if loads[source] < loads[target]:
            return False
        after = [
            load - weight if i == source else
            load + weight if i == target else load
            for i, load in enumerate(loads)
        ]
        return self.balance.violation(after) <= self._escape_slack

    def _bump_all_free(
        self,
        e: int,
        delta: int,
        gain: List[int],
        buckets: Tuple[GainBucket, GainBucket],
        parts: List[int],
    ) -> None:
        for u in self._epins[e]:
            bucket = buckets[parts[u]]
            if u in bucket:
                gain[u] += delta
                bucket.adjust(u, delta)

    def _bump_single(
        self,
        e: int,
        side: int,
        delta: int,
        gain: List[int],
        buckets: Tuple[GainBucket, GainBucket],
        parts: List[int],
        moving: int,
    ) -> None:
        for u in self._epins[e]:
            if u != moving and parts[u] == side:
                bucket = buckets[side]
                if u in bucket:
                    gain[u] += delta
                    bucket.adjust(u, delta)
                return


class ReferenceKWayFMRefiner:
    """Seed k-way FM engine: per-pass rebuilds of counts and spans."""

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

        self._vnets: List[List[int]] = [
            list(graph.vertex_nets(v)) for v in range(n)
        ]
        self._epins: List[List[int]] = [
            list(graph.net_pins(e)) for e in range(graph.num_nets)
        ]
        self._eweight: List[int] = list(graph.net_weights)
        self._areas: List[float] = list(graph.areas)
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

    # ------------------------------------------------------------------
    def run(
        self, initial_parts: Sequence[int], seed: int = 0
    ) -> KWayFMResult:
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
        cut = cut_size(graph, parts)
        result = KWayFMResult(
            parts=parts, cut=cut, initial_cut=cut
        )
        if not self._movable:
            return result

        rng = random.Random(seed)
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
            if self.config.record_moves:
                result.move_logs.append(log)
            if not self._progress_key(cut, loads) < key_before:
                break
        result.parts = parts
        result.cut = cut
        return result

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

    def _best_move(
        self,
        v: int,
        parts: List[int],
        cnt: List[List[int]],
        spans: List[int],
        loads: List[float],
    ) -> Tuple[int, int]:
        s = parts[v]
        best_gain = None
        best_target = -1
        for t in range(self.num_parts):
            if t == s:
                continue
            if not self._move_allowed(loads, self._areas[v], s, t):
                continue
            gain = 0
            for e in self._vnets[v]:
                w = self._eweight[e]
                if not w:
                    continue
                c = cnt[e]
                span = spans[e]
                was_cut = span >= 2
                new_span = span
                if c[s] == 1:
                    new_span -= 1
                if c[t] == 0:
                    new_span += 1
                now_cut = new_span >= 2
                if was_cut and not now_cut:
                    gain += w
                elif not was_cut and now_cut:
                    gain -= w
            if best_gain is None or gain > best_gain or (
                gain == best_gain and loads[t] < loads[best_target]
            ):
                best_gain = gain
                best_target = t
        return (best_gain if best_gain is not None else 0, best_target)

    def _move_allowed(
        self, loads: List[float], weight: float, source: int, target: int
    ) -> bool:
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
        graph = self.graph
        k = self.num_parts
        num_nets = graph.num_nets
        cnt = [[0] * k for _ in range(num_nets)]
        spans = [0] * num_nets
        for e in range(num_nets):
            c = cnt[e]
            for v in self._epins[e]:
                c[parts[v]] += 1
            spans[e] = sum(1 for x in c if x)

        bucket = GainBucket(graph.num_vertices, self._max_gain)
        stored_target = [-1] * graph.num_vertices
        order = list(self._movable)
        rng.shuffle(order)
        for v in order:
            gain, target = self._best_move(v, parts, cnt, spans, loads)
            if target >= 0:
                bucket.insert(v, gain)
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
        best_prefix = 0
        best_cut = cut
        best_key = self._quality_key(cut, loads)

        while len(move_log) < move_limit and len(bucket):
            v = bucket.pop_max()
            stored_gain = bucket.key_of(v)
            gain, target = self._best_move(v, parts, cnt, spans, loads)
            if target < 0:
                continue  # no longer feasible; drop from this pass
            if gain != stored_gain or target != stored_target[v]:
                current_max = bucket.max_key()
                if current_max is not None and gain < current_max:
                    bucket.insert(v, gain)
                    stored_target[v] = target
                    continue
            s = parts[v]
            for e in self._vnets[v]:
                c = cnt[e]
                c[s] -= 1
                if c[s] == 0:
                    spans[e] -= 1
                if c[target] == 0:
                    spans[e] += 1
                c[target] += 1
            parts[v] = target
            loads[s] -= self._areas[v]
            loads[target] += self._areas[v]
            cut -= gain
            move_log.append((v, s, target))
            key = self._quality_key(cut, loads)
            if key < best_key:
                best_key = key
                best_cut = cut
                best_prefix = len(move_log)

        for v, s, t in reversed(move_log[best_prefix:]):
            parts[v] = s
            loads[t] -= self._areas[v]
            loads[s] += self._areas[v]
        return best_cut, len(move_log), move_log
