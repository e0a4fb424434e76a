"""Multilevel FM hypergraph bipartitioner.

The paper's experimental engine: heavy-edge-matching coarsening with a
clustering-ratio stop, randomized FM initial partitioning at the coarsest
level, and CLIP-FM refinement at every level of the uncoarsening.
V-cycling is implemented but off by default ("we have determined that
V-cycling is a net loss in terms of overall cost-runtime profile of our
partitioner").  Fixed vertices survive every level: coarsening never
merges vertices fixed in different blocks, and refinement never moves a
fixed cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import (
    BalanceConstraint,
    relative_bipartition_balance,
)
from repro.partition.fm import FMBipartitioner, FMConfig
from repro.partition.initial import (
    random_balanced_bipartition,
    terminal_seeded_bipartition,
)
from repro.partition.matching import (
    CoarseLevel,
    coarsen,
    heavy_edge_matching,
    random_matching,
)
from repro.partition.solution import FREE, Bipartition, validate_fixture
from repro.runtime.observe import recorder as _observe

MATCHING_SCHEMES = ("heavy", "random")


@dataclass(frozen=True)
class MultilevelConfig:
    """Parameters of the multilevel engine.

    ``clustering_ratio`` is the maximum coarse/fine vertex-count ratio a
    matching round may produce; a round that shrinks less stops the
    coarsening (the matcher has run out of signal).  ``coarsest_size``
    stops coarsening once few enough movable vertices remain.
    ``refine_policy`` follows the paper's default of CLIP FM; the flat
    engine's pass-cutoff knob is exposed for the fixed-terminals studies.
    """

    coarsest_size: int = 120
    clustering_ratio: float = 0.9
    max_cluster_area_fraction: float = 0.04
    matching: str = "heavy"
    refine_policy: str = "clip"
    initial_starts: int = 4
    terminal_seeded_starts: bool = True
    pass_move_limit_fraction: float = 1.0
    vcycles: int = 0
    max_levels: int = 40

    def __post_init__(self) -> None:
        if self.matching not in MATCHING_SCHEMES:
            raise ValueError(
                f"unknown matching {self.matching!r}; "
                f"expected one of {MATCHING_SCHEMES}"
            )
        if not 0.0 < self.clustering_ratio < 1.0:
            raise ValueError("clustering_ratio must be in (0, 1)")
        if self.coarsest_size < 2:
            raise ValueError("coarsest_size must be at least 2")
        if self.initial_starts < 1:
            raise ValueError("initial_starts must be positive")
        if self.vcycles < 0:
            raise ValueError("vcycles must be non-negative")


@dataclass
class MultilevelResult:
    """Outcome of one multilevel run."""

    solution: Bipartition
    num_levels: int
    coarsest_vertices: int
    refinement_passes: int = 0
    vcycles_run: int = 0


class MultilevelBipartitioner:
    """Multilevel engine bound to one (graph, balance, fixture) triple."""

    def __init__(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        fixture: Optional[Sequence[int]] = None,
        config: Optional[MultilevelConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or MultilevelConfig()
        self.balance = balance or relative_bipartition_balance(
            graph.total_area, 0.02
        )
        if self.balance.num_parts != 2:
            raise ValueError("MultilevelBipartitioner is strictly 2-way")
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, 2)
        self.fixture = list(fixture)
        # FM engines pooled by graph shape: refinement at every level of
        # every start/V-cycle rebinds a pooled engine (buffers resized in
        # place) instead of allocating a fresh one.  Hierarchies from
        # different seeds produce slightly different coarse shapes, so the
        # pool is capped; overflow simply drops the pool and starts over.
        self._engine_pool: Dict[Tuple[int, int], FMBipartitioner] = {}

    _ENGINE_POOL_CAP = 64

    # ------------------------------------------------------------------
    def run(self, seed: int = 0) -> MultilevelResult:
        """One full multilevel start, deterministic in ``seed``.

        With an active trace recorder the run is wrapped in a
        ``multilevel`` span (coarsening, initial partitioning, and
        per-level refinement appear as child spans); with the default
        null recorder this delegates straight to the engine.
        """
        recorder = _observe.active()
        if not recorder.enabled:
            return self._run(seed)
        with recorder.span("multilevel", seed=seed) as span:
            result = self._run(seed)
            span.set(
                levels=result.num_levels,
                coarsest_vertices=result.coarsest_vertices,
                passes=result.refinement_passes,
                final_cut=result.solution.cut,
            )
            recorder.count("multilevel.runs")
            recorder.count("multilevel.levels", result.num_levels)
        return result

    def _run(self, seed: int = 0) -> MultilevelResult:
        """The uninstrumented engine (see :meth:`run`)."""
        rec = _observe.active()
        rng = random.Random(seed)
        levels = self._build_hierarchy(rng)
        coarsest_graph = levels[-1].coarse if levels else self.graph
        coarsest_fixture = levels[-1].fixture if levels else self.fixture

        with rec.span(
            "initial_partition", vertices=coarsest_graph.num_vertices
        ) as sp:
            parts, cut, passes = self._initial_partition(
                coarsest_graph, coarsest_fixture, rng
            )
            sp.set(cut=cut)

        # Uncoarsen with FM refinement at every level.  levels[i] maps
        # between graphs[i] (fine) and levels[i].coarse; graphs[0] is the
        # original hypergraph.  Each FM run reads its starting cut off
        # the pin counts it derives anyway.
        for i in range(len(levels) - 1, -1, -1):
            parts = levels[i].project(parts)
            fine_graph = levels[i - 1].coarse if i > 0 else self.graph
            fine_fixture = levels[i - 1].fixture if i > 0 else self.fixture
            with rec.span(
                "refine", level=i, vertices=fine_graph.num_vertices
            ) as sp:
                result = self._flat_engine(fine_graph, fine_fixture).run(parts)
                sp.set(cut=result.solution.cut)
            parts = result.solution.parts
            cut = result.solution.cut
            passes += result.num_passes

        vcycles_run = 0
        for _ in range(self.config.vcycles):
            with rec.span("vcycle", index=vcycles_run) as sp:
                parts, cut, extra = self._vcycle(parts, rng)
                sp.set(cut=cut)
            passes += extra
            vcycles_run += 1

        solution = Bipartition(parts=parts, cut=cut)
        return MultilevelResult(
            solution=solution,
            num_levels=len(levels),
            coarsest_vertices=coarsest_graph.num_vertices,
            refinement_passes=passes,
            vcycles_run=vcycles_run,
        )

    # ------------------------------------------------------------------
    def _build_hierarchy(
        self,
        rng: random.Random,
        partition_guard: Optional[Sequence[int]] = None,
    ) -> List[CoarseLevel]:
        """Coarsen until the movable count or the shrink rate bottoms out.

        ``partition_guard`` (used by V-cycling) restricts matching to
        vertex pairs inside the same block of an existing partition, so
        the current solution stays representable at every coarse level.
        """
        cfg = self.config
        rec = _observe.active()
        levels: List[CoarseLevel] = []
        graph = self.graph
        fixture = self.fixture
        guard = list(partition_guard) if partition_guard is not None else None
        max_cluster_area = cfg.max_cluster_area_fraction * graph.total_area

        while len(levels) < cfg.max_levels:
            movable = fixture.count(FREE)
            if movable <= cfg.coarsest_size:
                break
            # With a guard, merging is restricted to same-block pairs by
            # handing the matcher the guard as a pseudo-fixture; the true
            # fixture is still what propagates to the coarse level.  Any
            # guard-legal merge is fixture-legal because fixed vertices
            # always sit inside their own block.
            matcher_fixture = guard if guard is not None else fixture
            with rec.span(
                "coarsen",
                level=len(levels),
                fine_vertices=graph.num_vertices,
            ) as sp:
                labels = self._match(
                    graph, matcher_fixture, rng, max_cluster_area
                )
                coarse_n = max(labels) + 1
                sp.set(coarse_vertices=coarse_n)
                if coarse_n >= cfg.clustering_ratio * graph.num_vertices:
                    sp.set(stopped=True)
                    break
                level = self._coarsen(graph, fixture, labels)
            levels.append(level)
            graph = level.coarse
            fixture = level.fixture
            if guard is not None:
                new_guard = [0] * coarse_n
                for v, c in enumerate(labels):
                    new_guard[c] = guard[v]
                guard = new_guard
        return levels

    def _match(
        self,
        graph: Hypergraph,
        fixture: Sequence[int],
        rng: random.Random,
        max_cluster_area: float,
    ) -> List[int]:
        """One matching round (seam for the reference-stack subclass in
        ``tests/oracles/multilevel.py``, which swaps in the reference
        matchers)."""
        if self.config.matching == "heavy":
            return heavy_edge_matching(
                graph,
                fixture=fixture,
                rng=rng,
                max_cluster_area=max_cluster_area,
                num_parts=2,
            )
        return random_matching(
            graph,
            fixture=fixture,
            rng=rng,
            max_cluster_area=max_cluster_area,
            num_parts=2,
        )

    def _coarsen(
        self,
        graph: Hypergraph,
        fixture: Sequence[int],
        labels: Sequence[int],
    ) -> CoarseLevel:
        """One contraction (seam for the reference-stack subclass in
        ``tests/oracles/multilevel.py``, which swaps in the reference
        contraction)."""
        return coarsen(graph, fixture, labels)

    def _initial_partition(
        self,
        graph: Hypergraph,
        fixture: List[int],
        rng: random.Random,
    ) -> Tuple[List[int], int, int]:
        """Best of ``initial_starts`` FM runs, as (parts, cut, passes).

        Constructions alternate between random balanced assignments and
        (when the coarsest level carries fixed vertices) the
        terminal-seeded propagation construction -- the fixed-terminals
        regime rewards starting from what the terminals dictate rather
        than from noise.
        """
        engine = self._flat_engine(graph, fixture)
        has_terminals = self.config.terminal_seeded_starts and any(
            f != FREE for f in fixture
        )
        best_parts: Optional[List[int]] = None
        best_cut = 0
        passes = 0
        for start in range(self.config.initial_starts):
            if has_terminals and start % 2 == 0:
                init = terminal_seeded_bipartition(
                    graph, self.balance, fixture, rng=rng
                )
            else:
                init = random_balanced_bipartition(
                    graph, self.balance, fixture=fixture, rng=rng
                )
            result = engine.run(init)
            passes += result.num_passes
            if best_parts is None or result.solution.cut < best_cut:
                best_parts = list(result.solution.parts)
                best_cut = result.solution.cut
        assert best_parts is not None
        return best_parts, best_cut, passes

    def _vcycle(
        self, parts: List[int], rng: random.Random
    ) -> Tuple[List[int], int, int]:
        """One V-cycle: re-coarsen restricted to the current partition,
        refine back down, finish with a flat pass at the finest level.

        Returns (parts, cut, passes).  The guard keeps every cluster
        inside one block, so ``parts`` projects exactly onto the coarse
        hierarchy.
        """
        levels = self._build_hierarchy(rng, partition_guard=parts)
        coarse_parts = list(parts)
        for level in levels:
            projected = [0] * level.coarse.num_vertices
            for v, c in enumerate(level.contraction.fine_to_coarse):
                projected[c] = coarse_parts[v]
            coarse_parts = projected

        passes = 0
        current = coarse_parts
        for i in range(len(levels) - 1, -1, -1):
            engine = self._flat_engine(levels[i].coarse, levels[i].fixture)
            result = engine.run(current)
            passes += result.num_passes
            current = levels[i].project(result.solution.parts)
        final = self._flat_engine(self.graph, self.fixture).run(current)
        passes += final.num_passes
        return list(final.solution.parts), final.solution.cut, passes

    def _flat_engine(
        self, graph: Hypergraph, fixture: Sequence[int]
    ) -> FMBipartitioner:
        """An FM engine bound to ``(graph, fixture)``, from the pool.

        Engines are keyed by graph shape so a rebind resizes the pooled
        engine's buffers in place; every graph-derived member is still
        recomputed, so shape collisions are a pure allocation win, never
        a correctness hazard.
        """
        key = (graph.num_vertices, graph.num_nets)
        engine = self._engine_pool.get(key)
        if engine is not None:
            return engine.rebind(graph, fixture)
        cfg = self.config
        engine = FMBipartitioner(
            graph,
            self.balance,
            fixture=fixture,
            config=FMConfig(
                policy=cfg.refine_policy,
                pass_move_limit_fraction=cfg.pass_move_limit_fraction,
            ),
        )
        if len(self._engine_pool) >= self._ENGINE_POOL_CAP:
            self._engine_pool.clear()
        self._engine_pool[key] = engine
        return engine
