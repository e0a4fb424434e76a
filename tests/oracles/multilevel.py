"""The multilevel engine running the full reference stack.

:class:`ReferenceMultilevelBipartitioner` overrides the three seams of
:class:`repro.partition.multilevel.MultilevelBipartitioner` --
``_match``, ``_coarsen`` and ``_flat_engine`` -- with the reference
matchers, the reference contraction and a fresh reference FM engine per
level per start (the pre-pool allocation pattern).  Everything else,
the V-cycle logic included, is the product class's, so comparing the
two runs compares the kernel stack with the oracle stack end to end.
"""

from __future__ import annotations

from repro.partition.fm import FMConfig
from repro.partition.multilevel import MultilevelBipartitioner
from tests.oracles import matching
from tests.oracles.fm import ReferenceFMBipartitioner


class ReferenceMultilevelBipartitioner(MultilevelBipartitioner):
    """Multilevel bipartitioning over the reference engines."""

    def _match(self, graph, fixture, rng, max_cluster_area):
        if self.config.matching == "heavy":
            return matching.heavy_edge_matching(
                graph,
                fixture=fixture,
                rng=rng,
                max_cluster_area=max_cluster_area,
            )
        return matching.random_matching(
            graph,
            fixture=fixture,
            rng=rng,
            max_cluster_area=max_cluster_area,
        )

    def _coarsen(self, graph, fixture, labels):
        return matching.coarsen(graph, fixture, labels)

    def _flat_engine(self, graph, fixture):
        cfg = self.config
        return ReferenceFMBipartitioner(
            graph,
            self.balance,
            fixture=fixture,
            config=FMConfig(
                policy=cfg.refine_policy,
                pass_move_limit_fraction=cfg.pass_move_limit_fraction,
            ),
        )
