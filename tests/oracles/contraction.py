"""Reference (pre-kernel) contraction, kept verbatim.

This is the straightforward dict-and-tuple implementation of
:func:`repro.hypergraph.contraction.contract` that shipped before the
flat-buffer kernel rewrite: per-net coarse pin sets via ``sorted(set)``,
parallel-net dedup through a ``Dict[Tuple[int, ...], int]``, and a full
validating :class:`Hypergraph` construction for the coarse graph.

It exists for the same two reasons as :mod:`tests.oracles.fm`:

* **Differential testing.**  The kernel promises *bit-identical* coarse
  graphs: same net order, same sorted pin lists, same summed weights and
  float areas, same CSR buffers.
  ``tests/partition/test_coarsening_differential.py`` asserts exactly
  that over random instances.
* **Gating.**  The ``contraction`` gate of ``benchmarks/gates.py``
  compares both implementations on larger generated instances.

Do not optimize this module.  Its value is that it stays simple enough
to be obviously correct; the kernel is the one allowed to be clever.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.hypergraph.contraction import Contraction
from repro.hypergraph.hypergraph import Hypergraph, HypergraphError


def contract(
    graph: Hypergraph,
    clusters: Sequence[int],
    merge_parallel_nets: bool = True,
) -> Contraction:
    """Contract ``graph`` according to the cluster vector ``clusters``.

    ``clusters[v]`` is the cluster id of fine vertex ``v``; ids must form
    a contiguous range ``0..k-1``.  Cluster areas are the sums of member
    areas.  Nets reduced to fewer than two distinct clusters are dropped
    (they can never be cut).  With ``merge_parallel_nets`` (the default,
    and what heavy-edge coarsening relies on), nets with identical coarse
    pin sets merge into one net whose weight is the sum.
    """
    n = graph.num_vertices
    if len(clusters) != n:
        raise HypergraphError(
            f"cluster vector has length {len(clusters)}, expected {n}"
        )
    if n == 0:
        return Contraction(Hypergraph([], 0), [], [])
    k = max(clusters) + 1
    seen = [False] * k
    for c in clusters:
        if not 0 <= c < k:
            raise HypergraphError(f"cluster id {c} out of range")
        seen[c] = True
    if not all(seen):
        missing = seen.index(False)
        raise HypergraphError(
            f"cluster ids must be contiguous; id {missing} is unused"
        )

    coarse_to_fine: List[List[int]] = [[] for _ in range(k)]
    for v, c in enumerate(clusters):
        coarse_to_fine[c].append(v)
    areas = [0.0] * k
    for v, c in enumerate(clusters):
        areas[c] += graph.area(v)

    coarse_nets: List[Tuple[int, ...]] = []
    coarse_weights: List[int] = []
    index_of: Dict[Tuple[int, ...], int] = {}
    for e in range(graph.num_nets):
        coarse_pins = sorted({clusters[v] for v in graph.net_pins(e)})
        if len(coarse_pins) < 2:
            continue
        key = tuple(coarse_pins)
        w = graph.net_weight(e)
        if merge_parallel_nets:
            slot = index_of.get(key)
            if slot is not None:
                coarse_weights[slot] += w
                continue
            index_of[key] = len(coarse_nets)
        coarse_nets.append(key)
        coarse_weights.append(w)

    coarse = Hypergraph(
        coarse_nets,
        num_vertices=k,
        areas=areas,
        net_weights=coarse_weights,
    )
    return Contraction(
        coarse=coarse,
        fine_to_coarse=list(clusters),
        coarse_to_fine=coarse_to_fine,
    )
