"""Vertex clustering / contraction.

Contraction maps each fine vertex to a cluster id and produces the coarse
hypergraph whose vertices are the clusters.  Nets collapse accordingly:
pins inside one cluster merge; nets left with a single pin disappear;
parallel nets (identical coarse pin sets) are merged by summing weights.
This is the workhorse of the multilevel partitioner and of the
terminal-clustering equivalence transform from Section V of the paper.

Kernel layout
-------------

:func:`contract` is a flat-buffer kernel.  It iterates the fine graph's
CSR through the cached plain-list views (:meth:`Hypergraph.csr_lists`),
dedups the pins of each net through a per-cluster stamp array (one
generation per net, no set objects), dedups *parallel* nets by hashing
each sorted coarse pin span exactly once, and writes the coarse
``net_ptr``/``net_pins``/areas/weights straight into :mod:`array`-module
typed buffers.  The coarse
:class:`Hypergraph` is assembled via :meth:`Hypergraph.from_buffers`,
which skips all per-pin construction-time validation -- the kernel
builds both CSR directions itself with the same counting sort the
validating constructor uses.

The kernel's contract is strict: the coarse graph is **bit-identical**
to the one produced by the reference implementation retained as a
test oracle in ``tests/oracles/contraction.py`` -- same net order (first
occurrence of each distinct coarse pin set), same sorted pin lists, same
summed integer weights, same float areas accumulated in the same order,
same CSR buffers.  ``tests/partition/test_coarsening_differential.py``
and the ``contraction`` gate of ``benchmarks/gates.py`` enforce this.

``coarse_to_fine`` is materialized lazily: the multilevel refinement
path only ever reads ``fine_to_coarse`` (projection), so the member
lists are built on first access instead of at every level.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.runtime.observe import recorder as _observe


class Contraction:
    """Result of :func:`contract`.

    ``coarse``            the contracted hypergraph;
    ``fine_to_coarse``    cluster id of every fine vertex;
    ``coarse_to_fine``    member fine vertices of every cluster
                          (materialized lazily on first access).
    """

    __slots__ = ("coarse", "fine_to_coarse", "_coarse_to_fine")

    def __init__(
        self,
        coarse: Hypergraph,
        fine_to_coarse: List[int],
        coarse_to_fine: Optional[List[List[int]]] = None,
    ) -> None:
        self.coarse = coarse
        self.fine_to_coarse = fine_to_coarse
        self._coarse_to_fine = coarse_to_fine

    @property
    def coarse_to_fine(self) -> List[List[int]]:
        """Member fine vertices of every cluster (built on first use)."""
        if self._coarse_to_fine is None:
            members: List[List[int]] = [
                [] for _ in range(self.coarse.num_vertices)
            ]
            for v, c in enumerate(self.fine_to_coarse):
                members[c].append(v)
            self._coarse_to_fine = members
        return self._coarse_to_fine

    def project_partition(self, coarse_parts: Sequence[int]) -> List[int]:
        """Lift a coarse partition vector back to fine vertices."""
        return [coarse_parts[c] for c in self.fine_to_coarse]

    def __repr__(self) -> str:
        return (
            f"Contraction(fine={len(self.fine_to_coarse)}, "
            f"coarse={self.coarse.num_vertices})"
        )


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
    cl = clusters if isinstance(clusters, list) else list(clusters)
    k = max(cl) + 1
    # Validate at C speed (min/set are single passes); the slow loops
    # below only run to name the offending id in the error message.
    if min(cl) < 0:
        for c in cl:
            if c < 0:
                raise HypergraphError(f"cluster id {c} out of range")
    distinct = set(cl)
    if len(distinct) != k:
        seen = bytearray(k)
        for c in cl:
            seen[c] = 1
        missing = seen.index(0)
        raise HypergraphError(
            f"cluster ids must be contiguous; id {missing} is unused"
        )

    # Cluster areas, accumulated in fine-vertex order -- the same float
    # addition sequence as the reference, so the sums are bit-identical.
    net_ptr, net_pins, _, _, fine_weights, fine_areas = graph.csr_lists()
    areas = [0.0] * k
    for c, a in zip(cl, fine_areas):
        areas[c] += a
    cl_get = cl.__getitem__

    # Coarse nets straight into CSR form (plain lists while building --
    # list indexing returns cached objects where array indexing boxes --
    # converted to typed buffers in one C pass at the end).  Two- and
    # three-pin nets (the bulk of circuit netlists, and an ever larger
    # share at coarse levels, where vertices merge faster than nets
    # shrink) take branches that dedup and sort by direct comparisons,
    # with no stamp work; larger nets dedup their pins through a stamp
    # array (one fresh mark per deduping net).  Parallel-net dedup
    # hashes each surviving sorted pin tuple once, via a single
    # ``setdefault`` probe.
    stamp = [0] * k
    coarse_ptr: List[int] = [0]
    coarse_pins: List[int] = []
    coarse_weights: List[int] = []
    index_of: Dict[tuple, int] = {}
    pins: List[int] = []
    pins_append = pins.append
    coarse_pins_extend = coarse_pins.extend
    coarse_ptr_append = coarse_ptr.append
    coarse_weights_append = coarse_weights.append
    claim_slot = index_of.setdefault
    mark = 0
    lo = 0
    for hi, w in zip(net_ptr[1:], fine_weights):
        size = hi - lo
        if size == 2:
            a = cl[net_pins[lo]]
            b = cl[net_pins[lo + 1]]
            if a == b:
                lo = hi
                continue
            key = (a, b) if a < b else (b, a)
        elif size == 3:
            a = cl[net_pins[lo]]
            b = cl[net_pins[lo + 1]]
            c = cl[net_pins[lo + 2]]
            if a == b:
                if b == c:
                    lo = hi
                    continue
                key = (a, c) if a < c else (c, a)
            elif a == c or b == c:
                key = (a, b) if a < b else (b, a)
            else:
                if a > b:
                    a, b = b, a
                if b > c:
                    b, c = c, b
                if a > b:
                    a, b = b, a
                key = (a, b, c)
        else:
            mark += 1
            del pins[:]
            for c in map(cl_get, net_pins[lo:hi]):
                if stamp[c] != mark:
                    stamp[c] = mark
                    pins_append(c)
            if len(pins) < 2:
                lo = hi
                continue
            pins.sort()
            key = tuple(pins)
        lo = hi
        if merge_parallel_nets:
            idx = len(coarse_weights)
            slot = claim_slot(key, idx)
            if slot != idx:
                coarse_weights[slot] += w
                continue
        coarse_pins_extend(key)
        coarse_ptr_append(len(coarse_pins))
        coarse_weights_append(w)

    # Transposed (vertex -> nets) CSR by the same counting sort the
    # validating Hypergraph constructor runs.
    num_coarse_nets = len(coarse_weights)
    total_pins = len(coarse_pins)
    vtx_ptr = [0] * (k + 1)
    for c in coarse_pins:
        vtx_ptr[c + 1] += 1
    for i in range(k):
        vtx_ptr[i + 1] += vtx_ptr[i]
    vtx_nets = [0] * total_pins
    cursor = list(vtx_ptr)
    lo = 0
    for e, hi in enumerate(coarse_ptr[1:]):
        for c in coarse_pins[lo:hi]:
            vtx_nets[cursor[c]] = e
            cursor[c] += 1
        lo = hi

    coarse = Hypergraph.from_buffers(
        {
            "num_vertices": k,
            "net_ptr": array("q", coarse_ptr),
            "net_pins": array("q", coarse_pins),
            "vtx_ptr": array("q", vtx_ptr),
            "vtx_nets": array("q", vtx_nets),
            "areas": array("d", areas),
            "net_weights": array("q", coarse_weights),
            "vertex_names": None,
            "net_names": None,
            "extra_resources": None,
        }
    )
    # The plain lists built above ARE the coarse graph's csr_lists();
    # seeding the cache saves the tolist() round trip every downstream
    # kernel (next-level matching, the next contract) would otherwise
    # pay.  Consumers treat the views as read-only.
    coarse._csr_lists = (
        coarse_ptr,
        coarse_pins,
        vtx_ptr,
        vtx_nets,
        coarse_weights,
        areas,
    )
    rec = _observe.active()
    if rec.enabled:
        rec.count("contract.calls")
        rec.count("contract.vertices_removed", n - k)
        rec.count("contract.nets_dropped", graph.num_nets - num_coarse_nets)
        rec.count("contract.pins_dropped", len(net_pins) - total_pins)
    return Contraction(coarse=coarse, fine_to_coarse=list(clusters))


def normalize_clusters(raw: Sequence[Optional[int]]) -> List[int]:
    """Compact an arbitrary labelling into contiguous cluster ids.

    ``None`` entries become singleton clusters.  Useful for matching-based
    coarseners that label only matched vertices.
    """
    remap: Dict[int, int] = {}
    out: List[int] = []
    next_id = 0
    for label in raw:
        if label is None:
            out.append(next_id)
            next_id += 1
            continue
        if label not in remap:
            remap[label] = next_id
            next_id += 1
        out.append(remap[label])
    # Labels shared between entries must still be shared after remapping,
    # which the dict guarantees; contiguity holds by construction.
    return out
