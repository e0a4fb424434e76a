"""Partition solutions and cut evaluation.

A partition of a hypergraph is a vector assigning each vertex to a block
``0..k-1``.  The cut objective throughout this repository is the weighted
*net cut*: the sum of weights of nets spanning more than one block (the
paper's min-cut bipartitioning objective; for k-way it is the plain
"cut nets" metric rather than sum-of-external-degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.hypergraph.hypergraph import Hypergraph

FREE = -1
"""Marker in a fixture vector for a vertex free to move anywhere."""


def cut_size(graph: Hypergraph, parts: Sequence[int]) -> int:
    """Weighted number of nets spanning more than one block."""
    net_weights = graph.net_weights
    return sum(net_weights[e] for e in cut_nets(graph, parts))


def cut_nets(graph: Hypergraph, parts: Sequence[int]) -> List[int]:
    """Ids of nets spanning more than one block."""
    # Reuse the CSR lists an engine has cached on the graph; otherwise
    # take a one-off list copy, so a lone cut check caches nothing.
    lists = graph._csr_lists
    if lists is None:
        buffers = graph.to_buffers()
        net_ptr = buffers["net_ptr"].tolist()
        net_pins = buffers["net_pins"].tolist()
    else:
        net_ptr, net_pins = lists[0], lists[1]
    out = []
    for e in range(graph.num_nets):
        pins = net_pins[net_ptr[e] : net_ptr[e + 1]]
        if not pins:
            continue
        first = parts[pins[0]]
        for v in pins:
            if parts[v] != first:
                out.append(e)
                break
    return out


def block_loads(
    graph: Hypergraph, parts: Sequence[int], num_parts: int
) -> List[float]:
    """Total vertex area in each block."""
    loads = [0.0] * num_parts
    for v in range(graph.num_vertices):
        loads[parts[v]] += graph.area(v)
    return loads


def block_resource_loads(
    graph: Hypergraph,
    parts: Sequence[int],
    num_parts: int,
    resource: int,
) -> List[float]:
    """Total value of balance resource ``resource`` per block."""
    vec = graph.resource_vector(resource)
    loads = [0.0] * num_parts
    for v in range(graph.num_vertices):
        loads[parts[v]] += vec[v]
    return loads


def pins_per_block(
    graph: Hypergraph, net: int, parts: Sequence[int], num_parts: int
) -> List[int]:
    """Pin count of ``net`` in each block -- the FM gain bookkeeping."""
    counts = [0] * num_parts
    for v in graph.net_pins(net):
        counts[parts[v]] += 1
    return counts


@dataclass
class Bipartition:
    """A 2-way solution with its cut value.

    ``parts[v]`` is 0 or 1.  ``cut`` is the weighted net cut; callers may
    trust it only if they obtained the object from an engine in this
    package (engines maintain it incrementally and re-verify in tests).
    """

    parts: List[int]
    cut: int

    def copy(self) -> "Bipartition":
        """Deep copy (the parts vector is owned by the result)."""
        return Bipartition(parts=list(self.parts), cut=self.cut)

    def verify_cut(self, graph: Hypergraph) -> bool:
        """Recompute the cut from scratch and compare."""
        return cut_size(graph, self.parts) == self.cut


def respect_fixture(
    parts: Sequence[int], fixture: Sequence[int]
) -> bool:
    """True when every fixed vertex sits in its mandated block."""
    return all(
        f == FREE or p == f for p, f in zip(parts, fixture)
    )


def validate_fixture(
    fixture: Sequence[int], num_vertices: int, num_parts: int
) -> None:
    """Raise ``ValueError`` on malformed fixture vectors."""
    if len(fixture) != num_vertices:
        raise ValueError(
            f"fixture has length {len(fixture)}, expected {num_vertices}"
        )
    for v, f in enumerate(fixture):
        if f != FREE and not 0 <= f < num_parts:
            raise ValueError(
                f"vertex {v} fixed to invalid block {f} "
                f"(num_parts={num_parts})"
            )


def free_fixture(num_vertices: int) -> List[int]:
    """A fixture vector with every vertex free."""
    return [FREE] * num_vertices


def count_fixed(fixture: Sequence[int]) -> int:
    """Number of fixed (non-FREE) entries."""
    return sum(1 for f in fixture if f != FREE)


def movable_vertices(fixture: Sequence[int]) -> List[int]:
    """Ids of free vertices."""
    return [v for v, f in enumerate(fixture) if f == FREE]


def apply_fixture(
    parts: List[int], fixture: Sequence[int]
) -> List[int]:
    """Overwrite fixed vertices' blocks in-place; returns ``parts``."""
    for v, f in enumerate(fixture):
        if f != FREE:
            parts[v] = f
    return parts


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of vertices assigned differently by two solutions."""
    if len(a) != len(b):
        raise ValueError("solutions have different lengths")
    return sum(1 for x, y in zip(a, b) if x != y)


def symmetric_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Bipartition distance up to block relabelling.

    ``min(H(a, b), H(a, 1-b))`` -- the natural distance for free
    bipartitions, where the two block labels are interchangeable.
    """
    if len(a) != len(b):
        raise ValueError("solutions have different lengths")
    direct = sum(1 for x, y in zip(a, b) if x != y)
    return min(direct, len(a) - direct)
