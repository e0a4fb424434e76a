"""Core hypergraph data structure.

A :class:`Hypergraph` stores a set of weighted vertices (cells, pads) and
weighted hyperedges (nets).  Pin membership is kept in CSR (compressed
sparse row) form in both directions -- nets-to-vertices and
vertices-to-nets -- so that iteration over the pins of a net, or over the
nets incident to a vertex, is an O(degree) slice with no per-edge object
overhead.  This matters: the FM inner loop touches these arrays millions
of times.

The structure is immutable after construction.  Mutating workflows
(clustering, contraction) produce *new* hypergraphs via
:mod:`repro.hypergraph.contraction`.

Storage is :mod:`array`-module typed buffers rather than Python lists:
a pin costs 8 bytes instead of a boxed ``int`` reference, and the whole
structure round-trips through :meth:`Hypergraph.to_buffers` /
:meth:`Hypergraph.from_buffers` as a handful of flat machine-typed
blobs.  That round trip is also the pickle path (see ``__reduce__``),
which keeps process-pool fan-out in :mod:`repro.runtime` cheap: workers
receive compact buffers and skip all construction-time validation.
"""

from __future__ import annotations

from array import array
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

_INDEX_TYPECODE = "q"
_FLOAT_TYPECODE = "d"


class HypergraphError(ValueError):
    """Raised for structurally invalid hypergraph constructions."""


class Hypergraph:
    """A weighted hypergraph with per-vertex areas and per-net weights.

    Parameters
    ----------
    nets:
        Iterable of pin lists; ``nets[e]`` is the sequence of vertex ids
        belonging to net ``e``.  Vertex ids must lie in ``[0, num_vertices)``.
    num_vertices:
        Total number of vertices.  May exceed the largest id referenced by
        any net (isolated vertices are legal and common: pads whose nets
        were filtered, spare cells, ...).
    areas:
        Optional per-vertex area (primary balance resource).  Defaults to
        unit areas.  Zero areas are legal and used for terminals.
    net_weights:
        Optional per-net integer weight.  Defaults to 1.  FM gain buckets
        require integer weights.
    vertex_names / net_names:
        Optional identifiers carried through I/O round trips.
    extra_resources:
        Optional list of additional per-vertex resource vectors for
        multi-balanced partitioning (each a length-``num_vertices``
        sequence), e.g. pin count or power per cell.
    """

    __slots__ = (
        "_num_vertices",
        "_num_nets",
        "_net_ptr",
        "_net_pins",
        "_vtx_ptr",
        "_vtx_nets",
        "_areas",
        "_net_weights",
        "_vertex_names",
        "_net_names",
        "_extra_resources",
        "_total_area",
        "_csr_lists",
        "_match_tables",
    )

    def __init__(
        self,
        nets: Iterable[Sequence[int]],
        num_vertices: int,
        areas: Optional[Sequence[float]] = None,
        net_weights: Optional[Sequence[int]] = None,
        vertex_names: Optional[Sequence[str]] = None,
        net_names: Optional[Sequence[str]] = None,
        extra_resources: Optional[Sequence[Sequence[float]]] = None,
    ) -> None:
        if num_vertices < 0:
            raise HypergraphError("num_vertices must be non-negative")
        net_list = [list(pins) for pins in nets]
        self._num_vertices = num_vertices
        self._num_nets = len(net_list)

        net_ptr = [0] * (self._num_nets + 1)
        total_pins = 0
        for e, pins in enumerate(net_list):
            seen = set()
            for v in pins:
                if not 0 <= v < num_vertices:
                    raise HypergraphError(
                        f"net {e} references vertex {v} outside "
                        f"[0, {num_vertices})"
                    )
                if v in seen:
                    raise HypergraphError(
                        f"net {e} contains duplicate pin on vertex {v}"
                    )
                seen.add(v)
            total_pins += len(pins)
            net_ptr[e + 1] = total_pins
        net_pins: List[int] = [0] * total_pins
        pos = 0
        for pins in net_list:
            for v in pins:
                net_pins[pos] = v
                pos += 1

        # Build the transposed (vertex -> nets) CSR by counting sort.
        vtx_ptr = [0] * (num_vertices + 1)
        for v in net_pins:
            vtx_ptr[v + 1] += 1
        for i in range(num_vertices):
            vtx_ptr[i + 1] += vtx_ptr[i]
        vtx_nets = [0] * total_pins
        cursor = list(vtx_ptr)
        for e in range(self._num_nets):
            for k in range(net_ptr[e], net_ptr[e + 1]):
                v = net_pins[k]
                vtx_nets[cursor[v]] = e
                cursor[v] += 1

        self._net_ptr = array(_INDEX_TYPECODE, net_ptr)
        self._net_pins = array(_INDEX_TYPECODE, net_pins)
        self._vtx_ptr = array(_INDEX_TYPECODE, vtx_ptr)
        self._vtx_nets = array(_INDEX_TYPECODE, vtx_nets)

        if areas is None:
            self._areas = array(_FLOAT_TYPECODE, [1.0]) * num_vertices
        else:
            if len(areas) != num_vertices:
                raise HypergraphError(
                    f"areas has length {len(areas)}, expected {num_vertices}"
                )
            self._areas = array(_FLOAT_TYPECODE, (float(a) for a in areas))
            for v, a in enumerate(self._areas):
                if a < 0:
                    raise HypergraphError(f"vertex {v} has negative area {a}")

        if net_weights is None:
            self._net_weights = array(_INDEX_TYPECODE, [1]) * self._num_nets
        else:
            if len(net_weights) != self._num_nets:
                raise HypergraphError(
                    f"net_weights has length {len(net_weights)}, "
                    f"expected {self._num_nets}"
                )
            self._net_weights = array(
                _INDEX_TYPECODE, (int(w) for w in net_weights)
            )
            for e, w in enumerate(self._net_weights):
                if w < 0:
                    raise HypergraphError(f"net {e} has negative weight {w}")

        if vertex_names is not None and len(vertex_names) != num_vertices:
            raise HypergraphError("vertex_names length mismatch")
        if net_names is not None and len(net_names) != self._num_nets:
            raise HypergraphError("net_names length mismatch")
        self._vertex_names = list(vertex_names) if vertex_names else None
        self._net_names = list(net_names) if net_names else None

        if extra_resources is not None:
            checked = []
            for r, vec in enumerate(extra_resources):
                if len(vec) != num_vertices:
                    raise HypergraphError(
                        f"extra resource {r} has length {len(vec)}, "
                        f"expected {num_vertices}"
                    )
                checked.append(
                    array(_FLOAT_TYPECODE, (float(x) for x in vec))
                )
            self._extra_resources: Optional[List[array]] = checked
        else:
            self._extra_resources = None

        self._total_area = sum(self._areas)
        self._csr_lists: Optional[Tuple[List, ...]] = None
        # Derived per-net scoring tables, lazily built and cached by the
        # matching kernels (multi-start drivers re-match the same graph
        # once per start); see repro.partition.matching._net_tables.
        self._match_tables: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (cells + terminals)."""
        return self._num_vertices

    @property
    def num_nets(self) -> int:
        """Number of hyperedges."""
        return self._num_nets

    @property
    def num_pins(self) -> int:
        """Total number of (net, vertex) incidences."""
        return self._net_ptr[-1] if self._num_nets else 0

    @property
    def total_area(self) -> float:
        """Sum of all vertex areas."""
        return self._total_area

    @property
    def num_resources(self) -> int:
        """Number of balance resources (1 primary + extras)."""
        extras = len(self._extra_resources) if self._extra_resources else 0
        return 1 + extras

    # ------------------------------------------------------------------
    # Pin access
    # ------------------------------------------------------------------
    def net_pins(self, net: int) -> List[int]:
        """Vertices on ``net`` (a fresh list; safe to mutate)."""
        return self._net_pins[
            self._net_ptr[net] : self._net_ptr[net + 1]
        ].tolist()

    def vertex_nets(self, vertex: int) -> List[int]:
        """Nets incident to ``vertex`` (a fresh list; safe to mutate)."""
        return self._vtx_nets[
            self._vtx_ptr[vertex] : self._vtx_ptr[vertex + 1]
        ].tolist()

    def net_size(self, net: int) -> int:
        """Number of pins on ``net``."""
        return self._net_ptr[net + 1] - self._net_ptr[net]

    def vertex_degree(self, vertex: int) -> int:
        """Number of nets incident to ``vertex``."""
        return self._vtx_ptr[vertex + 1] - self._vtx_ptr[vertex]

    def nets(self) -> Iterator[Sequence[int]]:
        """Iterate over pin lists of all nets."""
        for e in range(self._num_nets):
            yield self.net_pins(e)

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def area(self, vertex: int) -> float:
        """Area (primary resource) of ``vertex``."""
        return self._areas[vertex]

    @property
    def areas(self) -> Sequence[float]:
        """All vertex areas (do not mutate)."""
        return self._areas

    def net_weight(self, net: int) -> int:
        """Integer weight of ``net``."""
        return self._net_weights[net]

    @property
    def net_weights(self) -> Sequence[int]:
        """All net weights (do not mutate)."""
        return self._net_weights

    def resource(self, vertex: int, index: int) -> float:
        """Value of balance resource ``index`` for ``vertex``.

        Resource 0 is area; indices >= 1 address ``extra_resources``.
        """
        if index == 0:
            return self._areas[vertex]
        if self._extra_resources is None or index - 1 >= len(
            self._extra_resources
        ):
            raise IndexError(f"no such resource: {index}")
        return self._extra_resources[index - 1][vertex]

    def resource_vector(self, index: int) -> Sequence[float]:
        """Per-vertex values of balance resource ``index``."""
        if index == 0:
            return self._areas
        if self._extra_resources is None or index - 1 >= len(
            self._extra_resources
        ):
            raise IndexError(f"no such resource: {index}")
        return self._extra_resources[index - 1]

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def vertex_name(self, vertex: int) -> str:
        """Symbolic name of ``vertex`` (defaults to ``v<i>``)."""
        if self._vertex_names is not None:
            return self._vertex_names[vertex]
        return f"v{vertex}"

    def net_name(self, net: int) -> str:
        """Symbolic name of ``net`` (defaults to ``n<i>``)."""
        if self._net_names is not None:
            return self._net_names[net]
        return f"n{net}"

    @property
    def has_names(self) -> bool:
        """True when explicit vertex names were supplied."""
        return self._vertex_names is not None

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> List[int]:
        """Distinct vertices sharing at least one net with ``vertex``."""
        seen = {vertex}
        out: List[int] = []
        for e in self.vertex_nets(vertex):
            for u in self.net_pins(e):
                if u not in seen:
                    seen.add(u)
                    out.append(u)
        return out

    def average_net_size(self) -> float:
        """Mean pins per net (0.0 for a netless hypergraph)."""
        if self._num_nets == 0:
            return 0.0
        return self.num_pins / self._num_nets

    def average_degree(self) -> float:
        """Mean nets per vertex (0.0 for an empty hypergraph)."""
        if self._num_vertices == 0:
            return 0.0
        return self.num_pins / self._num_vertices

    def __repr__(self) -> str:
        return (
            f"Hypergraph(num_vertices={self._num_vertices}, "
            f"num_nets={self._num_nets}, num_pins={self.num_pins})"
        )

    # ------------------------------------------------------------------
    # Equality (structural; used mainly by tests and I/O round trips)
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "Hypergraph") -> bool:
        """Compare vertex/net counts, pin structure, areas and weights."""
        if (
            self._num_vertices != other._num_vertices
            or self._num_nets != other._num_nets
        ):
            return False
        if self._net_ptr != other._net_ptr:
            return False
        for e in range(self._num_nets):
            if sorted(self.net_pins(e)) != sorted(other.net_pins(e)):
                return False
        if self._areas != other._areas:
            return False
        if self._net_weights != other._net_weights:
            return False
        return True

    # ------------------------------------------------------------------
    # Flat-buffer round trip (serialization / process fan-out)
    # ------------------------------------------------------------------
    def to_buffers(self) -> Dict[str, Any]:
        """Flat-buffer view of the hypergraph.

        Returns a dict of typed :class:`array.array` buffers plus the
        scalar metadata needed to rebuild the structure without any
        revalidation.  The buffers are the live internal arrays, *not*
        copies -- callers must treat them as read-only, exactly like
        the hypergraph itself.
        """
        return {
            "num_vertices": self._num_vertices,
            "net_ptr": self._net_ptr,
            "net_pins": self._net_pins,
            "vtx_ptr": self._vtx_ptr,
            "vtx_nets": self._vtx_nets,
            "areas": self._areas,
            "net_weights": self._net_weights,
            "vertex_names": self._vertex_names,
            "net_names": self._net_names,
            "extra_resources": self._extra_resources,
        }

    def csr_lists(self, cache: bool = True) -> Tuple[List, ...]:
        """Plain-list views of the CSR buffers, built once and cached.

        Returns ``(net_ptr, net_pins, vtx_ptr, vtx_nets, net_weights,
        areas)`` as Python lists.  List indexing returns existing objects
        (small-int cache, shared floats) where :class:`array.array`
        indexing must box a fresh one per access, which is what the
        coarsening kernels' inner loops are bound by.  The lists are
        cached on the instance; callers must treat them as read-only,
        exactly like the hypergraph itself.  With ``cache=False`` a
        graph that has no cached lists yet returns a fresh copy without
        keeping it, for one-off callers (an FM engine flattening its
        adjacency once) that should not pin the lists to the graph.
        """
        lists = self._csr_lists
        if lists is None:
            lists = (
                self._net_ptr.tolist(),
                self._net_pins.tolist(),
                self._vtx_ptr.tolist(),
                self._vtx_nets.tolist(),
                self._net_weights.tolist(),
                self._areas.tolist(),
            )
            if cache:
                self._csr_lists = lists
        return lists

    @classmethod
    def from_buffers(cls, buffers: Dict[str, Any]) -> "Hypergraph":
        """Rebuild a hypergraph from :meth:`to_buffers` output.

        This is the fast path used by pickling and the process-pool
        runtime: consistency of the CSR arrays is checked only at the
        shape level (pointer lengths and pin-count agreement), not per
        element -- buffers are trusted to come from ``to_buffers``.
        """
        graph = cls.__new__(cls)
        num_vertices = int(buffers["num_vertices"])
        net_ptr = _as_array(_INDEX_TYPECODE, buffers["net_ptr"])
        net_pins = _as_array(_INDEX_TYPECODE, buffers["net_pins"])
        vtx_ptr = _as_array(_INDEX_TYPECODE, buffers["vtx_ptr"])
        vtx_nets = _as_array(_INDEX_TYPECODE, buffers["vtx_nets"])
        areas = _as_array(_FLOAT_TYPECODE, buffers["areas"])
        net_weights = _as_array(_INDEX_TYPECODE, buffers["net_weights"])
        num_nets = len(net_ptr) - 1
        if num_vertices < 0 or num_nets < 0:
            raise HypergraphError("corrupt buffers: negative sizes")
        if len(vtx_ptr) != num_vertices + 1:
            raise HypergraphError("corrupt buffers: vtx_ptr length")
        total_pins = net_ptr[-1] if num_nets else 0
        if len(net_pins) != total_pins or len(vtx_nets) != total_pins:
            raise HypergraphError("corrupt buffers: pin-count mismatch")
        if len(areas) != num_vertices or len(net_weights) != num_nets:
            raise HypergraphError("corrupt buffers: weight lengths")
        graph._num_vertices = num_vertices
        graph._num_nets = num_nets
        graph._net_ptr = net_ptr
        graph._net_pins = net_pins
        graph._vtx_ptr = vtx_ptr
        graph._vtx_nets = vtx_nets
        graph._areas = areas
        graph._net_weights = net_weights
        vertex_names = buffers.get("vertex_names")
        net_names = buffers.get("net_names")
        graph._vertex_names = list(vertex_names) if vertex_names else None
        graph._net_names = list(net_names) if net_names else None
        extras = buffers.get("extra_resources")
        if extras is not None:
            graph._extra_resources = [
                _as_array(_FLOAT_TYPECODE, vec) for vec in extras
            ]
        else:
            graph._extra_resources = None
        graph._total_area = sum(graph._areas)
        graph._csr_lists = None
        graph._match_tables = None
        return graph

    def __reduce__(self):
        return (Hypergraph.from_buffers, (self.to_buffers(),))


def _as_array(typecode: str, values: Any) -> array:
    """Coerce ``values`` to an :class:`array.array` of ``typecode``."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    return array(typecode, values)


def vertex_induced_subhypergraph(
    graph: Hypergraph, vertices: Sequence[int]
) -> Tuple[Hypergraph, List[int]]:
    """Restrict ``graph`` to ``vertices``.

    Nets are kept if they have at least two pins inside the subset (nets
    with fewer pins cannot contribute to any cut).  Returns the
    sub-hypergraph and the mapping from new vertex ids to original ids.
    """
    order = list(vertices)
    index = {v: i for i, v in enumerate(order)}
    if len(index) != len(order):
        raise HypergraphError("duplicate vertices in subset")
    new_nets: List[List[int]] = []
    new_weights: List[int] = []
    new_names: List[str] = []
    for e in range(graph.num_nets):
        pins = [index[v] for v in graph.net_pins(e) if v in index]
        if len(pins) >= 2:
            new_nets.append(pins)
            new_weights.append(graph.net_weight(e))
            new_names.append(graph.net_name(e))
    sub = Hypergraph(
        new_nets,
        num_vertices=len(order),
        areas=[graph.area(v) for v in order],
        net_weights=new_weights,
        vertex_names=[graph.vertex_name(v) for v in order],
        net_names=new_names,
    )
    return sub, order
