"""Fingerprints: everything result-bearing in a result, as one value.

Two runs behave identically exactly when their fingerprints compare
equal.  The differential tests and the gates in ``benchmarks/gates.py``
compare kernels with the oracles in this package through these, so both
hold the kernels to the same definition of "bit-identical".
"""

from __future__ import annotations

from typing import Sequence, Tuple


def fm_fingerprint(result) -> Tuple:
    """Everything result-bearing in an FMResult."""
    return (
        result.initial_cut,
        result.solution.cut,
        tuple(result.solution.parts),
        tuple(result.passes),
        tuple(tuple(log) for log in result.move_logs),
    )


def kway_fingerprint(result) -> Tuple:
    """Everything result-bearing in a KWayFMResult."""
    return (
        result.initial_cut,
        result.cut,
        tuple(result.parts),
        result.num_passes,
        result.total_moves,
        tuple(result.pass_moves),
        tuple(tuple(log) for log in result.move_logs),
    )


def graph_fingerprint(graph) -> Tuple:
    """Every buffer of a Hypergraph, down to the CSR arrays."""
    return (
        graph.num_vertices,
        graph.num_nets,
        list(graph._net_ptr),
        list(graph._net_pins),
        list(graph._vtx_ptr),
        list(graph._vtx_nets),
        list(graph._net_weights),
        list(graph._areas),
    )


def contraction_fingerprint(contraction) -> Tuple:
    """The coarse graph of a Contraction plus its vertex map."""
    return graph_fingerprint(contraction.coarse) + (
        tuple(contraction.fine_to_coarse),
    )


def hierarchy_fingerprint(levels: Sequence) -> Tuple:
    """Every level of a coarsening hierarchy, fixtures included."""
    return tuple(
        contraction_fingerprint(level.contraction) + (tuple(level.fixture),)
        for level in levels
    )


def multilevel_fingerprint(result) -> Tuple:
    """Everything result-bearing in a MultilevelResult."""
    return (
        result.solution.cut,
        tuple(result.solution.parts),
        result.num_levels,
        result.coarsest_vertices,
        result.refinement_passes,
    )


def study_fingerprint(study) -> Tuple:
    """Everything result-bearing in a DifficultyStudy, excluding the
    clocks."""
    return (study.good_cut,) + tuple(
        (p.regime, p.percent, p.starts, p.raw_cut, p.normalized_cut)
        for p in study.points
    )
