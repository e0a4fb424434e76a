"""Engines reuse their buffers across graphs without leaking state.

``FMBipartitioner.rebind`` resizes the kernel's pin-count, id-sum and
gain lists in place, so a run after a rebind must not see anything left
over from the previous graph: it must equal a fresh engine's run move
for move.  The engines also slice their adjacency from, and alias the
weights and areas of, the graph's cached ``csr_lists()``; a write into
those lists would silently change the graph, so runs must leave them as
they found them.  A flat engine or a cut check on a graph with no cached
lists must not cache them: they would stay alive as long as the graph.
"""

import random

import pytest

from repro.hypergraph import Hypergraph
from repro.partition import (
    FREE,
    FMBipartitioner,
    FMConfig,
    KWayFMRefiner,
    MultilevelBipartitioner,
    cut_nets,
    cut_size,
    relative_balance,
    relative_bipartition_balance,
)


TOTAL_AREA = 100.0


def _random_graph(seed, n, num_nets):
    """A random hypergraph whose areas sum to about ``TOTAL_AREA``, so
    graphs of any size share one balance window (as the levels of a
    multilevel hierarchy do)."""
    rng = random.Random(seed)
    nets = [
        rng.sample(range(n), rng.choice([2, 2, 2, 3, 4, 6]))
        for _ in range(num_nets)
    ]
    weights = [rng.choice([0, 1, 1, 1, 2, 3]) for _ in nets]
    areas = [rng.choice([0.5, 1.0, 1.0, 1.5, 2.0]) for _ in range(n)]
    scale = TOTAL_AREA / sum(areas)
    areas = [a * scale for a in areas]
    return Hypergraph(nets, num_vertices=n, areas=areas, net_weights=weights)


def _fixture(seed, n, fixed_fraction, num_parts=2):
    rng = random.Random(seed)
    return [
        rng.randrange(num_parts) if rng.random() < fixed_fraction else FREE
        for _ in range(n)
    ]


def _starts(seed, n, count=3):
    rng = random.Random(seed)
    return [[rng.randrange(2) for _ in range(n)] for _ in range(count)]


def _summary(result):
    return (
        result.solution.parts,
        result.solution.cut,
        result.initial_cut,
        result.passes,
        result.move_logs,
    )


@pytest.mark.parametrize("policy", ["lifo", "clip"])
@pytest.mark.parametrize("fixed_fraction", [0.0, 0.3])
def test_rebind_large_small_large_matches_fresh_engines(policy, fixed_fraction):
    # Shrink, then grow past the first size, so both branches of the
    # in-place resize run and the regrown tail must not leak old values.
    graphs = [
        _random_graph(1, 120, 270),
        _random_graph(2, 40, 90),
        _random_graph(3, 150, 330),
    ]
    balance = relative_bipartition_balance(TOTAL_AREA, 0.2)
    config = FMConfig(policy=policy, record_moves=True)
    engine = FMBipartitioner(graphs[0], balance, None, config)
    for step, graph in enumerate(graphs):
        n = graph.num_vertices
        fixture = (
            _fixture(step, n, fixed_fraction) if fixed_fraction else None
        )
        engine.rebind(graph, fixture)
        fresh = FMBipartitioner(graph, balance, fixture, config)
        for parts in _starts(100 + step, n):
            assert _summary(engine.run(parts)) == _summary(fresh.run(parts))


def test_runs_leave_the_cached_csr_lists_untouched():
    graph = _random_graph(7, 160, 360)
    n = graph.num_vertices
    before = [list(lst) for lst in graph.csr_lists()]

    fixture = _fixture(8, n, 0.2)
    fm = FMBipartitioner(
        graph, relative_bipartition_balance(graph.total_area, 0.1), fixture
    )
    for parts in _starts(9, n):
        fm.run(parts)

    kway_fixture = _fixture(10, n, 0.2, num_parts=4)
    kway = KWayFMRefiner(
        graph, relative_balance(graph.total_area, 4, 0.2), kway_fixture
    )
    rng = random.Random(11)
    kway.run([rng.randrange(4) for _ in range(n)], seed=11)

    multilevel = MultilevelBipartitioner(
        graph, relative_bipartition_balance(graph.total_area, 0.1), fixture
    )
    multilevel.run(seed=12)

    assert [list(lst) for lst in graph.csr_lists()] == before
    buffers = graph.to_buffers()
    keys = ("net_ptr", "net_pins", "vtx_ptr", "vtx_nets", "net_weights",
            "areas")
    assert before == [buffers[key].tolist() for key in keys]


def test_flat_engines_and_cut_checks_cache_no_csr_lists():
    graph = _random_graph(13, 90, 200)
    n = graph.num_vertices
    parts = _starts(14, n, count=1)[0]
    cut = cut_size(graph, parts)
    assert len(cut_nets(graph, parts)) <= graph.num_nets
    result = FMBipartitioner(
        graph, relative_bipartition_balance(graph.total_area, 0.2)
    ).run(parts)
    assert result.initial_cut == cut
    kway_parts = [v % 4 for v in range(n)]
    KWayFMRefiner(graph, relative_balance(graph.total_area, 4, 0.5)).run(
        kway_parts
    )
    assert graph._csr_lists is None
    # With the lists cached, the same calls give the same numbers.
    graph.csr_lists()
    assert cut_size(graph, parts) == cut
