"""The end-of-pass rollback leaves the kernels' persistent buffers exact.

Neither FM kernel rebuilds its per-net state between passes: the
rollback flips moves back, either the undone suffix backwards or, from a
pass-start snapshot, the kept prefix forwards.  A wrong buffer entry
would only show once it changes a later move, so these tests read the
buffers directly: after every pass they must equal a from-scratch
``_init_run_state`` rebuild on a second engine bound to the same input.
Both restore directions must be exercised with at least one flip.
"""

import random

import pytest

from repro.hypergraph import Hypergraph
from repro.partition import (
    FREE,
    FMBipartitioner,
    FMConfig,
    KWayFMConfig,
    KWayFMRefiner,
    relative_balance,
    relative_bipartition_balance,
)

SEEDS = range(8)


def _random_instance(seed, num_parts, fixed_fraction):
    """A small random hypergraph (zero-weight nets and fractional areas
    included) with a random fixture and a random start."""
    rng = random.Random(seed)
    n = 40
    nets = [
        rng.sample(range(n), rng.choice([2, 2, 2, 3, 4, 6]))
        for _ in range(90)
    ]
    weights = [rng.choice([0, 1, 1, 1, 2, 3]) for _ in nets]
    areas = [rng.choice([0.5, 1.0, 1.0, 1.5, 2.0]) for _ in range(n)]
    graph = Hypergraph(nets, num_vertices=n, areas=areas, net_weights=weights)
    fixture = [
        rng.randrange(num_parts) if rng.random() < fixed_fraction else FREE
        for _ in range(n)
    ]
    parts = [rng.randrange(num_parts) for _ in range(n)]
    return graph, fixture, parts


def _direction(moves_made, best_prefix):
    """The restore the kernels pick, or None when it flips nothing."""
    undone = moves_made - best_prefix
    if best_prefix <= undone:
        return "snapshot+forward" if best_prefix else None
    return "backward" if undone else None


def _watch_passes(engine, after_pass):
    """Call ``after_pass(parts, result)`` after each of ``engine``'s passes."""
    run_pass = engine._run_pass

    def wrapped(parts, *args):
        result = run_pass(parts, *args)
        after_pass(parts, result)
        return result

    engine._run_pass = wrapped


@pytest.mark.parametrize("cutoff", [1.0, 0.05])
@pytest.mark.parametrize("fixed_fraction", [0.0, 0.3])
@pytest.mark.parametrize("policy", ["lifo", "fifo", "clip"])
def test_fm_buffers_exact_after_every_pass(policy, fixed_fraction, cutoff):
    directions = set()
    config = FMConfig(policy=policy, pass_move_limit_fraction=cutoff)
    for seed in SEEDS:
        graph, fixture, parts = _random_instance(seed, 2, fixed_fraction)
        balance = relative_bipartition_balance(graph.total_area, 0.2)
        engine = FMBipartitioner(graph, balance, fixture, config)
        twin = FMBipartitioner(graph, balance, fixture, config)
        movable = engine._movable

        def check(parts, result):
            record = result[0]
            directions.add(_direction(record.moves_made, record.best_prefix))
            twin._init_run_state(parts)
            for name in ("_cnt0", "_cnt1", "_ids0", "_ids1"):
                assert getattr(engine, name) == getattr(twin, name), name
            assert [engine._gain[v] for v in movable] == [
                twin._gain[v] for v in movable
            ]

        _watch_passes(engine, check)
        engine.run(parts)
    assert {"snapshot+forward", "backward"} <= directions


@pytest.mark.parametrize("cutoff", [1.0, 0.05])
@pytest.mark.parametrize("fixed_fraction", [0.0, 0.3])
@pytest.mark.parametrize("num_parts", [3, 4])
def test_kway_buffers_exact_after_every_pass(num_parts, fixed_fraction, cutoff):
    directions = set()
    config = KWayFMConfig(pass_move_limit_fraction=cutoff)
    for seed in SEEDS:
        graph, fixture, parts = _random_instance(
            seed, num_parts, fixed_fraction
        )
        balance = relative_balance(graph.total_area, num_parts, 0.2)
        engine = KWayFMRefiner(graph, balance, fixture, config)
        twin = KWayFMRefiner(graph, balance, fixture, config)

        def check(parts, result):
            log = result[2]
            # Each vertex moves at most once per pass, so the kept moves
            # are exactly the logged ones whose vertex ends on its target.
            kept = sum(1 for v, _, t in log if parts[v] == t)
            directions.add(_direction(len(log), kept))
            twin._init_run_state(parts)
            assert engine._cnt == twin._cnt
            assert engine._spans == twin._spans

        _watch_passes(engine, check)
        engine.run(parts, seed=seed)
    assert {"snapshot+forward", "backward"} <= directions
