"""Overhead-regression test: the disabled recorder must stay ~free.

A fast in-suite version of the ``overhead`` gate of
``benchmarks/gates.py`` (which checks the same contract on bigger
instances): the public ``run()`` under the default null
recorder must stay within a fixed wall-time ratio of the engine body
called directly, and results must be bit-identical across
uninstrumented, disabled and fully traced runs.

The ratio bound is deliberately looser than the gate's (shared CI
runners; a ~50 ms workload) -- its job is to catch an accidental
always-on allocation or lock on the hot path, which shows up as 2x+,
not to certify the exact margin.
"""

import gc
import random
import time

from repro.partition.fm import FMBipartitioner, FMConfig
from repro.partition.multilevel import MultilevelBipartitioner
from repro.runtime.observe import TraceRecorder
from repro.runtime.observe.recorder import use

DISABLED_RATIO_MAX = 1.5
REPS = 5


def _best_of(run_all, reps=REPS):
    best = float("inf")
    results = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            results = run_all()
            elapsed = time.perf_counter() - t0
            best = min(best, elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, results


def _fingerprints(results):
    return [
        (r.solution.cut, tuple(r.solution.parts), tuple(r.passes))
        for r in results
    ]


def test_disabled_fm_overhead_is_bounded(tiny_circuit, tiny_balance):
    graph = tiny_circuit.graph
    engine = FMBipartitioner(
        graph, tiny_balance, config=FMConfig(policy="clip")
    )
    rng = random.Random(3)
    starts = [
        [rng.randint(0, 1) for _ in range(graph.num_vertices)]
        for _ in range(3)
    ]

    bare_s, bare = _best_of(
        lambda: [engine._run(parts) for parts in starts]
    )
    disabled_s, disabled = _best_of(
        lambda: [engine.run(parts) for parts in starts]
    )

    def _traced():
        with use(TraceRecorder()):
            return [engine.run(parts) for parts in starts]

    _, traced = _best_of(_traced, reps=1)

    assert _fingerprints(bare) == _fingerprints(disabled)
    assert _fingerprints(bare) == _fingerprints(traced)
    assert disabled_s <= DISABLED_RATIO_MAX * bare_s, (
        f"disabled recorder costs {disabled_s / bare_s:.2f}x "
        f"the uninstrumented engine (bound {DISABLED_RATIO_MAX}x)"
    )


def test_disabled_multilevel_is_bit_identical_and_bounded(
    tiny_circuit, tiny_balance
):
    graph = tiny_circuit.graph
    engine = MultilevelBipartitioner(graph, tiny_balance)
    seeds = [0, 1]

    bare_s, bare = _best_of(
        lambda: [engine._run(seed) for seed in seeds], reps=3
    )
    disabled_s, disabled = _best_of(
        lambda: [engine.run(seed) for seed in seeds], reps=3
    )

    def _traced():
        with use(TraceRecorder()):
            return [engine.run(seed) for seed in seeds]

    _, traced = _best_of(_traced, reps=1)

    def fp(results):
        return [
            (r.solution.cut, tuple(r.solution.parts), r.num_levels)
            for r in results
        ]

    assert fp(bare) == fp(disabled) == fp(traced)
    assert disabled_s <= DISABLED_RATIO_MAX * bare_s
