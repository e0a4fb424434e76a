"""Gates: kernel == oracle, jobs=N == jobs=1, and the tracing contract.

Run from the repository root:

    PYTHONPATH=src python -m benchmarks.gates {ci|quick|full}

Running it as a module from the root puts ``tests.oracles`` (the
retained reference engines and the result fingerprints) on the path.

Each gate prints one ``PASS``/``FAIL`` line; the exit status is 0 only
if every gate passes.

* ``fm`` -- the 2-way FM kernel equals ``ReferenceFMBipartitioner``
  (full move logs, pass records, cuts, parts) for lifo/fifo/clip at 0%
  and 20% fixed, plus clip with a 10% pass cutoff at 20% fixed.
* ``kway`` -- the k-way FM kernel equals ``ReferenceKWayFMRefiner`` at
  k=4, 20% fixed.
* ``matching`` -- heavy-edge and random matching labels equal the
  reference's.
* ``contraction`` -- the coarse graph equals the reference's, down to
  the CSR buffers.
* ``hierarchy`` -- whole coarsening hierarchies, heavy and random,
  equal the reference's level by level.
* ``multilevel`` -- multilevel end to end: the kernel stack (kernel
  coarsening, kernel FM, pooled engines) equals the reference stack.
* ``parallel`` -- the Fig. 1 quick study at ``jobs=4`` equals
  ``jobs=1``.
* ``overhead`` -- FM and multilevel results are identical bare
  (``_run``), under the disabled recorder and under a live
  ``TraceRecorder``; the disabled path costs at most 1.25x the bare
  engine and the enabled path at most 5x the disabled one.  Also prints
  the ns cost of each disabled-path primitive.

The equality gates run each side once: they certify behaviour, and
``perfbench/`` measures speed.  Only the overhead gate is timed.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.figures import run_figure
from repro.hypergraph.contraction import contract
from repro.hypergraph.generators import (
    CircuitSpec,
    clustered_hypergraph,
    generate_circuit,
    grid_hypergraph,
    random_k_uniform,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import (
    relative_balance,
    relative_bipartition_balance,
)
from repro.partition.fm import FMBipartitioner, FMConfig
from repro.partition.kwayfm import KWayFMConfig, KWayFMRefiner
from repro.partition.matching import heavy_edge_matching, random_matching
from repro.partition.multilevel import (
    MultilevelBipartitioner,
    MultilevelConfig,
)
from repro.partition.solution import FREE
from repro.runtime import observe
from repro.runtime.observe import TraceRecorder
from repro.runtime.observe.recorder import use
from tests.oracles import contraction as contraction_oracle
from tests.oracles import matching as matching_oracle
from tests.oracles.fingerprints import (
    contraction_fingerprint,
    fm_fingerprint,
    hierarchy_fingerprint,
    kway_fingerprint,
    multilevel_fingerprint,
    study_fingerprint,
)
from tests.oracles.fm import ReferenceFMBipartitioner, ReferenceKWayFMRefiner
from tests.oracles.multilevel import ReferenceMultilevelBipartitioner

Instance = Tuple[str, Hypergraph]
Check = Tuple[str, bool]


def _circuit(cells: int, seed: int, **spec) -> Hypergraph:
    spec = CircuitSpec(num_cells=cells, **spec)
    return generate_circuit(spec, seed=seed).graph


INSTANCES: Dict[str, Callable[[], Hypergraph]] = {
    "grid-24x24": lambda: grid_hypergraph(24, 24),
    "grid-32x32": lambda: grid_hypergraph(32, 32),
    "grid-40x40": lambda: grid_hypergraph(40, 40),
    "clustered-24x30": lambda: clustered_hypergraph(
        num_clusters=24,
        cluster_size=30,
        intra_nets=60,
        inter_nets=40,
        seed=11,
    ),
    "circuit-600": lambda: _circuit(600, 5),
    "circuit-1200": lambda: _circuit(1200, 5),
    "circuit-1500": lambda: _circuit(1500, 5),
    # Bus-heavy: a longer net-size tail (cap 24) and higher pin density.
    "circuit-1500-wide": lambda: _circuit(
        1500, 13, pins_per_cell=4.5, net_size_cap=24
    ),
    "circuit-2400": lambda: _circuit(2400, 5),
    "circuit-4000": lambda: _circuit(4000, 7),
    "circuit-6000-1d": lambda: _circuit(6000, 9, dimensions=1),
    "circuit-8000": lambda: _circuit(8000, 9),
    # Wide nets (8 pins each): the FM kernel's O(1) id-sum single-pin
    # update replaces the reference's pin scan here.
    "uniform8-2400": lambda: random_k_uniform(2400, 1600, 8, seed=3),
}


@dataclass(frozen=True)
class Profile:
    instances: Tuple[str, ...]
    fm_starts: int
    match_fractions: Tuple[float, ...]
    multilevel_seeds: Tuple[int, ...]
    overhead_instance: str
    overhead_reps: int
    overhead_starts: int


_QUICK = (
    "grid-32x32",
    "grid-40x40",
    "clustered-24x30",
    "circuit-1200",
    "circuit-1500",
    "circuit-1500-wide",
    "uniform8-2400",
    "circuit-4000",
)

PROFILES = {
    # Small enough for every push; the overhead circuit is one of the
    # two gate instances.
    "ci": Profile(
        instances=("grid-24x24", "circuit-600"),
        fm_starts=2,
        match_fractions=(0.0, 0.2),
        multilevel_seeds=(0,),
        overhead_instance="circuit-600",
        overhead_reps=5,
        overhead_starts=4,
    ),
    "quick": Profile(
        instances=_QUICK,
        fm_starts=3,
        match_fractions=(0.0, 0.2, 0.5),
        multilevel_seeds=(0, 1),
        overhead_instance="circuit-1200",
        overhead_reps=5,
        overhead_starts=4,
    ),
    "full": Profile(
        instances=_QUICK
        + ("circuit-2400", "circuit-6000-1d", "circuit-8000"),
        fm_starts=5,
        match_fractions=(0.0, 0.2, 0.5),
        multilevel_seeds=(0, 1, 2),
        overhead_instance="circuit-2400",
        overhead_reps=7,
        overhead_starts=6,
    ),
}

FM_CASES = tuple(
    (policy, fraction, 1.0)
    for fraction in (0.0, 0.2)
    for policy in ("lifo", "fifo", "clip")
) + (("clip", 0.2, 0.1),)
"""(policy, fixed fraction, pass cutoff); the last is the paper's
Section III cutoff, where short passes stress the incremental restore."""

FM_SEED = 42
MATCH_FIXTURE_SEED = 7
MATCH_SEEDS = (11, 12, 13)
MATCH_SCHEMES = {
    "heavy": (heavy_edge_matching, matching_oracle.heavy_edge_matching),
    "random": (random_matching, matching_oracle.random_matching),
}
DISABLED_RATIO_MAX = 1.25
"""Disabled-recorder wall time / uninstrumented wall time."""
ENABLED_RATIO_MAX = 5.0
"""Backstop: enabled-recorder wall time / disabled wall time."""


def _fixture(
    graph: Hypergraph, fraction: float, num_parts: int, seed: int
) -> List[int]:
    rng = random.Random(seed)
    fixture = [FREE] * graph.num_vertices
    if fraction > 0.0:
        for v in range(graph.num_vertices):
            if rng.random() < fraction:
                fixture[v] = rng.randrange(num_parts)
    return fixture


def _pct(fraction: float) -> str:
    return f"{round(100 * fraction)}%"


def fm_gate(instances: Sequence[Instance], starts: int) -> Iterable[Check]:
    """(a) 2-way FM kernel == reference over identical random starts."""
    for name, graph in instances:
        balance = relative_bipartition_balance(graph.total_area, 0.1)
        rng = random.Random(FM_SEED + 1)
        initial = [
            [rng.randint(0, 1) for _ in range(graph.num_vertices)]
            for _ in range(starts)
        ]
        for policy, fraction, cutoff in FM_CASES:
            fixture = _fixture(graph, fraction, 2, FM_SEED)
            config = FMConfig(
                policy=policy,
                pass_move_limit_fraction=cutoff,
                record_moves=True,
            )
            reference = ReferenceFMBipartitioner(
                graph, balance, fixture=fixture, config=config
            )
            kernel = FMBipartitioner(
                graph, balance, fixture=fixture, config=config
            )
            yield (
                f"{name} {policy} fixed={_pct(fraction)} "
                f"cutoff={_pct(cutoff)}",
                all(
                    fm_fingerprint(reference.run(list(parts)))
                    == fm_fingerprint(kernel.run(list(parts)))
                    for parts in initial
                ),
            )


def kway_gate(instances: Sequence[Instance], starts: int) -> Iterable[Check]:
    """(b) k-way FM kernel == reference, k=4 at 20% fixed."""
    k = 4
    for name, graph in instances:
        balance = relative_balance(graph.total_area, k, 0.15)
        fixture = _fixture(graph, 0.2, k, FM_SEED)
        config = KWayFMConfig(record_moves=True)
        rng = random.Random(FM_SEED + 1)
        initial = [
            (
                [rng.randrange(k) for _ in range(graph.num_vertices)],
                rng.getrandbits(32),
            )
            for _ in range(max(2, starts - 1))
        ]
        reference = ReferenceKWayFMRefiner(
            graph, balance, fixture=fixture, config=config
        )
        kernel = KWayFMRefiner(graph, balance, fixture=fixture, config=config)
        yield (
            f"{name} k={k} fixed=20%",
            all(
                kway_fingerprint(reference.run(list(parts), seed=seed))
                == kway_fingerprint(kernel.run(list(parts), seed=seed))
                for parts, seed in initial
            ),
        )


def matching_gate(
    instances: Sequence[Instance], fractions: Sequence[float]
) -> Iterable[Check]:
    """(c) heavy-edge and random matching labels == reference."""
    for name, graph in instances:
        cap = 0.04 * graph.total_area
        for fraction in fractions:
            fixture = _fixture(graph, fraction, 2, MATCH_FIXTURE_SEED)
            for scheme, (kernel, reference) in MATCH_SCHEMES.items():
                yield (
                    f"{name} {scheme} fixed={_pct(fraction)}",
                    all(
                        kernel(
                            graph,
                            fixture=fixture,
                            rng=random.Random(seed),
                            max_cluster_area=cap,
                            num_parts=2,
                        )
                        == reference(
                            graph,
                            fixture=fixture,
                            rng=random.Random(seed),
                            max_cluster_area=cap,
                        )
                        for seed in MATCH_SEEDS
                    ),
                )


def contraction_gate(
    instances: Sequence[Instance], fractions: Sequence[float]
) -> Iterable[Check]:
    """(d) contraction == reference over heavy-edge labelings."""
    for name, graph in instances:
        cap = 0.04 * graph.total_area
        for fraction in fractions:
            fixture = _fixture(graph, fraction, 2, MATCH_FIXTURE_SEED)
            labelings = [
                matching_oracle.heavy_edge_matching(
                    graph,
                    fixture=fixture,
                    rng=random.Random(seed),
                    max_cluster_area=cap,
                )
                for seed in MATCH_SEEDS
            ]
            yield (
                f"{name} fixed={_pct(fraction)}",
                all(
                    contraction_fingerprint(contract(graph, labels))
                    == contraction_fingerprint(
                        contraction_oracle.contract(graph, labels)
                    )
                    for labels in labelings
                ),
            )


def hierarchy_gate(instances: Sequence[Instance]) -> Iterable[Check]:
    """(e) whole hierarchies, heavy and random at 20% fixed == reference."""
    for name, graph in instances:
        fixture = _fixture(graph, 0.2, 2, MATCH_FIXTURE_SEED)
        for scheme in MATCH_SCHEMES:
            config = MultilevelConfig(matching=scheme)
            kernel = MultilevelBipartitioner(
                graph, fixture=fixture, config=config
            )
            reference = ReferenceMultilevelBipartitioner(
                graph, fixture=fixture, config=config
            )
            yield (
                f"{name} {scheme} fixed=20%",
                all(
                    hierarchy_fingerprint(
                        kernel._build_hierarchy(random.Random(seed))
                    )
                    == hierarchy_fingerprint(
                        reference._build_hierarchy(random.Random(seed))
                    )
                    for seed in MATCH_SEEDS
                ),
            )


def multilevel_gate(
    instances: Sequence[Instance], seeds: Sequence[int]
) -> Iterable[Check]:
    """(f) multilevel end to end: kernel stack == reference stack."""
    for name, graph in instances:
        fixture = _fixture(graph, 0.2, 2, MATCH_FIXTURE_SEED)
        config = MultilevelConfig()
        kernel = MultilevelBipartitioner(graph, fixture=fixture, config=config)
        reference = ReferenceMultilevelBipartitioner(
            graph, fixture=fixture, config=config
        )
        yield (
            f"{name} fixed=20%",
            all(
                multilevel_fingerprint(kernel.run(seed))
                == multilevel_fingerprint(reference.run(seed))
                for seed in seeds
            ),
        )


def parallel_gate() -> Iterable[Check]:
    """(g) the Fig. 1 quick study at ``jobs=4`` == ``jobs=1``."""
    serial = run_figure("fig1", "quick", seed=0, jobs=1)
    parallel = run_figure("fig1", "quick", seed=0, jobs=4)
    yield (
        f"fig1 quick jobs=4 vs jobs=1 ({os.cpu_count()} cpus)",
        study_fingerprint(serial) == study_fingerprint(parallel),
    )


def _time_best(run_all, reps: int):
    """Minimum wall time of ``reps`` executions and the last results.

    Every mode is deterministic, so repeats do identical work and the
    minimum is the least-perturbed one.
    """
    best = float("inf")
    results = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            results = run_all()
            best = min(best, time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, results


def _overhead_checks(
    engine: str, runs: Callable[[bool], list], fingerprint, reps: int
) -> Iterable[Check]:
    """Time ``runs`` bare, disabled and enabled; check the contract.

    ``runs(bare)`` runs the engine's workload, calling the engine body
    ``_run`` directly when ``bare`` and the public ``run`` otherwise.
    """
    bare_s, bare = _time_best(lambda: runs(True), reps)
    disabled_s, disabled = _time_best(lambda: runs(False), reps)

    def _enabled():
        with use(TraceRecorder()):
            return runs(False)

    enabled_s, enabled = _time_best(_enabled, reps)
    disabled_ratio = disabled_s / bare_s
    enabled_ratio = enabled_s / disabled_s
    print(
        f"  {engine}: uninstrumented {bare_s:.3f}s, disabled "
        f"{disabled_s:.3f}s ({disabled_ratio:.3f}x), enabled "
        f"{enabled_s:.3f}s ({enabled_ratio:.3f}x of disabled)"
    )
    yield (
        f"{engine} results identical bare/disabled/enabled",
        [fingerprint(r) for r in bare]
        == [fingerprint(r) for r in disabled]
        == [fingerprint(r) for r in enabled],
    )
    yield (
        f"{engine} disabled {disabled_ratio:.3f}x "
        f"(max {DISABLED_RATIO_MAX}x)",
        disabled_ratio <= DISABLED_RATIO_MAX,
    )
    yield (
        f"{engine} enabled {enabled_ratio:.3f}x of disabled "
        f"(max {ENABLED_RATIO_MAX}x)",
        enabled_ratio <= ENABLED_RATIO_MAX,
    )


def _dispatch_nanoseconds() -> Dict[str, float]:
    """ns per disabled-path primitive (the costs the ratio gate bounds)."""
    n = 200_000

    def _ns(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return 1e9 * (time.perf_counter() - t0) / n

    def _active_check():
        active = observe.active
        for _ in range(n):
            rec = active()
            if rec.enabled:  # pragma: no cover - null recorder
                raise AssertionError

    def _null_span():
        rec = observe.active()
        for _ in range(n):
            with rec.span("x", k=1) as sp:
                sp.set(v=2)

    def _null_count():
        rec = observe.active()
        for _ in range(n):
            rec.count("x")

    return {
        "active_plus_enabled_check_ns": round(_ns(_active_check), 1),
        "null_span_with_set_ns": round(_ns(_null_span), 1),
        "null_count_ns": round(_ns(_null_count), 1),
    }


def overhead_gate(
    graph: Hypergraph, starts: int, reps: int
) -> Iterable[Check]:
    """(h) the tracing layer's contract on the FM and multilevel engines.

    The multilevel ``_run`` baseline bypasses only the outer wrapper;
    the inner coarsen/refine call sites keep their shared no-op spans,
    whose per-call cost the dispatch report bounds directly.
    """
    balance = relative_bipartition_balance(graph.total_area, 0.1)
    fm = FMBipartitioner(graph, balance, config=FMConfig(policy="clip"))
    rng = random.Random(FM_SEED)
    initial = [
        [rng.randint(0, 1) for _ in range(graph.num_vertices)]
        for _ in range(starts)
    ]
    yield from _overhead_checks(
        "fm",
        lambda bare: [
            (fm._run if bare else fm.run)(parts) for parts in initial
        ],
        fm_fingerprint,
        reps,
    )
    ml = MultilevelBipartitioner(
        graph, balance, config=MultilevelConfig(initial_starts=2)
    )
    seeds = range(max(2, starts // 2))
    yield from _overhead_checks(
        "multilevel",
        lambda bare: [(ml._run if bare else ml.run)(seed) for seed in seeds],
        multilevel_fingerprint,
        reps,
    )
    print(
        "  disabled-path primitives: "
        + ", ".join(f"{k}={v}" for k, v in _dispatch_nanoseconds().items())
    )


def run_gate(name: str, checks: Iterable[Check]) -> bool:
    """Drain ``checks`` and print one PASS/FAIL line; True iff passed.

    A gate that raises fails with its traceback printed, so a broken
    kernel still lets the remaining gates run.
    """
    total = 0
    failed: List[str] = []
    try:
        for label, ok in checks:
            total += 1
            if not ok:
                failed.append(label)
    except Exception as exc:  # noqa: BLE001 - report, run the next gate
        traceback.print_exc()
        total += 1
        failed.append(f"raised {type(exc).__name__}: {exc}")
    if failed:
        print(
            f"FAIL {name}: {len(failed)} of {total} checks failed: "
            + "; ".join(failed)
        )
        return False
    print(f"PASS {name}: {total} checks")
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1 or args[0] not in PROFILES:
        print(
            "usage: python -m benchmarks.gates {ci|quick|full}",
            file=sys.stderr,
        )
        return 2
    profile = PROFILES[args[0]]
    graphs = {name: INSTANCES[name]() for name in profile.instances}
    for name, graph in graphs.items():
        print(
            f"{name}: {graph.num_vertices} vertices, "
            f"{graph.num_nets} nets, {graph.num_pins} pins"
        )
    instances = list(graphs.items())
    fractions = profile.match_fractions
    passed = [
        run_gate("fm", fm_gate(instances, profile.fm_starts)),
        run_gate("kway", kway_gate(instances, profile.fm_starts)),
        run_gate("matching", matching_gate(instances, fractions)),
        run_gate("contraction", contraction_gate(instances, fractions)),
        run_gate("hierarchy", hierarchy_gate(instances)),
        run_gate(
            "multilevel", multilevel_gate(instances, profile.multilevel_seeds)
        ),
        run_gate("parallel", parallel_gate()),
    ]
    overhead_ok = run_gate(
        "overhead",
        overhead_gate(
            graphs[profile.overhead_instance],
            profile.overhead_starts,
            profile.overhead_reps,
        ),
    )
    print(f"overhead contract: {'OK' if overhead_ok else 'VIOLATED'}")
    return 0 if all(passed) and overhead_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
