"""The four benchmark workloads, solution certification and fingerprints.

A workload turns the benchmark seed into several circuit instances
(:meth:`setup`) and runs numbered *rounds* of engine work on them through
the public engine and study APIs (:meth:`run_round`), each returning
every solution it produced.  A round covers ``per_round`` instances in
turn: all of them when they are cheap, so every round does the same
kind of work, or one when a single instance already fills a round.  The seed drives circuit
generation, the fixed-vertex schedule and the start seeds; the program
only receives the generated inputs.  Each round draws its own start
seeds, so a run samples many different starts, and a round is
deterministic in the inputs and its index.  ``round_s`` is a round's
nominal wall time on a 2-vCPU x86-64 host; it only turns ``--seconds``
into a fixed number of rounds.

Why these four: ``multilevel`` and ``sweep`` exercise coarsening while
``flat_fm`` and ``kway`` bypass it; ``sweep`` is the only one that runs
the process pool and the checkpoint journal; ``flat_fm`` and
``multilevel`` drive the same FM kernel from random starts with cutoffs
and from projected partitions respectively; ``kway`` is the only user of
the k-way FM kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import difficulty as _difficulty
from repro.core import regimes as _regimes
from repro.core.difficulty import run_difficulty_study
from repro.core.regimes import find_good_solution, make_schedule, regime_fixture
from repro.experiments.circuits import CIRCUITS, PAPER_TOLERANCE
from repro.hypergraph.generators import CircuitSpec, generate_circuit
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import (
    BalanceConstraint,
    relative_balance,
    relative_bipartition_balance,
)
from repro.partition.fm import FMConfig
from repro.partition.multistart import (
    MultistartResult,
    flat_fm_multistart,
    kway_multistart,
    multilevel_multistart,
)
from repro.partition.solution import block_loads, cut_size, respect_fixture
from repro.runtime import CheckpointJournal, observe


# -- solutions -----------------------------------------------------------
@dataclass(frozen=True)
class Solution:
    """One engine start's output and the instance it claims to solve."""

    graph: Hypergraph
    balance: BalanceConstraint
    fixture: Optional[Sequence[int]]
    parts: Sequence[int]
    cut: Optional[int]
    quarantined: Optional[str] = None


def certify(solution: Solution) -> List[str]:
    """Reasons ``solution`` is not true for its instance (empty if it is).

    Checks the reported cut against a from-scratch recount, every fixed
    vertex against its mandated block, and the block loads against the
    balance constraint.
    """
    if solution.quarantined is not None:
        return [f"start quarantined: {solution.quarantined}"]
    graph, parts = solution.graph, solution.parts
    k = solution.balance.num_parts
    if len(parts) != graph.num_vertices or any(
        not 0 <= p < k for p in parts
    ):
        return [f"parts is not a {k}-way assignment of "
                f"{graph.num_vertices} vertices"]
    problems = []
    true_cut = cut_size(graph, parts)
    if true_cut != solution.cut:
        problems.append(f"reported cut {solution.cut}, recount {true_cut}")
    if solution.fixture is not None and not respect_fixture(
        parts, solution.fixture
    ):
        problems.append("a fixed vertex left its mandated block")
    if not solution.balance.is_feasible(block_loads(graph, parts, k)):
        problems.append("block loads violate the balance constraint")
    return problems


def fingerprint(solutions: Sequence[Solution]) -> str:
    """Digest of every solution's cut and parts, in order."""
    digest = hashlib.sha256()
    for solution in solutions:
        digest.update(f"{solution.cut};".encode())
        digest.update(bytes(solution.parts))
    return digest.hexdigest()[:16]


def _solutions(
    batch: MultistartResult,
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Optional[Sequence[int]],
) -> List[Solution]:
    return [
        Solution(graph, balance, fixture, s.parts, s.cut, s.quarantined)
        for s in batch.starts
    ]


# -- inputs --------------------------------------------------------------
@dataclass(frozen=True)
class Inputs:
    """Everything a round needs, generated from the benchmark seed."""

    graph: Hypergraph
    balance: BalanceConstraint
    seed: int
    fixtures: Tuple[Tuple[float, Tuple[int, ...]], ...] = ()
    schedule: Any = None

    def fresh(self) -> "Inputs":
        """A copy with a rebuilt graph, so nothing a previous round cached
        on the graph object carries over into the next round."""
        return dataclasses.replace(
            self, graph=pickle.loads(pickle.dumps(self.graph))
        )

    def digest(self) -> str:
        """Digest of the generated inputs (set-up must be deterministic)."""
        return hashlib.sha256(
            pickle.dumps((self.graph, self.balance, self.seed, self.fixtures,
                          self.schedule))
        ).hexdigest()[:16]


def _generate(spec: CircuitSpec, seed: int) -> Hypergraph:
    with observe.span("hypergraph.generators"):
        return generate_circuit(spec, seed=seed).graph


def _seeds(name: str, seed: int) -> random.Random:
    """The workload's own seed stream, independent of the generator's."""
    return random.Random(f"{name}:{seed}")


def instance_seed(seed: int, index: int) -> int:
    """Generator seed of instance ``index``; instance 0 uses ``seed``."""
    if index == 0:
        return seed
    return random.Random(f"instance:{seed}:{index}").getrandbits(32)


def round_seed(inputs: "Inputs", index: int) -> int:
    """Start seed of round ``index``: every round runs different starts."""
    return random.Random(f"{inputs.seed}:{index}").getrandbits(32)


def _spec(circuit: str, cells: Optional[int]) -> CircuitSpec:
    spec = CIRCUITS[circuit].spec
    if cells is not None:
        spec = dataclasses.replace(spec, num_cells=cells)
    return spec


# -- workloads -----------------------------------------------------------
@dataclass(frozen=True)
class _Workload:
    """What the workloads share: ``instances`` circuits drawn from one
    spec, so how hard one drawn circuit happens to be weighs less on the
    result, and ``per_round`` of them run in each round."""

    instances: int = 1
    per_round: int = 1
    cells: Optional[int] = None

    def setup(self, seed: int) -> List[Inputs]:
        return [self.setup_instance(instance_seed(seed, i))
                for i in range(self.instances)]

    def round_instances(self, instances: Sequence[Inputs],
                        index: int) -> List[Inputs]:
        """The instances round ``index`` runs on."""
        return [instances[(index * self.per_round + j) % len(instances)]
                for j in range(self.per_round)]

    def run_round(self, instances: Sequence[Inputs], index: int,
                  workdir: Path) -> List[Solution]:
        return [solution for inputs in instances
                for solution in self.run_instance(inputs, index, workdir)]


@dataclass(frozen=True)
class Multilevel(_Workload):
    """``repro partition``'s engine: multilevel multistart, 0% fixed."""

    name = "multilevel"
    why = ("multilevel_multistart, default config, 4 ibm03s-spec circuits, "
           "0% fixed, jobs=1: deepest hierarchy, full CLIP passes; pool and "
           "journal bypassed")
    jobs = 1
    round_s = 4.0
    instances: int = 4
    per_round: int = 4
    circuit: str = "ibm03s"
    starts: int = 1

    def setup_instance(self, seed: int) -> Inputs:
        graph = _generate(_spec(self.circuit, self.cells), seed)
        balance = relative_bipartition_balance(graph.total_area,
                                               PAPER_TOLERANCE)
        return Inputs(graph, balance, _seeds(self.name, seed).getrandbits(32))

    def run_instance(self, inputs: Inputs, index: int,
                     workdir: Path) -> List[Solution]:
        batch = multilevel_multistart(
            inputs.graph, inputs.balance, num_starts=self.starts,
            seed=round_seed(inputs, index), jobs=self.jobs,
        )
        return _solutions(batch, inputs.graph, inputs.balance, None)


@dataclass(frozen=True)
class FlatFM(_Workload):
    """Tables II/III: LIFO flat FM from random starts, good regime."""

    name = "flat_fm"
    why = ("flat_fm_multistart (LIFO), 3 ibm01s-spec circuits, 0/20/40% "
           "good-regime fixed, full passes and 5% cutoff: random starts, "
           "deep passes, no coarsening")
    jobs = 1
    round_s = 2.0
    instances: int = 3
    circuit: str = "ibm01s"
    percents: Tuple[float, ...] = (0.0, 20.0, 40.0)
    cutoffs: Tuple[float, ...] = (1.0, 0.05)
    starts: int = 4
    reference_starts: int = 2

    def setup_instance(self, seed: int) -> Inputs:
        graph = _generate(_spec(self.circuit, self.cells), seed)
        balance = relative_bipartition_balance(graph.total_area,
                                               PAPER_TOLERANCE)
        rng = _seeds(self.name, seed)
        with observe.span("core.regimes", step="schedule"):
            schedule = make_schedule(graph, percents=self.percents,
                                     seed=rng.getrandbits(32))
        with observe.span("core.regimes", step="reference"):
            good = find_good_solution(graph, balance,
                                      starts=self.reference_starts,
                                      seed=rng.getrandbits(32))
        fixtures = tuple(
            (p, tuple(regime_fixture("good", schedule, p,
                                     good_solution=good.parts)))
            for p in self.percents
        )
        return Inputs(graph, balance, rng.getrandbits(32), fixtures=fixtures)

    def run_instance(self, inputs: Inputs, index: int,
                     workdir: Path) -> List[Solution]:
        out: List[Solution] = []
        rng = random.Random(round_seed(inputs, index))
        for _percent, fixture in inputs.fixtures:
            # Both cutoffs start from the same seeds: paired samples, as
            # in Table III.
            seed = rng.getrandbits(32)
            for cutoff in self.cutoffs:
                batch = flat_fm_multistart(
                    inputs.graph, inputs.balance, fixture=fixture,
                    config=FMConfig(pass_move_limit_fraction=cutoff),
                    num_starts=self.starts, seed=seed, jobs=self.jobs,
                )
                out += _solutions(batch, inputs.graph, inputs.balance,
                                  fixture)
        return out


@dataclass(frozen=True)
class Sweep(_Workload):
    """Fig. 1 (quick) difficulty study over the process pool and journal."""

    name = "sweep"
    why = ("run_difficulty_study, 3 quick01-spec circuits, both regimes, "
           "starts 1/2/4, jobs=2, fresh CheckpointJournal: the only workload "
           "using the pool and the journal")
    jobs = 2
    round_s = 7.5
    instances: int = 3
    circuit: str = "quick01"
    percents: Tuple[float, ...] = (0.0, 2.0, 5.0, 10.0, 20.0, 40.0)
    starts_list: Tuple[int, ...] = (1, 2, 4)
    trials: int = 1

    def setup_instance(self, seed: int) -> Inputs:
        graph = _generate(_spec(self.circuit, self.cells), seed)
        balance = relative_bipartition_balance(graph.total_area,
                                               PAPER_TOLERANCE)
        rng = _seeds(self.name, seed)
        with observe.span("core.regimes", step="schedule"):
            schedule = make_schedule(graph, percents=self.percents,
                                     seed=rng.getrandbits(32))
        return Inputs(graph, balance, rng.getrandbits(32), schedule=schedule)

    def run_instance(self, inputs: Inputs, index: int,
                     workdir: Path) -> List[Solution]:
        seed = round_seed(inputs, index)
        path = workdir / "sweep-journal.jsonl"
        for stale in (path, path.with_name(path.name + ".tmp")):
            stale.unlink(missing_ok=True)
        with observe.span("runtime.checkpoint", op="open"):
            journal = CheckpointJournal(path, {"workload": self.name,
                                               "seed": seed})
        with _collect_batches() as batches, observe.span("core.difficulty"):
            run_difficulty_study(
                inputs.graph, inputs.balance, circuit_name=self.circuit,
                percents=self.percents, starts_list=self.starts_list,
                trials=self.trials, seed=seed,
                schedule=inputs.schedule, jobs=self.jobs, journal=journal,
            )
        out: List[Solution] = []
        for graph, balance, fixture, batch in batches:
            out += _solutions(batch, graph, balance, fixture)
        return out


@contextmanager
def _collect_batches() -> Iterator[List[tuple]]:
    """Keep every multistart batch the study runs, with its instance.

    The study returns only averaged table rows; the solutions behind them
    are captured here so they can be certified.  Both the study and the
    reference search bind ``multilevel_multistart`` at import, so both
    names are wrapped.
    """
    batches: List[tuple] = []
    saved = [(m, m.multilevel_multistart) for m in (_difficulty, _regimes)]

    def keeping(original):
        def wrapper(graph, balance, fixture=None, **kwargs):
            batch = original(graph, balance, fixture=fixture, **kwargs)
            batches.append((graph, balance, fixture, batch))
            return batch
        return wrapper

    try:
        for module, original in saved:
            module.multilevel_multistart = keeping(original)
        yield batches
    finally:
        for module, original in saved:
            module.multilevel_multistart = original


@dataclass(frozen=True)
class KWay(_Workload):
    """``repro partition --engine kway`` defaults: k=4, 10% tolerance."""

    name = "kway"
    why = ("kway_multistart, k=4, 10% tolerance, 4 ibm01s-spec circuits, "
           "jobs=1: the only workload running the k-way FM kernel")
    jobs = 1
    round_s = 3.5
    instances: int = 4
    per_round: int = 4
    circuit: str = "ibm01s"
    parts: int = 4
    starts: int = 2

    def setup_instance(self, seed: int) -> Inputs:
        graph = _generate(_spec(self.circuit, self.cells), seed)
        balance = relative_balance(graph.total_area, self.parts, 0.1)
        return Inputs(graph, balance, _seeds(self.name, seed).getrandbits(32))

    def run_instance(self, inputs: Inputs, index: int,
                     workdir: Path) -> List[Solution]:
        batch = kway_multistart(
            inputs.graph, inputs.balance, num_starts=self.starts,
            seed=round_seed(inputs, index), jobs=self.jobs,
        )
        return _solutions(batch, inputs.graph, inputs.balance, None)


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (Multilevel(), FlatFM(), Sweep(), KWay())
}
"""The benchmark's workloads at their measured sizes, by name."""

TINY: Dict[str, Any] = {
    "multilevel": Multilevel(cells=300, instances=2, per_round=2),
    "flat_fm": FlatFM(cells=200, starts=2, instances=2),
    "sweep": Sweep(cells=200, percents=(0.0, 20.0), starts_list=(1, 2),
                   instances=1),
    "kway": KWay(cells=200, instances=2, per_round=2, starts=1),
}
"""The same workloads on instances small enough for the self-tests."""
