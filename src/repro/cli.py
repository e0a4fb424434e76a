"""Command-line interface.

Exposes the library's main workflows without writing Python::

    python -m repro generate  --cells 1000 --out circ_dir --name mychip
    python -m repro partition --dir circ_dir --name mychip --engine multilevel
    python -m repro place     --cells 800 --suite-out suite_dir --name chip
    python -m repro stats     --dir circ_dir --name mychip
    python -m repro experiment table2 --profile quick

All subcommands are deterministic under ``--seed``.  Exit codes: 0 on
success, 1 when ``evaluate`` finds a violated constraint, 2 on bad input
(usage errors, missing or malformed input files, a ``--resume`` journal
written for another study or instance), which is reported as one
``repro: error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core import bipartition_instance, constraint_profile
from repro.core.instance import PartitioningInstance
from repro.hypergraph import CircuitSpec, compute_stats, generate_circuit
from repro.hypergraph.hypergraph import HypergraphError
from repro.io import read_bookshelf, write_bookshelf, write_netd
from repro.io.bookshelf import BookshelfFormatError
from repro.partition import (
    FMConfig,
    block_loads,
    flat_fm_multistart,
    kway_multistart,
    multilevel_multistart,
    relative_balance,
)
from repro.placement import build_suite, format_table, place_circuit
from repro.runtime import CheckpointError, jobs_from_env, parse_jobs
from repro.runtime import observe

ENGINES = ("multilevel", "fm", "kway")
EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "multiway",
    "overconstrained",
    "suite-solutions",
)


def _jobs_arg(value: str) -> int:
    # Delegates to the runtime's parser so the CLI and the API reject a
    # bad --jobs with the same message (and the same rules).
    try:
        return parse_jobs(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _default_jobs() -> int:
    """CLI default for --jobs: REPRO_JOBS if set (validated), else 1."""
    env = jobs_from_env()
    return 1 if env is None else env


def _timeout_arg(value: str) -> float:
    timeout = float(value)
    if not 0 < timeout < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive finite seconds, got {timeout}"
        )
    return timeout


def _int_at_least(minimum: int):
    """An argparse ``type=`` accepting integers no smaller than
    ``minimum``."""

    def parse(value: str) -> int:
        number = int(value)
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {number}"
            )
        return number

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _cutoff_arg(value: str) -> float:
    cutoff = float(value)
    if not 0.0 < cutoff <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in (0, 1], got {cutoff}"
        )
    return cutoff


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by partition and experiment."""
    parser.add_argument(
        "--resume", default=None, metavar="JOURNAL",
        help="checkpoint journal path; created on first use, resumed "
             "afterwards (completed cells are skipped bit-identically)",
    )
    parser.add_argument(
        "--timeout", type=_timeout_arg, default=None, metavar="SECS",
        help="per-item wall-clock deadline; expired items are retried "
             "on a fresh pool",
    )
    parser.add_argument(
        "--max-retries", type=_int_at_least(0), default=None, metavar="N",
        help="crash/timeout retries per item before it is quarantined "
             "as a null row (default 2 when --timeout is set)",
    )


def _add_observe_args(parser: argparse.ArgumentParser) -> None:
    """The tracing knobs shared by partition and experiment."""
    parser.add_argument(
        "--trace", default=None, metavar="TRACE.json",
        help="record a structured trace of this run (spans, counters, "
             "histograms) and write it to this path; results are "
             "bit-identical with or without tracing",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="METRICS.json",
        help="write just the counters/histograms to this path "
             "(lighter than a full --trace)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hypergraph partitioning with fixed vertices "
            "(Alpert/Caldwell/Kahng/Markov reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="synthesize a circuit and write it to disk"
    )
    gen.add_argument("--cells", type=_int_at_least(2), default=1000)
    gen.add_argument("--name", default="circuit")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--format",
        choices=("bookshelf", "netd", "both"),
        default="bookshelf",
    )

    part = sub.add_parser(
        "partition", help="partition a saved bookshelf instance"
    )
    part.add_argument("--dir", required=True, help="instance directory")
    part.add_argument("--name", required=True, help="instance name")
    part.add_argument("--engine", choices=ENGINES, default="multilevel")
    part.add_argument("--starts", type=_int_at_least(1), default=1)
    part.add_argument("--seed", type=int, default=0)
    part.add_argument(
        "--jobs", type=_jobs_arg, default=_default_jobs(),
        help="worker processes for independent starts "
             "(0 = all cores; REPRO_JOBS sets the default; results are "
             "identical to --jobs 1)",
    )
    part.add_argument(
        "--parts", type=_int_at_least(2), default=None,
        help="override block count (kway engine only)",
    )
    part.add_argument(
        "--cutoff", type=_cutoff_arg, default=1.0,
        help="pass move-limit fraction in (0, 1] (Section III "
             "heuristic; fm engine only)",
    )
    part.add_argument(
        "--save", default=None,
        help="write the block of each vertex to this file",
    )
    _add_runtime_args(part)
    _add_observe_args(part)

    place = sub.add_parser(
        "place", help="place a synthetic circuit and derive benchmarks"
    )
    place.add_argument("--cells", type=_int_at_least(2), default=800)
    place.add_argument("--name", default="chip")
    place.add_argument("--seed", type=int, default=0)
    place.add_argument(
        "--suite-out", default=None,
        help="write the derived A..D instances to this directory",
    )

    stats = sub.add_parser(
        "stats", help="print statistics of a saved instance"
    )
    stats.add_argument("--dir", required=True)
    stats.add_argument("--name", required=True)

    evaluate = sub.add_parser(
        "evaluate",
        help="verify a saved assignment against an instance",
    )
    evaluate.add_argument("--dir", required=True)
    evaluate.add_argument("--name", required=True)
    evaluate.add_argument(
        "--assignment", required=True,
        help="file of '<node> <block>' lines (see partition --save)",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("which", choices=EXPERIMENTS)
    exp.add_argument(
        "--profile", choices=("quick", "full"), default="quick"
    )
    exp.add_argument(
        "--jobs", type=_jobs_arg, default=_default_jobs(),
        help="worker processes for independent starts/runs "
             "(0 = all cores; REPRO_JOBS sets the default; results are "
             "identical to --jobs 1)",
    )
    _add_runtime_args(exp)
    _add_observe_args(exp)

    trace = sub.add_parser(
        "trace", help="inspect a trace written by --trace"
    )
    trace.add_argument("action", choices=("summarize",))
    trace.add_argument("path", help="trace JSON file")
    return parser


# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    circuit = generate_circuit(
        CircuitSpec(num_cells=args.cells, name=args.name), seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("bookshelf", "both"):
        instance = bipartition_instance(
            circuit.graph,
            pad_vertices=circuit.pad_vertices,
            name=args.name,
        )
        write_bookshelf(instance, out)
    if args.format in ("netd", "both"):
        write_netd(
            circuit.graph,
            out / f"{args.name}.net",
            out / f"{args.name}.are",
            pad_vertices=circuit.pad_vertices,
        )
    s = compute_stats(circuit.graph)
    print(
        f"generated {args.name}: {circuit.num_cells} cells, "
        f"{len(circuit.pad_vertices)} pads, {s.num_nets} nets, "
        f"{s.num_pins} pins -> {out}/"
    )
    return 0


def _load(args: argparse.Namespace) -> PartitioningInstance:
    return read_bookshelf(args.dir, args.name)


def _instance_digest(instance: PartitioningInstance) -> str:
    """SHA-256 of the instance content the partition results depend on.

    Covers the CSR arrays, areas and net weights, the hard fixture and
    the balance bounds -- what the instance *is*, not where it lives, so
    a file regenerated in place no longer matches its old journal.
    """
    digest = hashlib.sha256()
    buffers = instance.graph.to_buffers()
    for key in (
        "net_ptr", "net_pins", "vtx_ptr", "vtx_nets", "areas", "net_weights"
    ):
        data = buffers[key].tobytes()
        digest.update(f"{key}:{len(data)}:".encode())
        digest.update(data)
    balance = instance.balance
    bounds = [
        [list(c.min_loads), list(c.max_loads)]
        for c in getattr(balance, "constraints", [balance])
    ]
    digest.update(
        json.dumps([instance.hard_fixture(), bounds]).encode()
    )
    return digest.hexdigest()


def _partition_runtime(
    args: argparse.Namespace, instance: PartitioningInstance
):
    """(policy, checkpoint) for the partition command's runtime flags."""
    from repro.experiments.reporting import RuntimeFlags

    flags = RuntimeFlags(
        resume=args.resume,
        timeout=args.timeout,
        max_retries=args.max_retries,
    )
    journal = flags.journal(
        {
            "command": "partition",
            "instance": _instance_digest(instance),
            "engine": args.engine,
            "starts": args.starts,
            "seed": args.seed,
            "parts": args.parts,
            "cutoff": args.cutoff,
        }
    )
    checkpoint = journal.batch("starts") if journal is not None else None
    return flags.execution_policy(), checkpoint


def _cmd_partition(args: argparse.Namespace) -> int:
    instance = _load(args)
    graph = instance.graph
    fixture = instance.hard_fixture()
    # Per-start seeds keep the historical ``seed + i`` convention, so a
    # given command line prints the same cut at every --jobs value (and
    # the same cut this CLI always printed).
    start_seeds = [args.seed + i for i in range(args.starts)]
    policy, checkpoint = _partition_runtime(args, instance)
    t0 = time.perf_counter()
    if args.engine == "kway":
        num_parts = args.parts or instance.num_parts
        balance = relative_balance(graph.total_area, num_parts, 0.1)
        batch = kway_multistart(
            graph,
            balance,
            fixture=fixture if num_parts == instance.num_parts else None,
            num_starts=args.starts,
            seeds=start_seeds,
            jobs=args.jobs,
            policy=policy,
            checkpoint=checkpoint,
        )
    elif args.engine == "multilevel":
        if instance.num_parts != 2:
            print("multilevel engine is 2-way; use --engine kway")
            return 2
        batch = multilevel_multistart(
            graph,
            instance.balance,
            fixture=fixture,
            num_starts=args.starts,
            seeds=start_seeds,
            jobs=args.jobs,
            policy=policy,
            checkpoint=checkpoint,
        )
    else:  # flat FM
        if instance.num_parts != 2:
            print("fm engine is 2-way; use --engine kway")
            return 2
        batch = flat_fm_multistart(
            graph,
            instance.balance,
            fixture=fixture,
            config=FMConfig(pass_move_limit_fraction=args.cutoff),
            num_starts=args.starts,
            seeds=start_seeds,
            jobs=args.jobs,
            policy=policy,
            checkpoint=checkpoint,
        )
    best = batch.best()
    parts, cut = best.parts, best.cut
    elapsed = time.perf_counter() - t0
    if batch.num_quarantined:
        print(
            f"WARNING: {batch.num_quarantined} of {batch.num_starts} "
            "start(s) quarantined (see warnings above); best cut is "
            "over the surviving starts"
        )

    loads = block_loads(graph, parts, max(parts) + 1)
    print(
        f"{args.name}: cut {cut} with {args.engine} engine "
        f"({args.starts} start(s), {elapsed:.2f}s wall, "
        f"{batch.total_cpu_seconds():.2f}s CPU)"
    )
    print(
        "block loads: "
        + " ".join(f"{load:.1f}" for load in loads)
    )
    if not instance.is_assignment_legal(parts):
        print("WARNING: OR-fixture constraints not all satisfied")
    if args.save:
        Path(args.save).write_text(
            "\n".join(
                f"{graph.vertex_name(v)} {parts[v]}"
                for v in range(graph.num_vertices)
            )
            + "\n"
        )
        print(f"assignment written to {args.save}")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    circuit = generate_circuit(
        CircuitSpec(num_cells=args.cells, name=args.name), seed=args.seed
    )
    placement = place_circuit(circuit, seed=args.seed)
    print(
        f"placed {args.name}: HPWL = "
        f"{placement.half_perimeter_wirelength():.0f}"
    )
    suite = build_suite(circuit, args.name, placement=placement)
    print(format_table([suite]))
    if args.suite_out:
        out = Path(args.suite_out)
        for entry in suite.entries:
            write_bookshelf(entry.instance, out)
        print(f"{len(suite.entries)} instances written to {out}/")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = _load(args)
    s = compute_stats(instance.graph)
    print(f"instance {args.name}:")
    print(f"  {s.format_row()}")
    print(
        f"  partitions: {instance.num_parts}, fixed vertices: "
        f"{instance.num_fixed} ({instance.fixed_fraction:.1%}), "
        f"terminals: {len(instance.pad_vertices)}"
    )
    profile = constraint_profile(
        instance.graph, instance.hard_fixture()
    )
    print(profile.format_profile())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.partition.solution import cut_size

    instance = _load(args)
    graph = instance.graph
    index = {
        graph.vertex_name(v): v for v in range(graph.num_vertices)
    }
    parts = [None] * graph.num_vertices
    for lineno, line in enumerate(
        Path(args.assignment).read_text().splitlines(), start=1
    ):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2 or tokens[0] not in index:
            print(f"{args.assignment}:{lineno}: bad line {line!r}")
            return 2
        try:
            block = int(tokens[1])
        except ValueError:
            print(f"{args.assignment}:{lineno}: bad block {tokens[1]!r}")
            return 2
        if not 0 <= block < instance.num_parts:
            print(
                f"{args.assignment}:{lineno}: block {block} outside "
                f"[0, {instance.num_parts})"
            )
            return 2
        parts[index[tokens[0]]] = block
    missing = [v for v, p in enumerate(parts) if p is None]
    if missing:
        print(
            f"assignment misses {len(missing)} vertex/vertices, "
            f"e.g. {graph.vertex_name(missing[0])}"
        )
        return 2

    cut = cut_size(graph, parts)
    loads = block_loads(graph, parts, instance.num_parts)
    legal_fixture = instance.is_assignment_legal(parts)
    balance = instance.balance
    if hasattr(balance, "constraints"):  # multi-resource instance
        per_resource = [
            [
                sum(
                    graph.resource(v, r)
                    for v in range(graph.num_vertices)
                    if parts[v] == b
                )
                for b in range(instance.num_parts)
            ]
            for r in range(balance.num_resources)
        ]
        feasible = balance.is_feasible(per_resource)
    else:
        feasible = balance.is_feasible(loads)
    print(f"{args.name}: cut {cut}")
    print(
        "block loads: " + " ".join(f"{load:.1f}" for load in loads)
    )
    print(f"fixture constraints : {'OK' if legal_fixture else 'VIOLATED'}")
    print(f"balance constraints : {'OK' if feasible else 'VIOLATED'}")
    return 0 if (legal_fixture and feasible) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    jobs = str(args.jobs)
    # The sweep experiments understand the shared runtime flags (see
    # repro.experiments.reporting.parse_runtime_flags); forward them as
    # --k=v tokens so positional interfaces stay untouched.
    runtime = []
    if args.resume is not None:
        runtime.append(f"--resume={args.resume}")
    if args.timeout is not None:
        runtime.append(f"--timeout={args.timeout}")
    if args.max_retries is not None:
        runtime.append(f"--max-retries={args.max_retries}")
    if runtime and args.which in (
        "table1", "table4", "overconstrained", "suite-solutions"
    ):
        print(
            f"WARNING: {args.which} does not support "
            "--resume/--timeout/--max-retries; ignoring them"
        )
        runtime = []
    if args.which == "table1":
        from repro.experiments.table1 import main as run

        run()
    elif args.which == "table2":
        from repro.experiments.table2 import main as run

        run([args.profile, jobs] + runtime)
    elif args.which == "table3":
        from repro.experiments.table3 import main as run

        run([args.profile, jobs] + runtime)
    elif args.which == "table4":
        from repro.experiments.table4 import main as run

        run([args.profile])
    elif args.which in ("fig1", "fig2"):
        from repro.experiments.figures import main as run

        run([args.which, args.profile, jobs] + runtime)
    elif args.which == "multiway":
        from repro.experiments.multiway import main as run

        run([args.profile, jobs] + runtime)
    elif args.which == "suite-solutions":
        from repro.experiments.suite_solutions import main as run

        run([args.profile, jobs])
    else:
        from repro.experiments.overconstrained import main as run

        run([args.profile])
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Imported lazily: summarize pulls in the study drivers, which the
    # plain partition/experiment paths should not pay for.
    from repro.runtime.observe.summarize import summarize_path

    print(summarize_path(args.path))
    return 0


def _run_observed(handler, args: argparse.Namespace) -> int:
    """Run ``handler`` under a trace recorder and write the outputs."""
    recorder = observe.TraceRecorder(
        meta={"command": args.command, "argv": " ".join(sys.argv[1:])}
    )
    with observe.use(recorder):
        with recorder.span(f"cli.{args.command}"):
            code = handler(args)
    if args.trace:
        recorder.save(args.trace)
        print(f"trace written to {args.trace}")
    if args.metrics_out:
        recorder.save_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return code


_INPUT_ERRORS = (
    BookshelfFormatError,
    CheckpointError,
    HypergraphError,
    observe.TraceFormatError,
)
"""Errors that mean the user's input is bad, not that the program is."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code (see module doc)."""
    parser = build_parser()
    args = parser.parse_args(
        list(argv) if argv is not None else sys.argv[1:]
    )
    handlers = {
        "generate": _cmd_generate,
        "partition": _cmd_partition,
        "place": _cmd_place,
        "stats": _cmd_stats,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "trace": _cmd_trace,
    }
    handler = handlers[args.command]
    try:
        if getattr(args, "trace", None) or getattr(args, "metrics_out", None):
            return _run_observed(handler, args)
        return handler(args)
    except FileNotFoundError as exc:
        # Only a path the user typed is bad input; any other missing
        # file is the program's fault and keeps its traceback.
        named = {Path(v) for v in vars(args).values() if isinstance(v, str)}
        if exc.filename is None or Path(exc.filename) not in named:
            raise
        message = f"no such file: {exc.filename}"
    except _INPUT_ERRORS as exc:
        message = str(exc)
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
