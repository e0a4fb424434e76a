"""The repository benchmark's command.

Run from the repository root::

    python3 perfbench/run.py --workload multilevel --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``multilevel``, ``flat_fm``, ``sweep`` and
``kway``.  ``--seed`` generates the circuits, the fixed-vertex schedule
and the start seeds.  ``--seconds`` sets how many rounds of the workload
run, from each workload's nominal round time, so a run lasts about that
long and its work depends only on the arguments.  Times are reported in
host-speed-calibrated reference seconds (see ``calibrate.py``).  With
``--trace 0`` the last line is a JSON object with the end-to-end
metrics; with ``--trace 1`` a traced pass follows the timed rounds and
the last line carries the per-layer metrics instead (the trace is
written under ``.perfbench_out/``).
``--describe`` prints the workloads and the metric catalogue, with what
each per-layer metric is predicted to move, as JSON.

Exit status: 0 when every solution certified and every determinism
check passed, 1 when one did not (the result line says ``"correct": false``),
2 when the program under test cannot be found or imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("multilevel", "flat_fm", "sweep", "kway")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.describe:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path and import the
    program from it; refuse to measure any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return False
    if src not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def describe() -> dict:
    """Workloads and metrics, with each per-layer metric's prediction."""
    from perfbench import layers
    from perfbench.workloads import WORKLOADS

    return {
        "workloads": [
            {"name": w.name, "why": w.why, "jobs": w.jobs}
            for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {k: v for k, v in dataclasses.asdict(m).items()
             if k in ("name", "unit", "better", "bound")}
            for m in layers.END_TO_END
        ],
        "per_layer": [
            {k: v for k, v in dataclasses.asdict(m).items() if k != "bound"}
            for m in layers.PER_LAYER
        ],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2
    if args.describe:
        print(json.dumps(describe(), indent=1))
        return 0

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    # The benchmark measures the unfaulted program.
    os.environ.pop("REPRO_FAULTS", None)
    workload = WORKLOADS[args.workload]
    meta = harness.run_metadata(ROOT, workload, args.seed)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)
    workdir = ROOT / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    result = harness.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), workdir, meta
    )
    for line in harness.report(result, bool(args.trace)):
        print(line)
    print(json.dumps(harness.summary(result, bool(args.trace))), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
