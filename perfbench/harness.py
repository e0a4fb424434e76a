"""Run one workload: timed untraced rounds, then optionally a traced pass.

End-to-end metrics come from untraced rounds.  Set-up is repeated and
its median reported.  ``seconds`` fixes the number of rounds from the
workload's nominal round time, so the work -- and every cut, count and
fingerprint -- depends only on the seed and ``seconds``, never on how
fast the host happened to be.  Each round runs on freshly rebuilt
graphs.  Every timed region is bracketed by host-speed measurements and
its times are divided by their mean (see :mod:`perfbench.calibrate`), so
times are in reference seconds; the raw times are printed too.
Throughput and CPU cost are medians over rounds, which keeps a burst of
host slowness in one round from moving the result.  Every solution is
certified outside the timed region.

The traced pass (``trace=True``) sets up and runs round 0 again under a
live :class:`~repro.runtime.observe.TraceRecorder` with every layer entry
point wrapped (see :mod:`perfbench.layers`).  It must reproduce round 0's
untraced fingerprint; its trace is saved in the ``repro-trace/1`` format
that ``repro trace summarize`` reads, and the per-layer metrics are
computed from it.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import layers
from perfbench.calibrate import Calibrator
from perfbench.workloads import certify, fingerprint
from repro.runtime import observe
from repro.runtime.observe import TraceRecorder

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 15


def _cpu_seconds() -> float:
    """CPU of this process plus every reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def _commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    """Digest of the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata(root: Path, workload: Any, seed: int) -> Dict[str, Any]:
    """What a result needs to be compared with another one."""
    cores = usable_cores()
    return {
        "workload": workload.name,
        "seed": seed,
        "jobs": workload.jobs,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cores": cores,
        "parallel_measurement": workload.jobs > 1 and cores >= workload.jobs,
    }


@dataclass
class Round:
    """One timed round."""

    wall_s: float
    cpu_s: float
    starts: int
    fingerprint: str
    failures: List[str]
    cuts: List[Optional[int]]
    host_factor: float


@dataclass
class Result:
    """Everything one benchmark run measured."""

    meta: Dict[str, Any]
    setup_s: List[float] = field(default_factory=list)
    setup_factor: float = 1.0
    rounds: List[Round] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    traced: Optional[Round] = None
    per_layer: Dict[str, float] = field(default_factory=dict)
    layer_times: Optional[layers.LayerTimes] = None
    trace_path: Optional[Path] = None

    @property
    def fingerprint(self) -> str:
        """Digest of every round's fingerprint."""
        joined = ",".join(r.fingerprint for r in self.rounds)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    @property
    def attempted(self) -> int:
        runs = self.rounds + ([self.traced] if self.traced else [])
        return sum(r.starts for r in runs)

    @property
    def failed(self) -> int:
        runs = self.rounds + ([self.traced] if self.traced else [])
        return sum(len(r.failures) for r in runs)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def end_to_end(self, calibrated: bool = True) -> Dict[str, float]:
        """The end-to-end metrics: medians over set-ups and rounds, and
        the mean cut over every start.  Times are in reference seconds,
        or raw seconds when ``calibrated`` is false."""
        def scale(factor: float) -> float:
            return factor if calibrated else 1.0

        cuts = [c for r in self.rounds for c in r.cuts if c is not None]
        return {
            "setup_s": statistics.median(self.setup_s)
            / scale(self.setup_factor),
            "starts_per_s": statistics.median(
                r.starts * scale(r.host_factor) / r.wall_s
                for r in self.rounds
            ),
            "cpu_s_per_start": statistics.median(
                r.cpu_s / scale(r.host_factor) / r.starts
                for r in self.rounds
            ),
            "cut_mean": sum(cuts) / len(cuts) if cuts else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def failed_frac(self) -> float:
        return self.failed / self.attempted


def rounds_for(workload: Any, seconds: float) -> int:
    """Rounds that fill ``seconds`` at the workload's nominal round time."""
    return max(1, round(seconds / workload.round_s))


def _failures(solutions: List[Any], label: str) -> List[str]:
    return [
        f"{label} start {i}: {reason}"
        for i, solution in enumerate(solutions)
        for reason in certify(solution)
    ]


def _run_round(workload: Any, instances: List[Any], index: int,
               workdir: Path, calibrator: Calibrator) -> Round:
    fresh = [inputs.fresh()
             for inputs in workload.round_instances(instances, index)]
    gc.collect()
    before = calibrator.factor()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    solutions = workload.run_round(fresh, index, workdir)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    host_factor = (before + calibrator.factor()) / 2
    return Round(wall, cpu, len(solutions), fingerprint(solutions),
                 _failures(solutions, f"round {index}"),
                 [s.cut for s in solutions], host_factor)


def run_workload(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    meta: Dict[str, Any],
) -> Result:
    """Set up, run the timed rounds, then the traced pass."""
    result = Result(meta=meta)
    calibrator = Calibrator()
    digests = set()
    before = calibrator.factor()
    while True:
        t0 = time.perf_counter()
        instances = workload.setup(seed)
        result.setup_s.append(time.perf_counter() - t0)
        digests.add(tuple(inputs.digest() for inputs in instances))
        reps = len(result.setup_s)
        if trace or reps >= SETUP_MAX_REPS or (
            reps >= SETUP_MIN_REPS and sum(result.setup_s) >= SETUP_MIN_SECONDS
        ):
            break
    result.setup_factor = (before + calibrator.factor()) / 2
    if len(digests) != 1:
        result.problems.append("set-up is not deterministic in the seed")

    for index in range(rounds_for(workload, seconds)):
        result.rounds.append(
            _run_round(workload, instances, index, workdir, calibrator)
        )
    result.peak_rss_mb = _peak_rss_mb()

    if trace:
        _traced_pass(workload, seed, workdir, result, calibrator)
    return result


def _traced_pass(workload: Any, seed: int, workdir: Path, result: Result,
                 calibrator: Calibrator) -> None:
    recorder = TraceRecorder(meta={**result.meta, "pass": "traced"})
    with layers.instrumented(), observe.use(recorder):
        with observe.span("bench.setup"):
            instances = workload.setup(seed)
        # Set-up runs engines too (the reference search); the round's
        # counters are what the round added.
        before = dict(recorder.counters)
        fresh = [inputs.fresh()
                 for inputs in workload.round_instances(instances, 0)]
        gc.collect()
        factor = calibrator.factor()
        with observe.span("bench.round") as root:
            solutions = workload.run_round(fresh, 0, workdir)
        factor = (factor + calibrator.factor()) / 2
    result.traced = Round(
        root.span.duration, 0.0, len(solutions), fingerprint(solutions),
        _failures(solutions, "traced round 0"), [s.cut for s in solutions],
        factor,
    )
    untraced = result.rounds[0]
    if result.traced.fingerprint != untraced.fingerprint:
        result.problems.append(
            f"traced round 0 fingerprint {result.traced.fingerprint} != "
            f"untraced {untraced.fingerprint}"
        )
    setup_roots = [s for s in recorder.roots if s.name == "bench.setup"]
    result.per_layer, result.layer_times = layers.per_layer_metrics(
        setup_roots, root.span,
        {k: v - before.get(k, 0) for k, v in recorder.counters.items()},
        untraced.wall_s * factor / untraced.host_factor,
    )
    result.trace_path = workdir / f"{workload.name}-seed{seed}.trace.json"
    recorder.save(result.trace_path)


# -- reporting -----------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: Result, trace: bool) -> List[str]:
    """Human-readable lines: metrics by name and unit, fingerprints and,
    for a traced run, the self-time table."""
    meta = result.meta
    lines = [
        f"workload {meta['workload']} seed {meta['seed']}: "
        f"{len(result.rounds)} round(s), "
        f"{sum(r.starts for r in result.rounds)} starts, "
        f"{len(result.setup_s)} set-up(s), fingerprint {result.fingerprint} "
        f"(round 0: {result.rounds[0].fingerprint})",
    ]
    if meta["jobs"] > 1 and not meta["parallel_measurement"]:
        lines.append(
            f"WARNING: {meta['usable_cores']} usable core(s) < jobs="
            f"{meta['jobs']}: pool numbers are NOT a parallel measurement"
        )
    e2e = result.end_to_end()
    raw = result.end_to_end(calibrated=False)
    factors = [r.host_factor for r in result.rounds]
    lines.append(
        f"host factor: set-up {result.setup_factor:.3f}, rounds "
        f"{min(factors):.3f}-{max(factors):.3f} (times are reference "
        "seconds; raw seconds in brackets)"
    )
    for metric in layers.END_TO_END:
        value = e2e[metric.name]
        lines.append(
            f"  {metric.name:<28} {_fmt(value):>12} {metric.unit}"
            + (f"  [{_fmt(raw[metric.name])}]"
               if raw[metric.name] != value else "")
        )
    lines.append(f"  {'failed_frac':<28} {_fmt(result.failed_frac()):>12} "
                 "fraction")
    for problem in result.problems:
        lines.append(f"PROBLEM: {problem}")
    for r in result.rounds + ([result.traced] if result.traced else []):
        for failure in r.failures:
            lines.append(f"FAILED: {failure}")
    if not trace or result.traced is None:
        return lines

    times = result.layer_times
    wall = result.traced.wall_s
    basis = ("raw process-seconds summed over the parent and pool workers"
             if meta["jobs"] > 1 else "raw parent-process wall seconds")
    lines.append(
        f"traced pass: round 0 fingerprint {result.traced.fingerprint}, "
        f"{wall:.3f} s, overhead ratio "
        f"{_fmt(result.per_layer['trace.overhead_ratio'])}, trace saved "
        f"to {result.trace_path.parent.name}/{result.trace_path.name}"
    )
    lines.append(f"self time per layer (set-up + round; {basis}):")
    lines.append(f"  {'layer':<24} {'parent_s':>10} {'workers_s':>10} "
                 f"{'share':>7}")
    layer_names = sorted(set(times.parent_s) | set(times.worker_s),
                         key=lambda n: -times.self_s(n))
    total_parent = sum(times.parent_s.values())
    for name in layer_names:
        parent = times.parent_s.get(name, 0.0)
        lines.append(
            f"  {name:<24} {parent:>10.4f} "
            f"{times.worker_s.get(name, 0.0):>10.4f} "
            f"{parent / total_parent if total_parent else 0.0:>7.1%}"
        )
    for metric in layers.PER_LAYER:
        lines.append(f"  {metric.name:<28} "
                     f"{_fmt(result.per_layer[metric.name]):>12} "
                     f"{metric.unit}")
    return lines


def summary(result: Result, trace: bool) -> Dict[str, Any]:
    """The last output line's object."""
    if trace:
        chosen = layers.PER_LAYER
        values = result.per_layer
    else:
        chosen = layers.END_TO_END
        values = result.end_to_end()
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in chosen
        },
    }

