"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, layers, run  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS, certify  # noqa: E402
from repro.partition.solution import FREE  # noqa: E402
from repro.runtime.observe import Span  # noqa: E402


@pytest.fixture(scope="module")
def flat_fm_solutions(tmp_path_factory):
    workload = TINY["flat_fm"]
    inputs = workload.setup(seed=3)[0]
    workdir = tmp_path_factory.mktemp("work")
    return workload.run_round([inputs.fresh()], 0, workdir)


def test_certify_accepts_engine_output(flat_fm_solutions):
    assert flat_fm_solutions
    assert all(certify(s) == [] for s in flat_fm_solutions)


def test_certify_rejects_cut_off_by_one(flat_fm_solutions):
    good = flat_fm_solutions[0]
    bad = dataclasses.replace(good, cut=good.cut + 1)
    assert any("recount" in reason for reason in certify(bad))


def test_certify_rejects_flipped_fixed_vertex(flat_fm_solutions):
    fixed = next(s for s in flat_fm_solutions
                 if any(f != FREE for f in s.fixture))
    v = next(i for i, f in enumerate(fixed.fixture) if f != FREE)
    parts = list(fixed.parts)
    parts[v] = 1 - parts[v]
    bad = dataclasses.replace(fixed, parts=parts)
    assert any("fixed vertex" in reason for reason in certify(bad))


def test_certify_rejects_quarantined_start(flat_fm_solutions):
    bad = dataclasses.replace(flat_fm_solutions[0], parts=[], cut=None,
                              quarantined="worker crashed")
    assert certify(bad) == ["start quarantined: worker crashed"]


def _span(name, start, duration, children=(), **attrs):
    return Span(name, dict(attrs), start=start, duration=duration,
                children=list(children))


def test_self_time_on_hand_built_tree():
    # fm [1, 4] and fm [3, 6] overlap; the matching span [8, 12] runs
    # past its parent's end; the worker-lane span is on another clock.
    root = _span("bench.round", 0.0, 10.0, [
        _span("partition.fm", 1.0, 3.0, [_span("fm.run", 1.5, 2.0)]),
        _span("partition.fm", 3.0, 3.0),
        _span("partition.matching", 8.0, 4.0),
        _span("multistart.start", 0.0, 7.0,
              [_span("partition.fm", 1.0, 5.0)], lane="worker-1"),
    ])
    times = layers.layer_times([root])
    assert times.parent_s[layers.UNATTRIBUTED] == pytest.approx(10 - 5 - 2)
    assert times.parent_s["partition.fm"] == pytest.approx(3.0 + 3.0)
    assert times.parent_s["partition.matching"] == pytest.approx(4.0)
    assert times.worker_s["partition.multistart"] == pytest.approx(2.0)
    assert times.worker_s["partition.fm"] == pytest.approx(5.0)
    assert times.calls["partition.fm"] == 3
    assert times.self_s("partition.fm") == pytest.approx(11.0)


def test_unlisted_span_takes_its_ancestors_layer():
    root = _span("bench.round", 0.0, 4.0, [
        _span("partition.fm", 0.0, 4.0, [_span("fm.new_inner", 1.0, 1.0)]),
    ])
    assert layers.layer_times([root]).parent_s["partition.fm"] == (
        pytest.approx(4.0)
    )


def test_covered_length_merges_overlaps_and_clips():
    intervals = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0), (2.0, 3.0)]
    assert layers.covered_length(intervals, 0.0, 10.0) == pytest.approx(7.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert layers.tail_percentile([4.0, 1.0, 3.0, 2.0]) == (2.5, 50)
    value, pct = layers.tail_percentile([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90)
    value, pct = layers.tail_percentile([float(i) for i in range(1, 41)])
    assert pct == 75 and value == 30.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_certifies_and_traces(name, tmp_path):
    workload = TINY[name]
    meta = harness.run_metadata(ROOT, workload, seed=5)
    result = harness.run_workload(workload, 5, 0.01, True, tmp_path, meta)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted > 0
    assert result.traced.fingerprint == result.rounds[0].fingerprint
    summary = harness.summary(result, trace=True)
    assert set(summary["metrics"]) == {m.name for m in layers.PER_LAYER}
    metrics = result.per_layer
    pooled = ("pool.calls", "pool.busy_s", "journal.writes",
              "journal.bytes_written")
    if workload.jobs > 1:
        assert all(metrics[m] > 0 for m in pooled)
    else:
        assert all(metrics[m] == 0 for m in pooled)
        assert metrics["trace.unattributed_frac"] < 0.05
    e2e = harness.summary(result, trace=False)["metrics"]
    assert set(e2e) == {m.name for m in layers.END_TO_END}
    assert all(v["value"] > 0 for v in e2e.values())
    assert result.trace_path.exists()


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in layers.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.PER_LAYER
    ]
    for metric in layers.PER_LAYER:
        assert set(metric.on) | set(metric.not_on) <= set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kway",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
