"""Self-test of ``benchmarks/gates.py``: a gate passes on the real
kernels and fails once the kernel's result is corrupted in one vertex
or one net."""

import pytest

from benchmarks import gates
from repro.hypergraph import CircuitSpec, contract, generate_circuit
from repro.partition import FMBipartitioner


@pytest.fixture(scope="module")
def tiny():
    graph = generate_circuit(CircuitSpec(num_cells=120), seed=3).graph
    return [("tiny", graph)]


class _FlipOneVertex(FMBipartitioner):
    def run(self, initial_parts):
        result = super().run(initial_parts)
        result.solution.parts[0] ^= 1
        return result


def _bump_one_net_weight(graph, labels):
    result = contract(graph, labels)
    result.coarse._net_weights[0] += 1
    return result


def test_fm_gate_passes_on_kernel(tiny, capsys):
    assert gates.run_gate("fm", gates.fm_gate(tiny, starts=1))
    assert capsys.readouterr().out.startswith("PASS fm:")


def test_fm_gate_fails_on_corrupt_kernel(tiny, capsys, monkeypatch):
    monkeypatch.setattr(gates, "FMBipartitioner", _FlipOneVertex)
    assert not gates.run_gate("fm", gates.fm_gate(tiny, starts=1))
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL fm: {len(gates.FM_CASES)} of ")


def test_contraction_gate_passes_on_kernel(tiny, capsys):
    assert gates.run_gate(
        "contraction", gates.contraction_gate(tiny, fractions=(0.0, 0.2))
    )
    assert capsys.readouterr().out.startswith("PASS contraction:")


def test_contraction_gate_fails_on_corrupt_kernel(tiny, capsys, monkeypatch):
    monkeypatch.setattr(gates, "contract", _bump_one_net_weight)
    assert not gates.run_gate(
        "contraction", gates.contraction_gate(tiny, fractions=(0.0, 0.2))
    )
    assert capsys.readouterr().out.startswith("FAIL contraction: 2 of 2 ")


def test_gate_that_raises_fails_and_names_the_error(capsys):
    def broken():
        yield "first", True
        raise IndexError("boom")

    assert not gates.run_gate("broken", broken())
    out = capsys.readouterr().out
    assert out.startswith("FAIL broken: 1 of 2 checks failed: ")
    assert "raised IndexError: boom" in out
