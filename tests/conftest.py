"""Shared fixtures: the six-qubit figure circuit and benchmark files."""

from pathlib import Path

import pytest

from cacore.ir import SHARED_KINDS, Gate
from cacore.qasm import parse_qasm_file

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parents[1] / "src"

# Benchmark files bundled for the fidelity-ordering acceptance check.
ORDERING_BENCHMARKS = ("bv_n14", "qec_xz_n17", "multiplier_n15", "multiply_n13")
# Additional corpus circuits (known not to satisfy the ordering claim
# against every baseline under this router; see the routing tests).
EXTRA_BENCHMARKS = ("bv_n19", "bigadder_n18")


@pytest.fixture(scope="session")
def figure_circuit():
    """The transcribed six-qubit, eight-CNOT walkthrough circuit."""
    return parse_qasm_file(DATA_DIR / "figure6.qasm")


def benchmark_path(name: str) -> Path:
    return DATA_DIR / f"{name}.qasm"


@pytest.fixture(scope="session")
def benchmark_circuits():
    return {
        name: parse_qasm_file(benchmark_path(name))
        for name in ORDERING_BENCHMARKS + EXTRA_BENCHMARKS
    }


def empty_gate_table(monkeypatch) -> dict:
    """Put empty per-kind gate tables in place of ``ir.shared_gate``'s for
    the rest of the test, and return them."""
    table = {kind: {} for kind in SHARED_KINDS}
    monkeypatch.setattr("cacore.ir._SHARED", table)
    return table


def gates_held(table: dict) -> int:
    """How many gates the per-kind tables hold in all."""
    return sum(map(len, table.values()))


@pytest.fixture
def gate_builds(monkeypatch):
    """Every Gate built from here on, by any module, in build order, from an
    empty gate table."""
    empty_gate_table(monkeypatch)
    built = []
    init = Gate.__init__

    def counting(gate, *args, **kwargs):
        init(gate, *args, **kwargs)
        built.append(gate)

    monkeypatch.setattr(Gate, "__init__", counting)
    return built
