"""Qubit-pair correlation and circuit statistics.

The correlation matrix counts two-qubit gates per unordered qubit pair;
one-qubit gates, measures, and barriers contribute nothing. A SWAP in the
source circuit counts as a single interaction, the same as a CNOT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .ir import TWO_QUBIT_KINDS, Circuit, GateKind


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric qubit-pair interaction counts, stored once per pair (i < j)."""

    num_qubits: int
    weights: dict[tuple[int, int], int]

    def weight(self, a: int, b: int) -> int:
        return self.weights.get(_ordered(a, b), 0)

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())


def build_correlation(circuit: Circuit) -> CorrelationMatrix:
    """Count two-qubit gates per qubit pair."""
    # One generator fed to Counter's C counting loop, with the kind test and
    # the pair ordering inlined: this loop over every gate is most of the
    # cost of synthesis, and the per-gate property and helper calls were
    # more than half of it.
    counts = Counter(
        (a, b) if a < b else (b, a)
        for gate in circuit.gates
        if gate.kind in TWO_QUBIT_KINDS
        for a, b in (gate.qubits,)
    )
    return CorrelationMatrix(circuit.num_qubits, dict(sorted(counts.items())))


@dataclass(frozen=True)
class CircuitStats:
    """Gate and depth totals under the unit-time ASAP convention.

    ``swap_count`` is the number of SWAP gates present in the circuit.
    Depth charges every computational gate (SWAP included) one time step;
    barriers synchronize their qubits without consuming a step, and
    measures are ignored entirely.
    """

    depth: int
    total_gates: int
    one_qubit_gates: int
    two_qubit_gates: int
    swap_count: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def circuit_stats(circuit: Circuit) -> CircuitStats:
    busy_until: dict[int, int] = {}
    get = busy_until.get
    swap, barrier, measure = GateKind.SWAP, GateKind.BARRIER, GateKind.MEASURE
    exempt = two_qubit = swaps = 0
    for gate in circuit.gates:
        kind = gate.kind
        if kind in TWO_QUBIT_KINDS:
            a, b = gate.qubits
            finish_a, finish_b = get(a, 0), get(b, 0)
            busy_until[a] = busy_until[b] = (finish_a if finish_a > finish_b else finish_b) + 1
            two_qubit += 1
            if kind is swap:
                swaps += 1
        elif kind is barrier:
            exempt += 1
            fence = max((get(q, 0) for q in gate.qubits), default=0)
            for q in gate.qubits:
                busy_until[q] = fence
        elif kind is measure:
            exempt += 1
        else:
            (q,) = gate.qubits
            busy_until[q] = get(q, 0) + 1
    total = len(circuit.gates) - exempt
    depth = max(busy_until.values(), default=0)
    return CircuitStats(depth, total, total - two_qubit, two_qubit, swaps)
