"""Qubit-pair correlation.

The correlation matrix counts two-qubit gates per unordered qubit pair;
one-qubit gates, measures, and barriers contribute nothing. A SWAP in the
source circuit counts as a single interaction, the same as a CNOT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .ir import TWO_QUBIT_KINDS, Circuit


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric qubit-pair interaction counts, stored once per pair (i < j)."""

    num_qubits: int
    weights: dict[tuple[int, int], int]

    def weight(self, a: int, b: int) -> int:
        return self.weights.get(_ordered(a, b), 0)


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
