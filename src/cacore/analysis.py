"""Qubit-pair correlation.

The correlation matrix counts two-qubit gates per unordered qubit pair;
one-qubit gates, measures, and barriers contribute nothing. A SWAP in the
source circuit counts as a single interaction, the same as a CNOT.
``build_correlation`` stores the weights in ascending pair order.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .ir import TWO_QUBIT_KINDS, Circuit


class CorrelationMatrix(namedtuple("CorrelationMatrix", "num_qubits weights")):
    """Symmetric qubit-pair interaction counts (``weights``), stored once per pair (i < j)."""

    __slots__ = ()


def build_correlation(circuit: Circuit) -> CorrelationMatrix:
    """Count two-qubit gates per qubit pair."""
    # Counter's C loop counts each gate's own qubit tuple, so a two-qubit gate
    # costs about what a one-qubit gate does; (b, a) then folds into (a, b)
    # once per pair. Sorting bare int pairs is far cheaper than sorting items.
    counts = Counter(gate.qubits for gate in circuit.gates if gate.kind in TWO_QUBIT_KINDS)
    pairs = sorted({(a, b) if a < b else (b, a) for a, b in counts})
    get = counts.get
    weights = {(a, b): get((a, b), 0) + get((b, a), 0) for a, b in pairs}
    return CorrelationMatrix(circuit.num_qubits, weights)
