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
    # One int key per unordered pair, a * n + b with a < b, so Counter's C loop folds
    # both orientations and the keys sort as plain ints. Circuit keeps every qubit
    # below n, so ascending codes are ascending pairs, and divmod gives (a, b) back.
    n = circuit.num_qubits
    codes = Counter(
        a * n + b if a < b else b * n + a
        for gate in circuit.gates if gate.kind in TWO_QUBIT_KINDS for a, b in (gate.qubits,)
    )
    weights = {divmod(code, n): codes[code] for code in sorted(codes)}
    return CorrelationMatrix(n, weights)
