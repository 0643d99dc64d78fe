"""Gate and circuit types shared across the toolchain.

``shared_gate`` builds every gate outside this module, and alone decides which
go in its process-wide tables, one ``qubits -> Gate`` per kind: param-less gates
of ``SHARED_KINDS``, all but rotations and barrier (an angle key would merge 0.0
with -0.0; a barrier's qubit set is the input's choice). Together they hold at
most 7n + 2n(n-1) gates over n qubits, all emptied once the total reaches
``_SHARED_LIMIT`` (about 1 MB). A thread race only builds two equal gates; no
code relies on gate identity.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum, unique
from functools import cached_property

from .errors import DegenerateInputError


@unique
class GateKind(Enum):
    """Supported gate vocabulary, valued by its OpenQASM mnemonic."""

    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    T = "t"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cx"
    SWAP = "swap"
    MEASURE = "measure"
    BARRIER = "barrier"

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality and skips Enum's Python-level
    # hash(name) on every set and dict lookup.
    __hash__ = object.__hash__


TWO_QUBIT_KINDS = frozenset({GateKind.CNOT, GateKind.SWAP})
PARAMETRIC_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})
# Barrier and measure are bookkeeping only: they never count toward gate
# totals, depth, or correlation weight.
METRIC_EXEMPT_KINDS = frozenset({GateKind.MEASURE, GateKind.BARRIER})

# The most qubits a circuit or topology read from outside may have: far above
# the largest bundled device (53), so one short input cannot make later stages
# allocate per-qubit lists of any size it names.
MAX_QUBITS = 2**16

_set = object.__setattr__  # stores a field of a Frozen record


class Frozen:
    """Fields ``_fields``, each stored once by ``__init__`` through ``object.__setattr__``,
    with a frozen dataclass's ``repr``, ``hash`` and immutability, but no decorator run at
    import. ``==`` compares field tuples, the dataclass rule up to Python 3.12."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Gate(Frozen):
    """A single operation on one or more qubits.

    Two-qubit kinds (CNOT, SWAP) take exactly two distinct operands, barrier
    takes any non-empty subset, everything else takes one. Rotation kinds carry
    an angle in radians; all other kinds carry none. ``__init__`` checks this in
    ``__post_init__``.
    """

    _fields = ("kind", "qubits", "param")

    def __init__(self, kind: GateKind, qubits: tuple[int, ...], param: float | None = None):
        _set(self, "kind", kind)
        _set(self, "qubits", tuple(qubits))
        _set(self, "param", param)
        self.__post_init__()

    def __post_init__(self):
        if self.kind in TWO_QUBIT_KINDS:
            if len(self.qubits) != 2:
                raise ValueError(f"{self.kind.value} takes exactly 2 qubits, got {len(self.qubits)}")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.kind.value}: identical endpoints {self.qubits[0]}")
        elif self.kind is GateKind.BARRIER:
            if not self.qubits:
                raise ValueError("barrier requires at least one qubit")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind.value} takes exactly 1 qubit, got {len(self.qubits)}")
        if (self.param is not None) != (self.kind in PARAMETRIC_KINDS):
            raise ValueError(f"{self.kind.value}: angle parameter mismatch")


SHARED_KINDS = frozenset(GateKind) - PARAMETRIC_KINDS - {GateKind.BARRIER}  # all it holds
_SHARED: dict[GateKind, dict[tuple[int, ...], Gate]] = {kind: {} for kind in SHARED_KINDS}
_SHARED_LIMIT = 4096  # above the 2343 possible over 33 qubits, the widest benchmark


def shared_gate(kind: GateKind, qubits: tuple[int, ...], param: float | None = None) -> Gate:
    """Gate ``kind`` on ``qubits`` at angle ``param``: its table's one Gate for a param-less
    gate of ``SHARED_KINDS``, else a fresh one; ``Gate`` raises ValueError on a mismatch."""
    table = _SHARED.get(kind)
    if param is not None or table is None:
        return Gate(kind, qubits, param)
    gate = table.get(qubits)
    if gate is None:
        if sum(map(len, _SHARED.values())) >= _SHARED_LIMIT:
            for full in _SHARED.values():
                full.clear()
        gate = table[qubits] = Gate(kind, qubits)
    return gate


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed number of logical qubits."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    name: str = "circuit"

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def check_qubits(self) -> None:
        """Raise DegenerateInputError if a gate names a logical qubit outside
        [0, num_qubits): the lowest negative one, else the highest too large.
        One scan per circuit, kept; none for ``parse_qasm``'s (``_in_range``)."""
        q = self._stray_qubit
        if q is not None:
            raise DegenerateInputError(
                f"logical qubit {q} out of range for {self.num_qubits}-qubit circuit {self.name!r}"
            )

    @cached_property  # stored in the instance __dict__; the circuit never changes
    def _stray_qubit(self) -> int | None:
        used = {q for gate in self.gates for q in gate.qubits}
        low, high = min(used, default=0), max(used, default=-1)
        return low if low < 0 else high if high >= self.num_qubits else None

    def _in_range(self) -> Circuit:
        """This circuit, stored as in range unscanned; a ``dataclasses.replace`` copy scans."""
        self.__dict__["_stray_qubit"] = None
        return self
