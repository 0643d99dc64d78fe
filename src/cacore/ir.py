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

from enum import Enum, unique

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
# The most gates a QASM file may add, and the most `--gates` may ask for: far above the
# 2000-gate benchmarks, so one short input cannot make later stages walk a gate list of
# any length it implies. Under tracemalloc a circuit at the bound, each gate its own
# object, holds 46 MB, and parsing it from 262,144 distinct lines peaks at 81 MB.
MAX_GATES = 2**18

_set = object.__setattr__  # stores a field of a Frozen record


class Record:
    """Fields named by the parameters of ``__init__`` in their order (``_fields``, read from
    its code as the class is made), with a dataclass's ``repr`` and ``==`` read from them
    alone, so a value cached in the instance dict enters neither. ``==`` compares field
    tuples, which take a value as equal to itself (a NaN angle too), as a dataclass's do
    up to Python 3.12. No decorator runs at import."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        init = vars(cls).get("__init__")
        if init is not None:  # else the parent's fields
            cls._fields = init.__code__.co_varnames[1 : init.__code__.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented


class Frozen(Record):
    """A Record with a frozen dataclass's ``hash`` and immutability; ``__init__`` stores each
    field with ``object.__setattr__`` (a store into ``vars(self)`` slows every read)."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded on this error path only
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FieldTable:
    """``__dataclass_fields__`` of a Record copied with ``dataclasses.replace``, which runs
    ``__init__`` (so a copy's caches start empty): made from ``_fields`` when first read."""

    def __get__(self, record, cls):
        from dataclasses import fields, make_dataclass
        made = make_dataclass(cls.__name__, cls._fields)
        cls.__dataclass_fields__ = {field.name: field for field in fields(made)}
        return cls.__dataclass_fields__


class Gate(Frozen):
    """A single operation on one or more qubits.

    Two-qubit kinds (CNOT, SWAP) take exactly two distinct operands, barrier
    takes any non-empty subset, everything else takes one. Rotation kinds carry
    an angle in radians; all other kinds carry none. ``__init__`` checks this.
    """

    def __init__(self, kind: GateKind, qubits: tuple[int, ...], param: float | None = None):
        qubits = tuple(qubits)
        if kind in TWO_QUBIT_KINDS:
            if len(qubits) != 2:
                raise ValueError(f"{kind.value} takes exactly 2 qubits, got {len(qubits)}")
            if qubits[0] == qubits[1]:
                raise ValueError(f"{kind.value}: identical endpoints {qubits[0]}")
        elif kind is GateKind.BARRIER:
            if not qubits:
                raise ValueError("barrier requires at least one qubit")
        elif len(qubits) != 1:
            raise ValueError(f"{kind.value} takes exactly 1 qubit, got {len(qubits)}")
        if (param is not None) != (kind in PARAMETRIC_KINDS):
            raise ValueError(f"{kind.value}: angle parameter mismatch")
        _set(self, "kind", kind)
        _set(self, "qubits", qubits)
        _set(self, "param", param)


SHARED_KINDS = frozenset(GateKind) - PARAMETRIC_KINDS - {GateKind.BARRIER}  # all it holds
_SHARED: dict[GateKind, dict[tuple[int, ...], Gate]] = {kind: {} for kind in SHARED_KINDS}
_SHARED_LIMIT = 4096  # bench_grid's 352 inputs (n = 10-20, 32 seeds) on its 4 devices fill 882 at most


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


class Circuit(Frozen):
    """Ordered gate list over a fixed number of logical qubits. ``__init__`` raises
    DegenerateInputError if a gate names a logical qubit outside [0, num_qubits): the
    lowest negative one, else the highest too large. So every stage may index by qubit."""

    __dataclass_fields__ = FieldTable()

    def __init__(self, num_qubits: int, gates: tuple[Gate, ...] = (), name: str = "circuit"):
        gates = tuple(gates)
        used = {q for gate in gates for q in gate.qubits}
        low, high = min(used, default=0), max(used, default=-1)
        if low < 0 or high >= num_qubits:
            q = low if low < 0 else high
            raise DegenerateInputError(f"logical qubit {q} out of range for {num_qubits}-qubit circuit {name!r}")
        _set(self, "num_qubits", num_qubits)
        _set(self, "gates", gates)
        _set(self, "name", name)


def _unchecked_circuit(num_qubits: int, gates: tuple[Gate, ...], name: str) -> Circuit:
    """A Circuit built without ``__init__``'s scan, for ``parse_qasm`` and ``route_circuit``
    alone: each builds only gates whose qubits are in range (a ``dataclasses.replace`` copy scans)."""
    circuit = object.__new__(Circuit)
    _set(circuit, "num_qubits", num_qubits)
    _set(circuit, "gates", gates)
    _set(circuit, "name", name)
    return circuit
