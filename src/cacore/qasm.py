"""OpenQASM 2.0 frontend for the supported gate subset.

Supported statements: the ``OPENQASM 2.0;`` header, ``include``, ``qreg``,
``creg``, gate applications from the internal gate vocabulary plus ``ccx``
(expanded at parse time), ``barrier``, and ``measure``. A ``creg`` only
reserves its name: classical state is not modeled, and a measure target
need not be declared. Conditionals are rejected. Angle expressions cover
``pi``, numeric literals, ``+ - * /``, unary minus, and parentheses.

The lexer reads a canonical gate application, ``name[(number)]
reg[i][,reg[j]];`` with one space before the first operand (``cx
q[3],q[7];``, ``rz(-0.25) q[1];``), as a single statement token when it
starts a statement: at the start of the input or right after a ``;``. The
parser checks that token in the same order, with the same errors and
lines, as the same text read token by token. Everything else is lexed one
token at a time.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

from .errors import QasmSyntaxError, QubitIndexError, UnsupportedGateError
from .ir import METRIC_EXEMPT_KINDS, PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind

_NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

_TOKEN_RE = re.compile(
    rf"""
      (?P<comment>//[^\n]*)
    | (?P<newline>\n)
    | (?P<ws>[\ \t\r]+)
    | (?P<number>{_NUMBER})
    | (?P<ident>{_IDENT})
    | (?P<string>"[^"\n]*")
    | (?P<arrow>->)
    | (?P<cmp>==|!=|<=|>=|[<>=])
    | (?P<sym>[;,\[\]()*/+\-{{}}])
    """,
    re.VERBOSE,
)

# A canonical gate application: name, optional angle, one or two indexed operands.
_STATEMENT_RE = re.compile(
    rf"({_IDENT})(?:\((-?(?:{_NUMBER}))\))? ({_IDENT})\[(\d+)\](?:,({_IDENT})\[(\d+)\])?;"
)

# Mnemonic -> (kind, operand count, parameter count); ccx expands at parse time.
_APPLIED_GATES = {
    kind.value: (kind, 2 if kind in TWO_QUBIT_KINDS else 1, int(kind in PARAMETRIC_KINDS))
    for kind in GateKind
    if kind not in METRIC_EXEMPT_KINDS
} | {"ccx": (None, 3, 0)}

# (name, has an angle, has a second operand) of each gate a statement token may hold.
_STATEMENT_SHAPES = frozenset(
    (name, n_params == 1, n_operands == 2)
    for name, (_, n_operands, n_params) in _APPLIED_GATES.items()
    if n_operands <= 2
)

_REJECTED_STATEMENTS = {
    "if": "classical conditionals are not supported",
    "gate": "gate definitions are not supported",
    "opaque": "opaque declarations are not supported",
    "reset": "reset is not supported",
}


class _Token(NamedTuple):
    kind: str
    text: str
    line: int


class _Statement(NamedTuple):
    """A canonical gate application: (name, angle, reg, index, reg, index) groups."""

    groups: tuple[str | None, ...]
    line: int
    kind = "statement"


def _tokenize(source: str) -> list[_Token | _Statement]:
    tokens: list[_Token | _Statement] = []
    line = 1
    pos = 0
    at_statement = True  # start of input, or right after a ';'
    while pos < len(source):
        if at_statement:
            statement = _STATEMENT_RE.match(source, pos)
            if statement is not None:
                groups = statement.groups()
                if (groups[0], groups[1] is not None, groups[4] is not None) in _STATEMENT_SHAPES:
                    tokens.append(_Statement(groups, line))
                    pos = statement.end()
                    continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise QasmSyntaxError(f"unexpected character {source[pos]!r}", line)
        kind = match.lastgroup or ""
        if kind == "newline":
            line += 1
        elif kind not in ("ws", "comment"):
            text = match.group()
            tokens.append(_Token(kind, text, line))
            at_statement = text == ";"
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token | _Statement]):
        self.tokens = tokens
        self.pos = 0
        # register name -> (offset, size); declaration order fixes offsets
        self.registers: dict[str, tuple[int, int]] = {}
        self.classical: set[str] = set()
        self.num_qubits = 0
        self.gates: list[Gate] = []

    # -- token stream helpers ------------------------------------------------

    def _peek(self) -> _Token | _Statement | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token | _Statement:
        tok = self._peek()
        if tok is None:
            last_line = self.tokens[-1].line if self.tokens else 1
            raise QasmSyntaxError(f"unexpected end of input, expected {expected}", last_line)
        self.pos += 1
        return tok

    def _expect_sym(self, symbol: str) -> _Token:
        tok = self._next(repr(symbol))
        if tok.text != symbol:
            raise QasmSyntaxError(f"expected {symbol!r}, got {tok.text!r}", tok.line)
        return tok

    def _expect_ident(self) -> _Token:
        tok = self._next("identifier")
        if tok.kind != "ident":
            raise QasmSyntaxError(f"expected identifier, got {tok.text!r}", tok.line)
        return tok

    def _expect_int(self) -> int:
        tok = self._next("integer")
        if tok.kind != "number" or not tok.text.isdigit():
            raise QasmSyntaxError(f"expected integer, got {tok.text!r}", tok.line)
        return int(tok.text)

    # -- statements ----------------------------------------------------------

    def parse(self) -> Circuit:
        while self._peek() is not None:
            self._statement()
        return Circuit(self.num_qubits, tuple(self.gates))

    def _statement(self) -> None:
        tok = self._next("statement")
        if tok.kind == "statement":
            self._canonical_application(tok)
            return
        if tok.kind != "ident":
            raise QasmSyntaxError(f"expected statement, got {tok.text!r}", tok.line)
        name = tok.text
        if name == "OPENQASM":
            version = self._next("version number")
            if version.kind != "number" or not version.text.startswith("2"):
                raise QasmSyntaxError(
                    f"only OpenQASM 2.0 is supported, got version {version.text!r}", version.line
                )
            self._expect_sym(";")
        elif name == "include":
            target = self._next("include path")
            if target.kind != "string":
                raise QasmSyntaxError(f"expected quoted path, got {target.text!r}", target.line)
            self._expect_sym(";")
        elif name in ("qreg", "creg"):
            self._declaration(name)
        elif name in _REJECTED_STATEMENTS:
            raise UnsupportedGateError(_REJECTED_STATEMENTS[name], tok.line)
        elif name == "measure":
            self._measure(tok.line)
        elif name == "barrier":
            self._barrier(tok.line)
        else:
            self._gate_application(name, tok.line)

    def _declaration(self, keyword: str) -> None:
        """``qreg`` or ``creg``; both kinds of register share one name space."""
        reg = self._expect_ident()
        if reg.text in self.registers or reg.text in self.classical:
            raise QasmSyntaxError(f"register {reg.text!r} already declared", reg.line)
        self._expect_sym("[")
        size = self._expect_int()
        self._expect_sym("]")
        self._expect_sym(";")
        if keyword == "creg":
            self.classical.add(reg.text)
        else:
            self.registers[reg.text] = (self.num_qubits, size)
            self.num_qubits += size

    def _register(self, name: str, line: int) -> tuple[int, int]:
        """(offset, size) of a declared quantum register."""
        if name not in self.registers:
            raise QasmSyntaxError(f"unknown register {name!r}", line)
        return self.registers[name]

    def _operand(self, *, allow_broadcast: bool) -> list[int]:
        """Resolve ``reg[i]`` to one qubit or a bare register to all of its qubits."""
        reg = self._expect_ident()
        register = self._register(reg.text, reg.line)
        nxt = self._peek()
        if nxt is not None and nxt.text == "[":
            self._expect_sym("[")
            index = self._expect_int()
            self._expect_sym("]")
            return [_qubit(reg.text, index, register, reg.line)]
        offset, size = register
        if not allow_broadcast:
            raise QasmSyntaxError(
                f"expected indexed operand {reg.text}[...], register broadcast is only "
                "supported for one-qubit gates, measure, and barrier",
                reg.line,
            )
        return [offset + i for i in range(size)]

    def _classical_target(self) -> None:
        """Consume ``c`` or ``c[i]`` after ``->``; classical state is not modeled."""
        self._expect_ident()
        nxt = self._peek()
        if nxt is not None and nxt.text == "[":
            self._expect_sym("[")
            self._expect_int()
            self._expect_sym("]")

    def _measure(self, line: int) -> None:
        qubits = self._operand(allow_broadcast=True)
        nxt = self._peek()
        if nxt is not None and nxt.kind == "arrow":
            self._next("->")
            self._classical_target()
        self._expect_sym(";")
        for q in qubits:
            self.gates.append(Gate(GateKind.MEASURE, (q,)))

    def _barrier(self, line: int) -> None:
        qubits: list[int] = []
        while True:
            qubits.extend(self._operand(allow_broadcast=True))
            tok = self._next("',' or ';'")
            if tok.text == ";":
                break
            if tok.text != ",":
                raise QasmSyntaxError(f"expected ',' or ';', got {tok.text!r}", tok.line)
        deduped = tuple(dict.fromkeys(qubits))
        self.gates.append(Gate(GateKind.BARRIER, deduped))

    def _gate_application(self, name: str, line: int) -> None:
        if name not in _APPLIED_GATES:
            raise UnsupportedGateError(f"unsupported gate {name!r}", line)
        _, n_operands, n_params = _APPLIED_GATES[name]

        params: list[float] = []
        nxt = self._peek()
        if nxt is not None and nxt.text == "(":
            self._expect_sym("(")
            while True:
                params.append(self._expression(line))
                tok = self._next("',' or ')'")
                if tok.text == ")":
                    break
                if tok.text != ",":
                    raise QasmSyntaxError(f"expected ',' or ')', got {tok.text!r}", tok.line)
        if len(params) != n_params:
            raise QasmSyntaxError(
                f"{name} takes {n_params} parameter(s), got {len(params)}", line
            )
        param = _angle(name, params, line)

        broadcast_ok = n_operands == 1
        operands: list[int] = []
        for i in range(n_operands):
            operands.extend(self._operand(allow_broadcast=broadcast_ok))
            if i + 1 < n_operands:
                self._expect_sym(",")
        self._expect_sym(";")
        self._append(name, operands, param, line)

    def _canonical_application(self, statement: _Statement) -> None:
        """A statement token: the checks and gates of its token-by-token reading."""
        name, angle, reg_a, index_a, reg_b, index_b = statement.groups
        line = statement.line
        param = _angle(name, [] if angle is None else [float(angle)], line)
        operands = [_qubit(reg_a, int(index_a), self._register(reg_a, line), line)]
        if reg_b is not None:
            operands.append(_qubit(reg_b, int(index_b), self._register(reg_b, line), line))
        self._append(name, operands, param, line)

    def _append(self, name: str, operands: list[int], param: float | None, line: int) -> None:
        kind, n_operands, _ = _APPLIED_GATES[name]
        if n_operands > 1 and len(set(operands)) != len(operands):
            raise QasmSyntaxError(f"{name}: duplicate qubit operand", line)
        if kind is None:
            self.gates.extend(_decompose_ccx(*operands))
        elif n_operands > 1:
            self.gates.append(Gate(kind, tuple(operands), param))
        else:
            self.gates.extend(Gate(kind, (q,), param) for q in operands)

    # -- angle expressions ---------------------------------------------------

    def _expression(self, line: int) -> float:
        value = self._term(line)
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("+", "-"):
                return value
            self.pos += 1
            rhs = self._term(line)
            value = value + rhs if tok.text == "+" else value - rhs

    def _term(self, line: int) -> float:
        value = self._unary(line)
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("*", "/"):
                return value
            self.pos += 1
            rhs = self._unary(line)
            if tok.text == "/":
                if rhs == 0:
                    raise QasmSyntaxError("division by zero in angle expression", tok.line)
                value = value / rhs
            else:
                value = value * rhs

    def _unary(self, line: int) -> float:
        tok = self._next("angle expression")
        if tok.text == "-":
            return -self._unary(line)
        if tok.text == "+":
            return self._unary(line)
        if tok.text == "(":
            value = self._expression(line)
            self._expect_sym(")")
            return value
        if tok.kind == "number":
            return float(tok.text)
        if tok.kind == "ident" and tok.text == "pi":
            return math.pi
        raise QasmSyntaxError(f"invalid angle expression near {tok.text!r}", tok.line)


def _qubit(name: str, index: int, register: tuple[int, int], line: int) -> int:
    """Flat qubit index of ``name[index]``, given the register's (offset, size)."""
    offset, size = register
    if index >= size:
        raise QubitIndexError(
            f"index {index} out of range for register {name!r} of size {size}", line
        )
    return offset + index


def _angle(name: str, params: list[float], line: int) -> float | None:
    """The gate's one angle, or None for a gate without one; it must be finite."""
    if not all(map(math.isfinite, params)):
        raise QasmSyntaxError(f"{name}: angle is not a finite number", line)
    return params[0] if params else None


def _decompose_ccx(a: int, b: int, c: int) -> list[Gate]:
    """Standard Toffoli expansion: 6 CNOTs plus 9 one-qubit gates.

    The dagger phases come out as rz(-pi/4), which keeps the gate
    vocabulary closed under this expansion.
    """
    t = GateKind.T
    tdg = -math.pi / 4
    return [
        Gate(GateKind.H, (c,)),
        Gate(GateKind.CNOT, (b, c)),
        Gate(GateKind.RZ, (c,), tdg),
        Gate(GateKind.CNOT, (a, c)),
        Gate(t, (c,)),
        Gate(GateKind.CNOT, (b, c)),
        Gate(GateKind.RZ, (c,), tdg),
        Gate(GateKind.CNOT, (a, c)),
        Gate(t, (b,)),
        Gate(t, (c,)),
        Gate(GateKind.H, (c,)),
        Gate(GateKind.CNOT, (a, b)),
        Gate(t, (a,)),
        Gate(GateKind.RZ, (b,), tdg),
        Gate(GateKind.CNOT, (a, b)),
    ]


def parse_qasm(source: str, name: str = "circuit") -> Circuit:
    """Parse OpenQASM 2.0 text into a :class:`Circuit`.

    Multiple ``qreg`` declarations flatten into one index space in
    declaration order. ``ccx`` is expanded at parse time so downstream
    stages only ever see one- and two-qubit gates.
    """
    circuit = _Parser(_tokenize(source)).parse()
    return Circuit(circuit.num_qubits, circuit.gates, name)


def parse_qasm_file(path: str | Path) -> Circuit:
    path = Path(path)
    return parse_qasm(path.read_text(encoding="utf-8"), name=path.stem)


def _real(value: float) -> str:
    """``repr`` with a ``.`` in the mantissa, which an OpenQASM 2.0 real
    needs: ``1e-05`` is written ``1.0e-05``."""
    text = repr(value)
    return text.replace("e", ".0e") if "e" in text and "." not in text else text


def to_qasm(circuit: Circuit) -> str:
    """Render a circuit back to OpenQASM 2.0.

    Float parameters are printed via ``repr``, with ``.0`` added to an
    exponent form's mantissa, so parse -> print -> parse reproduces the
    exact gate list. Gates other than barrier and measure are
    written in the canonical form that the lexer reads as one statement
    token. A circuit with a measure also declares ``creg c[num_qubits];``
    right after the ``qreg`` line, and measure ``q[i]`` writes to ``c[i]``;
    a circuit without one declares no classical register.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    if any(gate.kind is GateKind.MEASURE for gate in circuit.gates):
        lines.append(f"creg c[{circuit.num_qubits}];")
    for gate in circuit.gates:
        if gate.kind is GateKind.BARRIER:
            operands = ",".join(f"q[{q}]" for q in gate.qubits)
            lines.append(f"barrier {operands};")
        elif gate.kind is GateKind.MEASURE:
            q = gate.qubits[0]
            lines.append(f"measure q[{q}] -> c[{q}];")
        elif gate.param is not None:
            lines.append(f"{gate.kind.value}({_real(gate.param)}) q[{gate.qubits[0]}];")
        elif gate.kind in TWO_QUBIT_KINDS:
            lines.append(f"{gate.kind.value} q[{gate.qubits[0]}],q[{gate.qubits[1]}];")
        else:
            lines.append(f"{gate.kind.value} q[{gate.qubits[0]}];")
    return "\n".join(lines) + "\n"
