"""OpenQASM 2.0 frontend for the supported gate subset.

Supported statements: the ``OPENQASM 2.0;`` header, ``include``, ``qreg``,
``creg``, gate applications from the internal gate vocabulary plus ``ccx``
(expanded at parse time), ``barrier``, and ``measure``. A ``creg`` only
reserves its name: classical state is not modeled, and a measure target
need not be declared. Conditionals are rejected. Angle expressions cover
``pi``, numeric literals, ``+ - * /``, unary minus, and parentheses.

``parse_qasm`` scans the source once, one statement at a time. One regex
match reads the whitespace and comments before a statement together with a
canonical gate application, ``name[(number)] reg[i][,reg[j]];`` with one
space before the first operand (``cx q[3],q[7];``, ``rz(-0.25) q[1];``).
Every other statement (header, include, ``qreg``/``creg``, measure,
barrier, ``ccx`` and any other spelling) is lexed token by token through
its ``;`` and read by recursive descent, which also re-reads a canonical
statement that fails a check, to raise its error. Lines are counted only
there, each newline once per parse.

Gates are immutable, so a repeated param-less canonical statement gets the
gate of its first occurrence, stored once that gate passed its checks; a
register cannot be declared twice, so the gate stays valid for the whole
parse. A gate with an angle is built fresh each time, as in the router.

An unexpected character anywhere in the source wins over every other
error, as if the whole source were lexed first.
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

# The whitespace and comments before a statement, then a canonical gate
# application: (statement, name, angle, reg, index, reg, index). A comment
# must end at its newline, so a failed match backtracks in linear time.
_STATEMENT_RE = re.compile(
    r"[ \t\r\n]*(?://[^\n]*\n[ \t\r\n]*)*"
    rf"(({_IDENT})(?:\((-?(?:{_NUMBER}))\))? ({_IDENT})\[(\d+)\](?:,({_IDENT})\[(\d+)\])?;)"
)

# Mnemonic -> (kind, operand count, parameter count); ccx expands at parse time.
_APPLIED_GATES = {
    kind.value: (kind, 2 if kind in TWO_QUBIT_KINDS else 1, int(kind in PARAMETRIC_KINDS))
    for kind in GateKind
    if kind not in METRIC_EXEMPT_KINDS
} | {"ccx": (None, 3, 0)}

# (name, has an angle, has a second operand) -> kind, for each gate one match may read.
_CANONICAL_KINDS = {
    (name, n_params == 1, n_operands == 2): kind
    for name, (kind, n_operands, n_params) in _APPLIED_GATES.items()
    if n_operands <= 2
}

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


class _Parser:
    """Parse state, and the recursive descent over one lexed statement."""

    def __init__(self, source: str):
        self.source = source
        self.line = 1
        self.counted = 0  # the newlines before this offset are counted in self.line
        self.tokens: list[_Token] = []
        self.pos = 0
        # register name -> (offset, size); declaration order fixes offsets
        self.registers: dict[str, tuple[int, int]] = {}
        self.classical: set[str] = set()
        self.num_qubits = 0
        self.gates: list[Gate] = []

    def lex(self, offset: int) -> int:
        """Lex the statement at ``offset`` into ``tokens``, through its ``;`` or to
        the end of the source, and return the offset after it."""
        source = self.source
        line = self.line + source.count("\n", self.counted, offset)
        tokens = []
        while offset < len(source):
            match = _TOKEN_RE.match(source, offset)
            if match is None:
                raise QasmSyntaxError(f"unexpected character {source[offset]!r}", line) from None
            offset = match.end()
            kind = match.lastgroup
            if kind == "newline":
                line += 1
            elif kind != "ws" and kind != "comment":
                tokens.append(_Token(kind, match.group(), line))
                if tokens[-1].text == ";":
                    break
        self.line, self.counted = line, offset
        self.tokens, self.pos = tokens, 0
        return offset

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            line = self.tokens[-1].line  # statement() runs only on a non-empty statement
            raise QasmSyntaxError(f"unexpected end of input, expected {expected}", line)
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
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            message = f"integer of {len(tok.text)} digits is too large"
            raise QasmSyntaxError(message, tok.line) from None

    def statement(self) -> None:
        """Read the lexed statement; a ``;`` in it is its last token or an error."""
        tok = self._next("statement")
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
            self._measure()
        elif name == "barrier":
            self._barrier()
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

    def _operand(self, *, allow_broadcast: bool) -> list[int]:
        """Resolve ``reg[i]`` to one qubit or a bare register to all of its qubits."""
        reg = self._expect_ident()
        if reg.text not in self.registers:
            raise QasmSyntaxError(f"unknown register {reg.text!r}", reg.line)
        offset, size = self.registers[reg.text]
        nxt = self._peek()
        if nxt is not None and nxt.text == "[":
            self._expect_sym("[")
            index = self._expect_int()
            self._expect_sym("]")
            if index >= size:
                raise QubitIndexError(
                    f"index {index} out of range for register {reg.text!r} of size {size}",
                    reg.line,
                )
            return [offset + index]
        if not allow_broadcast:
            raise QasmSyntaxError(
                f"expected indexed operand {reg.text}[...], register broadcast is only "
                "supported for one-qubit gates, measure, and barrier",
                reg.line,
            )
        return [offset + i for i in range(size)]

    def _measure(self) -> None:
        qubits = self._operand(allow_broadcast=True)
        nxt = self._peek()
        if nxt is not None and nxt.kind == "arrow":  # c or c[i]; classical state is not modeled
            self._next("->")
            self._expect_ident()
            nxt = self._peek()
            if nxt is not None and nxt.text == "[":
                self._expect_sym("[")
                self._expect_int()
                self._expect_sym("]")
        self._expect_sym(";")
        for q in qubits:
            self.gates.append(Gate(GateKind.MEASURE, (q,)))

    def _barrier(self) -> None:
        qubits: list[int] = []
        while True:
            qubits.extend(self._operand(allow_broadcast=True))
            tok = self._next("',' or ';'")
            if tok.text == ";":
                break
            if tok.text != ",":
                raise QasmSyntaxError(f"expected ',' or ';', got {tok.text!r}", tok.line)
        self.gates.append(Gate(GateKind.BARRIER, tuple(dict.fromkeys(qubits))))

    def _gate_application(self, name: str, line: int) -> None:
        if name not in _APPLIED_GATES:
            raise UnsupportedGateError(f"unsupported gate {name!r}", line)
        kind, n_operands, n_params = _APPLIED_GATES[name]
        params: list[float] = []
        nxt = self._peek()
        if nxt is not None and nxt.text == "(":
            self._expect_sym("(")
            while True:
                params.append(self._expression())
                tok = self._next("',' or ')'")
                if tok.text == ")":
                    break
                if tok.text != ",":
                    raise QasmSyntaxError(f"expected ',' or ')', got {tok.text!r}", tok.line)
        if len(params) != n_params:
            raise QasmSyntaxError(f"{name} takes {n_params} parameter(s), got {len(params)}", line)
        if not all(map(math.isfinite, params)):
            raise QasmSyntaxError(f"{name}: angle is not a finite number", line)
        param = params[0] if params else None
        operands: list[int] = []
        for i in range(n_operands):
            operands.extend(self._operand(allow_broadcast=n_operands == 1))
            if i + 1 < n_operands:
                self._expect_sym(",")
        self._expect_sym(";")
        if n_operands > 1 and len(set(operands)) != len(operands):
            raise QasmSyntaxError(f"{name}: duplicate qubit operand", line)
        if kind is None:
            self.gates.extend(_decompose_ccx(*operands))
        elif n_operands > 1:
            self.gates.append(Gate(kind, tuple(operands), param))
        else:
            self.gates.extend(Gate(kind, (q,), param) for q in operands)

    # -- angle expressions ---------------------------------------------------

    def _expression(self) -> float:
        value = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("+", "-"):
                return value
            self.pos += 1
            rhs = self._term()
            value = value + rhs if tok.text == "+" else value - rhs

    def _term(self) -> float:
        value = self._unary()
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("*", "/"):
                return value
            self.pos += 1
            rhs = self._unary()
            if tok.text == "/":
                if rhs == 0:
                    raise QasmSyntaxError("division by zero in angle expression", tok.line)
                value = value / rhs
            else:
                value = value * rhs

    def _unary(self) -> float:
        tok = self._next("angle expression")
        if tok.text == "-":
            return -self._unary()
        if tok.text == "+":
            return self._unary()
        if tok.text == "(":
            value = self._expression()
            self._expect_sym(")")
            return value
        if tok.kind == "number":
            return float(tok.text)
        if tok.kind == "ident" and tok.text == "pi":
            return math.pi
        raise QasmSyntaxError(f"invalid angle expression near {tok.text!r}", tok.line)


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


def _canonical_gate(registers: dict[str, tuple[int, int]], groups: tuple) -> Gate | None:
    """The gate spelled by a ``_STATEMENT_RE`` match's groups, or None when they
    spell no canonical gate or fail a check (run in the token-by-token
    reading's order); the caller then reads the statement token by token."""
    _, name, angle, reg_a, index_a, reg_b, index_b = groups
    kind = _CANONICAL_KINDS.get((name, angle is not None, reg_b is not None))
    param = None if angle is None else float(angle)
    if kind is None or (param is not None and not math.isfinite(param)) or reg_a not in registers:
        return None
    offset_a, size_a = registers[reg_a]
    try:
        a = int(index_a)
        b = None if reg_b is None else int(index_b)
    except ValueError:  # more digits than int() converts
        return None
    if a >= size_a:
        return None
    if reg_b is None:
        return Gate(kind, (offset_a + a,), param)
    if reg_b not in registers:
        return None
    offset_b, size_b = registers[reg_b]
    if b >= size_b or offset_a + a == offset_b + b:
        return None
    return Gate(kind, (offset_a + a, offset_b + b), param)


def parse_qasm(source: str, name: str = "circuit") -> Circuit:
    """Parse OpenQASM 2.0 text into a :class:`Circuit`.

    Multiple ``qreg`` declarations flatten into one index space in
    declaration order. ``ccx`` is expanded at parse time so downstream
    stages only ever see one- and two-qubit gates.
    """
    parser = _Parser(source)
    registers, gates = parser.registers, parser.gates
    shared: dict[str, Gate] = {}  # canonical statement -> its param-less gate
    offset = 0
    try:
        while True:
            match = _STATEMENT_RE.match(source, offset)
            if match is not None:
                text = match[1]
                gate = shared.get(text)
                if gate is None:
                    gate = _canonical_gate(registers, match.groups())
                    if gate is not None and gate.param is None:
                        shared[text] = gate
                if gate is not None:
                    gates.append(gate)
                    offset = match.end()
                    continue
            offset = parser.lex(offset)
            if not parser.tokens:
                return Circuit(parser.num_qubits, tuple(gates), name)
            parser.statement()
    except (QasmSyntaxError, UnsupportedGateError, QubitIndexError):
        # Lex the rest: an unexpected character anywhere wins. A lex error of
        # the failing statement itself is raised again, unchained.
        while offset < len(source):
            offset = parser.lex(offset)
        raise


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
    exact gate list. Gates other than barrier and measure are written in
    the canonical form that the parser reads in one regex match. A circuit
    with a measure also declares ``creg c[num_qubits];`` right after the
    ``qreg`` line, and measure ``q[i]`` writes to ``c[i]``; a circuit
    without one declares no classical register.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
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
