"""OpenQASM 2.0 frontend for the supported gate subset.

Supported statements: the ``OPENQASM 2.0;`` header, ``include``, ``qreg``,
``creg``, gate applications from the internal gate vocabulary plus ``ccx``
(expanded at parse time), ``barrier``, and ``measure``. A ``creg`` only
reserves its name: classical state is not modeled, and a measure target
need not be declared. Conditionals are rejected. Angle expressions cover
``pi``, numeric literals, ``+ - * /``, unary minus, and parentheses, nested
at most ``_MAX_NESTING`` deep.

``parse_qasm`` reads the source one line at a time, as no token crosses a
newline. A line that holds one statement and then blanks or a ``//`` comment
gets the gate of its first reading when it repeats, and is otherwise read, if
it is a canonical gate application (``cx q[3],q[7]``, ``rz(-0.25) q[1]``), by
string splits and a table from each ``reg[i]`` text to its qubit, which a
``qreg`` fills as it is declared. Any other line, and any other spelling of an
operand, is lexed and read by recursive descent; the tokens after a line's last
``;`` wait for the next line. After an error, each distinct later line is lexed
once, so an unexpected character anywhere in the file wins. Every gate comes
from ``ir.shared_gate``, which alone decides which gates its process-wide
tables hold. Each operand is checked as it is read, so no later stage rescans.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

from .errors import QasmSyntaxError, read_utf8
from .ir import MAX_QUBITS  # the limit on the declared registers' total
from .ir import METRIC_EXEMPT_KINDS, PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind
from .ir import shared_gate

_TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*)
    | (?P<ws>[\ \t\r]+)
    | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\n]*")
    | (?P<arrow>->)
    | (?P<cmp>==|!=|<=|>=|[<>=])
    | (?P<sym>[;,\[\]()*/+\-{}])
    | (?P<unexpected>.)
    """,
    re.VERBOSE | re.ASCII,
)

# Mnemonic -> (kind, operand count, parameter count); ccx expands at parse time.
_APPLIED_GATES = {
    kind.value: (kind, 2 if kind in TWO_QUBIT_KINDS else 1, int(kind in PARAMETRIC_KINDS))
    for kind in GateKind
    if kind not in METRIC_EXEMPT_KINDS
} | {"ccx": (None, 3, 0)}

_REAL_CHARS = "0123456789.eE+-"  # a signed literal: the only angle read without the lexer
_MAX_NESTING = 64  # how deep unary signs and parentheses may nest in one angle

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


def _lex(text: str, line: int) -> list[_Token]:
    """The tokens of ``text``, which is line ``line`` without its newline; blanks and
    comments are dropped."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):  # every character is in some match
        kind = match.lastgroup
        if kind == "unexpected":
            raise QasmSyntaxError(f"unexpected character {match.group()!r}", line)
        elif kind != "ws" and kind != "comment":
            tokens.append(_Token(kind, match.group(), line))
    return tokens


class _Parser:
    """Parse state, and the recursive descent over lexed statements."""

    def __init__(self):
        self.tokens: list[_Token] = []
        self.pos = 0
        # register name -> (offset, size); declaration order fixes offsets
        self.registers: dict[str, tuple[int, int]] = {}
        self.qubits: dict[str, int] = {}  # "reg[i]" -> its qubit, for every declared i
        self.classical: set[str] = set()
        self.num_qubits = 0
        self.gates: list[Gate] = []

    def read(self, tokens: list[_Token], final: bool = False) -> None:
        """Read the pending tokens, then ``tokens`` through their last ``;`` (to the
        end when ``final``), and keep the rest pending. A statement never reads past
        its ``;``, so it needs no token after it."""
        end = len(tokens)
        while not final and end and tokens[end - 1].text != ";":
            end -= 1
        self.tokens += tokens
        if end or final:
            end += len(self.tokens) - len(tokens)
            self.pos = 0
            while self.pos < end:
                self.statement()
            del self.tokens[:end]

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            line = self.tokens[-1].line  # statement() runs only where a token is left
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
        """Read the statement at ``pos``, through its ``;``."""
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
            raise QasmSyntaxError(_REJECTED_STATEMENTS[name], tok.line)
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
        elif self.num_qubits + size > MAX_QUBITS:
            message = (
                f"qreg {reg.text}[{size}] brings the qubit count to "
                f"{self.num_qubits + size}, above the limit of {MAX_QUBITS}"
            )
            raise QasmSyntaxError(message, reg.line)
        else:
            name, offset = reg.text, self.num_qubits
            self.registers[name] = (offset, size)
            self.qubits.update((f"{name}[{i}]", offset + i) for i in range(size))
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
                raise QasmSyntaxError(
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
        self.gates.extend(shared_gate(GateKind.MEASURE, (q,)) for q in qubits)

    def _items(self, read, close: str) -> list:
        """What ``read`` returns for each item of a ``,``-separated list, through ``close``."""
        items = []
        while True:
            items.append(read())
            tok = self._next(f"',' or {close!r}")
            if tok.text == close:
                return items
            if tok.text != ",":
                raise QasmSyntaxError(f"expected ',' or {close!r}, got {tok.text!r}", tok.line)

    def _barrier(self) -> None:
        operands = self._items(lambda: self._operand(allow_broadcast=True), ";")
        qubits = tuple(dict.fromkeys(q for operand in operands for q in operand))
        if qubits:  # operands that are only empty registers fence nothing
            self.gates.append(shared_gate(GateKind.BARRIER, qubits))

    def _gate_application(self, name: str, line: int) -> None:
        if name not in _APPLIED_GATES:
            raise QasmSyntaxError(f"unsupported gate {name!r}", line)
        kind, n_operands, n_params = _APPLIED_GATES[name]
        params: list[float] = []
        if (nxt := self._peek()) is not None and nxt.text == "(":
            self._expect_sym("(")
            params = self._items(self._expression, ")")
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
            self.gates.append(shared_gate(kind, tuple(operands)))
        else:
            self.gates.extend(shared_gate(kind, (q,), param) for q in operands)

    # -- angle expressions ---------------------------------------------------

    def _expression(self, depth: int = 0) -> float:
        value = self._term(depth)
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("+", "-"):
                return value
            self.pos += 1
            rhs = self._term(depth)
            value = value + rhs if tok.text == "+" else value - rhs

    def _term(self, depth: int) -> float:
        value = self._unary(depth)
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("*", "/"):
                return value
            self.pos += 1
            rhs = self._unary(depth)
            if tok.text == "/":
                if rhs == 0:
                    raise QasmSyntaxError("division by zero in angle expression", tok.line)
                value = value / rhs
            else:
                value = value * rhs

    def _unary(self, depth: int) -> float:
        tok = self._next("angle expression")
        if tok.text in ("-", "+", "("):
            if depth == _MAX_NESTING:  # recursion, not the input, would set the limit
                message = f"angle expression nested more than {_MAX_NESTING} deep"
                raise QasmSyntaxError(message, tok.line)
            if tok.text == "(":
                value = self._expression(depth + 1)
                self._expect_sym(")")
                return value
            value = self._unary(depth + 1)
            return -value if tok.text == "-" else value
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
    h, t, cx, rz, tdg = GateKind.H, GateKind.T, GateKind.CNOT, GateKind.RZ, -math.pi / 4
    return [
        shared_gate(h, (c,)),
        shared_gate(cx, (b, c)),
        shared_gate(rz, (c,), tdg),
        shared_gate(cx, (a, c)),
        shared_gate(t, (c,)),
        shared_gate(cx, (b, c)),
        shared_gate(rz, (c,), tdg),
        shared_gate(cx, (a, c)),
        shared_gate(t, (b,)),
        shared_gate(t, (c,)),
        shared_gate(h, (c,)),
        shared_gate(cx, (a, b)),
        shared_gate(t, (a,)),
        shared_gate(rz, (b,), tdg),
        shared_gate(cx, (a, b)),
    ]


def _read_gate(text: str, qubits: dict[str, int]) -> Gate | None:
    """The gate a canonical application ``name[(number)] reg[i][,reg[j]]`` spells,
    or None when the text is anything else or fails a check."""
    head, space, operands = text.partition(" ")
    name, paren, angle = head.partition("(")
    spec = _APPLIED_GATES.get(name)
    if spec is None or spec[0] is None or not space or bool(paren) != (spec[2] == 1):
        return None  # ccx has no kind
    kind, n_operands, _ = spec
    param = None
    if paren:
        number = angle[:-1]
        if angle[-1:] != ")" or number.strip(_REAL_CHARS):
            return None
        try:
            param = float(number)  # on these characters, float() reads what the lexer reads
        except ValueError:
            return None
        if not math.isfinite(param):
            return None
    if n_operands == 1:
        a = qubits.get(operands, -1)
        return None if a < 0 else shared_gate(kind, (a,), param)
    first, _, second = operands.partition(",")  # no two-qubit kind takes an angle
    a, b = qubits.get(first, -1), qubits.get(second, -1)
    return None if a < 0 or b < 0 or a == b else shared_gate(kind, (a, b))


def parse_qasm(source: str, name: str = "circuit") -> Circuit:
    """Parse OpenQASM 2.0 text into a :class:`Circuit`.

    Multiple ``qreg`` declarations flatten into one index space in
    declaration order. ``ccx`` is expanded at parse time so downstream
    stages only ever see one- and two-qubit gates.
    """
    parser = _Parser()
    gates, qubits = parser.gates, parser.qubits
    memo: dict[str, Gate] = {}  # line -> the one param-less gate its one statement reads to
    lines = source.split("\n")  # no token crosses a newline
    pending = parser.tokens  # a statement a line left open; read() changes it in place
    for number, line in enumerate(lines, 1):
        if (gate := memo.get(line)) is not None and not pending:
            gates.append(gate)
            continue
        head, semi, after = line.partition(";")
        text = head.strip(" \t\r")
        # one whole statement, then blanks or a comment: with no string to hold its
        # ';', the line's only ';' token is that one, or a comment holds the ';'
        alone = semi and not pending and '"' not in head and after.lstrip(" \t\r")[:2] in ("", "//")
        gate = _read_gate(text, qubits) if alone else None
        if gate is None:
            if text[:2] == "//" or not (text or semi):
                continue  # blank, or only a comment
            count = len(gates)
            tokens = _lex(head + semi if alone else line, number)
            try:
                parser.read(tokens)
            except QasmSyntaxError:  # an unexpected character on a later line wins
                first = {}  # each distinct later line -> the number of its first line
                for later_number, later in enumerate(lines[number:], number + 1):
                    first.setdefault(later, later_number)
                for later, later_number in first.items():
                    _lex(later, later_number)
                raise
            if not alone or len(gates) != count + 1:
                continue
            gate = gates[-1]  # the one gate of a line's one statement
        else:
            gates.append(gate)
        if gate.param is None:
            memo[line] = gate
    parser.read([], final=True)  # the tokens after the last ';'
    return Circuit(parser.num_qubits, tuple(gates), name)._in_range()  # every operand checked


def parse_qasm_file(path: str | Path) -> Circuit:
    path = Path(path)
    return parse_qasm(read_utf8(path, QasmSyntaxError), name=path.stem)


def _real(value: float) -> str:
    """``repr`` with a ``.`` in the mantissa, which an OpenQASM 2.0 real
    needs: ``1e-05`` is written ``1.0e-05``."""
    text = repr(value)
    return text.replace("e", ".0e") if "e" in text and "." not in text else text


def to_qasm(circuit: Circuit) -> str:
    """Render a circuit back to OpenQASM 2.0.

    Float parameters are printed via ``repr``, with ``.0`` added to an
    exponent form's mantissa, so parse -> print -> parse reproduces the
    exact gate list; a non-finite angle or a qubit outside [0, num_qubits)
    raises ``ValueError``. Every other line is rendered once per gate object,
    in the canonical form the parser reads without its lexer unless it is a
    barrier or measure. A measure ``q[i]`` writes to ``c[i]``, and ``creg
    c[num_qubits];`` is declared right after the ``qreg`` line only when the
    circuit measures.
    """
    n = circuit.num_qubits
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    rendered: dict[int, str] = {}  # id(gate) -> its line; the circuit keeps every gate alive
    measured = False
    for gate in circuit.gates:
        param = gate.param
        line = rendered.get(id(gate)) if param is None else None
        if line is None:  # a line rendered for the first time: check what it names
            kind, qubits = gate.kind, gate.qubits
            for q in qubits:
                if not 0 <= q < n:
                    raise ValueError(f"gate {len(lines) - 3}: qubit {q} is outside qreg q[{n}]")
            if param is not None:
                if not math.isfinite(param):
                    raise ValueError(f"gate {len(lines) - 3}: angle {param!r} is not finite")
                lines.append(f"{kind._value_}({_real(param)}) q[{qubits[0]}];")
                continue
            if kind is GateKind.BARRIER:
                line = "barrier " + ",".join(f"q[{q}]" for q in qubits) + ";"
            elif kind is GateKind.MEASURE:
                measured = True
                line = f"measure q[{qubits[0]}] -> c[{qubits[0]}];"
            elif kind in TWO_QUBIT_KINDS:
                line = f"{kind._value_} q[{qubits[0]}],q[{qubits[1]}];"
            else:
                line = f"{kind._value_} q[{qubits[0]}];"
            rendered[id(gate)] = line
        lines.append(line)
    if measured:
        lines.insert(3, f"creg c[{n}];")
    return "\n".join(lines) + "\n"
