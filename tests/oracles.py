"""Independent reference implementations used to cross-check metrics.

These deliberately avoid the library's own code paths: depth comes from an
explicit layered list scheduler, gate and depth totals from a per-gate ASAP
pass with one ``max`` per gate (``asap_stats``), the diagonal grouping from a
direct enumeration of unit cells, components from label propagation,
component joining from a multi-pass loop that re-finds every component after
each join, routing from a fresh BFS and an explicit path list per
non-adjacent gate, built ``Gate`` by ``Gate`` (``bfs_route``), routing
verification from a rescan of every gate once per qubit (``rescan_verify``),
and QASM parsing from a lexer that emits every token on its own and a parser
that reads each statement token by token (``token_parse``).
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass

from cacore.analysis import CircuitStats
from cacore.errors import (
    QasmSyntaxError,
    QubitIndexError,
    UnroutableGateError,
    UnsupportedGateError,
)
from cacore.ir import (
    METRIC_EXEMPT_KINDS,
    PARAMETRIC_KINDS,
    TWO_QUBIT_KINDS,
    Circuit,
    Gate,
    GateKind,
)
from cacore.qasm import _decompose_ccx
from cacore.routing import Layout, RouteMetrics, RoutingResult, trivial_layout
from cacore.topology import Topology


def layered_depth(circuit: Circuit) -> int:
    """List-scheduling depth: place each gate in the first layer where all
    of its qubits are free; barriers fence their qubits without occupying a
    layer, measures are skipped."""
    layers: list[set[int]] = []
    floor: dict[int, int] = {}
    for gate in circuit.gates:
        if gate.kind is GateKind.BARRIER:
            fence = max((floor.get(q, 0) for q in gate.qubits), default=0)
            for q in gate.qubits:
                floor[q] = fence
            continue
        if gate.kind is GateKind.MEASURE:
            continue
        idx = max(floor.get(q, 0) for q in gate.qubits)
        while idx < len(layers) and any(q in layers[idx] for q in gate.qubits):
            idx += 1
        while idx >= len(layers):
            layers.append(set())
        layers[idx].update(gate.qubits)
        for q in gate.qubits:
            floor[q] = idx + 1
    return len(layers)


def asap_stats(circuit: Circuit) -> CircuitStats:
    """Gate and depth totals, one generator ``max`` per gate over its qubits'
    busy times; barriers fence their qubits, measures are skipped."""
    busy_until: dict[int, int] = {}
    total = one_qubit = two_qubit = swaps = 0
    for gate in circuit.gates:
        if gate.kind is GateKind.BARRIER:
            fence = max((busy_until.get(q, 0) for q in gate.qubits), default=0)
            for q in gate.qubits:
                busy_until[q] = fence
            continue
        if gate.kind is GateKind.MEASURE:
            continue
        finish = 1 + max(busy_until.get(q, 0) for q in gate.qubits)
        for q in gate.qubits:
            busy_until[q] = finish
        total += 1
        if gate.kind in TWO_QUBIT_KINDS:
            two_qubit += 1
            if gate.kind is GateKind.SWAP:
                swaps += 1
        else:
            one_qubit += 1
    depth = max(busy_until.values(), default=0)
    return CircuitStats(depth, total, one_qubit, two_qubit, swaps)


def brute_force_diagonal_groups(positions: dict, edges: dict) -> tuple[set, set]:
    """Assign each diagonal edge to a group by scanning every unit cell.

    Cells of the occupied rows and columns are enumerated explicitly and
    colored alternately cell by cell, flipping at each row start, instead of
    computing (row+col) arithmetic on the edge itself.
    """
    cells = {rc: q for q, rc in positions.items()}
    nrow = 1 + max((r for r, _ in cells), default=-1)
    ncol = 1 + max((c for _, c in cells), default=-1)
    group1: set[tuple[int, int]] = set()
    group2: set[tuple[int, int]] = set()
    for r in range(nrow - 1):
        first_of_row = r % 2 == 0  # group flips at every row
        for c in range(ncol - 1):
            in_group1 = first_of_row if c % 2 == 0 else not first_of_row
            corners = [cells.get(rc) for rc in ((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1))]
            tl, tr, bl, br = corners
            for a, b in ((tl, br), (tr, bl)):
                if a is None or b is None:
                    continue
                pair = (a, b) if a < b else (b, a)
                if pair in edges:
                    (group1 if in_group1 else group2).add(pair)
    return group1, group2


def degrees(num_qubits: int, edges) -> list[int]:
    """Number of edges at each qubit."""
    counts = [0] * num_qubits
    for a, b in edges:
        counts[a] += 1
        counts[b] += 1
    return counts


def is_diagonal(positions: dict, pair: tuple[int, int]) -> bool:
    """Whether the pair's cells differ by one row and one column."""
    (r1, c1), (r2, c2) = positions[pair[0]], positions[pair[1]]
    return abs(r1 - r2) == 1 and abs(c1 - c2) == 1


def components(num_qubits: int, edges) -> list[list[int]]:
    """Sorted node lists, ordered by smallest member, by label propagation."""
    label = list(range(num_qubits))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    groups: dict[int, list[int]] = {}
    for q in range(num_qubits):
        groups.setdefault(label[q], []).append(q)
    return [groups[key] for key in sorted(groups)]


def multi_pass_join(num_qubits: int, path: dict) -> dict:
    """Join components one edge per pass, re-finding all components each time.

    Each pass links the lexicographically smallest (component id, free node)
    entry to the smallest such entry of a different component, where the
    component id is its smallest member and a free node has degree < 2. A
    joining edge has weight 0.
    """
    edges = dict(path)
    while True:
        parts = components(num_qubits, edges)
        if len(parts) <= 1:
            return edges
        degree = [0] * num_qubits
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        entries = sorted(
            (members[0], node) for members in parts for node in members if degree[node] < 2
        )
        first_cid, a = entries[0]
        b = next(node for cid, node in entries if cid != first_cid)
        edges[(a, b) if a < b else (b, a)] = 0


def _shortest_path(adjacency, src: int, dst: int) -> list[int] | None:
    """Lexicographically smallest shortest path from src to dst, or None."""
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for nb in adjacency[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                frontier.append(nb)
    if src not in dist:
        return None
    path = [src]
    current = src
    while current != dst:
        current = min(nb for nb in adjacency[current] if dist.get(nb, -1) == dist[current] - 1)
        path.append(current)
    return path


def _swap_physical(layout: Layout, p1: int, p2: int) -> None:
    """Exchange the states on physical qubits p1 and p2, then re-point
    the logical qubits now on them."""
    phys_to_log = layout.phys_to_log
    phys_to_log[p1], phys_to_log[p2] = phys_to_log[p2], phys_to_log[p1]
    for p in (p1, p2):
        if phys_to_log[p] is not None:
            layout.log_to_phys[phys_to_log[p]] = p


def bfs_route(circuit: Circuit, topology: Topology) -> RoutingResult:
    """Route with a fresh BFS path search for every non-adjacent two-qubit gate."""
    layout = trivial_layout(circuit.num_qubits, topology.num_qubits)
    adjacency = topology.adjacency()
    routed: list[Gate] = []
    inserted: list[int] = []
    for gate in circuit.gates:
        if gate.kind not in TWO_QUBIT_KINDS:
            mapped = tuple(layout.log_to_phys[q] for q in gate.qubits)
            routed.append(Gate(gate.kind, mapped, gate.param))
            continue
        pa, pb = layout.log_to_phys[gate.qubits[0]], layout.log_to_phys[gate.qubits[1]]
        if pb not in adjacency[pa]:
            path = _shortest_path(adjacency, pa, pb)
            if path is None:
                raise UnroutableGateError(
                    f"{gate.kind.value} on logical {gate.qubits}: physical qubits "
                    f"{pa} and {pb} are in different components of {topology.name!r}"
                )
            for hop in path[1:-1]:
                inserted.append(len(routed))
                routed.append(Gate(GateKind.SWAP, (pa, hop)))
                _swap_physical(layout, pa, hop)
                pa = hop
        routed.append(Gate(gate.kind, (pa, pb), gate.param))
    routed_circuit = Circuit(
        topology.num_qubits, tuple(routed), name=f"{circuit.name}@{topology.name}"
    )
    stats = asap_stats(routed_circuit)
    metrics = RouteMetrics(
        depth=stats.depth,
        total_gates=stats.total_gates,
        one_qubit_gates=stats.one_qubit_gates,
        two_qubit_gates=stats.two_qubit_gates,
        swap_count=len(inserted),
        total_swap_gates=stats.swap_count,
    )
    return RoutingResult(routed_circuit, layout, tuple(inserted), metrics)


def rescan_verify(circuit: Circuit, result: RoutingResult, topology: Topology) -> bool:
    """Replay the routed gates, then compare each qubit's gate list by a full rescan."""
    adjacency = topology.adjacency()
    inserted = set(result.inserted)
    layout = trivial_layout(circuit.num_qubits, topology.num_qubits)
    replayed: list[Gate] = []
    for idx, gate in enumerate(result.routed.gates):
        if gate.kind in TWO_QUBIT_KINDS and gate.qubits[1] not in adjacency.get(gate.qubits[0], ()):
            return False
        if idx in inserted:
            if gate.kind is not GateKind.SWAP:
                return False
            _swap_physical(layout, *gate.qubits)
            continue
        logical = tuple(layout.phys_to_log[p] for p in gate.qubits)
        if any(q is None for q in logical):
            return False
        replayed.append(Gate(gate.kind, logical, gate.param))
    if len(replayed) != len(circuit.gates):
        return False
    for q in range(circuit.num_qubits):
        original = [g for g in circuit.gates if q in g.qubits]
        recovered = [g for g in replayed if q in g.qubits]
        if original != recovered:
            return False
    return True


_TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*)
    | (?P<newline>\n)
    | (?P<ws>[\ \t\r]+)
    | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\n]*")
    | (?P<arrow>->)
    | (?P<cmp>==|!=|<=|>=|[<>=])
    | (?P<sym>[;,\[\]()*/+\-{}])
    """,
    re.VERBOSE,
)

_APPLIED_GATES = {
    kind.value: (kind, 2 if kind in TWO_QUBIT_KINDS else 1, int(kind in PARAMETRIC_KINDS))
    for kind in GateKind
    if kind not in METRIC_EXEMPT_KINDS
} | {"ccx": (None, 3, 0)}

_REJECTED_STATEMENTS = {
    "if": "classical conditionals are not supported",
    "gate": "gate definitions are not supported",
    "opaque": "opaque declarations are not supported",
    "reset": "reset is not supported",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise QasmSyntaxError(f"unexpected character {source[pos]!r}", line)
        kind = match.lastgroup or ""
        if kind == "newline":
            line += 1
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group(), line))
        pos = match.end()
    return tokens


class _TokenParser:
    """Recursive descent over single tokens; every statement is read token by token."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.registers: dict[str, tuple[int, int]] = {}
        self.classical: set[str] = set()
        self.num_qubits = 0
        self.gates: list[Gate] = []

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
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

    def parse(self) -> Circuit:
        while self._peek() is not None:
            self._statement()
        return Circuit(self.num_qubits, tuple(self.gates))

    def _statement(self) -> None:
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
        if nxt is not None and nxt.kind == "arrow":
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
        else:
            param = params[0] if params else None
            for chunk in ([operands] if n_operands > 1 else [[q] for q in operands]):
                self.gates.append(Gate(kind, tuple(chunk), param))

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


def token_parse(source: str) -> Circuit:
    """Parse OpenQASM 2.0 text with one token per lexeme and no statement tokens."""
    return _TokenParser(_tokenize(source)).parse()
