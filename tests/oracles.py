"""Independent reference implementations used to cross-check metrics.

These deliberately avoid the library's own code paths: depth comes from an
explicit layered list scheduler, gate and depth totals from a per-gate ASAP
pass with one ``max`` per gate (``asap_stats``), the diagonal grouping from a
direct enumeration of unit cells, the diagonal-collision warnings from a
comparison of every pair of diagonals (``pairwise_collision_warnings``),
components from label propagation, component joining from a multi-pass loop
that re-finds every component after each join, routing from a fresh BFS
and an explicit path list per non-adjacent gate, built ``Gate`` by ``Gate``
(``bfs_route``), routing verification from a rescan of every gate once per
qubit (``rescan_verify``), QASM parsing from a lexer that emits every token
on its own and a parser that reads each statement token by token
(``token_parse``), and QASM output from a renderer that formats every gate
on its own (``plain_to_qasm``), synthesis from its stages as they were
before their sorts and weight lookups were inlined (``reference_synthesize``),
and what a circuit computes from a plain-Python state vector of at most 8
qubits, one amplitude pair per gate (``statevector``).
``complete`` builds the complete-graph topology, on which a route inserts no
SWAP, so its metrics are the router's own score of the circuit.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

from cacore.analysis import CorrelationMatrix
from cacore.errors import (
    DegenerateInputError,
    QasmSyntaxError,
    UnroutableGateError,
)
from cacore.ir import (
    MAX_QUBITS,
    METRIC_EXEMPT_KINDS,
    PARAMETRIC_KINDS,
    TWO_QUBIT_KINDS,
    Circuit,
    Gate,
    GateKind,
)
from cacore.qasm import _decompose_ccx, _real
from cacore.routing import RouteMetrics, RoutingResult
from cacore.synthesis import (
    _adjacency,
    _ordered,
    choose_grid_dims,
    partition_diagonals,
    prune_diagonals,
)
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


class AsapStats(NamedTuple):
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


def asap_stats(circuit: Circuit) -> AsapStats:
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
    return AsapStats(depth, total, one_qubit, two_qubit, swaps)


def complete(n: int) -> Topology:
    """The complete graph on n qubits: every two-qubit gate is adjacent, so a
    route on it inserts no SWAP and its metrics score the circuit itself."""
    edges = tuple((a, b) for a in range(n) for b in range(a + 1, n))
    return Topology(f"complete({n})", n, edges)


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


def pairwise_collision_warnings(topology: Topology) -> list[str]:
    """The diagonal-collision warnings from a comparison of every pair of
    diagonal couplers, in the order of the pair's edge indices."""
    positions = topology.positions or {}
    diagonal_cells = []
    for a, b in topology.edges:
        if a in positions and b in positions and is_diagonal(positions, (a, b)):
            (r1, c1), (r2, c2) = positions[a], positions[b]
            diagonal_cells.append(((min(r1, r2), min(c1, c2)), (a, b)))
    warnings = []
    for i, (cell_a, edge_a) in enumerate(diagonal_cells):
        for cell_b, edge_b in diagonal_cells[i + 1 :]:
            if abs(cell_a[0] - cell_b[0]) + abs(cell_a[1] - cell_b[1]) == 1:
                warnings.append(
                    f"diagonal couplers {edge_a} and {edge_b} occupy side-sharing cells "
                    "(frequency-collision risk)"
                )
    return warnings


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


# -- reference synthesis ------------------------------------------------------
# The synthesis stages as they stood before their sorts and weight lookups
# were inlined: a lambda sort key, an ``_ordered`` call and a lookup per
# candidate pair, one helper call per serpentine cell, a list per walk step
# and ``dict(sorted(items))`` orders.


def reference_correlation(circuit: Circuit) -> CorrelationMatrix:
    """Two-qubit gate counts per ordered pair, sorted as (pair, count) items."""
    counts = Counter(
        (a, b) if a < b else (b, a)
        for gate in circuit.gates
        if gate.kind in TWO_QUBIT_KINDS
        for a, b in (gate.qubits,)
    )
    return CorrelationMatrix(circuit.num_qubits, dict(sorted(counts.items())))


def reference_mwpg(matrix: CorrelationMatrix) -> dict:
    """``generate_mwpg`` scanning the items by a (-weight, pair) lambda key."""
    n = matrix.num_qubits
    degree = [0] * n
    other_end = list(range(n))
    path = {}
    for (a, b), weight in sorted(matrix.weights.items(), key=lambda item: (-item[1], item[0])):
        if degree[a] >= 2 or degree[b] >= 2 or other_end[a] == b:
            continue
        path[(a, b)] = weight
        degree[a] += 1
        degree[b] += 1
        end_a, end_b = other_end[a], other_end[b]
        other_end[end_a], other_end[end_b] = end_b, end_a
    return path


def _reference_walk(adjacency: list[list[int]], end: int) -> list[int]:
    order, prev = [end], None
    for _ in adjacency:
        ahead = [nb for nb in adjacency[order[-1]] if nb != prev]
        if not ahead:
            break
        prev = order[-1]
        order.append(ahead[0])
    return order


def _reference_join(num_qubits: int, path: dict) -> dict:
    adjacency = _adjacency(num_qubits, path)
    fragments = []
    far_ends = set()
    for end in range(num_qubits):
        if len(adjacency[end]) < 2 and end not in far_ends:
            walk = _reference_walk(adjacency, end)
            far_ends.add(walk[-1])
            fragments.append((min(walk), end, walk[-1]))
    joined = dict(path)
    chain_ends = None
    for _, head, tail in sorted(fragments):
        if chain_ends is not None:
            joined[_ordered(chain_ends[0], head)] = 0
            head = chain_ends[1]
        chain_ends = _ordered(head, tail)
    return joined


def _serpentine_cell(index: int, ncol: int) -> tuple[int, int]:
    row, offset = divmod(index, ncol)
    col = offset if row % 2 == 0 else ncol - 1 - offset
    return row, col


def _reference_place(num_qubits: int, path: dict, nrow: int, ncol: int) -> dict:
    if num_qubits == 0:
        return {}
    adjacency = _adjacency(num_qubits, path)
    ends = [q for q in range(num_qubits) if len(adjacency[q]) <= 1]
    order = _reference_walk(adjacency, ends[0]) if ends else []
    assert len(order) == num_qubits
    return {q: _serpentine_cell(idx, ncol) for idx, q in enumerate(order)}


def _reference_connect(positions: dict, edges: dict, matrix: CorrelationMatrix, offsets) -> dict:
    cells = {rc: q for q, rc in positions.items()}
    for (row, col), q in sorted(cells.items()):
        for dr, dc in offsets:
            nb = cells.get((row + dr, col + dc))
            if nb is None:
                continue
            pair = _ordered(q, nb)
            weight = matrix.weights.get(pair, 0)
            if weight > 0 and pair not in edges:
                edges[pair] = weight
    return edges


def reference_synthesize(circuit: Circuit, *, keep_synthetic: bool = True) -> Topology:
    """``synthesize_topology`` from the stages above; the adjacency lists,
    the grid size and the diagonal partition and prune come from the library,
    which they share."""
    n = circuit.num_qubits
    matrix = reference_correlation(circuit)
    path = _reference_join(n, reference_mwpg(matrix))
    nrow, ncol = choose_grid_dims(n)
    positions = _reference_place(n, path, nrow, ncol)
    edges = _reference_connect(positions, dict(sorted(path.items())), matrix, ((0, 1), (1, 0)))
    edges = _reference_connect(positions, dict(edges), matrix, ((1, -1), (1, 1)))
    edges = prune_diagonals(edges, partition_diagonals(positions, edges))
    pairs = sorted(pair for pair, weight in edges.items() if keep_synthetic or weight)
    synthetic = frozenset(pair for pair in pairs if not edges[pair])
    return Topology("ca_core", n, tuple(pairs), synthetic, positions)


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


class _Layout(NamedTuple):
    log_to_phys: list[int]
    phys_to_log: list[int | None]


def _identity_layout(circuit: Circuit, topology: Topology) -> _Layout:
    """Logical qubit i on physical qubit i; every other physical qubit free."""
    free = topology.num_qubits - circuit.num_qubits
    if free < 0:
        raise DegenerateInputError(
            f"{circuit.num_qubits} logical qubits exceed {topology.num_qubits} physical qubits"
        )
    logical = list(range(circuit.num_qubits))
    return _Layout(logical, logical + [None] * free)


def _swap_physical(layout: _Layout, p1: int, p2: int) -> None:
    """Exchange the states on physical qubits p1 and p2, then re-point
    the logical qubits now on them."""
    phys_to_log = layout.phys_to_log
    phys_to_log[p1], phys_to_log[p2] = phys_to_log[p2], phys_to_log[p1]
    for p in (p1, p2):
        if phys_to_log[p] is not None:
            layout.log_to_phys[phys_to_log[p]] = p


def bfs_route(circuit: Circuit, topology: Topology) -> RoutingResult:
    """Route with a fresh BFS path search for every non-adjacent two-qubit gate."""
    layout = _identity_layout(circuit, topology)
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
    return RoutingResult(routed_circuit, tuple(inserted), metrics)


def rescan_verify(circuit: Circuit, result: RoutingResult, topology: Topology) -> bool:
    """Replay the routed gates, then compare each qubit's gate list by a full rescan.
    Gates compare as ``(kind, qubits, param)`` tuples, as ``verify_routing`` compares
    them: a tuple matches one NaN angle object with itself on every interpreter, where
    a dataclass's ``==`` does not from Python 3.13 on."""
    adjacency = topology.adjacency()
    inserted = set(result.inserted)
    layout = _identity_layout(circuit, topology)
    replayed: list[tuple] = []
    for idx, gate in enumerate(result.routed.gates):
        if gate.kind in TWO_QUBIT_KINDS and gate.qubits[1] not in adjacency.get(gate.qubits[0], ()):
            return False
        if idx in inserted:
            if gate.kind is not GateKind.SWAP:
                return False
            _swap_physical(layout, *gate.qubits)
            continue
        if any(not 0 <= p < topology.num_qubits for p in gate.qubits):
            return False
        logical = tuple(layout.phys_to_log[p] for p in gate.qubits)
        if any(q is None for q in logical):
            return False
        replayed.append((gate.kind, logical, gate.param))
    source = [(g.kind, g.qubits, g.param) for g in circuit.gates]
    if len(replayed) != len(source):
        return False
    for q in range(circuit.num_qubits):
        original = [g for g in source if q in g[1]]
        recovered = [g for g in replayed if q in g[1]]
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
    re.VERBOSE | re.ASCII,
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
            raise QasmSyntaxError(_REJECTED_STATEMENTS[name], tok.line)
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
        elif self.num_qubits + size > MAX_QUBITS:
            raise QasmSyntaxError(
                f"qreg {reg.text}[{size}] brings the qubit count to "
                f"{self.num_qubits + size}, above the limit of {MAX_QUBITS}",
                reg.line,
            )
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
        if qubits:  # a barrier on empty registers only is no gate
            self.gates.append(Gate(GateKind.BARRIER, tuple(dict.fromkeys(qubits))))

    def _gate_application(self, name: str, line: int) -> None:
        if name not in _APPLIED_GATES:
            raise QasmSyntaxError(f"unsupported gate {name!r}", line)
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


def plain_to_qasm(circuit: Circuit) -> str:
    """Render a circuit to OpenQASM 2.0 one gate at a time, with no memo."""
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


_HALF = math.sqrt(0.5)
# (m00, m01, m10, m11) of each fixed one-qubit gate
_FIXED_MATRICES = {
    GateKind.H: (_HALF, _HALF, _HALF, -_HALF),
    GateKind.X: (0, 1, 1, 0),
    GateKind.Y: (0, -1j, 1j, 0),
    GateKind.Z: (1, 0, 0, -1),
    GateKind.S: (1, 0, 0, 1j),
    GateKind.T: (1, 0, 0, cmath.exp(1j * math.pi / 4)),
}
SIMULATED_QUBITS = 9  # grid(3,3), the widest map a routed-QASM round trip simulates


def _rotation_matrix(kind: GateKind, theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind is GateKind.RX:
        return (c, -1j * s, -1j * s, c)
    if kind is GateKind.RY:
        return (c, -s, s, c)
    return (cmath.exp(-0.5j * theta), 0, 0, cmath.exp(0.5j * theta))


def statevector(gates, num_qubits: int, state: list[complex] | None = None) -> list[complex]:
    """The state after ``gates`` act in order on ``state`` (|0...0> when None):
    2**num_qubits amplitudes, where bit q of an index is qubit q. Measures and
    barriers are skipped; ``cx a,b`` flips b where a is 1."""
    if num_qubits > SIMULATED_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceed the simulator's {SIMULATED_QUBITS}")
    size = 1 << num_qubits
    state = [1 + 0j] + [0j] * (size - 1) if state is None else list(state)
    for gate in gates:
        kind = gate.kind
        if kind in METRIC_EXEMPT_KINDS:
            continue
        if kind in TWO_QUBIT_KINDS:
            a, b = (1 << q for q in gate.qubits)
            partner = b if kind is GateKind.CNOT else a | b  # XOR-ed into the index
            for i in range(size):
                if i & a and not i & b:
                    j = i ^ partner
                    state[i], state[j] = state[j], state[i]
            continue
        if kind in PARAMETRIC_KINDS:
            m00, m01, m10, m11 = _rotation_matrix(kind, gate.param)
        else:
            m00, m01, m10, m11 = _FIXED_MATRICES[kind]
        bit = 1 << gate.qubits[0]
        for i in range(size):
            if not i & bit:
                x, y = state[i], state[i | bit]
                state[i], state[i | bit] = m00 * x + m01 * y, m10 * x + m11 * y
    return state


def same_up_to_phase(u: list[complex], v: list[complex], tol: float = 1e-9) -> bool:
    """Whether two unit vectors differ by a global phase alone: |<u|v>| = 1."""
    return abs(abs(sum(x.conjugate() * y for x, y in zip(u, v))) - 1) < tol
