"""Baseline transpiler: trivial layout plus deterministic SWAP insertion.

Gates are processed in program order. A two-qubit gate whose operands are
not coupler-adjacent triggers SWAPs that move the first operand's state
along the BFS-shortest path (lexicographically smallest node sequence on
ties) until it neighbors the second operand. This mirrors a
minimal-optimization transpile so topology comparisons stay router-fixed.

The router keeps one next-hop table per target qubit for the call, built
by a BFS on first use: each entry is the smallest neighbour one hop closer
to the target, so the walk takes that path one SWAP per step, updating the
layout in place (the qubit moved is always the gate's first operand).
Gates are immutable, so the routed circuit reuses a source gate whose
physical qubits equal its logical ones, one inserted SWAP per coupler
direction, and one gate per distinct (kind, physical qubits) among the
rest; rotations are built fresh, since a cache keyed on the angle would
merge 0.0 and -0.0.

The verifier streams the routed gates against the source, tracking the
SWAP permutation and keeping nothing per gate while each non-inserted
gate's kind, logical qubits and angle equal the next source gate's. From
the first mismatch on it collects (kind, logical qubits, param) tuples and
compares each qubit's lane with that of the unmatched source tail, so
gates on disjoint qubits may commute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from .analysis import circuit_stats
from .errors import DegenerateInputError, UnroutableGateError
from .ir import TWO_QUBIT_KINDS, Circuit, Gate, GateKind
from .topology import Topology


@dataclass
class Layout:
    """Bijective logical -> physical qubit mapping, mutated SWAP by SWAP."""

    log_to_phys: list[int]
    phys_to_log: list[int | None]


def trivial_layout(num_logical: int, num_physical: int) -> Layout:
    """Identity mapping: logical qubit i starts on physical qubit i."""
    if num_logical > num_physical:
        raise DegenerateInputError(
            f"{num_logical} logical qubits exceed {num_physical} physical qubits"
        )
    phys_to_log: list[int | None] = [None] * num_physical
    for q in range(num_logical):
        phys_to_log[q] = q
    return Layout(list(range(num_logical)), phys_to_log)


@dataclass(frozen=True)
class RouteMetrics:
    """Routed-circuit totals. ``swap_count`` counts inserted SWAPs only;
    ``total_swap_gates`` additionally includes SWAPs already present in the
    source circuit."""

    depth: int
    total_gates: int
    one_qubit_gates: int
    two_qubit_gates: int
    swap_count: int
    total_swap_gates: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class RoutingResult:
    routed: Circuit
    final_layout: Layout
    inserted: tuple[int, ...]  # indices of inserted SWAPs within routed.gates
    metrics: RouteMetrics


def _next_hops(adjacency: dict[int, tuple[int, ...]], dst: int) -> dict[int, int]:
    """Next qubit toward dst for every qubit that can reach it.

    Each entry is the smallest neighbour one BFS hop closer to dst, so a
    walk along the table takes the lexicographically smallest shortest
    path; dst maps to itself.
    """
    hops = {dst: 0}
    next_hop = {dst: dst}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        closer = hops[node] + 1
        for nb in adjacency[node]:
            if nb not in hops:
                hops[nb] = closer
                next_hop[nb] = node
                frontier.append(nb)
            elif hops[nb] == closer and node < next_hop[nb]:
                next_hop[nb] = node
    return next_hop


def route_circuit(circuit: Circuit, topology: Topology) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate lands on a coupler edge.

    A logical qubit outside [0, num_qubits) raises DegenerateInputError.
    """
    used = {q for gate in circuit.gates for q in gate.qubits}
    if used and (min(used) < 0 or max(used) >= circuit.num_qubits):
        q = min(used) if min(used) < 0 else max(used)
        raise DegenerateInputError(
            f"logical qubit {q} out of range for {circuit.num_qubits}-qubit circuit {circuit.name!r}"
        )
    layout = trivial_layout(circuit.num_qubits, topology.num_qubits)
    log_to_phys, phys_to_log = layout.log_to_phys, layout.phys_to_log
    adjacency = topology.adjacency()
    next_hops: dict[int, dict[int, int]] = {}  # target qubit -> next-hop table, built on first use
    swaps: dict[tuple[int, int], Gate] = {}  # (pa, hop) -> the inserted SWAP on that coupler
    shared: dict[tuple, Gate] = {}  # (kind, physical qubits) -> one gate for the whole call
    routed: list[Gate] = []
    inserted: list[int] = []
    swap = GateKind.SWAP

    for gate in circuit.gates:
        kind, qubits = gate.kind, gate.qubits
        if kind in TWO_QUBIT_KINDS:
            a, b = qubits
            pa, pb = log_to_phys[a], log_to_phys[b]
            next_hop = next_hops.get(pb) or next_hops.setdefault(pb, _next_hops(adjacency, pb))
            hop = next_hop.get(pa)
            if hop is None:
                raise UnroutableGateError(
                    f"{kind.value} on logical {qubits}: physical qubits "
                    f"{pa} and {pb} are in different components of {topology.name!r}"
                )
            while hop != pb:
                inserted.append(len(routed))
                pair = (pa, hop)
                routed.append(swaps.get(pair) or swaps.setdefault(pair, Gate(swap, pair)))
                moved = phys_to_log[hop]
                phys_to_log[pa], phys_to_log[hop] = moved, a
                if moved is not None:
                    log_to_phys[moved] = pa
                pa, hop = hop, next_hop[hop]
            log_to_phys[a] = pa
            if pa == a and pb == b:
                routed.append(gate)
                continue
            physical = (pa, pb)
        elif len(qubits) == 1:
            (q,) = qubits
            p = log_to_phys[q]
            if p == q:
                routed.append(gate)
                continue
            physical = (p,)
        else:
            physical = tuple(map(log_to_phys.__getitem__, qubits))
            if physical == qubits:
                routed.append(gate)
                continue
        if gate.param is not None:
            # Never shared: 0.0 == -0.0, so a cache keyed on the angle
            # would turn rz(-0.0) into rz(0.0).
            routed.append(Gate(kind, physical, gate.param))
        else:
            key = (kind, physical)
            routed.append(shared.get(key) or shared.setdefault(key, Gate(kind, physical)))

    routed_circuit = Circuit(
        topology.num_qubits, tuple(routed), name=f"{circuit.name}@{topology.name}"
    )
    stats = circuit_stats(routed_circuit)
    metrics = RouteMetrics(
        depth=stats.depth,
        total_gates=stats.total_gates,
        one_qubit_gates=stats.one_qubit_gates,
        two_qubit_gates=stats.two_qubit_gates,
        swap_count=len(inserted),
        total_swap_gates=stats.swap_count,
    )
    return RoutingResult(routed_circuit, layout, tuple(inserted), metrics)


def verify_routing(circuit: Circuit, result: RoutingResult, topology: Topology) -> bool:
    """Check adjacency of every routed two-qubit gate and semantic preservation.

    Replaying the routed gates while tracking the permutation induced by
    inserted SWAPs must recover the original logical gate sequence: same
    kinds, same logical operands, same per-qubit order. Only a SWAP on a
    coupler may be marked inserted.
    """
    couplers = {(a, b) for a, neighbors in topology.adjacency().items() for b in neighbors}
    inserted = set(result.inserted)
    phys_to_log = trivial_layout(circuit.num_qubits, topology.num_qubits).phys_to_log
    source = circuit.gates
    matched = 0  # source gates replayed in order so far
    rest: list[tuple] | None = None  # (kind, logical qubits, param) from the first mismatch on
    swap = GateKind.SWAP

    for idx, gate in enumerate(result.routed.gates):
        kind, qubits, param = gate.kind, gate.qubits, gate.param
        if kind in TWO_QUBIT_KINDS:
            if qubits not in couplers:
                return False
            a, b = qubits
            if idx in inserted:
                if kind is not swap:
                    return False
                phys_to_log[a], phys_to_log[b] = phys_to_log[b], phys_to_log[a]
                continue
            logical = (phys_to_log[a], phys_to_log[b])
        elif idx in inserted:
            return False
        else:
            logical = tuple(map(phys_to_log.__getitem__, qubits))
        if None in logical:
            return False
        if rest is None:
            if matched < len(source):
                want = source[matched]
                # exactly tuple equality of (kind, qubits, param)
                if want.kind is kind and want.qubits == logical and (
                    want.param is param or want.param == param
                ):
                    matched += 1
                    continue
            rest = []
        rest.append((kind, logical, param))

    if rest is None:
        return matched == len(source)
    tail = [(gate.kind, gate.qubits, gate.param) for gate in source[matched:]]
    n = circuit.num_qubits
    return len(rest) == len(tail) and _lanes(rest, n) == _lanes(tail, n)


def _lanes(gates: list[tuple], num_qubits: int) -> list[list[tuple]]:
    """Each in-range qubit's (kind, qubits, param) entries in program order,
    an entry once per distinct qubit."""
    lanes: list[list[tuple]] = [[] for _ in range(num_qubits)]
    for gate in gates:
        for q in set(gate[1]):
            if 0 <= q < num_qubits:
                lanes[q].append(gate)
    return lanes
