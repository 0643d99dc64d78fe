"""Baseline transpiler: trivial layout plus deterministic SWAP insertion.

Gates are processed in program order. A two-qubit gate whose operands are
not coupler-adjacent triggers SWAPs that move the first operand's state
along the BFS-shortest path (lexicographically smallest node sequence on
ties) until it neighbors the second operand. This mirrors a
minimal-optimization transpile so topology comparisons stay router-fixed.

The router keeps one next-hop table per target qubit for the call, built
by a BFS on first use: each entry is the smallest neighbour one hop closer
to the target, so the walk takes that path one SWAP per step. Gates are
immutable, so the routed circuit reuses a source gate whose physical
qubits equal its logical ones and shares one gate per distinct (kind,
physical qubits) among the rest; rotations are built fresh, since a cache
keyed on the angle would merge 0.0 and -0.0. The verifier replays the
routed gates into (kind, logical qubits, param) tuples and accepts at once
when they equal the source gates in order; otherwise it compares each
qubit's lane, so gates on disjoint qubits may commute.
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

    def swap_physical(self, p1: int, p2: int) -> None:
        l1, l2 = self.phys_to_log[p1], self.phys_to_log[p2]
        self.phys_to_log[p1], self.phys_to_log[p2] = l2, l1
        if l1 is not None:
            self.log_to_phys[l1] = p2
        if l2 is not None:
            self.log_to_phys[l2] = p1


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
    log_to_phys = layout.log_to_phys
    adjacency = topology.adjacency()
    next_hops: dict[int, dict[int, int]] = {}  # target qubit -> next-hop table, built on first use
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
            if pa not in next_hop:
                raise UnroutableGateError(
                    f"{kind.value} on logical {qubits}: physical qubits "
                    f"{pa} and {pb} are in different components of {topology.name!r}"
                )
            while (hop := next_hop[pa]) != pb:
                inserted.append(len(routed))
                key = (swap, (pa, hop))
                routed.append(shared.get(key) or shared.setdefault(key, Gate(swap, (pa, hop))))
                layout.swap_physical(pa, hop)
                pa = hop
            physical = (pa, pb)
        else:
            physical = tuple(map(log_to_phys.__getitem__, qubits))
        if physical == qubits:
            routed.append(gate)
        elif gate.param is not None:
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
    kinds, same logical operands, same per-qubit order.
    """
    adjacency = topology.adjacency()
    inserted = set(result.inserted)
    layout = trivial_layout(circuit.num_qubits, topology.num_qubits)
    phys_to_log = layout.phys_to_log
    replayed: list[tuple] = []  # (kind, logical qubits, param)
    swap = GateKind.SWAP

    for idx, gate in enumerate(result.routed.gates):
        kind, qubits = gate.kind, gate.qubits
        if kind in TWO_QUBIT_KINDS:
            a, b = qubits
            if b not in adjacency.get(a, ()):
                return False
            if idx in inserted:
                if kind is not swap:
                    return False
                layout.swap_physical(a, b)
                continue
            logical = (phys_to_log[a], phys_to_log[b])
        elif idx in inserted:
            return False  # only a SWAP may be marked inserted
        else:
            logical = tuple(map(phys_to_log.__getitem__, qubits))
        if None in logical:
            return False
        replayed.append((kind, logical, gate.param))

    source = [(gate.kind, gate.qubits, gate.param) for gate in circuit.gates]
    if replayed == source:
        return True
    n = circuit.num_qubits
    return len(replayed) == len(source) and _lanes(replayed, n) == _lanes(source, n)


def _lanes(gates: list[tuple], num_qubits: int) -> list[list[tuple]]:
    """Each in-range qubit's (kind, qubits, param) entries in program order,
    an entry once per distinct qubit."""
    lanes: list[list[tuple]] = [[] for _ in range(num_qubits)]
    for gate in gates:
        for q in set(gate[1]):
            if 0 <= q < num_qubits:
                lanes[q].append(gate)
    return lanes
