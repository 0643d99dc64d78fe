"""Baseline transpiler: trivial layout plus deterministic SWAP insertion.

Gates are processed in program order. A two-qubit gate whose operands are
not coupler-adjacent triggers SWAPs that move the first operand's state
along the BFS-shortest path (lexicographically smallest node sequence on
ties) until it neighbors the second operand. This mirrors a
minimal-optimization transpile so topology comparisons stay router-fixed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from .analysis import circuit_stats
from .errors import DegenerateInputError, UnroutableGateError
from .ir import Circuit, Gate, GateKind
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


def _hops_to(adjacency: dict[int, tuple[int, ...]], dst: int) -> dict[int, int]:
    """BFS hop count to dst from every node that can reach it."""
    hops = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for nb in adjacency[node]:
            if nb not in hops:
                hops[nb] = hops[node] + 1
                frontier.append(nb)
    return hops


def route_circuit(circuit: Circuit, topology: Topology) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate lands on a coupler edge."""
    layout = trivial_layout(circuit.num_qubits, topology.num_qubits)
    adjacency = topology.adjacency()
    hops_to: dict[int, dict[int, int]] = {}  # target qubit -> hop table, built on first use
    routed: list[Gate] = []
    inserted: list[int] = []

    for gate in circuit.gates:
        qubits = [layout.log_to_phys[q] for q in gate.qubits]
        if gate.is_two_qubit:
            pa, pb = qubits
            hops = hops_to.get(pb) or hops_to.setdefault(pb, _hops_to(adjacency, pb))
            if pa not in hops:
                raise UnroutableGateError(
                    f"{gate.kind.value} on logical {gate.qubits}: physical qubits "
                    f"{pa} and {pb} are in different components of {topology.name!r}"
                )
            while hops[pa] > 1:
                hop = min(nb for nb in adjacency[pa] if hops.get(nb) == hops[pa] - 1)
                inserted.append(len(routed))
                routed.append(Gate(GateKind.SWAP, (pa, hop)))
                layout.swap_physical(pa, hop)
                pa = hop
            qubits[0] = pa
        routed.append(Gate(gate.kind, tuple(qubits), gate.param))

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
    replayed: list[Gate] = []

    for idx, gate in enumerate(result.routed.gates):
        if gate.is_two_qubit and gate.qubits[1] not in adjacency.get(gate.qubits[0], ()):
            return False
        if idx in inserted:
            if gate.kind is not GateKind.SWAP:
                return False
            layout.swap_physical(*gate.qubits)
            continue
        logical = tuple(layout.phys_to_log[p] for p in gate.qubits)
        if any(q is None for q in logical):
            return False
        replayed.append(Gate(gate.kind, logical, gate.param))

    n = circuit.num_qubits
    return len(replayed) == len(circuit.gates) and _lanes(replayed, n) == _lanes(circuit.gates, n)


def _lanes(gates: list[Gate] | tuple[Gate, ...], num_qubits: int) -> list[list[Gate]]:
    """Each in-range qubit's gates in program order, a gate once per distinct qubit."""
    lanes: list[list[Gate]] = [[] for _ in range(num_qubits)]
    for gate in gates:
        for q in set(gate.qubits):
            if 0 <= q < num_qubits:
                lanes[q].append(gate)
    return lanes
