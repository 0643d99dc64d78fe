"""Baseline transpiler: trivial layout plus deterministic SWAP insertion.

Gates are processed in program order. A two-qubit gate whose operands are
not coupler-adjacent triggers SWAPs that move the first operand's state
along the BFS-shortest path (lexicographically smallest node sequence on
ties) until it neighbors the second operand. This mirrors a
minimal-optimization transpile so topology comparisons stay router-fixed.

The topology keeps three tables per target qubit for its life, built on the
first route to that target: the next hop, by a BFS the smallest neighbour one
hop closer, so the walk takes that path one SWAP per step, updating the layout
in place (the qubit moved is always the gate's first operand); the SWAP of each
hop, filled when the walk first takes it; and per two-qubit kind the gate from
each neighbour of the target. Gates are immutable, so the routed circuit reuses
a source gate whose physical qubits equal its logical ones. A rotation or barrier
comes from ``ir.shared_gate`` each time; any other one-qubit gate from the
topology's n-slot list for its kind, filled once.
The same walk scores the route: it keeps each physical qubit's ASAP
finish time and the gate counts, so the metrics equal those of
``asap_stats(result.routed)`` in tests/oracles.py without a second pass.

The verifier walks the routed gates once beside a byte mask of the inserted
SWAPs, reading the router's adjacency but never its per-target or gate tables.
It tracks the SWAP permutation and keeps nothing per gate while each other
gate's (kind, logical qubits, angle) equals the next source gate's. From the
first mismatch on it collects those tuples and compares each qubit's lane with
that of the unmatched source tail, so gates on disjoint qubits may commute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateInputError, UnroutableGateError
from .ir import METRIC_EXEMPT_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind, shared_gate
from .topology import Topology


def trivial_layout(num_logical: int, num_physical: int) -> list[int | None]:
    """Identity mapping as the logical qubit on each physical qubit: logical
    qubit i starts on physical qubit i, and the rest hold None."""
    if num_logical > num_physical:
        raise DegenerateInputError(
            f"{num_logical} logical qubits exceed {num_physical} physical qubits"
        )
    phys_to_log: list[int | None] = [None] * num_physical
    for q in range(num_logical):
        phys_to_log[q] = q
    return phys_to_log


class RouteMetrics(NamedTuple):
    """Routed-circuit totals. ``swap_count`` counts inserted SWAPs only;
    ``total_swap_gates`` additionally includes SWAPs already present in the
    source circuit.

    Unit-time ASAP: every computational gate, SWAP included, takes one step;
    barriers fence their qubits without a step, and measures are ignored.
    Every field other than ``swap_count`` equals the same-named total of
    ``asap_stats(result.routed)`` in tests/oracles.py (``total_swap_gates``
    its ``swap_count``)."""

    depth: int
    total_gates: int
    one_qubit_gates: int
    two_qubit_gates: int
    swap_count: int
    total_swap_gates: int

    def as_dict(self) -> dict[str, int]:
        return self._asdict()


@dataclass
class RoutingResult:
    routed: Circuit
    inserted: tuple[int, ...]  # indices of inserted SWAPs within routed.gates
    metrics: RouteMetrics


def _toward(adjacency: dict[int, tuple[int, ...]], dst: int) -> tuple[list, list, dict]:
    """next_hop, steps and arrivals toward dst. next_hop holds, per physical qubit,
    the smallest neighbour one BFS hop closer to dst (so a walk along it takes the
    lexicographically smallest shortest path), dst itself at dst and None where
    dst is unreachable; steps is None per qubit, for the walk to fill with its
    SWAP ``(p, next_hop[p])``; arrivals maps each two-qubit kind to the gate
    ``(nb, dst)`` from each neighbour nb of dst."""
    size = len(adjacency)
    hops: list[int | None] = [None] * size
    next_hop: list[int | None] = [None] * size
    hops[dst], next_hop[dst] = 0, dst
    arrivals = {
        kind: {nb: shared_gate(kind, (nb, dst)) for nb in adjacency[dst]} for kind in TWO_QUBIT_KINDS
    }
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        closer = hops[node] + 1
        for nb in adjacency[node]:
            if hops[nb] is None:
                hops[nb] = closer
                next_hop[nb] = node
                frontier.append(nb)
            elif hops[nb] == closer and node < next_hop[nb]:
                next_hop[nb] = node
    return next_hop, [None] * size, arrivals


def route_circuit(circuit: Circuit, topology: Topology) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate lands on a coupler edge, reading
    and filling the per-target and one-qubit tables that ``topology`` keeps.

    A logical qubit outside [0, num_qubits) raises DegenerateInputError.
    """
    circuit.check_qubits()
    size = topology.num_qubits
    phys_to_log = trivial_layout(circuit.num_qubits, size)
    log_to_phys = list(range(circuit.num_qubits))
    adjacency, targets, relabeled = topology._routing  # kept on the topology, filled on first use
    routed: list[Gate] = []
    inserted: list[int] = []
    # The ASAP pass, run on the routed gates as they are emitted: each
    # physical qubit's finish time, and the counts that set the totals.
    busy = [0] * size
    exempt = two_qubit = source_swaps = 0
    swap = GateKind.SWAP  # a member lookup is slow on an Enum class

    for gate in circuit.gates:
        kind, qubits = gate.kind, gate.qubits
        if kind in TWO_QUBIT_KINDS:
            a, b = qubits
            pa, pb = log_to_phys[a], log_to_phys[b]
            target = targets[pb]
            if target is None:
                target = targets[pb] = _toward(adjacency, pb)
            next_hop, steps, arrivals = target
            hop = next_hop[pa]
            if hop is None:
                raise UnroutableGateError(
                    f"{kind.value} on logical {qubits}: physical qubits "
                    f"{pa} and {pb} are in different components of {topology.name!r}"
                )
            while hop != pb:
                inserted.append(len(routed))
                step = steps[pa]
                if step is None:
                    step = steps[pa] = shared_gate(swap, (pa, hop))
                routed.append(step)
                finish_a, finish_b = busy[pa], busy[hop]
                busy[pa] = busy[hop] = (finish_a if finish_a > finish_b else finish_b) + 1
                moved = phys_to_log[hop]
                phys_to_log[pa], phys_to_log[hop] = moved, a
                if moved is not None:
                    log_to_phys[moved] = pa
                pa, hop = hop, next_hop[hop]
            log_to_phys[a] = pa
            finish_a, finish_b = busy[pa], busy[pb]
            busy[pa] = busy[pb] = (finish_a if finish_a > finish_b else finish_b) + 1
            two_qubit += 1
            if kind is swap:
                source_swaps += 1
            if pa == a and pb == b:
                routed.append(gate)
                continue
            routed.append(arrivals[kind][pa])
            continue
        elif len(qubits) == 1:
            (q,) = qubits
            p = log_to_phys[q]
            if kind in METRIC_EXEMPT_KINDS:
                exempt += 1
            else:
                busy[p] += 1
            if p == q:
                routed.append(gate)
                continue
            table = relabeled.get(kind)  # None for a rotation or a barrier
            if table is not None:
                single = table[p]
                if single is None:
                    single = table[p] = shared_gate(kind, (p,))
                routed.append(single)
                continue
            physical = (p,)
        else:  # a barrier on several qubits: it fences them at their latest finish
            exempt += 1
            physical = tuple(map(log_to_phys.__getitem__, qubits))
            fence = max(map(busy.__getitem__, physical))
            for p in physical:
                busy[p] = fence
            if physical == qubits:
                routed.append(gate)
                continue
        routed.append(shared_gate(kind, physical, gate.param))

    routed_circuit = Circuit(size, tuple(routed), name=f"{circuit.name}@{topology.name}")
    total = len(routed) - exempt
    two_qubit += len(inserted)
    metrics = RouteMetrics(
        depth=max(busy, default=0),
        total_gates=total,
        one_qubit_gates=total - two_qubit,
        two_qubit_gates=two_qubit,
        swap_count=len(inserted),
        total_swap_gates=source_swaps + len(inserted),
    )
    return RoutingResult(routed_circuit, tuple(inserted), metrics)


def verify_routing(circuit: Circuit, result: RoutingResult, topology: Topology) -> bool:
    """Check adjacency of every routed two-qubit gate and semantic preservation.

    Replaying the routed gates while tracking the permutation induced by
    inserted SWAPs must recover the original logical gate sequence: same
    kinds, same logical operands, same per-qubit order. Only a SWAP on a
    coupler may be marked inserted, and a routed gate on a physical qubit
    outside the topology fails. Couplers come from the adjacency the router
    reads: an endpoint that is not a qubit raises TopologyFormatError here too.

    ``result.inserted`` holds ints and is read as a set: the verifier marks
    each index inside the routed circuit in a byte mask, so their order,
    duplicates and indices outside the routed circuit (negative or past the
    end, however far) do not change the verdict. A non-int index inside it,
    such as ``2.0``, raises TypeError.
    """
    adjacency = topology._routing[0]
    size = topology.num_qubits
    phys_to_log = trivial_layout(circuit.num_qubits, size)
    routed = result.routed.gates
    marks = bytearray(len(routed))  # 1 at each inserted index inside the routed circuit
    for idx in result.inserted:
        if 0 <= idx < len(routed):
            marks[idx] = 1
    source = circuit.gates
    total = len(source)
    matched = 0  # source gates replayed in order so far
    rest: list[tuple] = []  # (kind, logical qubits, param) from the first mismatch on
    swap = GateKind.SWAP

    for gate, mark in zip(routed, marks):
        kind, qubits = gate.kind, gate.qubits
        if mark:
            if kind is not swap:
                return False
            a, b = qubits
            if b not in adjacency.get(a, ()):
                return False
            phys_to_log[a], phys_to_log[b] = phys_to_log[b], phys_to_log[a]
            continue
        if kind in TWO_QUBIT_KINDS:
            a, b = qubits
            if b not in adjacency.get(a, ()):
                return False
            logical = (phys_to_log[a], phys_to_log[b])
        elif len(qubits) == 1:
            (q,) = qubits
            if not 0 <= q < size:
                return False
            logical = (phys_to_log[q],)
        else:
            if not all(0 <= p < size for p in qubits):
                return False
            logical = tuple(map(phys_to_log.__getitem__, qubits))
        param = gate.param
        if not rest and matched < total:
            want = source[matched]
            # exactly tuple equality of (kind, qubits, param); a source qubit is never None
            if want.kind is kind and want.qubits == logical and (
                want.param is param or want.param == param
            ):
                matched += 1
                continue
        if None in logical:
            return False
        rest.append((kind, logical, param))

    if not rest:
        return matched == total
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
