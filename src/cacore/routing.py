"""Baseline transpiler: trivial layout plus deterministic SWAP insertion.

Gates are processed in program order. A two-qubit gate whose operands are
not coupler-adjacent triggers SWAPs that move the first operand's state
along the BFS-shortest path (lexicographically smallest node sequence on
ties) until it neighbors the second operand. This mirrors a
minimal-optimization transpile so topology comparisons stay router-fixed.

``route_circuit`` alone fills the routing state a topology keeps for its life.
Keyed by target qubit and built on the first route to it are three tables: the
next hop, the smallest neighbour one hop closer that ``_toward``'s BFS finds
first, so the walk takes that path one SWAP per step; the SWAP of each hop,
filled when the walk first takes it; and per two-qubit kind the gate from each
neighbour of the target, the source of every routed two-qubit gate. Past
``_TABLE_LIMIT`` next-hop and step slots (2n per target), a new target's tables
first drop every target's, each rebuilt on its next use. A one-qubit gate other
than a rotation or barrier comes from an n-slot list for its kind, made on the
first route and filled once. A rotation or barrier that did not move is its
source gate; a moved one comes from ``ir.shared_gate``. Every barrier, of any
width, fences its qubits at their latest finish.
The same walk scores the route: it keeps each physical qubit's ASAP
finish time and the gate counts, so the metrics equal those of
``asap_stats(result.routed)`` in tests/oracles.py without a second pass.

The verifier walks the routed gates once beside a byte mask of the inserted
SWAPs, reading the router's adjacency but never its per-target or gate tables.
It tracks the SWAP permutation and builds nothing per gate while each other
gate's kind, logical operands, one by one, and angle equal the next source
gate's. From the first mismatch on it matches only a sentinel past the source,
collects (kind, logical qubits, angle) tuples and compares each qubit's lane
with that of the unmatched source tail, so gates on disjoint qubits may commute.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegenerateInputError, UnroutableGateError
from .ir import MAX_GATES, TWO_QUBIT_KINDS, Circuit, FieldTable, Gate, GateKind, Record
from .ir import SHARED_KINDS, _unchecked_circuit, shared_gate
from .topology import Topology


_TABLE_LIMIT = 2**20  # next-hop and step slots one topology's targets hold, far above 2 * 53**2
# The most SWAPs a route may insert: under tracemalloc a route at the bound peaks at 61 MiB, and
# 93 MiB once verified and written as QASM text (1024 qubits; the ints of inserted dominate)
_SWAP_LIMIT = 4 * MAX_GATES


class _Unmatched:  # follows the source gates in verify_routing: no gate's kind is None
    kind = None


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


_TOTALS = "depth total_gates one_qubit_gates two_qubit_gates swap_count total_swap_gates"


class RouteMetrics(namedtuple("RouteMetrics", _TOTALS)):
    """Routed-circuit totals. ``swap_count`` counts inserted SWAPs only;
    ``total_swap_gates`` additionally includes SWAPs already present in the
    source circuit.

    Unit-time ASAP: every computational gate, SWAP included, takes one step;
    barriers fence their qubits without a step, and measures are ignored.
    Every field other than ``swap_count`` equals the same-named total of
    ``asap_stats(result.routed)`` in tests/oracles.py (``total_swap_gates``
    its ``swap_count``)."""

    __slots__ = ()

    def as_dict(self) -> dict[str, int]:
        return self._asdict()


class RoutingResult(Record):
    __dataclass_fields__ = FieldTable()

    def __init__(self, routed: Circuit, inserted: tuple[int, ...], metrics: RouteMetrics):
        self.routed = routed
        self.inserted = inserted  # indices of inserted SWAPs within routed.gates
        self.metrics = metrics


def _toward(adjacency: dict[int, tuple[int, ...]], dst: int) -> tuple[list, list, dict]:
    """next_hop, steps and arrivals toward dst. next_hop holds, per physical qubit,
    the smallest neighbour one hop closer to dst, its first finder in a BFS that
    visits each level in ascending qubit order, dst itself at dst and None where
    dst is unreachable; steps is None per qubit, for the walk to fill with its
    SWAP ``(p, next_hop[p])``; arrivals maps each two-qubit kind to the gate
    ``(nb, dst)`` from each neighbour nb of dst."""
    size = len(adjacency)
    next_hop: list[int | None] = [None] * size
    next_hop[dst] = dst
    arrivals = {
        kind: {nb: shared_gate(kind, (nb, dst)) for nb in adjacency[dst]} for kind in TWO_QUBIT_KINDS
    }
    level = [dst]  # the qubits at one BFS distance from dst
    while level:
        farther = []
        for node in sorted(level):
            for nb in adjacency[node]:
                if next_hop[nb] is None:
                    next_hop[nb] = node
                    farther.append(nb)
        level = farther
    return next_hop, [None] * size, arrivals


def route_circuit(circuit: Circuit, topology: Topology) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate lands on a coupler edge, reading and
    filling the routing state ``topology`` keeps, keyed by target qubit and by kind.
    The routed circuit is built unscanned: its every qubit is one of the topology's.
    Past ``_SWAP_LIMIT`` inserted SWAPs, counted after each two-qubit gate's walk,
    it raises DegenerateInputError.
    """
    size = topology.num_qubits
    phys_to_log = trivial_layout(circuit.num_qubits, size)
    log_to_phys = list(range(circuit.num_qubits))
    adjacency, targets, relabeled = topology._routing  # kept on the topology, filled here
    if not relabeled:  # the topology's first route
        relabeled.update({kind: [None] * size for kind in SHARED_KINDS - TWO_QUBIT_KINDS})
    routed: list[Gate] = []
    inserted: list[int] = []
    # The ASAP pass, run on the routed gates as they are emitted: each
    # physical qubit's finish time, and the counts that set the totals.
    busy = [0] * size
    exempt = two_qubit = source_swaps = 0
    # a member lookup is slow on an Enum class
    swap, barrier, measure = GateKind.SWAP, GateKind.BARRIER, GateKind.MEASURE

    for gate in circuit.gates:
        kind, qubits = gate.kind, gate.qubits
        if kind in TWO_QUBIT_KINDS:
            a, b = qubits
            pa, pb = log_to_phys[a], log_to_phys[b]
            try:
                next_hop, steps, arrivals = targets[pb]
            except KeyError:
                if 2 * size * (len(targets) + 1) > _TABLE_LIMIT:
                    targets.clear()  # each is rebuilt on its next use
                next_hop, steps, arrivals = targets[pb] = _toward(adjacency, pb)
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
            if len(inserted) > _SWAP_LIMIT:  # once per gate: a walk adds at most size - 2
                raise DegenerateInputError(f"routing {circuit.name!r} needs more than {_SWAP_LIMIT} SWAPs")
            log_to_phys[a] = pa
            finish_a, finish_b = busy[pa], busy[pb]
            busy[pa] = busy[pb] = (finish_a if finish_a > finish_b else finish_b) + 1
            two_qubit += 1
            if kind is swap:
                source_swaps += 1
            routed.append(arrivals[kind][pa])
        elif kind is not barrier:
            (q,) = qubits
            p = log_to_phys[q]
            if kind is measure:
                exempt += 1
            else:
                busy[p] += 1
            table = relabeled.get(kind)  # None for a rotation
            if table is None:
                routed.append(gate if p == q else shared_gate(kind, (p,), gate.param))
            else:
                single = table[p]
                if single is None:
                    single = table[p] = shared_gate(kind, (p,))
                routed.append(single)
        else:  # a barrier, of any width: it fences its qubits at their latest finish
            exempt += 1
            physical = tuple(map(log_to_phys.__getitem__, qubits))
            fence = max(map(busy.__getitem__, physical))
            for p in physical:
                busy[p] = fence
            routed.append(gate if physical == qubits else shared_gate(kind, physical))

    routed_circuit = _unchecked_circuit(size, tuple(routed), f"{circuit.name}@{topology.name}")
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
    kinds, same logical operands, same per-qubit order. Gates in source order
    are compared operand by operand; tuples are built only from the first
    mismatch on, for the lane check. Only a SWAP on a coupler may be marked
    inserted. A Circuit keeps its qubits below its width, so one scan, made
    only when the routed circuit is wider than the topology, fails a gate on
    a qubit at or past its size. Couplers come from the adjacency the router
    reads: an endpoint that is not a qubit raises TopologyFormatError too.

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
    count = len(routed)
    marks = bytearray(count)  # 1 at each inserted index inside the routed circuit
    for idx in result.inserted:
        if 0 <= idx < count:
            marks[idx] = 1
    if result.routed.num_qubits > size and any(q >= size for gate in routed for q in gate.qubits):
        return False
    total = len(circuit.gates)
    wants = (*circuit.gates, _Unmatched)  # the sentinel ends in-order matching
    matched = 0  # source gates replayed in order; from the first mismatch on, the sentinel's index
    rest: list[tuple] = []  # (kind, logical qubits, param) from the first mismatch on
    swap, barrier = GateKind.SWAP, GateKind.BARRIER

    for gate, mark in zip(routed, marks):
        kind, qubits = gate.kind, gate.qubits
        if mark:
            if kind is not swap:
                return False
            a, b = qubits
            if b not in adjacency[a]:
                return False
            phys_to_log[a], phys_to_log[b] = phys_to_log[b], phys_to_log[a]
            continue
        # Gate fixes the arity of every kind but barrier, so a matching kind unpacks alike
        want = wants[matched]
        if kind in TWO_QUBIT_KINDS:
            a, b = qubits
            if b not in adjacency[a]:
                return False
            la, lb = phys_to_log[a], phys_to_log[b]
            if want.kind is kind:
                wa, wb = want.qubits
                if wa == la and wb == lb:  # neither kind takes an angle
                    matched += 1
                    continue
            logical = (la, lb)
        elif kind is not barrier:
            (q,) = qubits
            lq = phys_to_log[q]
            if want.kind is kind:
                (wq,) = want.qubits
                if wq == lq and (want.param is gate.param or want.param == gate.param):
                    matched += 1
                    continue
            logical = (lq,)
        else:
            logical = tuple(map(phys_to_log.__getitem__, qubits))
            if want.kind is kind and want.qubits == logical:  # a barrier takes no angle
                matched += 1
                continue
        if None in logical:  # a source qubit is never None
            return False
        if not rest:
            start, matched = matched, total
        rest.append((kind, logical, gate.param))

    if not rest:
        return matched == total
    tail = [(gate.kind, gate.qubits, gate.param) for gate in circuit.gates[start:]]
    n = circuit.num_qubits
    return len(rest) == len(tail) and _lanes(rest, n) == _lanes(tail, n)


def _lanes(gates: list[tuple], num_qubits: int) -> list[list[tuple]]:
    """Each qubit's (kind, qubits, param) entries in program order, an entry once
    per distinct qubit."""
    lanes: list[list[tuple]] = [[] for _ in range(num_qubits)]
    for gate in gates:
        for q in set(gate[1]):
            lanes[q].append(gate)
    return lanes
