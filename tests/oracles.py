"""Independent reference implementations used to cross-check metrics.

These deliberately avoid the library's own code paths: depth comes from an
explicit layered list scheduler, the diagonal grouping from a direct
enumeration of unit cells, component joining from a multi-pass loop that
re-finds every component after each join, routing from a fresh BFS and an
explicit path list per non-adjacent gate (``bfs_route``), and routing
verification from a rescan of every gate once per qubit (``rescan_verify``).
"""

from __future__ import annotations

from collections import deque

from cacore.analysis import circuit_stats
from cacore.errors import UnroutableGateError
from cacore.ir import Circuit, Gate, GateKind
from cacore.routing import RouteMetrics, RoutingResult, trivial_layout
from cacore.synthesis import GridGraph, PathEdge, PathGraph
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


def brute_force_diagonal_groups(grid: GridGraph) -> tuple[set, set]:
    """Assign each diagonal edge to a group by scanning every unit cell.

    Cells are enumerated explicitly and colored alternately cell by cell,
    flipping at each row start, instead of computing (row+col) arithmetic
    on the edge itself.
    """
    layout = grid.layout
    cells = layout.cells()
    group1: set[tuple[int, int]] = set()
    group2: set[tuple[int, int]] = set()
    for r in range(layout.nrow - 1):
        first_of_row = r % 2 == 0  # group flips at every row
        for c in range(layout.ncol - 1):
            in_group1 = first_of_row if c % 2 == 0 else not first_of_row
            corners = [cells.get(rc) for rc in ((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1))]
            tl, tr, bl, br = corners
            for a, b in ((tl, br), (tr, bl)):
                if a is None or b is None:
                    continue
                pair = (a, b) if a < b else (b, a)
                if pair in grid.edges and grid.edges[pair].kind == "diagonal":
                    (group1 if in_group1 else group2).add(pair)
    return group1, group2


def _components(num_qubits: int, edges) -> list[list[int]]:
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


def multi_pass_join(path: PathGraph) -> PathGraph:
    """Join components one edge per pass, re-finding all components each time.

    Each pass links the lexicographically smallest (component id, free node)
    entry to the smallest such entry of a different component, where the
    component id is its smallest member and a free node has degree < 2.
    """
    edges = dict(path.edges)
    while True:
        components = _components(path.num_qubits, edges)
        if len(components) <= 1:
            return PathGraph(path.num_qubits, edges)
        degree = [0] * path.num_qubits
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        entries = sorted(
            (members[0], node) for members in components for node in members if degree[node] < 2
        )
        first_cid, a = entries[0]
        b = next(node for cid, node in entries if cid != first_cid)
        edges[(a, b) if a < b else (b, a)] = PathEdge(0, synthetic=True)


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


def bfs_route(circuit: Circuit, topology: Topology) -> RoutingResult:
    """Route with a fresh BFS path search for every non-adjacent two-qubit gate."""
    layout = trivial_layout(circuit.num_qubits, topology.num_qubits)
    adjacency = topology.adjacency()
    routed: list[Gate] = []
    inserted: list[int] = []
    for gate in circuit.gates:
        if not gate.is_two_qubit:
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
                layout.swap_physical(pa, hop)
                pa = hop
        routed.append(Gate(gate.kind, (pa, pb), gate.param))
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


def rescan_verify(circuit: Circuit, result: RoutingResult, topology: Topology) -> bool:
    """Replay the routed gates, then compare each qubit's gate list by a full rescan."""
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
    if len(replayed) != len(circuit.gates):
        return False
    for q in range(circuit.num_qubits):
        original = [g for g in circuit.gates if q in g.qubits]
        recovered = [g for g in replayed if q in g.qubits]
        if original != recovered:
            return False
    return True
