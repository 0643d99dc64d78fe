"""Independent reference implementations used to cross-check metrics.

These deliberately avoid the library's own code paths: depth comes from an
explicit layered list scheduler, the diagonal grouping from a direct
enumeration of unit cells, and component joining from a multi-pass loop
that re-finds every component after each join.
"""

from __future__ import annotations

from cacore.ir import Circuit, GateKind
from cacore.synthesis import GridGraph, PathEdge, PathGraph


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
