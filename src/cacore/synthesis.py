"""Coupling-map synthesis from circuit correlation.

Pipeline: greedy max-weighted path construction over the correlation
matrix, deterministic joining of leftover components, serpentine placement
onto a near-square grid, correlation-gated adjacent and diagonal coupler
connection, and checkerboard pruning of the lighter diagonal group so no
two retained diagonals occupy side-sharing unit cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import CorrelationMatrix, _ordered, build_correlation
from .errors import DegenerateInputError
from .ir import Circuit
from .topology import Topology


@dataclass(frozen=True)
class PathEdge:
    weight: int
    synthetic: bool = False


@dataclass
class PathGraph:
    """Degree-limited acyclic weighted graph over all circuit qubits.

    Every node keeps degree <= 2 and no edge closes a cycle, so each
    connected component is a simple path (or an isolated node).
    """

    num_qubits: int
    edges: dict[tuple[int, int], PathEdge]

    def adjacency(self) -> dict[int, list[int]]:
        """Neighbor lists, one entry per qubit (isolated ones included)."""
        adjacency: dict[int, list[int]] = {q: [] for q in range(self.num_qubits)}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return adjacency

    def components(self) -> list[list[int]]:
        """Connected components as sorted node lists, ordered by smallest member."""
        adjacency = self.adjacency()
        seen: set[int] = set()
        components: list[list[int]] = []
        for start in range(self.num_qubits):
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            members = []
            while stack:
                node = stack.pop()
                members.append(node)
                for nb in adjacency[node]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            components.append(sorted(members))
        return components


@dataclass(frozen=True)
class GridLayout:
    """Injective qubit -> (row, col) placement on an nrow x ncol grid."""

    nrow: int
    ncol: int
    pos: dict[int, tuple[int, int]]

    def cells(self) -> dict[tuple[int, int], int]:
        return {rc: q for q, rc in self.pos.items()}


@dataclass(frozen=True)
class GridEdge:
    weight: int
    kind: str  # "path" | "adjacent" | "diagonal"
    synthetic: bool = False


@dataclass
class GridGraph:
    layout: GridLayout
    edges: dict[tuple[int, int], GridEdge]

    def diagonal_pairs(self) -> list[tuple[int, int]]:
        return sorted(pair for pair, edge in self.edges.items() if edge.kind == "diagonal")


@dataclass(frozen=True)
class DiagonalPartition:
    """Checkerboard split of diagonal edges with accumulated group weights."""

    g1: tuple[tuple[int, int], ...]
    g2: tuple[tuple[int, int], ...]
    g1_weight: int
    g2_weight: int


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def generate_mwpg(matrix: CorrelationMatrix) -> PathGraph:
    """Greedily keep the heaviest edges that preserve the path constraints.

    Edges are scanned by weight descending, ties broken by ascending
    (min, max) qubit index. An edge is kept only while both endpoints have
    degree < 2 and the edge closes no cycle, so the scan is deterministic
    and the result is a disjoint union of simple paths.
    """
    order = sorted(matrix.weights.items(), key=lambda item: (-item[1], item[0]))
    uf = _UnionFind(matrix.num_qubits)
    degree = [0] * matrix.num_qubits
    edges: dict[tuple[int, int], PathEdge] = {}
    for (a, b), weight in order:
        if degree[a] >= 2 or degree[b] >= 2:
            continue
        if uf.find(a) == uf.find(b):
            continue
        edges[(a, b)] = PathEdge(weight)
        degree[a] += 1
        degree[b] += 1
        uf.union(a, b)
    return PathGraph(matrix.num_qubits, edges)


def join_components(path: PathGraph) -> PathGraph:
    """Connect leftover path fragments into one simple path in one pass.

    Components are chained in order of their smallest member. Each join
    adds a weight-0 synthetic edge from the smaller free end of the chain
    built so far to the smaller free end of the next component, where a
    free end is a node of degree < 2 (an isolated node is both ends of its
    component). The chain's other end stays free for the next join.
    """
    edges = dict(path.edges)
    adjacency = path.adjacency()
    chain_ends: tuple[int, int] | None = None
    for members in path.components():
        free = [q for q in members if len(adjacency[q]) < 2]
        head, tail = free[0], free[-1]
        if chain_ends is not None:
            edges[_ordered(chain_ends[0], head)] = PathEdge(0, synthetic=True)
            head = chain_ends[1]
        chain_ends = _ordered(head, tail)
    return PathGraph(path.num_qubits, edges)


def choose_grid_dims(n: int) -> tuple[int, int]:
    """Near-square grid: ncol = ceil(sqrt(n)), nrow = ceil(n / ncol)."""
    if n < 1:
        raise DegenerateInputError(f"cannot size a grid for {n} qubits")
    ncol = math.isqrt(n - 1) + 1
    nrow = -(-n // ncol)
    return nrow, ncol


def _serpentine_cell(index: int, ncol: int) -> tuple[int, int]:
    row, offset = divmod(index, ncol)
    col = offset if row % 2 == 0 else ncol - 1 - offset
    return row, col


def place_on_grid(path: PathGraph, nrow: int, ncol: int) -> GridLayout:
    """Lay a connected path into the grid in boustrophedon row order.

    The walk starts at the path end (node of degree <= 1) with the smaller
    qubit index and fills row 0 left to right, row 1 right to left, and so
    on; consecutive path nodes therefore always land on grid-adjacent cells.
    """
    n = path.num_qubits
    if n > nrow * ncol:
        raise DegenerateInputError(f"{n} qubits exceed a {nrow}x{ncol} grid")
    if n == 0:
        return GridLayout(nrow, ncol, {})
    if len(path.components()) != 1:
        raise ValueError("place_on_grid requires a connected path graph")

    adjacency = path.adjacency()
    order = [min(q for q, nbs in adjacency.items() if len(nbs) <= 1)]
    prev = None
    while len(order) < n:
        current = order[-1]
        order.append(next(nb for nb in adjacency[current] if nb != prev))
        prev = current

    pos = {q: _serpentine_cell(idx, ncol) for idx, q in enumerate(order)}
    return GridLayout(nrow, ncol, pos)


def _connect(grid: GridGraph, matrix: CorrelationMatrix, offsets, kind: str) -> GridGraph:
    """Link occupied cells, in row-major order, to correlated occupants at each offset."""
    edges = dict(grid.edges)
    cells = grid.layout.cells()
    for (row, col), q in sorted(cells.items()):
        for dr, dc in offsets:
            nb = cells.get((row + dr, col + dc))
            if nb is None:
                continue
            pair = _ordered(q, nb)
            weight = matrix.weight(*pair)
            if weight > 0 and pair not in edges:
                edges[pair] = GridEdge(weight, kind)
    return GridGraph(grid.layout, edges)


def connect_adjacent(layout: GridLayout, path: PathGraph, matrix: CorrelationMatrix) -> GridGraph:
    """Seed the grid graph with all path edges, then add correlated orthogonal pairs.

    Each occupied cell, in row-major order, is linked to its right and lower
    neighbours when they are occupied, correlated and not yet connected.
    """
    edges = {
        pair: GridEdge(edge.weight, "path", edge.synthetic)
        for pair, edge in sorted(path.edges.items())
    }
    return _connect(GridGraph(layout, edges), matrix, ((0, 1), (1, 0)), "adjacent")


def connect_diagonals(grid: GridGraph, matrix: CorrelationMatrix) -> GridGraph:
    """Add correlated lower-left and lower-right diagonal edges.

    Each occupied cell (row, col), in row-major order, is linked to the
    occupants of (row+1, col-1) and (row+1, col+1) when they are correlated
    and not yet connected; offsets that leave the grid find no occupant.
    """
    return _connect(grid, matrix, ((1, -1), (1, 1)), "diagonal")


def _cell_of_diagonal(layout: GridLayout, pair: tuple[int, int]) -> tuple[int, int]:
    (r1, c1), (r2, c2) = layout.pos[pair[0]], layout.pos[pair[1]]
    return min(r1, r2), min(c1, c2)


def partition_diagonals(grid: GridGraph) -> DiagonalPartition:
    """Split diagonals by the checkerboard parity of their unit cell.

    A diagonal belongs to the unique cell whose corners it spans; cells
    with even row+col go to group 1, odd to group 2, which flips the
    grouping on every row and column exactly once.
    """
    g1: list[tuple[int, int]] = []
    g2: list[tuple[int, int]] = []
    w1 = w2 = 0
    for pair in grid.diagonal_pairs():
        row, col = _cell_of_diagonal(grid.layout, pair)
        weight = grid.edges[pair].weight
        if (row + col) % 2 == 0:
            g1.append(pair)
            w1 += weight
        else:
            g2.append(pair)
            w2 += weight
    return DiagonalPartition(tuple(g1), tuple(g2), w1, w2)


def prune_diagonals(grid: GridGraph, partition: DiagonalPartition) -> GridGraph:
    """Drop every diagonal of the lighter group (group 2 on a tie)."""
    doomed = set(partition.g1 if partition.g2_weight > partition.g1_weight else partition.g2)
    edges = {pair: edge for pair, edge in grid.edges.items() if pair not in doomed}
    return GridGraph(grid.layout, edges)


def synthesize_topology(circuit: Circuit, *, keep_synthetic: bool = True) -> Topology:
    """Run the full synthesis pipeline for one circuit.

    With ``keep_synthetic`` (the default) the zero-correlation joining
    edges stay in the topology, guaranteeing one connected device; setting
    it to False configures couplers only where a correlation exists, which
    may leave uncorrelated fragments disconnected.
    """
    matrix = build_correlation(circuit)
    path = join_components(generate_mwpg(matrix))
    nrow, ncol = choose_grid_dims(circuit.num_qubits)
    layout = place_on_grid(path, nrow, ncol)
    grid = connect_adjacent(layout, path, matrix)
    grid = connect_diagonals(grid, matrix)
    grid = prune_diagonals(grid, partition_diagonals(grid))

    pairs = sorted(grid.edges)
    if not keep_synthetic:
        pairs = [pair for pair in pairs if not grid.edges[pair].synthetic]
    synthetic = frozenset(pair for pair in pairs if grid.edges[pair].synthetic)
    return Topology(
        name="ca_core",
        num_qubits=circuit.num_qubits,
        edges=tuple(pairs),
        synthetic=synthetic,
        positions=dict(layout.pos),
    )
