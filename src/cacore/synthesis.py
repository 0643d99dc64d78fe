"""Coupling-map synthesis from circuit correlation.

Pipeline: greedy max-weighted path construction over the correlation
matrix, deterministic joining of leftover components, serpentine placement
onto a near-square grid, correlation-gated adjacent and diagonal coupler
connection, and checkerboard pruning of the lighter diagonal group so no
two retained diagonals occupy side-sharing unit cells.

The stages pass two plain values:

- ``Edges``: a ``(i, j) -> weight`` dict with ``i < j``. Every coupler
  taken from the correlation matrix counts at least one gate, so weight 0
  marks exactly the joining (synthetic) couplers of ``join_components``.
- ``Positions``: a ``qubit -> (row, col)`` dict. Path and adjacent couplers
  always join orthogonal neighbours, so a coupler is diagonal exactly when
  its ends differ by one row and one column.

``generate_mwpg`` sorts the pairs itself, so no stage relies on the ascending
pair order in which ``build_correlation`` stores the weights.
"""

from __future__ import annotations

import math

from .analysis import CorrelationMatrix, build_correlation
from .errors import DegenerateInputError
from .ir import Circuit
from .topology import Topology

CA_CORE = "ca_core"  # the name of every synthesized map, and its label in bench reports

Edges = dict[tuple[int, int], int]
Positions = dict[int, tuple[int, int]]


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def generate_mwpg(matrix: CorrelationMatrix) -> Edges:
    """Greedily keep the heaviest edges that preserve the path constraints.

    Edges are scanned by weight descending, ties broken by ascending
    (min, max) qubit index. An edge is kept only while both endpoints have
    degree < 2 and the edge closes no cycle, so the scan is deterministic
    and the result is a disjoint union of simple paths.
    """
    n = matrix.num_qubits
    degree = [0] * n
    # other_end[q] is the far end of the fragment that q ends. Both ends of a
    # candidate have degree < 2, so it closes a cycle exactly when they are
    # the two ends of one fragment.
    other_end = list(range(n))
    path: Edges = {}
    weights = matrix.weights
    # stable under reverse=True: equal weights keep the inner ascending pair order
    for a, b in sorted(sorted(weights), key=weights.__getitem__, reverse=True):
        if degree[a] >= 2 or degree[b] >= 2 or other_end[a] == b:
            continue
        path[(a, b)] = weights[(a, b)]
        degree[a] += 1
        degree[b] += 1
        end_a, end_b = other_end[a], other_end[b]
        other_end[end_a], other_end[end_b] = end_b, end_a
    return path


def _adjacency(num_qubits: int, edges: Edges) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(num_qubits)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def _walk(adjacency: list[list[int]], end: int) -> list[int]:
    """Nodes of the fragment that ends at ``end``, from there to its other end."""
    order, prev = [end], None
    for _ in adjacency:  # at most one step per node, even off a simple path
        for step in adjacency[order[-1]]:
            if step != prev:
                break
        else:  # no neighbour but the one it came from
            break
        prev = order[-1]
        order.append(step)
    return order


def join_components(num_qubits: int, path: Edges) -> Edges:
    """Connect leftover path fragments into one simple path in one pass.

    Fragments are chained in order of their smallest member. Each join
    adds a weight-0 edge from the smaller free end of the chain built so far
    to the smaller end of the next fragment, where an isolated node is both
    ends of its fragment. The chain's other end stays free for the next join.
    """
    adjacency = _adjacency(num_qubits, path)
    fragments = []  # (smallest member, smaller end, larger end)
    far_ends = set()
    for end in range(num_qubits):
        if len(adjacency[end]) < 2 and end not in far_ends:
            walk = _walk(adjacency, end)
            far_ends.add(walk[-1])
            fragments.append((min(walk), end, walk[-1]))
    joined = dict(path)
    chain_ends: tuple[int, int] | None = None
    for _, head, tail in sorted(fragments):
        if chain_ends is not None:
            joined[_ordered(chain_ends[0], head)] = 0
            head = chain_ends[1]
        chain_ends = _ordered(head, tail)
    return joined


def choose_grid_dims(n: int) -> tuple[int, int]:
    """Near-square grid: ncol = ceil(sqrt(n)), nrow = ceil(n / ncol)."""
    if n < 1:
        raise DegenerateInputError(f"cannot size a grid for {n} qubits")
    ncol = math.isqrt(n - 1) + 1
    nrow = -(-n // ncol)
    return nrow, ncol


def place_on_grid(num_qubits: int, path: Edges, nrow: int, ncol: int) -> Positions:
    """Lay a connected path into the grid in boustrophedon row order.

    The walk starts at the path end (node of degree <= 1) with the smaller
    qubit index and fills row 0 left to right, row 1 right to left, and so
    on; consecutive path nodes therefore always land on grid-adjacent cells.
    """
    if num_qubits > nrow * ncol:
        raise DegenerateInputError(f"{num_qubits} qubits exceed a {nrow}x{ncol} grid")
    adjacency = _adjacency(num_qubits, path)
    ends = [q for q in range(num_qubits) if len(adjacency[q]) <= 1]
    order = _walk(adjacency, ends[0]) if ends else []
    if len(order) != num_qubits:
        raise ValueError("place_on_grid requires a connected path graph")
    cells = [(r, c if r % 2 == 0 else ncol - 1 - c) for r in range(nrow) for c in range(ncol)]
    return dict(zip(order, cells))


def _connect(positions: Positions, edges: Edges, matrix: CorrelationMatrix, offsets) -> Edges:
    """Add to ``edges``, in row-major cell order, each correlated occupant at an offset."""
    cells = {rc: q for q, rc in positions.items()}
    for row, col in sorted(cells):
        q = cells[(row, col)]
        for dr, dc in offsets:
            nb = cells.get((row + dr, col + dc))
            if nb is None:
                continue
            pair = (q, nb) if q < nb else (nb, q)
            weight = matrix.weights.get(pair, 0)
            if weight > 0 and pair not in edges:
                edges[pair] = weight
    return edges


def connect_adjacent(positions: Positions, path: Edges, matrix: CorrelationMatrix) -> Edges:
    """Seed the couplers with all path edges, then add correlated orthogonal pairs.

    Each occupied cell, in row-major order, is linked to its right and lower
    neighbours when they are occupied, correlated and not yet connected.
    """
    return _connect(positions, {p: path[p] for p in sorted(path)}, matrix, ((0, 1), (1, 0)))


def connect_diagonals(positions: Positions, edges: Edges, matrix: CorrelationMatrix) -> Edges:
    """Add correlated lower-left and lower-right diagonal edges.

    Each occupied cell (row, col), in row-major order, is linked to the
    occupants of (row+1, col-1) and (row+1, col+1) when they are correlated
    and not yet connected; offsets that leave the grid find no occupant.
    """
    return _connect(positions, dict(edges), matrix, ((1, -1), (1, 1)))


def partition_diagonals(positions: Positions, edges: Edges) -> tuple[Edges, Edges]:
    """Split the diagonal couplers by the checkerboard parity of their unit cell.

    A diagonal belongs to the unique cell whose corners it spans; cells
    with even row+col go to group 1, odd to group 2, which flips the
    grouping on every row and column exactly once. A group's weight is the
    sum of its values.
    """
    groups: tuple[Edges, Edges] = ({}, {})
    for pair in sorted(edges):
        (r1, c1), (r2, c2) = positions[pair[0]], positions[pair[1]]
        if abs(r1 - r2) == abs(c1 - c2) == 1:
            groups[(min(r1, r2) + min(c1, c2)) % 2][pair] = edges[pair]
    return groups


def prune_diagonals(edges: Edges, groups: tuple[Edges, Edges]) -> Edges:
    """Drop every diagonal of the lighter group (group 2 on a tie)."""
    g1, g2 = groups
    doomed = g1 if sum(g2.values()) > sum(g1.values()) else g2
    return {pair: weight for pair, weight in edges.items() if pair not in doomed}


def synthesize_topology(circuit: Circuit, *, keep_synthetic: bool = True) -> Topology:
    """Run the full synthesis pipeline for one circuit.

    With ``keep_synthetic`` (the default) the zero-correlation joining
    edges stay in the topology, guaranteeing one connected device; setting
    it to False configures couplers only where a correlation exists, which
    may leave uncorrelated fragments disconnected. ``Circuit`` checked the
    qubit range when it was built, so no scan runs here.
    """
    n = circuit.num_qubits
    matrix = build_correlation(circuit)
    path = join_components(n, generate_mwpg(matrix))
    nrow, ncol = choose_grid_dims(n)
    positions = place_on_grid(n, path, nrow, ncol)
    edges = connect_diagonals(positions, connect_adjacent(positions, path, matrix), matrix)
    edges = prune_diagonals(edges, partition_diagonals(positions, edges))

    pairs = sorted(pair for pair, weight in edges.items() if keep_synthetic or weight)
    synthetic = frozenset(pair for pair in pairs if not edges[pair])
    return Topology(CA_CORE, n, tuple(pairs), synthetic, positions)
