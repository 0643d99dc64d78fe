"""Synthesis pipeline tests: path graph, placement, diagonals, pruning."""

import random

import pytest

from cacore.analysis import CorrelationMatrix, build_correlation
from cacore.bench import gen_random_circuit
from cacore.errors import DegenerateInputError
from cacore.ir import Circuit, Gate, GateKind
from cacore.synthesis import (
    GridLayout,
    PathEdge,
    PathGraph,
    choose_grid_dims,
    connect_adjacent,
    connect_diagonals,
    generate_mwpg,
    join_components,
    partition_diagonals,
    place_on_grid,
    prune_diagonals,
    synthesize_topology,
)

from oracles import brute_force_diagonal_groups, multi_pass_join


def matrix_from_weights(num_qubits, weights):
    return CorrelationMatrix(num_qubits, dict(sorted(weights.items())))


def random_weighted_matrix(rng, max_nodes=36):
    n = rng.randint(2, max_nodes)
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                weights[(i, j)] = rng.randint(1, 9)
    return matrix_from_weights(n, weights)


# -- generate_mwpg -----------------------------------------------------------


def test_mwpg_single_edge():
    matrix = matrix_from_weights(2, {(0, 1): 4})
    path = generate_mwpg(matrix)
    assert set(path.edges) == {(0, 1)}
    assert path.edges[(0, 1)].weight == 4


def test_mwpg_triangle_loop_check():
    matrix = matrix_from_weights(3, {(0, 1): 5, (1, 2): 4, (0, 2): 3})
    path = generate_mwpg(matrix)
    assert set(path.edges) == {(0, 1), (1, 2)}


def test_mwpg_degree_cap():
    star = {(0, q): 1 for q in range(1, 5)}
    matrix = matrix_from_weights(5, star)
    path = generate_mwpg(matrix)
    assert set(path.edges) == {(0, 1), (0, 2)}  # lexicographic tie-break


def test_mwpg_determinism_and_invariants():
    rng = random.Random(11)
    for _ in range(60):
        matrix = random_weighted_matrix(rng)
        first = generate_mwpg(matrix)
        second = generate_mwpg(matrix)
        assert first.edges == second.edges
        assert all(len(nbs) <= 2 for nbs in first.adjacency().values())
        # acyclic: every component has |edges| = |nodes| - 1
        for members in first.components():
            inside = [p for p in first.edges if p[0] in members and p[1] in members]
            assert len(inside) == len(members) - 1


def test_mwpg_dominance_replay():
    rng = random.Random(23)
    for _ in range(30):
        matrix = random_weighted_matrix(rng, max_nodes=20)
        path = generate_mwpg(matrix)
        order = sorted(matrix.weights.items(), key=lambda item: (-item[1], item[0]))
        added_so_far = []
        degree = {q: 0 for q in range(matrix.num_qubits)}
        parent = list(range(matrix.num_qubits))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for pair, weight in order:
            a, b = pair
            if degree[a] >= 2 or degree[b] >= 2:
                # degree-rejected edge: every already-kept edge outweighs it
                assert all(kept >= weight for kept in added_so_far)
                assert pair not in path.edges
                continue
            if find(a) == find(b):
                assert pair not in path.edges
                continue
            assert pair in path.edges
            added_so_far.append(weight)
            degree[a] += 1
            degree[b] += 1
            parent[find(a)] = find(b)


# -- join_components ---------------------------------------------------------


def test_join_two_paths_single_synthetic_edge():
    path = PathGraph(4, {(0, 1): PathEdge(2), (2, 3): PathEdge(1)})
    joined = join_components(path)
    synthetic = [p for p, e in joined.edges.items() if e.synthetic]
    assert synthetic == [(0, 2)]
    assert len(joined.components()) == 1
    assert all(len(nbs) <= 2 for nbs in joined.adjacency().values())


def test_join_idempotent_on_connected_path():
    path = PathGraph(3, {(0, 1): PathEdge(1), (1, 2): PathEdge(1)})
    joined = join_components(path)
    assert joined.edges == path.edges


def test_join_three_isolated_nodes():
    joined = join_components(PathGraph(3, {}))
    assert len(joined.edges) == 2
    assert all(e.synthetic and e.weight == 0 for e in joined.edges.values())
    degrees = sorted(len(nbs) for nbs in joined.adjacency().values())
    assert degrees == [1, 1, 2]  # a simple path on 3 nodes


def test_join_is_deterministic():
    path = PathGraph(6, {(1, 4): PathEdge(3)})
    assert join_components(path).edges == join_components(path).edges


def test_join_matches_multi_pass_oracle():
    rng = random.Random(2024)
    for trial in range(1200):
        n = rng.randint(1, 40)
        density = (0.0, 0.02, 0.1, 0.3)[trial % 4]  # 0.0: every node isolated
        weights = {
            (i, j): rng.randint(1, 9)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        }
        path = generate_mwpg(matrix_from_weights(n, weights))
        expected = multi_pass_join(path)
        assert list(join_components(path).edges.items()) == list(expected.edges.items())
    empty = PathGraph(0, {})
    assert join_components(empty).edges == multi_pass_join(empty).edges == {}


# -- choose_grid_dims --------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(6, (2, 3)), (1, (1, 1)), (33, (6, 6)), (2, (1, 2)), (10, (3, 4))])
def test_grid_dims(n, expected):
    assert choose_grid_dims(n) == expected


def test_grid_dims_rejects_zero():
    with pytest.raises(DegenerateInputError):
        choose_grid_dims(0)


def test_grid_dims_capacity():
    for n in range(1, 110):
        nrow, ncol = choose_grid_dims(n)
        assert nrow * ncol >= n


# -- place_on_grid -----------------------------------------------------------


def chain(nodes):
    edges = {}
    for a, b in zip(nodes, nodes[1:]):
        edges[(min(a, b), max(a, b))] = PathEdge(1)
    return PathGraph(len(nodes), edges)


def test_place_serpentine_forced_positions():
    # path a-b-c-d with a=0 < d=3: row 0 left-to-right, row 1 reversed
    layout = place_on_grid(chain([0, 1, 2, 3]), 2, 2)
    assert layout.pos == {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}


def test_place_starts_at_smaller_endpoint():
    layout = place_on_grid(chain([2, 0, 1]), 2, 2)
    # endpoints are 2 and 1; the walk starts at 1
    assert layout.pos[1] == (0, 0)
    assert layout.pos[0] == (0, 1)
    assert layout.pos[2] == (1, 1)


def test_place_capacity_error():
    with pytest.raises(DegenerateInputError):
        place_on_grid(chain([0, 1, 2, 3, 4]), 2, 2)


def test_place_first_column_pair_is_grid_adjacent():
    layout = place_on_grid(chain([3, 1, 0, 2, 5, 4]), 2, 3)
    cells = layout.cells()
    (r1, c1), (r2, c2) = (0, 0), (1, 0)
    assert cells[(r1, c1)] is not None and cells[(r2, c2)] is not None
    assert abs(r1 - r2) + abs(c1 - c2) == 1


@pytest.mark.parametrize("seed", range(12))
def test_every_path_edge_lands_grid_adjacent(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 36)
    nodes = list(range(n))
    rng.shuffle(nodes)
    path = chain(nodes)
    nrow, ncol = choose_grid_dims(n)
    layout = place_on_grid(path, nrow, ncol)
    for a, b in path.edges:
        (r1, c1), (r2, c2) = layout.pos[a], layout.pos[b]
        assert abs(r1 - r2) + abs(c1 - c2) == 1  # orthogonal neighbors


# -- connect_adjacent / connect_diagonals ------------------------------------


def test_adjacent_no_extra_correlations():
    matrix = matrix_from_weights(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    path = join_components(generate_mwpg(matrix))
    layout = place_on_grid(path, 2, 2)
    grid = connect_adjacent(layout, path, matrix)
    assert set(grid.edges) == set(path.edges)


def test_adjacent_adds_correlated_vertical_pair():
    # path 0-1-2-3 on a 2x2 grid; (0,3) are vertically adjacent off-path
    weights = {(0, 1): 3, (1, 2): 2, (2, 3): 2, (0, 3): 1}
    matrix = matrix_from_weights(4, weights)
    path = join_components(generate_mwpg(matrix))
    layout = place_on_grid(path, 2, 2)
    grid = connect_adjacent(layout, path, matrix)
    assert grid.edges[(0, 3)].kind == "adjacent"
    assert grid.edges[(0, 3)].weight == 1


def test_adjacent_does_not_duplicate_path_edges():
    weights = {(0, 1): 2, (1, 2): 1}
    matrix = matrix_from_weights(3, weights)
    path = join_components(generate_mwpg(matrix))
    layout = place_on_grid(path, 2, 2)
    grid = connect_adjacent(layout, path, matrix)
    assert grid.edges[(0, 1)].kind == "path"


def hand_layout():
    """Fixed 2x3 layout mirroring the walkthrough positions:
    row 0: q4 q2 q1 / row 1: q5 q6 q3 (0-based: 3 1 0 / 4 5 2)."""
    pos = {3: (0, 0), 1: (0, 1), 0: (0, 2), 4: (1, 0), 5: (1, 1), 2: (1, 2)}
    return GridLayout(2, 3, pos)


def test_diagonal_candidates_on_hand_layout():
    # with q2 at (0,1), q5 at (1,0), q3 at (1,2): both lower diagonals exist
    layout = hand_layout()
    path = PathGraph(6, {})
    weights = {(1, 4): 1, (1, 2): 1}
    matrix = CorrelationMatrix(6, weights)
    grid = connect_adjacent(layout, path, matrix)
    grid = connect_diagonals(grid, matrix)
    assert grid.edges[(1, 4)].kind == "diagonal"  # q2 with its lower-left q5
    assert grid.edges[(1, 2)].kind == "diagonal"  # q2 with its lower-right q3
    assert len(grid.edges) == 2


def test_diagonal_left_border_has_no_lower_left():
    layout = hand_layout()
    path = PathGraph(6, {})
    # q4 at (0,0) correlated with everything: only its lower-right can form
    matrix = CorrelationMatrix(6, {(3, q): 1 for q in (0, 1, 2, 4, 5)})
    grid = connect_diagonals(connect_adjacent(layout, path, matrix), matrix)
    diagonals = [p for p, e in grid.edges.items() if e.kind == "diagonal"]
    assert diagonals == [(3, 5)]  # (0,0) -> (1,1) only


def test_uncorrelated_diagonal_not_added():
    layout = hand_layout()
    path = PathGraph(6, {})
    matrix = CorrelationMatrix(6, {(1, 4): 1})  # (1,2) is NOT correlated
    grid = connect_diagonals(connect_adjacent(layout, path, matrix), matrix)
    assert (1, 2) not in grid.edges


# -- partition / prune -------------------------------------------------------


def diagonal_grid(nrow, ncol):
    """Fully-occupied grid with every diagonal correlated and present."""
    n = nrow * ncol
    pos = {}
    for idx in range(n):
        r, offset = divmod(idx, ncol)
        c = offset if r % 2 == 0 else ncol - 1 - offset
        pos[idx] = (r, c)
    layout = GridLayout(nrow, ncol, pos)
    cells = layout.cells()
    weights = {}
    for r in range(nrow - 1):
        for c in range(ncol - 1):
            a, b = cells[(r, c)], cells[(r + 1, c + 1)]
            weights[(min(a, b), max(a, b))] = 1
            a, b = cells[(r, c + 1)], cells[(r + 1, c)]
            weights[(min(a, b), max(a, b))] = 1
    matrix = CorrelationMatrix(n, dict(sorted(weights.items())))
    grid = connect_adjacent(layout, PathGraph(n, {}), matrix)
    return connect_diagonals(grid, matrix)


def test_partition_single_cell_both_diagonals_in_g1():
    layout = GridLayout(2, 2, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    matrix = CorrelationMatrix(4, {(0, 3): 2, (1, 2): 3})
    grid = connect_diagonals(connect_adjacent(layout, PathGraph(4, {}), matrix), matrix)
    part = partition_diagonals(grid)
    assert set(part.g1) == {(0, 3), (1, 2)}
    assert part.g1_weight == 5
    assert part.g2 == () and part.g2_weight == 0


def test_partition_2x3_cells_alternate():
    grid = diagonal_grid(2, 3)
    part = partition_diagonals(grid)
    layout = grid.layout
    cells = layout.cells()
    cell0 = {cells[(0, 0)], cells[(1, 1)]}, {cells[(0, 1)], cells[(1, 0)]}
    for pair in part.g1:
        assert set(pair) in cell0  # cell (0,0) is group 1
    assert len(part.g1) == 2 and len(part.g2) == 2


@pytest.mark.parametrize("nrow,ncol", [(r, c) for r in range(2, 7) for c in range(2, 7)])
def test_partition_matches_brute_force_enumeration(nrow, ncol):
    grid = diagonal_grid(nrow, ncol)
    part = partition_diagonals(grid)
    group1, group2 = brute_force_diagonal_groups(grid)
    assert set(part.g1) == group1
    assert set(part.g2) == group2


def test_prune_removes_lighter_group():
    layout = GridLayout(2, 3, {q: rc for q, rc in enumerate(
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])})
    weights = {(0, 4): 4, (1, 3): 3, (1, 5): 2, (2, 4): 2}
    matrix = CorrelationMatrix(6, weights)
    grid = connect_diagonals(connect_adjacent(layout, PathGraph(6, {}), matrix), matrix)
    part = partition_diagonals(grid)
    assert (part.g1_weight, part.g2_weight) == (7, 4)
    pruned = prune_diagonals(grid, part)
    assert set(pruned.edges) == set(part.g1)


def test_prune_without_diagonals_is_identity():
    matrix = matrix_from_weights(3, {(0, 1): 1, (1, 2): 1})
    path = join_components(generate_mwpg(matrix))
    layout = place_on_grid(path, 2, 2)
    grid = connect_adjacent(layout, path, matrix)
    part = partition_diagonals(grid)
    assert prune_diagonals(grid, part).edges == grid.edges


def test_prune_tie_drops_group_two():
    layout = GridLayout(2, 3, {q: rc for q, rc in enumerate(
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])})
    weights = {(0, 4): 2, (1, 3): 2, (1, 5): 2, (2, 4): 2}  # G1 = 4, G2 = 4
    matrix = CorrelationMatrix(6, weights)
    grid = connect_diagonals(connect_adjacent(layout, PathGraph(6, {}), matrix), matrix)
    part = partition_diagonals(grid)
    assert part.g1_weight == part.g2_weight == 4
    pruned = prune_diagonals(grid, part)
    assert set(p for p, e in pruned.edges.items() if e.kind == "diagonal") == set(part.g1)


def test_prune_safety_no_side_sharing_cells():
    for nrow, ncol in [(3, 3), (4, 4), (5, 6)]:
        grid = diagonal_grid(nrow, ncol)
        pruned = prune_diagonals(grid, partition_diagonals(grid))
        layout = pruned.layout
        cells_used = []
        for pair, edge in pruned.edges.items():
            if edge.kind != "diagonal":
                continue
            (r1, c1), (r2, c2) = layout.pos[pair[0]], layout.pos[pair[1]]
            cells_used.append((min(r1, r2), min(c1, c2)))
        for i, a in enumerate(cells_used):
            for b in cells_used[i + 1 :]:
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1


# -- synthesize_topology -----------------------------------------------------


def test_synthesize_single_qubit_circuit():
    topology = synthesize_topology(Circuit(1, (Gate(GateKind.H, (0,)),)))
    assert topology.num_qubits == 1
    assert topology.edges == ()


def test_synthesize_zero_qubits_degenerate():
    with pytest.raises(DegenerateInputError):
        synthesize_topology(Circuit(0, ()))


def test_synthesize_figure_circuit_frozen_trace(figure_circuit):
    """Frozen end-to-end expectations for the six-qubit walkthrough."""
    matrix = build_correlation(figure_circuit)
    mwpg = generate_mwpg(matrix)
    assert set(mwpg.edges) == {(0, 1), (0, 2), (1, 3), (2, 5)}
    joined = join_components(mwpg)
    assert [p for p, e in joined.edges.items() if e.synthetic] == [(3, 4)]

    topology = synthesize_topology(figure_circuit)
    assert topology.positions == {
        0: (1, 2), 1: (0, 2), 2: (1, 1), 3: (0, 1), 4: (0, 0), 5: (1, 0),
    }
    assert topology.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 5), (3, 4))
    assert topology.synthetic == frozenset({(3, 4)})
    # the (q4,q6) diagonal candidate (3,5) was eliminated with its group
    assert (3, 5) not in topology.edges


def test_synthesize_drop_synthetic_switch(figure_circuit):
    topology = synthesize_topology(figure_circuit, keep_synthetic=False)
    assert (3, 4) not in topology.edges
    assert topology.synthetic == frozenset()


def test_synthesize_determinism():
    circuit = gen_random_circuit(12, 300, seed=4)
    assert synthesize_topology(circuit) == synthesize_topology(circuit)


def test_synthesize_routability_and_edge_legality():
    for seed in range(6):
        circuit = gen_random_circuit(5 + 3 * seed, 150, seed)
        topology = synthesize_topology(circuit)
        positions = topology.positions
        for a, b in topology.edges:
            (r1, c1), (r2, c2) = positions[a], positions[b]
            assert max(abs(r1 - r2), abs(c1 - c2)) == 1  # Chebyshev distance 1
        # all interacting pairs must live in one connected component
        adjacency = topology.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        interacting = {q for g in circuit.gates if g.is_two_qubit for q in g.qubits}
        assert interacting <= seen


def test_joined_path_is_hamiltonian():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 36)
        weights = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.15:
                    weights[(i, j)] = rng.randint(1, 6)
        matrix = matrix_from_weights(n, weights)
        joined = join_components(generate_mwpg(matrix))
        assert len(joined.edges) == n - 1
        degrees = sorted(len(nbs) for nbs in joined.adjacency().values())
        assert degrees[0] == 1 and degrees[1] == 1
        assert all(d == 2 for d in degrees[2:])
