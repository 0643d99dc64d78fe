"""Synthesis pipeline tests: path graph, placement, diagonals, pruning."""

import random

import pytest

from cacore.analysis import CorrelationMatrix, build_correlation
from cacore.bench import gen_random_circuit
from cacore.errors import DegenerateInputError
from cacore.ir import TWO_QUBIT_KINDS, Circuit, Gate, GateKind
from cacore.qasm import parse_qasm_file
from cacore.synthesis import (
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

from conftest import DATA_DIR
from oracles import (
    brute_force_diagonal_groups,
    components,
    degrees,
    is_diagonal,
    multi_pass_join,
    reference_correlation,
    reference_mwpg,
    reference_synthesize,
)


def matrix_from_weights(num_qubits, weights):
    return CorrelationMatrix(num_qubits, dict(sorted(weights.items())))


def random_weighted_matrix(rng, max_nodes=36, density=0.25):
    n = rng.randint(2, max_nodes)
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                weights[(i, j)] = rng.randint(1, 9)
    return matrix_from_weights(n, weights)


# -- generate_mwpg -----------------------------------------------------------


def test_mwpg_single_edge():
    matrix = matrix_from_weights(2, {(0, 1): 4})
    path = generate_mwpg(matrix)
    assert set(path) == {(0, 1)}
    assert path[(0, 1)] == 4


def test_mwpg_triangle_loop_check():
    matrix = matrix_from_weights(3, {(0, 1): 5, (1, 2): 4, (0, 2): 3})
    path = generate_mwpg(matrix)
    assert set(path) == {(0, 1), (1, 2)}


def test_mwpg_degree_cap():
    star = {(0, q): 1 for q in range(1, 5)}
    matrix = matrix_from_weights(5, star)
    path = generate_mwpg(matrix)
    assert set(path) == {(0, 1), (0, 2)}  # lexicographic tie-break


def test_mwpg_determinism_and_invariants():
    rng = random.Random(11)
    for _ in range(60):
        matrix = random_weighted_matrix(rng)
        first = generate_mwpg(matrix)
        second = generate_mwpg(matrix)
        assert first == second
        assert all(d <= 2 for d in degrees(matrix.num_qubits, first))
        # acyclic: every component has |edges| = |nodes| - 1
        for members in components(matrix.num_qubits, first):
            inside = [p for p in first if p[0] in members and p[1] in members]
            assert len(inside) == len(members) - 1


def test_mwpg_dominance_replay():
    rng = random.Random(23)
    for trial in range(300):
        # sparse and dense graphs up to 40 nodes: long fragments whose two
        # ends are later offered as a cycle-closing candidate
        matrix = random_weighted_matrix(rng, max_nodes=40, density=(0.05, 0.1, 0.25, 0.6)[trial % 4])
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
                assert pair not in path
                continue
            if find(a) == find(b):
                assert pair not in path
                continue
            assert pair in path
            added_so_far.append(weight)
            degree[a] += 1
            degree[b] += 1
            parent[find(a)] = find(b)


def test_mwpg_does_not_depend_on_the_insertion_order_of_the_weights():
    rng = random.Random(31)
    for trial in range(300):
        # weights 1..3 tie heavily, so the pair order decides most of the scan
        n = rng.randint(2, 40)
        density = (0.05, 0.1, 0.25, 0.6)[trial % 4]
        weights = {
            (i, j): rng.randint(1, 3)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        }
        items = list(weights.items())
        rng.shuffle(items)
        shuffled = CorrelationMatrix(n, dict(items))
        expected = list(reference_mwpg(shuffled).items())
        assert list(generate_mwpg(shuffled).items()) == expected
        assert list(generate_mwpg(matrix_from_weights(n, weights)).items()) == expected


# -- join_components ---------------------------------------------------------


def test_join_two_paths_single_synthetic_edge():
    path = {(0, 1): 2, (2, 3): 1}
    joined = join_components(4, path)
    synthetic = [p for p, w in joined.items() if w == 0]
    assert synthetic == [(0, 2)]
    assert len(components(4, joined)) == 1
    assert all(d <= 2 for d in degrees(4, joined))


def test_join_idempotent_on_connected_path():
    path = {(0, 1): 1, (1, 2): 1}
    joined = join_components(3, path)
    assert joined == path


def test_join_three_isolated_nodes():
    joined = join_components(3, {})
    assert len(joined) == 2
    assert all(w == 0 for w in joined.values())
    assert sorted(degrees(3, joined)) == [1, 1, 2]  # a simple path on 3 nodes


def test_join_is_deterministic():
    path = {(1, 4): 3}
    assert join_components(6, path) == join_components(6, path)


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
        expected = multi_pass_join(n, path)
        assert list(join_components(n, path).items()) == list(expected.items())
    assert join_components(0, {}) == multi_pass_join(0, {}) == {}


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
    return {(min(a, b), max(a, b)): 1 for a, b in zip(nodes, nodes[1:])}


def test_place_serpentine_forced_positions():
    # path a-b-c-d with a=0 < d=3: row 0 left-to-right, row 1 reversed
    positions = place_on_grid(4, chain([0, 1, 2, 3]), 2, 2)
    assert positions == {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}


def test_place_starts_at_smaller_endpoint():
    positions = place_on_grid(3, chain([2, 0, 1]), 2, 2)
    # endpoints are 2 and 1; the walk starts at 1
    assert positions[1] == (0, 0)
    assert positions[0] == (0, 1)
    assert positions[2] == (1, 1)


@pytest.mark.parametrize("nrow, ncol", [(0, 0), (1, 1)])
def test_place_no_qubits_on_any_grid(nrow, ncol):
    assert place_on_grid(0, {}, nrow, ncol) == {}


def test_place_capacity_error():
    with pytest.raises(DegenerateInputError):
        place_on_grid(5, chain([0, 1, 2, 3, 4]), 2, 2)


@pytest.mark.parametrize("path", [{**chain([0, 1]), **chain([2, 3])}, chain([0, 1, 2, 3, 0])])
def test_place_rejects_a_path_that_is_not_connected(path):
    # two pieces, or a cycle with no end to start from
    with pytest.raises(ValueError, match="requires a connected path graph"):
        place_on_grid(4, path, 2, 2)


def test_place_first_column_pair_is_grid_adjacent():
    positions = place_on_grid(6, chain([3, 1, 0, 2, 5, 4]), 2, 3)
    cells = {rc: q for q, rc in positions.items()}
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
    positions = place_on_grid(n, path, nrow, ncol)
    for a, b in path:
        (r1, c1), (r2, c2) = positions[a], positions[b]
        assert abs(r1 - r2) + abs(c1 - c2) == 1  # orthogonal neighbors


# -- connect_adjacent / connect_diagonals ------------------------------------


def test_adjacent_no_extra_correlations():
    matrix = matrix_from_weights(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    path = join_components(4, generate_mwpg(matrix))
    positions = place_on_grid(4, path, 2, 2)
    grid = connect_adjacent(positions, path, matrix)
    assert set(grid) == set(path)


def test_adjacent_adds_correlated_vertical_pair():
    # path 0-1-2-3 on a 2x2 grid; (0,3) are vertically adjacent off-path
    weights = {(0, 1): 3, (1, 2): 2, (2, 3): 2, (0, 3): 1}
    matrix = matrix_from_weights(4, weights)
    path = join_components(4, generate_mwpg(matrix))
    positions = place_on_grid(4, path, 2, 2)
    grid = connect_adjacent(positions, path, matrix)
    assert (0, 3) not in path and not is_diagonal(positions, (0, 3))  # an adjacent coupler
    assert grid[(0, 3)] == 1


def test_adjacent_does_not_duplicate_path_edges():
    weights = {(0, 1): 2, (1, 2): 1}
    matrix = matrix_from_weights(3, weights)
    path = join_components(3, generate_mwpg(matrix))
    positions = place_on_grid(3, path, 2, 2)
    grid = connect_adjacent(positions, path, matrix)
    assert (0, 1) in path and grid[(0, 1)] == path[(0, 1)]


def hand_layout():
    """Fixed 2x3 layout mirroring the walkthrough positions:
    row 0: q4 q2 q1 / row 1: q5 q6 q3 (0-based: 3 1 0 / 4 5 2)."""
    return {3: (0, 0), 1: (0, 1), 0: (0, 2), 4: (1, 0), 5: (1, 1), 2: (1, 2)}


def test_diagonal_candidates_on_hand_layout():
    # with q2 at (0,1), q5 at (1,0), q3 at (1,2): both lower diagonals exist
    positions = hand_layout()
    weights = {(1, 4): 1, (1, 2): 1}
    matrix = CorrelationMatrix(6, weights)
    grid = connect_adjacent(positions, {}, matrix)
    grid = connect_diagonals(positions, grid, matrix)
    assert (1, 4) in grid and is_diagonal(positions, (1, 4))  # q2 with its lower-left q5
    assert (1, 2) in grid and is_diagonal(positions, (1, 2))  # q2 with its lower-right q3
    assert len(grid) == 2


def test_diagonal_left_border_has_no_lower_left():
    positions = hand_layout()
    # q4 at (0,0) correlated with everything: only its lower-right can form
    matrix = CorrelationMatrix(6, {(3, q): 1 for q in (0, 1, 2, 4, 5)})
    grid = connect_diagonals(positions, connect_adjacent(positions, {}, matrix), matrix)
    diagonals = [p for p in grid if is_diagonal(positions, p)]
    assert diagonals == [(3, 5)]  # (0,0) -> (1,1) only


def test_uncorrelated_diagonal_not_added():
    positions = hand_layout()
    matrix = CorrelationMatrix(6, {(1, 4): 1})  # (1,2) is NOT correlated
    grid = connect_diagonals(positions, connect_adjacent(positions, {}, matrix), matrix)
    assert (1, 2) not in grid


# -- partition / prune -------------------------------------------------------


def diagonal_grid(nrow, ncol):
    """Fully-occupied grid with every diagonal correlated and present,
    as (positions, couplers)."""
    n = nrow * ncol
    positions = {}
    for idx in range(n):
        r, offset = divmod(idx, ncol)
        c = offset if r % 2 == 0 else ncol - 1 - offset
        positions[idx] = (r, c)
    cells = {rc: q for q, rc in positions.items()}
    weights = {}
    for r in range(nrow - 1):
        for c in range(ncol - 1):
            a, b = cells[(r, c)], cells[(r + 1, c + 1)]
            weights[(min(a, b), max(a, b))] = 1
            a, b = cells[(r, c + 1)], cells[(r + 1, c)]
            weights[(min(a, b), max(a, b))] = 1
    matrix = CorrelationMatrix(n, dict(sorted(weights.items())))
    grid = connect_adjacent(positions, {}, matrix)
    return positions, connect_diagonals(positions, grid, matrix)


def test_partition_single_cell_both_diagonals_in_g1():
    positions = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    matrix = CorrelationMatrix(4, {(0, 3): 2, (1, 2): 3})
    grid = connect_diagonals(positions, connect_adjacent(positions, {}, matrix), matrix)
    g1, g2 = partition_diagonals(positions, grid)
    assert set(g1) == {(0, 3), (1, 2)}
    assert sum(g1.values()) == 5
    assert g2 == {} and sum(g2.values()) == 0


def test_partition_2x3_cells_alternate():
    positions, grid = diagonal_grid(2, 3)
    g1, g2 = partition_diagonals(positions, grid)
    cells = {rc: q for q, rc in positions.items()}
    cell0 = {cells[(0, 0)], cells[(1, 1)]}, {cells[(0, 1)], cells[(1, 0)]}
    for pair in g1:
        assert set(pair) in cell0  # cell (0,0) is group 1
    assert len(g1) == 2 and len(g2) == 2


@pytest.mark.parametrize("nrow,ncol", [(r, c) for r in range(2, 7) for c in range(2, 7)])
def test_partition_matches_brute_force_enumeration(nrow, ncol):
    positions, grid = diagonal_grid(nrow, ncol)
    g1, g2 = partition_diagonals(positions, grid)
    group1, group2 = brute_force_diagonal_groups(positions, grid)
    assert set(g1) == group1
    assert set(g2) == group2


def test_prune_removes_lighter_group():
    positions = {q: rc for q, rc in enumerate(
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])}
    weights = {(0, 4): 4, (1, 3): 3, (1, 5): 2, (2, 4): 2}
    matrix = CorrelationMatrix(6, weights)
    grid = connect_diagonals(positions, connect_adjacent(positions, {}, matrix), matrix)
    g1, g2 = partition_diagonals(positions, grid)
    assert (sum(g1.values()), sum(g2.values())) == (7, 4)
    pruned = prune_diagonals(grid, (g1, g2))
    assert set(pruned) == set(g1)


def test_prune_without_diagonals_is_identity():
    matrix = matrix_from_weights(3, {(0, 1): 1, (1, 2): 1})
    path = join_components(3, generate_mwpg(matrix))
    positions = place_on_grid(3, path, 2, 2)
    grid = connect_adjacent(positions, path, matrix)
    groups = partition_diagonals(positions, grid)
    assert prune_diagonals(grid, groups) == grid


def test_prune_tie_drops_group_two():
    positions = {q: rc for q, rc in enumerate(
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])}
    weights = {(0, 4): 2, (1, 3): 2, (1, 5): 2, (2, 4): 2}  # G1 = 4, G2 = 4
    matrix = CorrelationMatrix(6, weights)
    grid = connect_diagonals(positions, connect_adjacent(positions, {}, matrix), matrix)
    g1, g2 = partition_diagonals(positions, grid)
    assert sum(g1.values()) == sum(g2.values()) == 4
    pruned = prune_diagonals(grid, (g1, g2))
    assert set(p for p in pruned if is_diagonal(positions, p)) == set(g1)


def test_prune_safety_no_side_sharing_cells():
    for nrow, ncol in [(3, 3), (4, 4), (5, 6)]:
        positions, grid = diagonal_grid(nrow, ncol)
        pruned = prune_diagonals(grid, partition_diagonals(positions, grid))
        cells_used = []
        for pair in pruned:
            if not is_diagonal(positions, pair):
                continue
            (r1, c1), (r2, c2) = positions[pair[0]], positions[pair[1]]
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


@pytest.mark.parametrize("q", [-1, 3])
def test_synthesize_rejects_out_of_range_logical_qubit(q):
    # -1 would wrap around through list indexing; 3 would index past the degree list.
    # Such a circuit fails where it is built, so neither synthesis nor run_comparison reads one.
    message = f"^logical qubit {q} out of range for 3-qubit circuit 'circuit'$"
    with pytest.raises(DegenerateInputError, match=message):
        Circuit(3, (Gate(GateKind.H, (q,)), Gate(GateKind.CNOT, (q, 0))))


@pytest.mark.parametrize("q", [-1, 3])
def test_synthesize_rejects_a_stray_one_qubit_gate(q):
    # every two-qubit gate is in range, so only the one-qubit gate is at fault
    message = f"^logical qubit {q} out of range for 3-qubit circuit 'circuit'$"
    with pytest.raises(DegenerateInputError, match=message):
        Circuit(3, (Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.H, (q,))))


def test_synthesize_figure_circuit_frozen_trace(figure_circuit):
    """Frozen end-to-end expectations for the six-qubit walkthrough."""
    matrix = build_correlation(figure_circuit)
    mwpg = generate_mwpg(matrix)
    assert set(mwpg) == {(0, 1), (0, 2), (1, 3), (2, 5)}
    joined = join_components(6, mwpg)
    assert [p for p, w in joined.items() if w == 0] == [(3, 4)]

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
        interacting = {q for g in circuit.gates if g.kind in TWO_QUBIT_KINDS for q in g.qubits}
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
        joined = join_components(n, generate_mwpg(matrix))
        assert len(joined) == n - 1
        counts = sorted(degrees(n, joined))
        assert counts[0] == 1 and counts[1] == 1
        assert all(d == 2 for d in counts[2:])


def _hand_built_circuits():
    """What no generated or bundled circuit holds: source SWAPs beside CNOTs on
    both orientations of one pair, two-qubit barriers (which count nothing), and
    pairs on the highest qubit, whose codes a * n + b reach n * n - 1."""
    cx, swap, barrier = GateKind.CNOT, GateKind.SWAP, GateKind.BARRIER
    circuits = [
        Circuit(2, (Gate(swap, (1, 0)), Gate(cx, (0, 1)), Gate(barrier, (0, 1)), Gate(cx, (1, 0))), "pair"),
        Circuit(
            5,
            (
                Gate(swap, (4, 3)), Gate(cx, (3, 4)), Gate(barrier, (0, 4)), Gate(cx, (4, 0)),
                Gate(swap, (0, 4)), Gate(GateKind.H, (4,)), Gate(barrier, (2, 1)), Gate(cx, (1, 2)),
                Gate(swap, (4, 3)), Gate(barrier, (0, 1, 2, 3, 4)), Gate(GateKind.MEASURE, (4,)),
            ),
            "highest",
        ),
    ]
    rng = random.Random(39)
    for n in (3, 6, 11, 33, 40):
        gates = []
        for _ in range(6 * n):
            a = n - 1 if rng.random() < 0.3 else rng.randrange(n - 1)
            b = rng.choice([q for q in range(n) if q != a])
            gates.append(Gate(rng.choice((cx, swap, barrier)), (a, b) if rng.random() < 0.5 else (b, a)))
        circuits.append(Circuit(n, tuple(gates), f"mixed{n}"))
    return circuits


def _synthesis_corpus():
    """Random circuits of 2..40 qubits at 1, 10, 100 and 2000 gates, four
    seeds each, every bundled circuit and the hand-built ones."""
    circuits = [
        gen_random_circuit(n, gates, seed)
        for n in range(2, 41)
        for gates in (1, 10, 100, 2000)
        for seed in range(4)
    ]
    bundled = [parse_qasm_file(path) for path in sorted(DATA_DIR.glob("*.qasm"))]
    return circuits + bundled + _hand_built_circuits()


def test_synthesis_matches_the_reference_pipeline():
    for circuit in _synthesis_corpus():
        expected = reference_correlation(circuit).weights
        assert list(build_correlation(circuit).weights.items()) == list(expected.items())
        for keep_synthetic in (True, False):
            topology = synthesize_topology(circuit, keep_synthetic=keep_synthetic)
            reference = reference_synthesize(circuit, keep_synthetic=keep_synthetic)
            assert topology == reference, circuit.name
            assert list(topology.positions.items()) == list(reference.positions.items())
