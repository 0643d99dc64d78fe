"""Correlation-matrix tests, and the unit-time ASAP convention as the router
scores it on a complete graph, where a route inserts no SWAP."""

import pytest

from cacore.analysis import build_correlation
from cacore.bench import gen_random_circuit
from cacore.ir import Circuit, Gate, GateKind
from cacore.routing import route_circuit

from oracles import complete, layered_depth


def cnot(a, b):
    return Gate(GateKind.CNOT, (a, b))


def circuit_metrics(circuit):
    """The route metrics of a zero-SWAP route: the circuit's own ASAP totals."""
    metrics = route_circuit(circuit, complete(circuit.num_qubits)).metrics
    assert metrics.swap_count == 0
    return metrics


def test_weights_count_two_qubit_gates():
    gates = [cnot(2, 3)] * 2 + [cnot(3, 2)] + [cnot(6, 4)] * 2
    matrix = build_correlation(Circuit(7, tuple(gates)))
    assert matrix.weights == {(2, 3): 3, (4, 6): 2}  # stored once per pair, i < j
    assert sum(matrix.weights.values()) == 5


def test_one_qubit_gates_contribute_nothing():
    circuit = Circuit(3, tuple(Gate(GateKind.H, (q,)) for q in range(3)))
    assert build_correlation(circuit).weights == {}


def test_measure_and_barrier_contribute_nothing():
    circuit = Circuit(
        2,
        (Gate(GateKind.MEASURE, (0,)), Gate(GateKind.BARRIER, (0, 1)), cnot(0, 1)),
    )
    assert build_correlation(circuit).weights == {(0, 1): 1}


def test_source_swap_counts_weight_one():
    circuit = Circuit(2, (Gate(GateKind.SWAP, (0, 1)),))
    assert build_correlation(circuit).weights == {(0, 1): 1}


def test_figure_circuit_total_weight(figure_circuit):
    matrix = build_correlation(figure_circuit)
    assert sum(matrix.weights.values()) == 8
    assert matrix.weights == {
        (0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1, (3, 5): 1,
    }


def test_interaction_graph_includes_isolated_nodes():
    # the matrix is the interaction graph: one node per qubit, isolated ones included
    matrix = build_correlation(Circuit(4, ()))
    assert matrix.num_qubits == 4
    assert matrix.weights == {}


def test_interaction_graph_single_edge():
    circuit = Circuit(2, tuple([cnot(0, 1)] * 5))
    assert build_correlation(circuit).weights == {(0, 1): 5}


def test_figure_interaction_graph_edge_count(figure_circuit):
    matrix = build_correlation(figure_circuit)
    # distinct interacting pairs, enumerated from the transcription by hand
    assert len(matrix.weights) == 7


def test_permutation_equivariance():
    circuit = gen_random_circuit(7, 80, seed=5)
    perm = [3, 6, 0, 2, 5, 1, 4]
    permuted = Circuit(
        7,
        tuple(
            Gate(g.kind, tuple(perm[q] for q in g.qubits), g.param) for g in circuit.gates
        ),
    )
    base = build_correlation(circuit)
    mapped = build_correlation(permuted)
    assert mapped.weights == {
        tuple(sorted((perm[i], perm[j]))): w for (i, j), w in base.weights.items()
    }
    assert sum(mapped.weights.values()) == sum(base.weights.values())


def test_adding_one_cnot_increments_exactly_one_entry():
    circuit = gen_random_circuit(6, 40, seed=9)
    extended = Circuit(6, circuit.gates + (cnot(1, 4),))
    before = build_correlation(circuit)
    after = build_correlation(extended)
    expected = dict(before.weights)
    expected[(1, 4)] = expected.get((1, 4), 0) + 1
    assert after.weights == expected


def test_depth_parallel_layer():
    stats = circuit_metrics(Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,)))))
    assert stats.depth == 1
    assert stats.total_gates == 2


def test_depth_shared_qubit_forces_sequence():
    stats = circuit_metrics(Circuit(3, (cnot(0, 1), cnot(1, 2))))
    assert stats.depth == 2


def test_swap_counts_one_step():
    stats = circuit_metrics(Circuit(2, (Gate(GateKind.SWAP, (0, 1)), cnot(0, 1))))
    assert stats.depth == 2
    assert stats.total_swap_gates == 1  # the source SWAP; none inserted
    assert stats.two_qubit_gates == 2


def test_barrier_synchronizes_without_depth():
    gates = (
        Gate(GateKind.H, (0,)),
        Gate(GateKind.BARRIER, (0, 1)),
        Gate(GateKind.H, (1,)),
    )
    # barrier pushes qubit 1 behind qubit 0's gate: depth 2, not 1
    assert circuit_metrics(Circuit(2, gates)).depth == 2


def test_measure_excluded_from_stats():
    gates = (Gate(GateKind.H, (0,)), Gate(GateKind.MEASURE, (0,)))
    stats = circuit_metrics(Circuit(1, gates))
    assert stats.depth == 1
    assert stats.total_gates == 1


@pytest.mark.parametrize("seed", range(10))
def test_depth_matches_layered_oracle(seed):
    circuit = gen_random_circuit(6 + seed % 5, 150, seed)
    assert circuit_metrics(circuit).depth == layered_depth(circuit)


def test_depth_bounds():
    for seed in range(5):
        circuit = gen_random_circuit(8, 100, seed)
        stats = circuit_metrics(circuit)
        per_qubit = {}
        for gate in circuit.gates:
            for q in gate.qubits:
                per_qubit[q] = per_qubit.get(q, 0) + 1
        assert stats.depth <= stats.total_gates
        assert stats.depth >= max(per_qubit.values())
