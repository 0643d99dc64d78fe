"""Router tests: trivial layout, SWAP insertion, verification, metrics."""

import math
import random

import pytest

from cacore.analysis import circuit_stats
from cacore.bench import gen_random_circuit
from cacore.errors import DegenerateInputError, UnroutableGateError
from cacore.ir import PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind
from cacore.qasm import parse_qasm, to_qasm
from cacore.routing import (
    RouteMetrics,
    RoutingResult,
    route_circuit,
    trivial_layout,
    verify_routing,
)
from cacore.synthesis import synthesize_topology
from cacore.topology import Topology, builtin_topology


def cnot(a, b):
    return Gate(GateKind.CNOT, (a, b))


def test_trivial_layout_identity():
    layout = trivial_layout(3, 5)
    assert layout.log_to_phys == [0, 1, 2]
    assert layout.phys_to_log == [0, 1, 2, None, None]


def test_trivial_layout_single_qubit():
    assert trivial_layout(1, 1).log_to_phys == [0]


def test_trivial_layout_capacity():
    with pytest.raises(DegenerateInputError):
        trivial_layout(4, 3)


def test_compatible_circuit_needs_no_swaps():
    circuit = Circuit(3, (cnot(0, 1), cnot(1, 2)))
    result = route_circuit(circuit, builtin_topology("line(3)"))
    assert result.metrics.swap_count == 0
    assert result.routed.gates == circuit.gates


def test_cnot_0_2_on_line3_inserts_one_swap():
    circuit = Circuit(3, (cnot(0, 2),))
    result = route_circuit(circuit, builtin_topology("line(3)"))
    assert result.metrics.swap_count == 1
    assert result.routed.gates[0] == Gate(GateKind.SWAP, (0, 1))
    assert result.routed.gates[1] == cnot(1, 2)
    assert verify_routing(circuit, result, builtin_topology("line(3)"))


def test_bfs_prefers_lexicographically_smallest_path():
    # two shortest routes 0-1-3 and 0-2-3; the router must take 0-1-3
    diamond = Topology("diamond", 4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    result = route_circuit(Circuit(4, (cnot(0, 3),)), diamond)
    assert result.routed.gates[0] == Gate(GateKind.SWAP, (0, 1))


def test_unroutable_gate_on_disconnected_topology():
    split = Topology("split", 4, ((0, 1), (2, 3)))
    with pytest.raises(UnroutableGateError):
        route_circuit(Circuit(4, (cnot(0, 3),)), split)


@pytest.mark.parametrize("q", [-1, 3])
def test_out_of_range_logical_qubit_is_rejected(q):
    # -1 would wrap around through list indexing; 3 would index past the layout
    circuit = Circuit(3, (Gate(GateKind.H, (q,)), cnot(q, 0)))
    with pytest.raises(DegenerateInputError, match=f"logical qubit {q} out of range"):
        route_circuit(circuit, builtin_topology("line(3)"))


def test_one_qubit_gates_emitted_on_current_physical():
    circuit = Circuit(3, (cnot(0, 2), Gate(GateKind.H, (0,))))
    result = route_circuit(circuit, builtin_topology("line(3)"))
    # after SWAP(0,1) logical 0 sits on physical 1
    assert result.routed.gates[-1] == Gate(GateKind.H, (1,))
    assert verify_routing(circuit, result, builtin_topology("line(3)"))


def test_barrier_and_measure_are_remapped_and_preserved():
    circuit = Circuit(
        3,
        (cnot(0, 2), Gate(GateKind.BARRIER, (0, 1, 2)), Gate(GateKind.MEASURE, (0,))),
    )
    topology = builtin_topology("line(3)")
    result = route_circuit(circuit, topology)
    kinds = [g.kind for g in result.routed.gates]
    assert GateKind.BARRIER in kinds and GateKind.MEASURE in kinds
    assert verify_routing(circuit, result, topology)


def test_verify_rejects_deleted_swap():
    circuit = Circuit(3, (cnot(0, 2),))
    topology = builtin_topology("line(3)")
    result = route_circuit(circuit, topology)
    tampered = RoutingResult(
        routed=Circuit(3, result.routed.gates[1:], result.routed.name),
        final_layout=result.final_layout,
        inserted=(),
        metrics=result.metrics,
    )
    assert not verify_routing(circuit, tampered, topology)


def test_verify_rejects_wrong_logical_operands():
    circuit = Circuit(2, (cnot(0, 1),))
    topology = builtin_topology("line(3)")
    swapped = RoutingResult(
        routed=Circuit(3, (cnot(1, 0),)),
        final_layout=trivial_layout(2, 3),
        inserted=(),
        metrics=route_circuit(circuit, topology).metrics,
    )
    assert not verify_routing(circuit, swapped, topology)


def test_metrics_equal_source_stats_when_no_swaps_needed():
    circuit = gen_random_circuit(6, 80, seed=1)
    result = route_circuit(circuit, builtin_topology("grid(6,6)"))
    if result.metrics.swap_count == 0:
        stats = circuit_stats(circuit)
        assert result.metrics.depth == stats.depth
        assert result.metrics.total_gates == stats.total_gates
        assert result.metrics.two_qubit_gates == stats.two_qubit_gates
    # all-to-all-ish case: force a guaranteed zero-swap route
    line = Circuit(4, (cnot(0, 1), cnot(1, 2), cnot(2, 3)))
    res = route_circuit(line, builtin_topology("line(4)"))
    assert res.metrics.swap_count == 0
    assert res.metrics.as_dict() | {"swap_count": 0} == {
        **circuit_stats(line).as_dict(),
        "total_swap_gates": 0,
        "swap_count": 0,
    }


def test_one_inserted_swap_adds_one_gate():
    circuit = Circuit(3, (cnot(0, 2),))
    result = route_circuit(circuit, builtin_topology("line(3)"))
    assert result.metrics.total_gates == circuit_stats(circuit).total_gates + 1


def test_routed_metrics_recomputes_identically():
    circuit = gen_random_circuit(8, 150, seed=3)
    result = route_circuit(circuit, builtin_topology("line(8)"))
    stats = circuit_stats(result.routed)
    assert result.metrics == RouteMetrics(
        depth=stats.depth,
        total_gates=stats.total_gates,
        one_qubit_gates=stats.one_qubit_gates,
        two_qubit_gates=stats.two_qubit_gates,
        swap_count=len(result.inserted),
        total_swap_gates=stats.swap_count,
    )


def test_metrics_match_scheduler_oracle_on_routed_circuit():
    from oracles import layered_depth

    for seed in range(5):
        circuit = gen_random_circuit(7, 120, seed)
        result = route_circuit(circuit, builtin_topology("cairo27"))
        assert result.metrics.depth == layered_depth(result.routed)


def test_source_swaps_counted_separately():
    circuit = Circuit(3, (Gate(GateKind.SWAP, (0, 2)),))
    result = route_circuit(circuit, builtin_topology("line(3)"))
    assert result.metrics.swap_count == 1  # one inserted
    assert result.metrics.total_swap_gates == 2  # inserted + source


def test_ca_topology_never_worse_than_line():
    for seed in range(4):
        circuit = gen_random_circuit(8, 150, seed)
        ca = route_circuit(circuit, synthesize_topology(circuit))
        line = route_circuit(circuit, builtin_topology("line(8)"))
        assert ca.metrics.swap_count <= line.metrics.swap_count


def test_monotone_under_edge_addition():
    # adding a chord to a line never increases inserted SWAPs for this router
    for seed in range(4):
        circuit = gen_random_circuit(6, 100, seed)
        base = builtin_topology("line(6)")
        richer = Topology("line+chord", 6, tuple(sorted(base.edges + ((0, 5),))))
        assert (
            route_circuit(circuit, richer).metrics.swap_count
            <= route_circuit(circuit, base).metrics.swap_count
        )


def test_routing_determinism_byte_identical():
    circuit = gen_random_circuit(10, 300, seed=6)
    topology = builtin_topology("cairo27")
    first = route_circuit(circuit, topology)
    second = route_circuit(circuit, topology)
    assert to_qasm(first.routed) == to_qasm(second.routed)
    assert first.inserted == second.inserted
    assert first.metrics == second.metrics


def test_routed_qasm_reparses(tmp_path):
    circuit = gen_random_circuit(6, 60, seed=8)
    result = route_circuit(circuit, builtin_topology("line(6)"))
    text = to_qasm(result.routed)
    assert parse_qasm(text).gates == result.routed.gates


def test_verify_campaign_random_circuits_all_topologies():
    topologies = [builtin_topology(n) for n in
                  ("line(12)", "grid(3,4)", "almaden20", "cairo27", "half_sycamore24")]
    cases = 0
    for seed in range(10):
        circuit = gen_random_circuit(4 + (seed % 7), 60, seed)
        for topology in topologies:
            if circuit.num_qubits > topology.num_qubits:
                continue
            result = route_circuit(circuit, topology)
            assert verify_routing(circuit, result, topology)
            cases += 1
    assert cases >= 40


_RECAST = {
    GateKind.CNOT: GateKind.SWAP,
    GateKind.SWAP: GateKind.CNOT,
    GateKind.RX: GateKind.RY,
    GateKind.RY: GateKind.RZ,
    GateKind.RZ: GateKind.RX,
    GateKind.H: GateKind.X,
    GateKind.X: GateKind.Y,
    GateKind.Y: GateKind.Z,
    GateKind.Z: GateKind.S,
    GateKind.S: GateKind.T,
    GateKind.T: GateKind.MEASURE,
    GateKind.MEASURE: GateKind.H,
}


_ROTATIONS = (GateKind.RX, GateKind.RY, GateKind.RZ)


def _mixed_circuit(n, seed):
    """A random circuit with source SWAPs, rotations (some by 0.0 or -0.0),
    barriers and a measure mixed in."""
    rng = random.Random(seed)
    gates = []
    for gate in gen_random_circuit(n, 60, seed).gates:
        if gate.kind in TWO_QUBIT_KINDS and rng.random() < 0.1:
            gate = Gate(GateKind.SWAP, gate.qubits)
        elif gate.kind not in TWO_QUBIT_KINDS and rng.random() < 0.3:
            angle = rng.choice((0.0, -0.0, rng.uniform(-math.pi, math.pi)))
            gate = Gate(rng.choice(_ROTATIONS), gate.qubits, angle)
        gates.append(gate)
        if rng.random() < 0.03:
            gates.append(Gate(GateKind.BARRIER, tuple(rng.sample(range(n), rng.randint(1, n)))))
    gates.append(Gate(GateKind.MEASURE, (rng.randrange(n),)))
    return Circuit(n, tuple(gates), f"mixed_n{n}_s{seed}")


def _mutate(result, rng):
    """Delete a gate, swap two adjacent gates, toggle an inserted index,
    reverse a gate's operands or change its kind."""
    gates, inserted = list(result.routed.gates), set(result.inserted)
    i = rng.randrange(len(gates) - 1)
    how = rng.randrange(5)
    if how == 0:
        del gates[i]
        inserted = {j - (j > i) for j in inserted if j != i}
    elif how == 1:
        gates[i], gates[i + 1] = gates[i + 1], gates[i]
        inserted = {i + 1 if j == i else i if j == i + 1 else j for j in inserted}
    elif how == 2:
        inserted ^= {i}
    else:
        gate = gates[i]
        kind = _RECAST.get(gate.kind, gate.kind) if how == 4 else gate.kind
        param = gate.param if kind in PARAMETRIC_KINDS else None
        qubits = gate.qubits[::-1] if how == 3 else gate.qubits
        gates[i] = Gate(kind, qubits, param)
    routed = Circuit(result.routed.num_qubits, tuple(gates), result.routed.name)
    return RoutingResult(routed, result.final_layout, tuple(sorted(inserted)), result.metrics)


def _routed(route, circuit, topology):
    try:
        result = route(circuit, topology)
    except UnroutableGateError as exc:
        return str(exc)
    layout = result.final_layout
    return (
        result.routed,
        to_qasm(result.routed),  # Gate equality has 0.0 == -0.0; the text keeps the sign
        result.inserted,
        result.metrics,
        layout.log_to_phys,
        layout.phys_to_log,
    )


def test_hop_table_router_and_one_pass_verify_match_oracles():
    from oracles import bfs_route, rescan_verify

    rng = random.Random(0)
    unroutable = mutants = 0
    verdicts = set()
    for n in range(3, 28):
        circuit = _mixed_circuit(n, seed=n)
        rows = math.isqrt(n)
        topologies = [
            synthesize_topology(circuit),
            synthesize_topology(circuit, keep_synthetic=False),
            builtin_topology("cairo27"),
            builtin_topology("prague33"),
            builtin_topology("sycamore53"),
            builtin_topology(f"line({n})"),
            builtin_topology(f"grid({rows},{-(-n // rows)})"),
            Topology("split", n, tuple((q, q + 1) for q in range(n - 1) if q != n // 2)),
        ]
        for topology in topologies:
            expected = _routed(bfs_route, circuit, topology)
            assert _routed(route_circuit, circuit, topology) == expected
            if isinstance(expected, str):
                unroutable += 1
                continue
            result = route_circuit(circuit, topology)
            for _ in range(8):
                mutant = _mutate(result, rng)
                verdict = verify_routing(circuit, mutant, topology)
                assert verdict == rescan_verify(circuit, mutant, topology)
                verdicts.add(verdict)
                mutants += 1
    assert unroutable > 0
    assert mutants >= 1000
    assert verdicts == {True, False}


_NAN = float("nan")
# Routed on line(4): h q[0]; x q[3]; swap q[0],q[1] (inserted); cx q[1],q[2];
# rz(nan) q[1]; rz(0.0) q[0]; h q[2]; cx q[3],q[2]; t q[0];
_HAND_OFF_CIRCUIT = Circuit(4, (
    Gate(GateKind.H, (0,)),
    Gate(GateKind.X, (3,)),
    cnot(0, 2),
    Gate(GateKind.RZ, (0,), _NAN),
    Gate(GateKind.RZ, (1,), 0.0),
    Gate(GateKind.H, (2,)),
    cnot(3, 2),
    Gate(GateKind.T, (1,)),
))


def _exchange(gates, i):
    gates[i], gates[i + 1] = gates[i + 1], gates[i]


def _replace(i, gate):
    def edit(gates):
        gates[i] = gate
    return edit


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda gates: None, True),
        (_replace(0, Gate(GateKind.X, (0,))), False),  # first difference at index 0
        (lambda gates: _exchange(gates, 0), True),  # h and x on disjoint qubits commute
        (_replace(3, cnot(2, 1)), False),  # first difference in the middle
        (lambda gates: _exchange(gates, 3), False),  # cx and rz share a qubit
        (lambda gates: _exchange(gates, 4), True),  # the two rz on disjoint qubits commute
        (_replace(8, Gate(GateKind.S, (0,))), False),  # first difference at the last gate
        (lambda gates: _exchange(gates, 7), True),  # cx and t on disjoint qubits commute
        (lambda gates: gates.append(Gate(GateKind.H, (0,))), False),  # one extra trailing gate
        (lambda gates: gates.pop(), False),  # the last gate dropped
        # behind the SWAP: the source's own NaN matches, a fresh NaN does not
        (_replace(4, Gate(GateKind.RZ, (1,), _NAN)), True),
        (_replace(4, Gate(GateKind.RZ, (1,), float("nan"))), False),
        (_replace(5, Gate(GateKind.RZ, (0,), -0.0)), True),  # 0.0 == -0.0
    ],
)
def test_verify_hands_off_from_in_order_matching_like_the_oracle(edit, expected):
    from oracles import rescan_verify

    topology = builtin_topology("line(4)")
    result = route_circuit(_HAND_OFF_CIRCUIT, topology)
    assert result.inserted == (2,)
    gates = list(result.routed.gates)
    edit(gates)
    routed = Circuit(result.routed.num_qubits, tuple(gates), result.routed.name)
    mutant = RoutingResult(routed, result.final_layout, result.inserted, result.metrics)
    assert rescan_verify(_HAND_OFF_CIRCUIT, mutant, topology) is expected
    assert verify_routing(_HAND_OFF_CIRCUIT, mutant, topology) is expected


def test_rotations_by_signed_zero_keep_their_sign():
    circuit = parse_qasm("OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[2];\nrz(0) q[0];\nrz(-0) q[0];\n")
    result = route_circuit(circuit, builtin_topology("line(3)"))
    # the SWAP moves logical 0 to physical 1, so neither rotation is the source gate
    assert to_qasm(result.routed).endswith("rz(0.0) q[1];\nrz(-0.0) q[1];\n")


def test_circuit_stats_match_asap_oracle():
    from oracles import asap_stats

    circuits = [
        Circuit(0, ()),
        Circuit(2, (Gate(GateKind.BARRIER, (0, 1)), Gate(GateKind.MEASURE, (1,)))),
        Circuit(
            3,
            (
                Gate(GateKind.RX, (0,), 0.5),
                Gate(GateKind.RZ, (2,), -0.0),
                Gate(GateKind.BARRIER, (0, 2)),
                cnot(1, 1),
                Gate(GateKind.MEASURE, (1,)),
                Gate(GateKind.SWAP, (0, 2)),
                Gate(GateKind.RY, (1,), 0.0),
                Gate(GateKind.BARRIER, (0, 1, 2)),
                cnot(2, 1),
            ),
        ),
    ]
    for n in range(3, 28):
        circuit = _mixed_circuit(n, seed=n)
        circuits.append(circuit)
        for topology in (synthesize_topology(circuit), builtin_topology(f"line({n})")):
            circuits.append(route_circuit(circuit, topology).routed)
    for circuit in circuits:
        assert circuit_stats(circuit) == asap_stats(circuit)
