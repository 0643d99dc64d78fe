"""Router tests: trivial layout, SWAP insertion, verification, metrics."""

import dataclasses
import math
import random
import sys
import threading
import tracemalloc

import pytest
from conftest import DATA_DIR, empty_gate_table, gates_held
from oracles import _shortest_path, asap_stats, complete, same_up_to_phase, statevector

from cacore.bench import gen_random_circuit
from cacore.errors import DegenerateInputError, UnroutableGateError
from cacore.ir import (
    PARAMETRIC_KINDS,
    SHARED_KINDS,
    TWO_QUBIT_KINDS,
    Circuit,
    Gate,
    GateKind,
    shared_gate,
)
from cacore.qasm import parse_qasm, parse_qasm_file, to_qasm
from cacore.routing import (
    RouteMetrics,
    RoutingResult,
    _toward,
    route_circuit,
    trivial_layout,
    verify_routing,
)
from cacore.synthesis import synthesize_topology
from cacore.topology import Topology, builtin_topology


def cnot(a, b):
    return Gate(GateKind.CNOT, (a, b))


def test_trivial_layout_identity():
    assert trivial_layout(3, 5) == [0, 1, 2, None, None]


def test_trivial_layout_single_qubit():
    assert trivial_layout(1, 1) == [0]


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


def _hop_table_maps():
    names = ("almaden20", "cairo27", "prague33", "sycamore53", "half_sycamore24", "line(9)",
             "grid(5,7)")
    maps = [pytest.param(builtin_topology(name), id=name) for name in names]
    for n in (12, 21):
        topology = synthesize_topology(gen_random_circuit(n, 300, seed=n))
        maps.append(pytest.param(topology, id=f"synthesized_n{n}"))
    # two components: a 4-ring with a chord, and a path with a pendant on 4..9
    edges = ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (5, 8), (6, 7), (8, 9))
    maps.append(pytest.param(Topology("two_components", 10, edges), id="two_components"))
    return maps


@pytest.mark.parametrize("topology", _hop_table_maps())
def test_each_next_hop_is_the_second_node_of_the_oracle_path(topology):
    # the oracle takes the smallest closer neighbour at each step from a full
    # distance table, so any tie the level-ordered BFS broke wrongly shows here
    adjacency = topology._routing[0]
    unreachable = 0
    for target in range(topology.num_qubits):
        next_hop = _toward(adjacency, target)[0]
        for p in range(topology.num_qubits):
            path = _shortest_path(adjacency, p, target)
            unreachable += path is None
            assert next_hop[p] == (None if path is None else path[min(1, len(path) - 1)]), (p, target)
    assert (unreachable > 0) == (topology.name == "two_components")


def test_per_target_tables_hold_at_most_their_slot_budget(monkeypatch):
    """Past the budget a topology drops every target's tables and rebuilds each on
    its next use: its next-hop and step lists never hold more slots than the
    budget, and the routes equal unbudgeted ones."""
    n, budget = 60, 2 * 60 * 5  # room for five targets' two n-slot lists
    circuits = [gen_random_circuit(n, 300, seed) for seed in range(3)]
    unbudgeted = builtin_topology(f"line({n})")
    expected = [route_circuit(circuit, unbudgeted).routed for circuit in circuits]
    assert 2 * n * sum(t is not None for t in unbudgeted._routing[1]) > budget
    topology = builtin_topology(f"line({n})")
    targets = topology._routing[1]
    built = []

    def bounded(adjacency, dst):
        held = 2 * n * sum(t is not None for t in targets)
        assert held + 2 * n <= budget
        built.append(dst)
        return _toward(adjacency, dst)

    monkeypatch.setattr("cacore.routing._TABLE_LIMIT", budget)
    monkeypatch.setattr("cacore.routing._toward", bounded)
    assert [route_circuit(circuit, topology).routed for circuit in circuits] == expected
    assert len(built) > len(set(built))  # some tables were dropped and rebuilt


def test_unroutable_gate_on_disconnected_topology():
    split = Topology("split", 4, ((0, 1), (2, 3)))
    with pytest.raises(UnroutableGateError):
        route_circuit(Circuit(4, (cnot(0, 3),)), split)


@pytest.mark.parametrize("q", [-1, 3])
def test_out_of_range_logical_qubit_is_rejected(q):
    # -1 would wrap around through list indexing; 3 would index past the layout.
    # Such a circuit fails where it is built, so route_circuit never reads one.
    with pytest.raises(DegenerateInputError, match=f"^logical qubit {q} out of range for 3-qubit circuit 'circuit'$"):
        Circuit(3, (Gate(GateKind.H, (q,)), cnot(q, 0)))


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


def test_a_rotation_or_barrier_that_did_not_move_is_its_source_gate():
    """On line(4), cnot(0, 2) swaps logical 0 and 1 and leaves 2 and 3 in place:
    every rotation or barrier on 2 and 3 only is its source gate, and one on a
    moved qubit is a new gate on the new qubits."""
    stay = (Gate(GateKind.RZ, (2,), 0.5), Gate(GateKind.BARRIER, (2,)), Gate(GateKind.BARRIER, (2, 3)))
    moved = (Gate(GateKind.RZ, (0,), -0.0), Gate(GateKind.BARRIER, (0,)), Gate(GateKind.BARRIER, (0, 1, 3)))
    circuit = Circuit(4, (cnot(0, 2), *stay, *moved))
    topology = builtin_topology("line(4)")
    result = route_circuit(circuit, topology)
    assert verify_routing(circuit, result, topology)
    routed = result.routed.gates[2:]  # after the SWAP and the CNOT
    assert all(gate is source for gate, source in zip(routed, stay))
    expected = (Gate(GateKind.RZ, (1,), -0.0), Gate(GateKind.BARRIER, (1,)), Gate(GateKind.BARRIER, (1, 0, 3)))
    for gate, source, want in zip(routed[3:], moved, expected, strict=True):
        assert gate is not source and gate == want and repr(gate.param) == repr(want.param)


def test_verify_rejects_deleted_swap():
    circuit = Circuit(3, (cnot(0, 2),))
    topology = builtin_topology("line(3)")
    result = route_circuit(circuit, topology)
    tampered = RoutingResult(
        routed=Circuit(3, result.routed.gates[1:], result.routed.name),
        inserted=(),
        metrics=result.metrics,
    )
    assert not verify_routing(circuit, tampered, topology)


_H0, _BARRIER01 = Gate(GateKind.H, (0,)), Gate(GateKind.BARRIER, (0, 1))


@pytest.mark.parametrize(
    "routed, inserted",
    [
        pytest.param((Gate(GateKind.H, (-3,)), _BARRIER01), (), id="routed0"),  # -3 would wrap around to 0
        pytest.param((Gate(GateKind.H, (7,)), _BARRIER01), (), id="routed1"),  # 7 would index past the layout
        pytest.param((_H0, Gate(GateKind.BARRIER, (-3, 1))), (), id="routed2"),
        pytest.param((_H0, Gate(GateKind.BARRIER, (0, 3))), (), id="routed3"),
        pytest.param((_H0, _BARRIER01), (), id="wider_but_on_the_topology"),
        # qubit 3, the topology's size, in each branch of the replay; each gate but the
        # off one replays the source, and the inserted SWAP would move no logical qubit
        pytest.param((_H0, Gate(GateKind.SWAP, (3, 2)), _BARRIER01), (1,), id="inserted_swap"),
        pytest.param((_H0, cnot(3, 2), _BARRIER01), (), id="two_qubit"),
        pytest.param((Gate(GateKind.H, (3,)), _BARRIER01), (), id="one_qubit"),
        pytest.param((_H0, Gate(GateKind.BARRIER, (3, 0, 1))), (), id="barrier"),
    ],
)
def test_verify_rejects_a_routed_gate_off_the_topology(routed, inserted):
    """A routed circuit wider than the topology is verified like the oracle: it
    passes while every gate is on the topology's qubits, and fails otherwise."""
    from oracles import rescan_verify

    circuit = Circuit(3, (_H0, _BARRIER01))
    topology = builtin_topology("line(3)")
    result = route_circuit(circuit, topology)
    assert result.routed.gates == circuit.gates
    low = min(q for gate in routed for q in gate.qubits)
    if low < 0:  # fails where the routed circuit is built, so no verifier reads it
        with pytest.raises(DegenerateInputError, match=f"^logical qubit {low} out of range"):
            Circuit(8, routed)
        return
    tampered = RoutingResult(Circuit(8, routed), inserted, result.metrics)  # wider than the topology
    on_topology = max(q for gate in routed for q in gate.qubits) < topology.num_qubits
    assert rescan_verify(circuit, tampered, topology) is on_topology
    assert verify_routing(circuit, tampered, topology) is on_topology


@pytest.mark.parametrize(
    "source, routed",
    [
        ((0, 2), (0, 2)),  # not a coupler of line(3), though the operands match
        ((1, 2), (1, 7)),  # 7 would index past the layout
        ((2, 0), (-1, 0)),  # -1 would wrap around to 2 and match the source
    ],
    ids=["not_a_coupler", "past_the_topology", "negative"],
)
def test_verify_rejects_an_unmarked_two_qubit_gate_off_the_couplers(source, routed):
    """A routed two-qubit gate that is not an inserted SWAP must sit on a coupler."""
    from oracles import rescan_verify

    circuit = Circuit(3, (cnot(*source),))
    topology = builtin_topology("line(3)")
    if min(routed) < 0:  # fails where the routed circuit is built, so no verifier reads it
        with pytest.raises(DegenerateInputError, match=f"^logical qubit {min(routed)} out of range"):
            Circuit(8, (cnot(*routed),))
        return
    # built wider than the topology, so a qubit past it is a valid circuit's
    tampered = RoutingResult(Circuit(8, (cnot(*routed),)), (), route_circuit(circuit, topology).metrics)
    assert rescan_verify(circuit, tampered, topology) is False
    assert verify_routing(circuit, tampered, topology) is False


def test_a_route_past_its_swap_bound_raises(monkeypatch):
    """The bound counts inserted SWAPs after each source gate's walk: a route at the
    bound is kept, one past it raises, and gates that need no SWAP never count."""
    far = Circuit(10, tuple(cnot(0, 9) if i % 2 == 0 else cnot(0, 1) for i in range(6)), "far")
    topology = builtin_topology("line(10)")
    swaps = route_circuit(far, topology).metrics.swap_count
    assert swaps > 6 * 6  # each walk crosses most of the line
    monkeypatch.setattr("cacore.routing._SWAP_LIMIT", swaps)
    assert route_circuit(far, topology).metrics.swap_count == swaps
    monkeypatch.setattr("cacore.routing._SWAP_LIMIT", swaps - 1)
    with pytest.raises(DegenerateInputError, match=f"^routing 'far' needs more than {swaps - 1} SWAPs$"):
        route_circuit(far, topology)
    near = Circuit(10, (cnot(0, 1), Gate(GateKind.H, (9,))) * 50)  # its routed list passes the bound
    monkeypatch.setattr("cacore.routing._SWAP_LIMIT", 0)
    assert route_circuit(near, topology).routed.gates == near.gates


def test_a_topology_holds_no_routing_state_until_a_route_fills_it():
    """A topology's routing state is its adjacency and two empty dicts, and a
    verify leaves them empty. A route fills them with the tables of the targets
    it used, keyed by qubit, and one list per one-qubit kind the gate table shares."""
    topology = builtin_topology("grid(256,256)")
    assert topology._routing[1:] == ({}, {})
    gates = (cnot(0, 257), Gate(GateKind.H, (3,)), cnot(5, 1000), Gate(GateKind.X, (0,)), cnot(2, 257))
    circuit = Circuit(topology.num_qubits, gates)
    result = route_circuit(circuit, dataclasses.replace(topology))
    assert verify_routing(circuit, result, topology)
    assert topology._routing[1:] == ({}, {})
    result = route_circuit(circuit, topology)
    inserted = set(result.inserted)
    used = {g.qubits[1] for i, g in enumerate(result.routed.gates) if len(g.qubits) == 2 and i not in inserted}
    _, targets, relabeled = topology._routing
    assert len(used) > 1 and set(targets) == used
    assert set(relabeled) == SHARED_KINDS - TWO_QUBIT_KINDS
    assert all(len(gates) == topology.num_qubits for gates in relabeled.values())


def test_verify_rejects_wrong_logical_operands():
    circuit = Circuit(2, (cnot(0, 1),))
    topology = builtin_topology("line(3)")
    swapped = RoutingResult(
        routed=Circuit(3, (cnot(1, 0),)),
        inserted=(),
        metrics=route_circuit(circuit, topology).metrics,
    )
    assert not verify_routing(circuit, swapped, topology)


def test_metrics_equal_source_stats_when_no_swaps_needed():
    circuit = gen_random_circuit(6, 80, seed=1)
    result = route_circuit(circuit, builtin_topology("grid(6,6)"))
    if result.metrics.swap_count == 0:
        stats = asap_stats(circuit)
        assert result.metrics.depth == stats.depth
        assert result.metrics.total_gates == stats.total_gates
        assert result.metrics.two_qubit_gates == stats.two_qubit_gates
    # all-to-all-ish case: force a guaranteed zero-swap route
    line = Circuit(4, (cnot(0, 1), cnot(1, 2), cnot(2, 3)))
    res = route_circuit(line, builtin_topology("line(4)"))
    assert res.metrics.swap_count == 0
    assert res.metrics.as_dict() | {"swap_count": 0} == {
        **asap_stats(line)._asdict(),
        "total_swap_gates": 0,
        "swap_count": 0,
    }


def test_one_inserted_swap_adds_one_gate():
    circuit = Circuit(3, (cnot(0, 2),))
    result = route_circuit(circuit, builtin_topology("line(3)"))
    assert result.metrics.total_gates == asap_stats(circuit).total_gates + 1


def _recounted(result):
    """The route's metrics rebuilt from a separate pass over the routed gates."""
    stats = asap_stats(result.routed)
    return RouteMetrics(
        depth=stats.depth,
        total_gates=stats.total_gates,
        one_qubit_gates=stats.one_qubit_gates,
        two_qubit_gates=stats.two_qubit_gates,
        swap_count=len(result.inserted),
        total_swap_gates=stats.swap_count,
    )


def test_routed_metrics_recomputes_identically():
    circuit = gen_random_circuit(8, 150, seed=3)
    result = route_circuit(circuit, builtin_topology("line(8)"))
    assert result.metrics == _recounted(result)


_DEVICES = ("almaden20", "cairo27", "prague33", "sycamore53", "half_sycamore24")


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.qasm")), ids=lambda path: path.stem)
def test_routed_metrics_recompute_identically_on_bundled_circuits(path):
    # these hold measures, register-wide barriers and ccx expansions
    circuit = parse_qasm_file(path)
    devices = [builtin_topology(name) for name in _DEVICES]
    routes = 0
    for topology in [synthesize_topology(circuit), *devices]:
        if circuit.num_qubits <= topology.num_qubits:
            result = route_circuit(circuit, topology)
            assert result.metrics == _recounted(result), topology.name
            routes += 1
    assert routes >= 2


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
    return RoutingResult(routed, tuple(sorted(inserted)), result.metrics)


def _routed(route, circuit, topology):
    try:
        result = route(circuit, topology)
    except UnroutableGateError as exc:
        return str(exc)
    # The routed gates and the inserted indices fix the final layout: it is
    # the trivial one after the inserted SWAPs, in order.
    return (
        result.routed,
        to_qasm(result.routed),  # Gate equality has 0.0 == -0.0; the text keeps the sign
        result.inserted,
        result.metrics,
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


def _reindexed(result, how, rng):
    """The same inserted set written out of order, with repeats, or with an
    index before or past the routed gates."""
    marks = sorted(set(result.inserted))
    if how == "unsorted":
        marks.reverse()
    elif how == "duplicated":
        marks = sorted(marks + rng.sample(marks, (len(marks) + 1) // 2))
    elif how == "negative":
        marks.insert(0, -rng.randint(1, len(result.routed.gates)))
    else:
        marks.append(len(result.routed.gates) + rng.randrange(3))
    return RoutingResult(result.routed, tuple(marks), result.metrics)


@pytest.mark.parametrize("how", ["unsorted", "duplicated", "negative", "past_end"])
def test_verify_reads_inserted_indices_as_a_set_like_the_oracle(how):
    from oracles import rescan_verify

    rng = random.Random(how)
    verdicts = set()
    for n in range(4, 28, 3):
        circuit = _mixed_circuit(n, seed=n)
        for topology in (builtin_topology(f"line({n})"), builtin_topology("cairo27")):
            result = route_circuit(circuit, topology)
            assert len(result.inserted) >= 2
            for base in (result, *(_mutate(result, rng) for _ in range(6))):
                mutant = _reindexed(base, how, rng)
                verdict = verify_routing(circuit, mutant, topology)
                assert verdict == rescan_verify(circuit, mutant, topology)
                assert verdict == verify_routing(circuit, base, topology)
                verdicts.add(verdict)
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
    _check_hand_off(_HAND_OFF_CIRCUIT, (2,), edit, expected)


def _check_hand_off(circuit, inserted, edit, expected):
    from oracles import rescan_verify

    topology = builtin_topology("line(4)")
    result = route_circuit(circuit, topology)
    assert result.inserted == inserted
    gates = list(result.routed.gates)
    edit(gates)
    routed = Circuit(result.routed.num_qubits, tuple(gates), result.routed.name)
    mutant = RoutingResult(routed, result.inserted, result.metrics)
    assert rescan_verify(circuit, mutant, topology) is expected
    assert verify_routing(circuit, mutant, topology) is expected


def _barrier(*qubits):
    return Gate(GateKind.BARRIER, qubits)


# Routed on line(4): barrier q[0],q[1],q[2]; barrier q[3]; barrier q[0],q[1];
# h q[1]; swap q[0],q[1] (inserted); cx q[1],q[2]; barrier q[1],q[0]; x q[3]; t q[0];
_BARRIER_HAND_OFF_CIRCUIT = Circuit(4, (
    _barrier(0, 1, 2),
    _barrier(3),
    _barrier(0, 1),
    Gate(GateKind.H, (1,)),
    cnot(0, 2),
    _barrier(0, 1),
    Gate(GateKind.X, (3,)),
    Gate(GateKind.T, (1,)),
))


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda gates: None, True),
        # a routed one-qubit barrier meets a wider source barrier; disjoint, so they commute
        (lambda gates: _exchange(gates, 0), True),
        (_replace(1, _barrier(0)), False),
        # a routed wide barrier meets a one-qubit source barrier; disjoint, so they commute
        (lambda gates: _exchange(gates, 1), True),
        (_replace(1, _barrier(2, 3)), False),
        # wide barriers on the wrong qubits, or on the right ones in the wrong order
        (_replace(2, _barrier(0, 2)), False),
        (_replace(6, _barrier(0, 1)), False),
        (_replace(6, _barrier(1, 2)), False),
        (_replace(6, _barrier(1)), False),
        # routed gates left over after the last source gate, behind the SWAP
        (lambda gates: gates.append(Gate(GateKind.H, (0,))), False),
        (lambda gates: gates.append(_barrier(1, 0)), False),
        (lambda gates: gates.append(_barrier(0)), False),
        (lambda gates: gates.append(Gate(GateKind.SWAP, (2, 3))), False),
    ],
)
def test_verify_hands_off_at_barriers_like_the_oracle(edit, expected):
    _check_hand_off(_BARRIER_HAND_OFF_CIRCUIT, (4,), edit, expected)


# One verify_routing call on the route below (4,096 routed gates) holds its
# byte mask, the layout and a few tuples at a time: about 5 KB, whatever the
# inserted indices. A mask sized by the largest index would take 1 MB or more.
_VERIFY_PEAK_BYTES = 64 * 1024


def test_inserted_indices_far_outside_the_route_cost_nothing():
    from oracles import rescan_verify

    circuit = gen_random_circuit(12, 2000, 5)
    topology = builtin_topology("cairo27")
    result = route_circuit(circuit, topology)
    far = (10**18, -(10**18), len(result.routed.gates) + 10**6)
    rng = random.Random(18)
    verdicts = set()
    for base in (result, *(_mutate(result, rng) for _ in range(3))):
        for extra in (*((idx,) for idx in far), far):
            mutant = dataclasses.replace(base, inserted=extra + base.inserted + extra)
            verdict = verify_routing(circuit, mutant, topology)
            assert verdict == rescan_verify(circuit, mutant, topology)
            assert verdict == verify_routing(circuit, base, topology)
            verdicts.add(verdict)
    assert verdicts == {True, False}

    for extra in ((), *((idx,) for idx in far)):
        mutant = dataclasses.replace(result, inserted=result.inserted + extra)
        tracemalloc.start()
        try:
            assert verify_routing(circuit, mutant, topology)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _VERIFY_PEAK_BYTES, (extra, peak)


def _random_state(num_logical, num_physical, rng):
    """A random unit state of the logical qubits, every other physical qubit at |0>."""
    amplitudes = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << num_logical)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in amplitudes))
    return [x / norm for x in amplitudes] + [0j] * ((1 << num_physical) - (1 << num_logical))


def _undone(result, state):
    """The state the routed gates leave, with the inserted SWAPs then undone in reverse."""
    gates = result.routed.gates
    undo = sorted({idx for idx in result.inserted if 0 <= idx < len(gates)}, reverse=True)
    return statevector(gates + tuple(gates[idx] for idx in undo), result.routed.num_qubits, state)


def test_statevector_oracle_knows_its_gates():
    def run(*gates):
        return statevector(gates, 1, [0.6, 0.8])

    h, x, y, z, s, t = (Gate(kind, (0,)) for kind in (
        GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.T
    ))
    assert same_up_to_phase(run(h, x, h), run(z))
    assert same_up_to_phase(run(t, t), run(s))
    assert same_up_to_phase(run(Gate(GateKind.RX, (0,), math.pi)), run(x))
    assert same_up_to_phase(run(Gate(GateKind.RY, (0,), math.pi)), run(y))
    assert same_up_to_phase(run(Gate(GateKind.RZ, (0,), math.pi / 2)), run(s))
    assert not same_up_to_phase(run(x), run(z))
    assert statevector([x, cnot(0, 1)], 2) == [0, 0, 0, 1]  # cx flips its second operand
    state = _random_state(3, 3, random.Random(0))
    assert same_up_to_phase(
        statevector([Gate(GateKind.SWAP, (0, 2))], 3, state),
        statevector([cnot(0, 2), cnot(2, 0), cnot(0, 2)], 3, state),
    )


def test_every_route_the_verifier_accepts_computes_its_source():
    # A second kind of evidence beside the lane oracle: whenever verify_routing
    # accepts a route or a mutant of it, the routed gates with the inserted
    # SWAPs undone act on a random state as the source does, up to global phase.
    rng = random.Random(24)
    accepted = refuted = 0
    for n in range(3, 9):
        for seed in (n, n + 100):
            circuit = _mixed_circuit(n, seed)
            topologies = (
                builtin_topology(f"line({n})"),
                synthesize_topology(circuit),
                builtin_topology("grid(2,4)"),
            )
            for topology in topologies:
                size = topology.num_qubits
                state = _random_state(n, size, rng)
                expected = statevector(circuit.gates, size, state)
                result = route_circuit(circuit, topology)
                for mutant in (result, *(_mutate(result, rng) for _ in range(6))):
                    same = same_up_to_phase(_undone(mutant, state), expected)
                    if verify_routing(circuit, mutant, topology):
                        assert same, (circuit.name, topology.name, mutant.inserted)
                        accepted += 1
                    else:
                        refuted += not same
    assert accepted > 36  # more than the unmutated routes: some mutants commute
    assert refuted > 0


def test_routed_qasm_read_back_computes_its_source():
    # The routed circuit as written to QASM and read back, with the inserted
    # SWAPs undone, acts on a random state as the source does, up to global phase.
    rng = random.Random(7)
    routes = 0
    for n in range(4, 9):
        for seed in range(2):
            circuit = gen_random_circuit(n, 60, seed)
            for topology in (synthesize_topology(circuit), builtin_topology("grid(3,3)")):
                result = route_circuit(circuit, topology)
                read = parse_qasm(to_qasm(result.routed))
                assert read.gates == result.routed.gates
                size = topology.num_qubits
                state = _random_state(n, size, rng)
                expected = statevector(circuit.gates, size, state)
                undone = _undone(dataclasses.replace(result, routed=read), state)
                assert same_up_to_phase(undone, expected), (circuit.name, topology.name)
                routes += bool(result.inserted)
    assert routes > 10  # most routes insert SWAPs


def test_rotations_by_signed_zero_keep_their_sign():
    circuit = parse_qasm("OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[2];\nrz(0) q[0];\nrz(-0) q[0];\n")
    result = route_circuit(circuit, builtin_topology("line(3)"))
    # the SWAP moves logical 0 to physical 1, so neither rotation is the source gate
    assert to_qasm(result.routed).endswith("rz(0.0) q[1];\nrz(-0.0) q[1];\n")


def test_circuit_stats_match_asap_oracle():
    # The router's metrics on a complete graph score a circuit itself.
    circuits = [
        Circuit(0, ()),
        Circuit(2, (Gate(GateKind.BARRIER, (0, 1)), Gate(GateKind.MEASURE, (1,)))),
        Circuit(
            3,
            (
                Gate(GateKind.RX, (0,), 0.5),
                Gate(GateKind.RZ, (2,), -0.0),
                Gate(GateKind.BARRIER, (0, 2)),
                cnot(1, 0),
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
        stats = asap_stats(circuit)
        assert route_circuit(circuit, complete(circuit.num_qubits)).metrics == RouteMetrics(
            stats.depth, stats.total_gates, stats.one_qubit_gates, stats.two_qubit_gates,
            swap_count=0, total_swap_gates=stats.swap_count,
        )


def test_every_routed_circuit_of_the_acceptance_protocol_rebuilds_equal():
    """``route_circuit`` builds its routed circuit unscanned, so the public constructor,
    which scans, checks the claim: 30 circuits routed on ca_core, cairo27 and prague33,
    plus mixed circuits with rotations, barriers and measures, each rebuilt equal."""
    baselines = (builtin_topology("cairo27"), builtin_topology("prague33"))
    circuits = [gen_random_circuit(n, 2000, seed) for n in (10, 16, 20) for seed in range(10)]
    circuits += [_mixed_circuit(n, seed=n) for n in (10, 16, 20)]
    routes = 0
    for circuit in circuits:
        for topology in (synthesize_topology(circuit), *baselines):
            routed = route_circuit(circuit, topology).routed
            assert Circuit(routed.num_qubits, routed.gates, routed.name) == routed
            routes += 1
    assert routes == 99


def test_gate_table_after_the_acceptance_protocol(monkeypatch):
    """30 circuits routed on ca_core, cairo27 and prague33, plus mixed circuits:
    every routed param-less gate but a barrier is a source gate or the gate
    table's own, and the table holds no rotation or barrier, within its bound."""
    table = empty_gate_table(monkeypatch)
    baselines = (builtin_topology("cairo27"), builtin_topology("prague33"))
    circuits = [gen_random_circuit(n, 2000, seed) for n in (10, 16, 20) for seed in range(10)]
    circuits += [_mixed_circuit(n, seed=n) for n in (10, 16, 20)]
    widest = 0
    topologies = list(baselines)
    for circuit in circuits:
        topologies.append(synthesize_topology(circuit))
        for topology in (topologies[-1], *baselines):
            result = route_circuit(circuit, topology)
            assert verify_routing(circuit, result, topology)
            widest = max(widest, topology.num_qubits)
            source = set(map(id, circuit.gates))
            for gate in result.routed.gates:
                if gate.param is None and gate.kind is not GateKind.BARRIER:
                    assert table[gate.kind].get(gate.qubits) is gate or id(gate) in source
    assert set(table) == SHARED_KINDS and not SHARED_KINDS & (PARAMETRIC_KINDS | {GateKind.BARRIER})
    assert all(gate.kind is kind and gate.qubits == qubits and gate.param is None
               for kind, gates in table.items() for qubits, gate in gates.items())
    assert gates_held(table) <= 7 * widest + 2 * widest * (widest - 1)
    # each topology's tables: no rotation or barrier, only the gate table's own
    for topology in topologies:
        n, (adjacency, targets, relabeled) = topology.num_qubits, topology._routing
        assert set(relabeled) == SHARED_KINDS - TWO_QUBIT_KINDS  # no rotation or barrier
        held = [(kind, (p,), gate) for kind, gates in relabeled.items()
                for p, gate in enumerate(gates) if gate is not None]
        assert all(len(gates) == n for gates in relabeled.values())
        for pb, target in targets.items():
            next_hop, steps, arrivals = target
            held += [(GateKind.SWAP, (p, next_hop[p]), gate)
                     for p, gate in enumerate(steps) if gate is not None]
            assert set(arrivals) == TWO_QUBIT_KINDS
            for kind, gates in arrivals.items():
                assert set(gates) == set(adjacency[pb])
                held += [(kind, (nb, pb), gate) for nb, gate in gates.items()]
        for kind, qubits, gate in held:
            assert gate.kind is kind and gate.qubits == qubits and gate.param is None
            assert table[kind][qubits] is gate
        assert len({(kind, qubits) for kind, qubits, _ in held}) <= 7 * n + 2 * n * (n - 1)


def test_routes_sharing_one_topology_match_a_fresh_copy_and_the_oracle():
    """Routes of circuits of many sizes, interleaved on one topology object,
    each equal the route on a fresh equal copy and the per-gate BFS oracle.
    A copy without one used coupler keeps none of the original's routing
    state: it refuses the original's route and routes around the gap."""
    from oracles import bfs_route

    topology = builtin_topology("cairo27")
    circuits = [gen_random_circuit(n, 300, seed) for seed in range(2) for n in range(4, 21)]
    circuits += [parse_qasm_file(path) for path in sorted(DATA_DIR.glob("*.qasm"))]
    random.Random(0).shuffle(circuits)
    for circuit in circuits:
        expected = _routed(bfs_route, circuit, topology)
        assert _routed(route_circuit, circuit, topology) == expected
        assert _routed(route_circuit, circuit, dataclasses.replace(topology)) == expected
        assert verify_routing(circuit, route_circuit(circuit, topology), topology)

    circuit = gen_random_circuit(20, 300, 5)
    result = route_circuit(circuit, topology)
    assert verify_routing(circuit, result, topology)
    used = next(tuple(sorted(g.qubits)) for g in result.routed.gates if len(g.qubits) == 2)
    reduced = dataclasses.replace(topology, edges=tuple(e for e in topology.edges if e != used))
    assert not verify_routing(circuit, result, reduced)
    routed = _routed(route_circuit, circuit, reduced)
    assert routed == _routed(bfs_route, circuit, reduced)
    assert not isinstance(routed, str)
    assert verify_routing(circuit, route_circuit(circuit, reduced), reduced)


def test_threads_routing_on_one_topology_get_the_routes_of_fresh_copies():
    """Six threads fill one topology's per-target tables and gates at once,
    switching every microsecond: every route equals the route on a fresh copy."""
    topology = builtin_topology("sycamore53")
    circuits = [gen_random_circuit(n, 200, n) for n in range(4, 40, 3)]
    expected = [_routed(route_circuit, c, dataclasses.replace(topology)) for c in circuits]
    results = {}

    def work(worker):
        for index in range(worker, worker + len(circuits)):
            index %= len(circuits)
            results[worker, index] = _routed(route_circuit, circuits[index], topology)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 6 * len(circuits)
    assert all(routed == expected[index] for (_, index), routed in results.items())


def test_relabeled_gates_come_from_the_topology_tables(monkeypatch):
    """A deterministic work count: a route asks ``shared_gate`` only for gates it
    emits, plus the 2 * deg(pb) arrival gates of each target pb it builds tables
    for; every call fills one table slot, and a second route of the same circuit
    asks for nothing. With no rotation or barrier in the circuit, every routed
    gate is a table's object, whether or not it moved."""
    calls = []
    build = shared_gate

    def counting(kind, qubits, param=None):
        calls.append((kind, qubits))
        return build(kind, qubits, param)

    monkeypatch.setattr("cacore.routing.shared_gate", counting)
    topology = builtin_topology("cairo27")
    adjacency, targets, relabeled = topology._routing
    circuits = [gen_random_circuit(n, 2000, n) for n in (10, 20)]
    for mixed in (_mixed_circuit(n, seed=n) for n in (12, 18)):
        # source SWAPs and a measure, no rotation and no barrier
        kept = (g for g in mixed.gates if g.param is None and g.kind is not GateKind.BARRIER)
        circuits.append(Circuit(mixed.num_qubits, tuple(kept)))
    for circuit in circuits:
        # fresh copies, so that no source gate is an object a table holds
        circuit = Circuit(circuit.num_qubits, tuple(Gate(g.kind, g.qubits) for g in circuit.gates))
        old = set(targets)
        start = len(calls)
        result = route_circuit(circuit, topology)
        routed, inserted = result.routed.gates, set(result.inserted)
        steps = {id(step) for target in targets.values() for step in target[1]}
        for index, gate in enumerate(routed):
            kind, qubits = gate.kind, gate.qubits
            if index in inserted:
                assert id(gate) in steps
            else:  # a two-qubit gate (a, b) comes from target b's arrival from a
                table = targets[qubits[1]][2][kind] if kind in TWO_QUBIT_KINDS else relabeled[kind]
                assert gate is table[qubits[0]]
        built = [pb for pb in targets if pb not in old]
        emitted = {(g.kind, g.qubits) for g in routed}
        arrivals = {(kind, (nb, pb)) for pb in built for nb in adjacency[pb] for kind in TWO_QUBIT_KINDS}
        assert set(calls[start:]) <= emitted | arrivals
        unemitted = [call for call in calls[start:] if call not in emitted]
        assert len(unemitted) <= sum(2 * len(adjacency[pb]) for pb in built)
        start = len(calls)
        assert route_circuit(circuit, topology).routed.gates == routed
        assert calls[start:] == []
    filled = sum(gate is not None for gates in relabeled.values() for gate in gates)
    for target in targets.values():
        _, steps, arrivals = target
        filled += sum(gate is not None for gate in steps) + sum(map(len, arrivals.values()))
    assert len(calls) == filled > 0
    # the tables hold the kinds whose gates ``shared_gate`` shares, and no other
    for kind in GateKind:
        qubits = (0, 1) if kind in TWO_QUBIT_KINDS else (0,)
        param = 0.5 if kind in PARAMETRIC_KINDS else None
        assert (build(kind, qubits, param) is build(kind, qubits, param)) == (kind in SHARED_KINDS)


def test_a_route_builds_the_tables_of_its_targets_alone(monkeypatch):
    """On line(2000), a route whose two-qubit gates land on k distinct physical
    targets builds exactly those k per-target entries, once each, and no other."""
    import cacore.routing

    built = []
    toward = cacore.routing._toward

    def counting(adjacency, dst):
        built.append(dst)
        return toward(adjacency, dst)

    monkeypatch.setattr(cacore.routing, "_toward", counting)
    topology = builtin_topology("line(2000)")
    gates = [cnot(0, 1999), cnot(1500, 10), cnot(7, 8), Gate(GateKind.H, (3,)), cnot(1999, 0)]
    gates += [cnot(0, 1999), cnot(42, 1000), Gate(GateKind.SWAP, (1000, 42)), cnot(8, 7)]
    circuit = Circuit(2000, tuple(gates))
    result = route_circuit(circuit, topology)
    assert verify_routing(circuit, result, topology)
    inserted = set(result.inserted)
    targets = {
        gate.qubits[1]
        for index, gate in enumerate(result.routed.gates)
        if len(gate.qubits) == 2 and index not in inserted
    }
    assert 1 < len(targets) < len(gates)  # some targets repeat
    assert sorted(built) == sorted(targets)
    entries = topology._routing[1]
    assert set(entries) == targets


def test_signed_zero_rotations_on_a_shared_topology_keep_their_signs():
    """Rotations are never taken from a topology's tables: rz(-0) and rz(0) on one
    physical qubit, routed in both orders on one object, keep their signs."""
    topology = builtin_topology("line(3)")
    head = "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[2];\n"
    for first, second in (("-0", "0"), ("0", "-0")) * 2:
        circuit = parse_qasm(f"{head}rz({first}) q[0];\nrz({second}) q[0];\n")
        # the SWAP moves logical 0 to physical 1, so neither rotation is the source gate
        emitted = to_qasm(route_circuit(circuit, topology).routed)
        assert emitted.endswith(f"rz({float(first)!r}) q[1];\nrz({float(second)!r}) q[1];\n")
    _, targets, relabeled = topology._routing
    assert 2 in targets  # the route took the SWAP from physical 2's tables
    assert not any(map(any, relabeled.values()))  # and no rotation went into a table
    _, targets, relabeled = dataclasses.replace(topology)._routing
    assert targets == {} and not any(map(any, relabeled.values()))  # a copy starts empty
