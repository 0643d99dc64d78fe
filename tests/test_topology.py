"""Topology model tests: validation, JSON round-trips, builtins."""

import json

import pytest

from cacore.bench import gen_random_circuit
from cacore.errors import TopologyFormatError, UnknownTopologyError
from cacore.ir import Circuit, Gate, GateKind
from cacore.routing import route_circuit
from cacore.synthesis import synthesize_topology
from cacore.topology import (
    Topology,
    builtin_topology,
    grid_topology,
    line_topology,
    load_topology,
    save_topology,
    topology_errors,
    validate_topology,
)


def test_self_edge_diagnostic():
    topology = Topology("bad", 2, ((0, 0),))
    messages = [d.message for d in topology_errors(topology)]
    assert any("self-edge" in m for m in messages)


def test_valid_grid_is_clean():
    assert validate_topology(grid_topology(3, 3)) == []


def test_out_of_range_and_duplicate_diagnostics():
    topology = Topology("bad", 2, ((0, 1), (0, 1), (1, 5)))
    messages = [d.message for d in topology_errors(topology)]
    assert any("duplicate" in m for m in messages)
    assert any("out of range" in m for m in messages)


@pytest.mark.parametrize("edge", [(0, 5), (-1, 2), (3, 1), (0, 1.5)])
def test_out_of_range_coupler_endpoint_raises_format_error(edge):
    bad = Topology("bad", 3, ((0, 1), edge))
    with pytest.raises(TopologyFormatError, match=rf"coupler \({edge[0]}, {edge[1]}\)"):
        bad.adjacency()
    with pytest.raises(TopologyFormatError, match="not a qubit index in \\[0, 3\\)"):
        route_circuit(Circuit(3, (Gate(GateKind.CNOT, (0, 2)),)), bad)


def test_collision_warning_on_side_sharing_diagonals():
    positions = {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (1, 0), 4: (1, 1), 5: (1, 2)}
    topology = Topology("crowded", 6, ((0, 4), (1, 5)), positions=positions)
    diagnostics = validate_topology(topology)
    assert [d.level for d in diagnostics] == ["warning"]
    assert "side-sharing" in diagnostics[0].message


def test_synthesized_topologies_validate_clean():
    for seed in range(5):
        circuit = gen_random_circuit(9 + seed, 200, seed)
        assert validate_topology(synthesize_topology(circuit)) == []


def test_save_load_round_trip(tmp_path):
    topology = synthesize_topology(gen_random_circuit(7, 120, seed=2))
    path = tmp_path / "topo.json"
    save_topology(topology, path)
    assert load_topology(path) == topology


def test_load_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(TopologyFormatError):
        load_topology(path)


def test_load_duplicate_edge_names_the_pair(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"name": "t", "num_qubits": 3, "edges": [[0, 1], [0, 1]]}))
    with pytest.raises(TopologyFormatError) as err:
        load_topology(path)
    assert "(0,1)" in str(err.value)


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("num_qubits", "three", "num_qubits"),
        ("edges", [[0, 1, 2]], "edges[0]"),
        ("edges", [[1, 0]], "i < j"),
        ("synthetic", [True, False], "synthetic"),
        ("positions", [[0, 0]], "positions"),
    ],
)
def test_load_schema_violations(tmp_path, field, value, needle):
    data = {"name": "t", "num_qubits": 2, "edges": [[0, 1]], "synthetic": [False]}
    data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(TopologyFormatError) as err:
        load_topology(path)
    assert needle in str(err.value)


def test_unknown_keys_tolerated(tmp_path):
    data = {"name": "t", "num_qubits": 2, "edges": [[0, 1]], "provenance": "note", "version": 3}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    assert load_topology(path).edges == ((0, 1),)


@pytest.mark.parametrize(
    "name,qubits,edges",
    [
        ("almaden20", 20, 27),
        ("cairo27", 27, 28),
        ("prague33", 33, 35),
        ("sycamore53", 53, 86),
        ("half_sycamore24", 24, 35),
    ],
)
def test_builtin_device_sizes(name, qubits, edges):
    topology = builtin_topology(name)
    assert topology.num_qubits == qubits
    assert len(topology.edges) == edges
    assert topology_errors(topology) == []


def test_every_builtin_is_connected():
    for name in ("almaden20", "cairo27", "prague33", "sycamore53", "half_sycamore24"):
        topology = builtin_topology(name)
        adjacency = topology.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert len(seen) == topology.num_qubits


def test_line_generator():
    assert builtin_topology("line(4)").edges == ((0, 1), (1, 2), (2, 3))
    assert line_topology(1).edges == ()


@pytest.mark.parametrize("nrow,ncol", [(2, 2), (2, 3), (4, 5), (1, 6)])
def test_grid_edge_count_formula(nrow, ncol):
    topology = builtin_topology(f"grid({nrow},{ncol})")
    assert len(topology.edges) == nrow * (ncol - 1) + ncol * (nrow - 1)
    assert validate_topology(topology) == []


def test_unknown_topology_error():
    with pytest.raises(UnknownTopologyError):
        builtin_topology("hexagon99")
