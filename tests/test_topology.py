"""Topology model tests: load checks, collision warnings, JSON round-trips, builtins."""

import json
import random
import signal

import pytest

from cacore.bench import gen_random_circuit
from cacore.errors import TopologyFormatError, UnknownTopologyError
from cacore.ir import Circuit, Gate, GateKind
from cacore.qasm import parse_qasm_file
from cacore.routing import route_circuit, verify_routing
from cacore.synthesis import synthesize_topology
from cacore.topology import (
    Topology,
    builtin_topology,
    grid_topology,
    line_topology,
    load_topology,
    save_topology,
    topology_from_dict,
    validate_topology,
)

from conftest import DATA_DIR
from oracles import pairwise_collision_warnings


def test_valid_grid_is_clean():
    assert validate_topology(grid_topology(3, 3)) == []


@pytest.mark.parametrize("edge", [(0, 5), (-1, 2), (3, 1), (0, 1.5)])
def test_out_of_range_coupler_endpoint_raises_format_error(edge):
    bad = Topology("bad", 3, ((0, 1), edge))
    with pytest.raises(TopologyFormatError, match=rf"coupler \({edge[0]}, {edge[1]}\)"):
        bad.adjacency()
    with pytest.raises(TopologyFormatError, match="not a qubit index in \\[0, 3\\)"):
        route_circuit(Circuit(3, (Gate(GateKind.CNOT, (0, 2)),)), bad)


def test_verify_routing_raises_on_a_coupler_that_names_a_non_qubit():
    # verify_routing reads the router's adjacency, so it refuses what route_circuit refuses,
    # even for a result routed on a valid map whose couplers all appear in ``bad``.
    bad = Topology("bad", 3, ((0, 1), (1, 2), (0, 5)))
    circuit = Circuit(3, (Gate(GateKind.CNOT, (0, 2)),))
    result = route_circuit(circuit, line_topology(3))
    with pytest.raises(TopologyFormatError, match=r"coupler \(0, 5\)"):
        verify_routing(circuit, result, bad)


def test_collision_warning_on_side_sharing_diagonals():
    positions = {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (1, 0), 4: (1, 1), 5: (1, 2)}
    topology = Topology("crowded", 6, ((0, 4), (1, 5)), positions=positions)
    warnings = validate_topology(topology)
    assert len(warnings) == 1
    assert "side-sharing" in warnings[0]
    assert warnings == pairwise_collision_warnings(topology)


def test_synthesized_topologies_validate_clean():
    for seed in range(5):
        circuit = gen_random_circuit(9 + seed, 200, seed)
        assert validate_topology(synthesize_topology(circuit)) == []


def _all_diagonals(nrow: int, ncol: int) -> Topology:
    """A grid holding both diagonals of every unit cell."""
    grid = grid_topology(nrow, ncol)
    diagonals = []
    for r in range(nrow - 1):
        for c in range(ncol - 1):
            q = r * ncol + c
            diagonals += [(q, q + ncol + 1), (q + 1, q + ncol)]
    edges = grid.edges + tuple(diagonals)
    return Topology("crowded", grid.num_qubits, edges, positions=grid.positions)


def test_collision_warnings_match_the_pairwise_scan_on_random_layouts():
    rng = random.Random(20261018)
    for _ in range(300):
        side = rng.randint(1, 5)
        grid = [(r, c) for r in range(side) for c in range(side)]
        cells = rng.sample(grid, rng.randint(1, len(grid)))
        n = len(cells)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = tuple(rng.sample(pairs, rng.randint(0, len(pairs))))
        placed = rng.sample(range(n), rng.randint(0, n))  # some qubits may have no position
        topology = Topology("random", n, edges, positions={q: cells[q] for q in placed})
        assert validate_topology(topology) == pairwise_collision_warnings(topology)
    full = _all_diagonals(4, 5)
    assert validate_topology(full) == pairwise_collision_warnings(full)
    assert len(validate_topology(full)) == 4 * (3 * 3 + 2 * 4)


def test_all_diagonal_grid_collision_scan_runs_in_linear_time():
    # 44 402 diagonals: a scan of every pair compares about 10^9 of them and
    # runs for minutes; one that looks up each cell's side neighbours takes
    # well under a second.
    topology = _all_diagonals(150, 150)

    def too_slow(signum, frame):
        raise TimeoutError("the collision scan of 44 402 diagonals took over 20 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        warnings = validate_topology(topology)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(warnings) == 4 * 2 * 149 * 148  # four pairs per two side-sharing cells


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
        ("edges", [[1, 1]], "self-edge (1,1) (at edges[0])"),
        ("edges", [[0, 1], [0, 1]], "duplicate edge (0,1) (at edges[1])"),
        ("edges", [[0, 1], [1, 2]], "edge (1,2) out of range (at edges[1])"),
        ("edges", [[-1, 1]], "edge (-1,1) out of range (at edges[0])"),
        ("edges", [[1, 0]], "edge (1,0) must satisfy i < j (at edges[0])"),
        ("positions", [[3, -2], [3, -2]], "qubits 0 and 1 share cell [3, -2] (at positions[1])"),
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


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("edges", [[2, 2]], "self-edge (2,2) (at edges[0])"),
        ("edges", [[0, 1], [3, 1]], "edge (3,1) must satisfy i < j (at edges[1])"),
        ("edges", [[True, 1]], "edge must be a pair of integers (at edges[0])"),
        ("edges", [[0, 1.0]], "edge must be a pair of integers (at edges[0])"),
        ("edges", [[0, 1], [0, 1], [0, 5]], "duplicate edge (0,1) (at edges[1])"),
        ("edges", [[0, 1], [0, 5], [0, 1]], "edge (0,5) out of range (at edges[1])"),
        ("positions", [[0, 1], [0, True]], "position must be an [row, col] integer pair (at positions[1])"),
    ],
)
def test_an_entry_that_breaks_two_rules_names_the_first_checked(field, value, error):
    # check order: pair of ints, self-edge, i < j, range, duplicate; a position's
    # pair check comes before its cell is compared
    data = {"name": "t", "num_qubits": 2, "edges": [[0, 1]], field: value}
    with pytest.raises(TopologyFormatError) as err:
        topology_from_dict(data)
    assert str(err.value) == error


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


# Arabic-Indic and full-width digits, a trailing newline, a no-break space
NON_ASCII_NAMES = ["line(\u0664)", "line(4)\n", "grid(\uff12,\uff13)", "grid(2,\xa03)"]


@pytest.mark.parametrize("name", NON_ASCII_NAMES)
def test_builtin_names_are_matched_on_ascii_text_only(name):
    with pytest.raises(UnknownTopologyError):
        builtin_topology(name)


def test_grid_name_may_put_an_ascii_space_after_the_comma():
    assert builtin_topology("grid(2, 3)") == builtin_topology("grid(2,3)")


def _round_trips(topology: Topology, path) -> bool:
    save_topology(topology, path)
    return load_topology(path) == topology


@pytest.mark.parametrize("seed", range(3))
def test_synthesized_topologies_pass_the_load_checks(tmp_path, seed):
    path = tmp_path / "t.json"
    for n in range(2, 41):
        for keep in (True, False):
            topology = synthesize_topology(gen_random_circuit(n, 60, seed), keep_synthetic=keep)
            assert _round_trips(topology, path), (n, keep)
            assert validate_topology(topology) == []


def test_topologies_of_the_bundled_circuits_pass_the_load_checks(tmp_path):
    files = sorted(DATA_DIR.glob("*.qasm"))
    assert files
    for qasm in files:
        topology = synthesize_topology(parse_qasm_file(qasm))
        assert _round_trips(topology, tmp_path / "t.json"), qasm.name
        assert validate_topology(topology) == []


@pytest.mark.parametrize(
    "name",
    ["almaden20", "cairo27", "prague33", "sycamore53", "half_sycamore24"]
    + [f"line({n})" for n in range(1, 7)]
    + ["grid(1,1)", "grid(2,3)", "grid(4,4)", "grid(5,2)"],
)
def test_builtins_pass_the_load_checks(tmp_path, name):
    assert _round_trips(builtin_topology(name), tmp_path / "t.json")


def _encoder_bytes(topology: Topology) -> bytes:
    """What the JSON encoder writes for the schema's fields, indented by two."""
    data = {
        "name": topology.name,
        "num_qubits": topology.num_qubits,
        "edges": [list(pair) for pair in topology.edges],
    }
    if topology.synthetic:
        data["synthetic"] = [pair in topology.synthetic for pair in topology.edges]
    if topology.positions is not None:
        data["positions"] = [list(topology.positions[q]) for q in range(topology.num_qubits)]
    return (json.dumps(data, indent=2) + "\n").encode()


def _writer_cases():
    builtins = ["almaden20", "cairo27", "prague33", "sycamore53", "half_sycamore24"]
    for name in builtins + ["line(0)", "line(1)", "grid(3,4)"]:
        yield name, builtin_topology(name)
    for n in range(2, 34):
        circuit = gen_random_circuit(n, 10 * n, n)
        for keep in (True, False):
            yield f"synth-{n}-{keep}", synthesize_topology(circuit, keep_synthetic=keep)
    yield "no-positions", Topology("bare", 3, ((0, 1), (1, 2)), frozenset({(1, 2)}))
    yield "flags-without-edges", Topology("flags", 2, (), frozenset({(0, 1)}))
    for name in ['quote"d', "back\\slash", "bell\x07tab\tnewline\n", "量子 ça \U0001f600"]:
        yield repr(name), Topology(name, 2, ((0, 1),), positions={0: (0, 0), 1: (-1, 2)})


def test_the_topology_writer_gives_the_encoder_bytes(tmp_path):
    path = tmp_path / "t.json"
    cases = list(_writer_cases())
    assert any(t.synthetic and t.positions for _, t in cases)  # every field is written somewhere
    for label, topology in cases:
        save_topology(topology, path)
        assert path.read_bytes() == _encoder_bytes(topology), label
