"""Benchmark harness tests: generator, fidelity proxy, comparison reports."""

import csv
import json

import pytest

from cacore.analysis import circuit_stats
from cacore.bench import (
    BenchmarkReport,
    NoiseParams,
    emit_report,
    estimate_fidelity,
    gen_random_circuit,
    run_comparison,
    write_report_csv,
    write_report_json,
)
from cacore.ir import Circuit, Gate, GateKind
from cacore.routing import route_circuit
from cacore.topology import builtin_topology


def test_generator_deterministic():
    first = gen_random_circuit(10, 2000, seed=1)
    second = gen_random_circuit(10, 2000, seed=1)
    assert first.gates == second.gates
    assert first.gates != gen_random_circuit(10, 2000, seed=2).gates


@pytest.mark.parametrize("n,target", [(10, 500), (16, 2000), (33, 1000)])
def test_generator_gate_count_bounds(n, target):
    for seed in range(5):
        circuit = gen_random_circuit(n, target, seed)
        assert target <= len(circuit.gates) <= target + 2 * n


def test_generator_gate_vocabulary():
    circuit = gen_random_circuit(12, 400, seed=0)
    kinds = {g.kind for g in circuit.gates}
    assert kinds <= {GateKind.CNOT, GateKind.H, GateKind.X, GateKind.S, GateKind.T}
    cnots = [g for g in circuit.gates if g.kind is GateKind.CNOT]
    assert cnots and all(g.qubits[0] != g.qubits[1] for g in cnots)


def test_generator_depth_near_target_regime():
    # 16 qubits at 2000 gates should land within a factor 2 of depth 200
    depths = [
        circuit_stats(gen_random_circuit(16, 2000, seed)).depth for seed in range(100)
    ]
    assert all(100 <= d <= 400 for d in depths)


def test_noise_params_validation():
    NoiseParams(0.001)
    with pytest.raises(ValueError):
        NoiseParams(-0.1)
    with pytest.raises(ValueError):
        NoiseParams(0.3, two_qubit_factor=5.0)
    for epsilon, factor in ((float("nan"), 5.0), (float("inf"), 0.0), (0.001, float("nan"))):
        with pytest.raises(ValueError):
            NoiseParams(epsilon, two_qubit_factor=factor)


def test_fidelity_epsilon_zero_is_one():
    metrics = route_circuit(gen_random_circuit(6, 80, 0), builtin_topology("line(6)")).metrics
    assert estimate_fidelity(metrics, NoiseParams(0.0)) == 1.0


def test_fidelity_single_two_qubit_gate():
    from cacore.ir import Circuit, Gate

    single = route_circuit(Circuit(2, (Gate(GateKind.CNOT, (0, 1)),)), builtin_topology("line(2)")).metrics
    assert estimate_fidelity(single, NoiseParams(0.001)) == pytest.approx(0.995)


def test_fidelity_expands_swaps_to_three_cnots():
    from cacore.ir import Circuit, Gate

    line = builtin_topology("line(2)")
    swap = route_circuit(Circuit(2, (Gate(GateKind.SWAP, (0, 1)),)), line).metrics
    cnot3 = route_circuit(Circuit(2, tuple(Gate(GateKind.CNOT, (0, 1)) for _ in range(3))), line).metrics
    noise = NoiseParams(0.002)
    assert estimate_fidelity(swap, noise) == pytest.approx(estimate_fidelity(cnot3, noise))


def test_fidelity_monotone_in_swaps_and_bounded():
    circuit = gen_random_circuit(8, 150, seed=4)
    sparse = route_circuit(circuit, builtin_topology("line(8)")).metrics
    dense = route_circuit(circuit, builtin_topology("grid(3,3)")).metrics
    assert dense.swap_count <= sparse.swap_count
    for eps in (0.0005, 0.001, 0.005, 0.05):
        noise = NoiseParams(eps)
        f_sparse = estimate_fidelity(sparse, noise)
        f_dense = estimate_fidelity(dense, noise)
        assert 0.0 <= f_sparse <= 1.0 and 0.0 <= f_dense <= 1.0
        if dense.swap_count < sparse.swap_count and eps > 0:
            assert f_dense > f_sparse


def small_report():
    circuits = [gen_random_circuit(6, 100, s) for s in (0, 1)]
    baselines = [builtin_topology("line(6)"), builtin_topology("grid(2,3)")]
    return run_comparison(
        circuits, baselines, [NoiseParams(0.001), NoiseParams(0.005)], seeds=[0, 1]
    )


def test_comparison_against_itself_is_zero_reduction():
    circuit = gen_random_circuit(6, 100, 0)
    from cacore.synthesis import synthesize_topology

    ca = synthesize_topology(circuit)
    report = run_comparison([circuit], [ca], [NoiseParams(0.001)])
    agg = report.aggregates[0]
    assert agg["swap_reduction_pct"] == 0.0
    assert agg["depth_reduction_pct"] == 0.0
    assert agg["gate_reduction_pct"] == 0.0


def test_oversized_circuits_are_skipped():
    circuits = [gen_random_circuit(21, 200, 0)]
    report = run_comparison(circuits, [builtin_topology("almaden20")], [NoiseParams(0.001)])
    assert report.skips == [
        {"circuit": circuits[0].name, "topology": "almaden20", "reason": "circuit too large"}
    ]
    assert [r["topology"] for r in report.rows] == ["ca_core"]


def test_synthesis_failure_is_recorded_and_the_run_continues():
    good = gen_random_circuit(4, 50, 0)
    bad = Circuit(3, (Gate(GateKind.CNOT, (3, 0)),), "bad")
    report = run_comparison([good, bad], [builtin_topology("line(4)")], [NoiseParams(0.001)])
    assert [(r["circuit"], r["topology"]) for r in report.rows] == [
        (good.name, "ca_core"), (good.name, "line(4)")
    ]
    assert [(f["circuit"], f["topology"]) for f in report.failures] == [
        ("bad", "ca_core"), ("bad", "line(4)")
    ]
    assert all("out of range" in f["error"] for f in report.failures)


def test_csv_row_count_and_columns(tmp_path):
    report = small_report()
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    assert header == [
        "circuit", "seed", "qubits", "topology", "depth", "gates", "swaps",
        "fidelity@0.001", "fidelity@0.005",
    ]
    # circuits x (ca_core + 2 baselines) - 0 skips
    assert len(body) == 2 * 3


def test_empty_report_is_header_only(tmp_path):
    report = BenchmarkReport(config={"epsilons": [0.001]})
    path = tmp_path / "empty.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1


def test_json_round_trip(tmp_path):
    report = small_report()
    path = tmp_path / "report.json"
    write_report_json(report, path)
    assert BenchmarkReport(**json.loads(path.read_text())) == report
    # and the raw dict round-trips losslessly
    raw = json.loads(path.read_text())
    assert raw == report.to_dict()


def test_reports_reproducible_byte_identical(tmp_path):
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        emit_report(small_report(), fmt, a)
        emit_report(small_report(), fmt, b)
        assert a.read_bytes() == b.read_bytes()


def test_reductions_consistent_with_rows():
    report = small_report()
    rows = {(r["topology"], r["circuit"]): r for r in report.rows}
    for agg in report.aggregates:
        base = agg["baseline"]
        ca_rows = [r for (t, _), r in rows.items() if t == "ca_core"]
        base_rows = [r for (t, _), r in rows.items() if t == base]
        base_mean = sum(r["swaps"] for r in base_rows) / len(base_rows)
        ca_mean = sum(r["swaps"] for r in ca_rows) / len(ca_rows)
        expected = 0.0 if base_mean == 0 else (base_mean - ca_mean) / base_mean * 100
        assert agg["swap_reduction_pct"] == pytest.approx(expected)
