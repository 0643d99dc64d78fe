"""Benchmark harness tests: generator, fidelity proxy, comparison reports."""

import csv
import json

import pytest

from cacore.bench import (
    BenchmarkReport,
    NoiseParams,
    emit_report,
    estimate_fidelity,
    gen_random_circuit,
    run_comparison,
)
import cacore.routing
from cacore.errors import DegenerateInputError
from cacore.ir import Circuit, Gate, GateKind
from cacore.routing import route_circuit
from cacore.synthesis import synthesize_topology
from cacore.topology import Topology, builtin_topology

from conftest import empty_gate_table
from oracles import complete


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
        route_circuit(gen_random_circuit(16, 2000, seed), complete(16)).metrics.depth
        for seed in range(100)
    ]
    assert all(100 <= d <= 400 for d in depths)


def test_noise_params_validation():
    NoiseParams(0.001)
    with pytest.raises(ValueError):
        NoiseParams(-0.1)
    with pytest.raises(ValueError, match="exceeds 1"):
        NoiseParams(0.3)
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            NoiseParams(epsilon)
    # -0.0 is stored as 0.0, so it cannot name a second column of the values of
    # ``fidelity@0``; no other rate changes type or repr
    assert repr(NoiseParams(-0.0).epsilon) == "0.0"
    for epsilon in (0, 0.0, 5e-324, 1e-3, 0.2):
        stored = NoiseParams(epsilon).epsilon
        assert type(stored) is type(epsilon) and repr(stored) == repr(epsilon)


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
    ca = synthesize_topology(circuit)
    itself = Topology("itself", ca.num_qubits, ca.edges, ca.synthetic, ca.positions)
    report = run_comparison([circuit], [itself], [NoiseParams(0.001)])
    agg = report.aggregates[0]
    assert agg["swap_reduction_pct"] == 0.0
    assert agg["depth_reduction_pct"] == 0.0
    assert agg["gate_reduction_pct"] == 0.0


@pytest.mark.parametrize("names", [["ca_core"], ["cairo27", "cairo27"], ["line(4)", "ca_core"]])
def test_baselines_that_would_share_a_report_label_are_refused(monkeypatch, names):
    def no_routing(*args):
        raise AssertionError("routed before the labels were checked")

    monkeypatch.setattr("cacore.bench.route_circuit", no_routing)
    baselines = [builtin_topology("cairo27" if name == "ca_core" else name) for name in names]
    baselines = [Topology(name, t.num_qubits, t.edges) for name, t in zip(names, baselines)]
    with pytest.raises(ValueError, match="share the report label"):
        run_comparison([gen_random_circuit(4, 50, 0)], baselines, [NoiseParams(0.001)])


def test_a_second_comparison_builds_no_gate(monkeypatch, gate_builds):
    circuits = [gen_random_circuit(10, 500, seed) for seed in (3, 4)]
    baselines = [builtin_topology("cairo27"), builtin_topology("prague33")]
    empty_gate_table(monkeypatch)
    first = run_comparison(circuits, baselines, [NoiseParams(0.001)])
    assert gate_builds  # from an empty gate table, the first routes build gates
    gate_builds.clear()
    again = run_comparison(circuits, baselines, [NoiseParams(0.001)])
    assert again.to_dict() == first.to_dict() and gate_builds == []


@pytest.mark.parametrize(
    "rates", [(0.001, 0.001), (0.002, 0.001, 1e-3), (5e-4, 0.0005), (0.0, -0.0)]
)
def test_rates_that_would_share_a_fidelity_column_are_refused(monkeypatch, rates):
    def no_work(*args):
        raise AssertionError("synthesized or routed before the rates were checked")

    monkeypatch.setattr("cacore.bench.synthesize_topology", no_work)
    monkeypatch.setattr("cacore.bench.route_circuit", no_work)
    circuits = [gen_random_circuit(4, 50, 0)]
    noise = [NoiseParams(eps) for eps in rates]
    with pytest.raises(ValueError, match="share the report label 'fidelity@"):
        run_comparison(circuits, [builtin_topology("line(4)")], noise)


def test_a_second_comparison_builds_only_the_synthesized_maps_tables(monkeypatch):
    """The baselines keep their per-target tables: run again on the same four
    objects, a comparison builds only the tables of its new synthesized maps,
    as many as a run with no baseline builds."""
    built = []
    toward = cacore.routing._toward

    def counting(adjacency, dst):
        built.append(dst)
        return toward(adjacency, dst)

    monkeypatch.setattr(cacore.routing, "_toward", counting)
    circuits = [gen_random_circuit(n, 2000, seed) for n in range(10, 21) for seed in (0, 1)]
    names = ("almaden20", "cairo27", "prague33", "sycamore53")
    baselines = [builtin_topology(name) for name in names]
    noise = [NoiseParams(0.001)]
    counts = []
    reports = []
    for topologies in (baselines, baselines, []):
        built.clear()
        reports.append(run_comparison(circuits, topologies, noise).to_dict())
        counts.append(len(built))
    first, again, synthesized_only = counts
    assert reports[0] == reports[1]
    assert synthesized_only > 0 and again == synthesized_only < first


def test_oversized_circuits_are_skipped():
    circuits = [gen_random_circuit(21, 200, 0)]
    report = run_comparison(circuits, [builtin_topology("almaden20")], [NoiseParams(0.001)])
    assert report.skips == [
        {"circuit": circuits[0].name, "topology": "almaden20", "reason": "circuit too large"}
    ]
    assert [r["topology"] for r in report.rows] == ["ca_core"]


def test_synthesis_failure_is_recorded_and_the_run_continues(monkeypatch):
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
    # a route that fails verification is recorded too, and the run goes on
    monkeypatch.setattr("cacore.bench.verify_routing", lambda *args: False)
    report = run_comparison([good, bad], [builtin_topology("line(4)")], [NoiseParams(0.001)])
    assert report.rows == []
    assert [(f["circuit"], f["topology"], f["error"]) for f in report.failures[:2]] == [
        (good.name, "ca_core", "routing verification failed"),
        (good.name, "line(4)", "routing verification failed"),
    ]
    assert [(f["circuit"], f["topology"]) for f in report.failures[2:]] == [
        ("bad", "ca_core"), ("bad", "line(4)")
    ]


def test_baseline_with_an_out_of_range_coupler_is_recorded_and_the_run_continues():
    circuit = gen_random_circuit(3, 30, 0)
    bad = Topology("bad", 3, ((0, 1), (0, 5)))
    report = run_comparison([circuit], [bad, builtin_topology("line(3)")], [NoiseParams(0.001)])
    assert [r["topology"] for r in report.rows] == ["ca_core", "line(3)"]
    assert len(report.failures) == 1
    assert report.failures[0]["topology"] == "bad"
    assert "coupler (0, 5) has an endpoint that is not a qubit" in report.failures[0]["error"]


def _expected_aggregates(rows, baselines):
    """The aggregates of ``rows``, from the rows alone: for each qubit count with
    ca_core rows, in ascending order, one entry per baseline with rows there."""
    metrics = ("depth", "gates", "swaps")
    expected = []
    for qubits in sorted({row["qubits"] for row in rows}):
        ca = [row for row in rows if row["qubits"] == qubits and row["topology"] == "ca_core"]
        for name in baselines:
            base = [row for row in rows if row["qubits"] == qubits and row["topology"] == name]
            if not ca or not base:
                continue
            base_mean = {m: sum(row[m] for row in base) / len(base) for m in metrics}
            ca_mean = {m: sum(row[m] for row in ca) / len(ca) for m in metrics}
            entry = {"qubits": qubits, "baseline": name, "samples": len(base),
                     "baseline_mean": base_mean, "ca_core_mean": ca_mean}
            for m, key in zip(metrics, ("depth_reduction_pct", "gate_reduction_pct",
                                        "swap_reduction_pct")):
                b, c = base_mean[m], ca_mean[m]
                entry[key] = 0.0 if b == 0 else (b - c) / b * 100.0
            expected.append(entry)
    return expected


def test_aggregates_equal_means_computed_from_the_rows(monkeypatch):
    # 7 qubits: synthesis fails, so ca_core has no rows and no aggregate there;
    # 9 qubits: grid(2,4) is too small and skipped, so its entry is left out
    def failing_at_seven(circuit):
        if circuit.num_qubits == 7:
            raise DegenerateInputError("no map for 7 qubits")
        return synthesize_topology(circuit)

    monkeypatch.setattr("cacore.bench.synthesize_topology", failing_at_seven)
    circuits = [gen_random_circuit(n, 120, seed) for seed in range(3) for n in (9, 7)]
    names = ["line(9)", "grid(2,4)", "cairo27"]
    report = run_comparison(circuits, [builtin_topology(n) for n in names], [NoiseParams(0.001)])
    assert {(row["qubits"], row["topology"]) for row in report.rows} == {
        (7, "line(9)"), (7, "grid(2,4)"), (7, "cairo27"),
        (9, "ca_core"), (9, "line(9)"), (9, "cairo27"),
    }
    assert [(a["qubits"], a["baseline"], a["samples"]) for a in report.aggregates] == [
        (9, "line(9)", 3), (9, "cairo27", 3)
    ]
    expected = _expected_aggregates(report.rows, names)
    assert report.aggregates == expected
    assert [list(a) for a in report.aggregates] == [list(e) for e in expected]  # the JSON key order
    assert any(a["swap_reduction_pct"] != 0.0 for a in report.aggregates)


def test_csv_row_count_and_columns(tmp_path):
    report = small_report()
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    assert header == [
        "circuit", "seed", "qubits", "topology", "depth", "gates", "swaps",
        "fidelity@0.001", "fidelity@0.005",
    ]
    # circuits x (ca_core + 2 baselines) - 0 skips
    assert len(body) == 2 * 3


def test_close_error_rates_get_distinct_columns(tmp_path):
    noise = [NoiseParams(0.0010000001), NoiseParams(0.001)]
    report = run_comparison([gen_random_circuit(4, 200, 0)], [builtin_topology("line(4)")], noise)
    keys = ["fidelity@0.0010000001", "fidelity@0.001"]
    for row in report.rows:
        assert [k for k in row if k.startswith("fidelity@")] == keys
        assert row[keys[0]] != row[keys[1]]
    emit_report(report, "csv", tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames[-2:] == keys
        assert all(line[keys[0]] != line[keys[1]] for line in reader)


def test_config_names_the_rates_and_baselines_the_run_used(tmp_path):
    # A caller's config may name other rates and devices; the report's must be the run's,
    # or the CSV gets fidelity columns that no row fills. Other keys keep their place.
    config = {"qubits": [4], "epsilons": [0.01], "baselines": ["grid(2,2)"], "seeds": [0]}
    report = run_comparison(
        [gen_random_circuit(4, 50, 0)], [builtin_topology("line(4)")], [NoiseParams(0.001)],
        config=config,
    )
    assert report.config == {
        "qubits": [4], "epsilons": [0.001], "baselines": ["line(4)"], "seeds": [0],
    }
    assert list(report.config) == list(config)
    emit_report(report, "csv", tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames[-1] == "fidelity@0.001"
        assert all(line["fidelity@0.001"] for line in reader)


def test_empty_report_is_header_only(tmp_path):
    report = BenchmarkReport(config={"epsilons": [0.001]})
    path = tmp_path / "empty.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1


def test_json_round_trip(tmp_path):
    report = small_report()
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    assert BenchmarkReport(**json.loads(path.read_text())) == report
    # and the raw dict round-trips losslessly
    raw = json.loads(path.read_text())
    assert raw == report.to_dict()


def test_emit_report_writes_no_file_for_nan_or_an_unknown_format(tmp_path):
    report = small_report()
    report.rows[0]["depth"] = float("nan")  # JSON has no NaN, which json.dumps writes by default
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_report(report, "json", path)
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        emit_report(small_report(), "xml", tmp_path / "report.xml")
    assert list(tmp_path.iterdir()) == []


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
