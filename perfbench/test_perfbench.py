"""Self-tests for the benchmark: python3 -m pytest perfbench

They run each workload at a tiny size, break one output on purpose to see
the item counted as failed, and check that traced and plain passes agree.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run

tracer, workloads = run.load_program()

TINY = {
    "bench_grid": ["6:200:0", "8:200:1"],
    "synth_sweep": ["8:100:0", "9:300:1", "file:figure6"],
    "qasm_files": ["8:200:0"],
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((run.HERE / "golden.json").read_text(encoding="utf-8"))


def _run_one(workload, item):
    """Run one item with calls captured; return its output and the calls."""
    inst = tracer.Instrument()
    inst.install(trace=False)
    try:
        output = workload.run(item)
    finally:
        inst.restore()
    return output, list(inst.calls)


def test_benchmark_json_names_what_the_runs_print():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units(tracer)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.run_workload(name, 0, 0.0, trace, keys=TINY[name]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_plain_passes_give_the_same_hashes_and_counts(name, tmp_path):
    workload = workloads.WORKLOADS[name](TINY[name], tmp_path)
    measurement = run.Measurement(tracer, workload, None)
    measurement.setup(trace=True)
    measurement.run(0.0, trace=True)
    assert [p["traced"] for p in measurement.passes] == [False, True]
    assert measurement.inst.spans
    assert measurement.failed == 0 and measurement.problems == []


def test_pool_input_matches_its_recorded_hash(tmp_path):
    workload = workloads.BenchGrid(["10:2000:0"], tmp_path)
    workload.setup()
    item = workload.items[0]
    report, calls = _run_one(workload, item)
    outcome = workload.check(item, report, calls)
    assert outcome.problems == []
    assert outcome.digest == GOLDEN["bench_grid"][item.key]


def _bench_item(tmp_path):
    workload = workloads.BenchGrid(["10:2000:0"], tmp_path)
    workload.setup()
    item = workload.items[0]
    report, calls = _run_one(workload, item)
    index = next(i for i, c in enumerate(calls) if c[0] == "routing.route_circuit" and c[2].inserted)
    return workload, item, report, calls, index


def test_removing_one_inserted_swap_fails_the_item(tmp_path):
    workload, item, report, calls, index = _bench_item(tmp_path)
    name, args, result = calls[index]
    drop = result.inserted[0]
    gates = result.routed.gates[:drop] + result.routed.gates[drop + 1 :]
    inserted = tuple(i if i < drop else i - 1 for i in result.inserted[1:])
    routed = dataclasses.replace(result.routed, gates=gates)
    calls[index] = (name, args, dataclasses.replace(result, routed=routed, inserted=inserted))
    outcome = workload.check(item, report, calls)
    assert any("replay" in p for p in outcome.problems)
    assert outcome.digest != GOLDEN["bench_grid"][item.key]


def test_flipping_one_topology_edge_fails_the_item(tmp_path):
    workload, item, report, calls, index = _bench_item(tmp_path)
    name, (circuit, topology), result = calls[index]
    used = next(g.qubits for g in result.routed.gates if len(g.qubits) == 2)
    pair = (min(used), max(used))
    spare = next(
        (a, b)
        for a in range(topology.num_qubits)
        for b in range(a + 1, topology.num_qubits)
        if (a, b) not in topology.edges
    )
    edges = tuple(sorted(spare if e == pair else e for e in topology.edges))
    calls[index] = (name, (circuit, dataclasses.replace(topology, edges=edges)), result)
    outcome = workload.check(item, report, calls)
    assert any("off the couplers" in p for p in outcome.problems)


def test_flipping_one_written_edge_fails_a_qasm_item(tmp_path):
    workload = workloads.QasmFiles(["8:2000:0"], tmp_path)
    item = workload.items[0]
    output, calls = _run_one(workload, item)
    data = json.loads(workload.topology_path.read_text(encoding="utf-8"))
    edges = {tuple(e) for e in data["edges"]}
    routed = workloads.parse_qasm(workload.routed_path.read_text(encoding="utf-8"))
    used = next(tuple(sorted(g.qubits)) for g in routed.gates if len(g.qubits) == 2)
    spare = next(
        (a, b) for a in range(data["num_qubits"]) for b in range(a + 1, data["num_qubits"])
        if (a, b) not in edges
    )
    data["edges"] = sorted([list(spare)] + [list(e) for e in edges if e != used])
    workload.topology_path.write_text(json.dumps(data), encoding="utf-8")
    outcome = workload.check(item, output, calls)
    assert any("off the written couplers" in p for p in outcome.problems)
    assert outcome.digest != GOLDEN["qasm_files"][item.key]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_every_seed_draws_recorded_inputs(cls):
    assert cls.draw(7) == cls.draw(7)
    assert cls.draw(7) != cls.draw(8)
    for seed in (0, 1, 2, 2**40 + 3):
        assert set(cls.draw(seed)) <= set(GOLDEN[cls.name])
    assert set(cls.pool()) == set(GOLDEN[cls.name])
