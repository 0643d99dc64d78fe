"""Command-line interface tests."""

import json
import os
import re
import subprocess
import sys

import pytest

from cacore.cli import main
from cacore.qasm import parse_qasm_file
from cacore.topology import load_topology

from conftest import DATA_DIR, SRC_DIR

FIGURE = str(DATA_DIR / "figure6.qasm")


def test_synth_writes_topology(tmp_path, capsys):
    out = tmp_path / "topo.json"
    assert main(["synth", FIGURE, "-o", str(out)]) == 0
    topology = load_topology(out)
    assert topology.num_qubits == 6
    assert "wrote" in capsys.readouterr().out


def test_synth_drop_synthetic(tmp_path):
    out = tmp_path / "topo.json"
    assert main(["synth", FIGURE, "-o", str(out), "--drop-synthetic"]) == 0
    assert load_topology(out).synthetic == frozenset()


def test_synth_missing_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.qasm"
    code = main(["synth", str(missing), "-o", str(tmp_path / "t.json")])
    assert code == 2
    assert "nope.qasm" in capsys.readouterr().err


def test_synth_output_in_missing_directory(tmp_path):
    out = tmp_path / "no_such_dir" / "t.json"
    assert main(["synth", FIGURE, "-o", str(out)]) == 2


def test_route_metrics_file(tmp_path):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("qreg q[3];\ncx q[0],q[2];\n")
    metrics_path = tmp_path / "metrics.json"
    code = main(["route", str(qasm), "-t", "line(3)", "--metrics", str(metrics_path)])
    assert code == 0
    payload = json.loads(metrics_path.read_text())
    assert payload["swap_count"] == 1
    assert payload["verified"] is True


def test_route_compatible_circuit_zero_swaps(tmp_path, capsys):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("qreg q[2];\ncx q[0],q[1];\n")
    assert main(["route", str(qasm), "-t", "line(2)"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["swap_count"] == 0


def test_route_disconnected_topology_fails(tmp_path, capsys):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("qreg q[4];\ncx q[0],q[3];\n")
    topo = tmp_path / "split.json"
    topo.write_text(json.dumps({"name": "split", "num_qubits": 4, "edges": [[0, 1], [2, 3]]}))
    assert main(["route", str(qasm), "-t", str(topo)]) == 3
    assert "different components" in capsys.readouterr().err


def test_route_emits_qasm(tmp_path):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("qreg q[3];\ncx q[0],q[2];\n")
    routed = tmp_path / "routed.qasm"
    assert main(["route", str(qasm), "-t", "line(3)", "--routed-qasm", str(routed)]) == 0
    assert "swap" in routed.read_text()
    assert parse_qasm_file(routed).num_qubits == 3


def test_gen_round_trips_through_file(tmp_path):
    out = tmp_path / "rand.qasm"
    assert main(["gen", "-n", "8", "--gates", "100", "--seed", "5", "-o", str(out)]) == 0
    circuit = parse_qasm_file(out)
    assert circuit.num_qubits == 8
    assert len(circuit.gates) >= 100


def test_gen_deterministic_output(tmp_path):
    a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
    for path in (a, b):
        assert main(["gen", "-n", "6", "--gates", "50", "--seed", "2", "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_small_run_and_idempotence(tmp_path):
    out = tmp_path / "bench"
    args = [
        "bench", "--qubits", "5..6", "--seeds", "2", "--gates", "80",
        "--baselines", "line(6),grid(2,3)", "--eps", "0.001", "-o", str(out),
    ]
    assert main(args) == 0
    csv_text = (out / "report.csv").read_text()
    # 4 circuits x (ca_core + 2 baselines), plus header
    assert len(csv_text.strip().splitlines()) == 1 + 4 * 3
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["qubits"] == [5, 6]
    assert main(args) == 0
    assert (out / "report.csv").read_text() == csv_text


def test_bench_partial_failure_exit_code(tmp_path):
    # a disconnected baseline makes some cells unroutable: exit 4, run continues
    topo = tmp_path / "split.json"
    topo.write_text(json.dumps(
        {"name": "split6", "num_qubits": 6, "edges": [[0, 1], [1, 2], [3, 4], [4, 5]]}
    ))
    out = tmp_path / "bench"
    code = main(["bench", "--qubits", "6..6", "--seeds", "1", "--gates", "40",
                 "--baselines", str(topo), "-o", str(out)])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] and report["rows"]


def test_bench_unknown_baseline_is_input_error(tmp_path):
    code = main(["bench", "--qubits", "5..5", "--seeds", "1",
                 "--baselines", "not_a_device", "-o", str(tmp_path)])
    assert code == 2


def test_bench_unknown_format_is_usage_error(tmp_path):
    code = main(["bench", "--qubits", "5..5", "--seeds", "1", "--gates", "40",
                 "--baselines", "line(5)", "--format", "xml", "-o", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize(
    "argv,code",
    [
        (["bench", "--eps", "abc"], 1),
        (["bench", "--eps", "nan"], 1),
        (["bench", "--eps", "0.001,inf"], 1),
        (["bench", "--qubits", "5..x"], 1),
        (["bench", "--qubits", "5,six"], 1),
        (["gen", "-n", "1"], 3),
        (["bench", "--qubits", "5..3"], 1),
        (["bench", "--seeds", "-1"], 1),
        (["bench", "--seeds", "0"], 1),
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "--format", "xml"], 1),
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "--format", "csv,xml"], 1),
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "--format", ","], 1),
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "0"], 1),
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "-5"], 1),
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "--eps", ","], 1),
        (["gen", "-n", "4", "--gates", "0"], 1),
        (["gen", "-n", "4", "--gates", "-3"], 1),
        (["bench", "--eps", "0.5"], 1),
        (["gen", "-n", "4", "--gates", "x"], 1),
    ],
)
def test_bad_values_fail_with_one_error_line(tmp_path, capsys, argv, code):
    assert main([*argv, "-o", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    if argv[:3] == ["bench", "--eps", "0.5"]:
        assert "exceeds 1" in err  # the reason, not just the rejected value
    assert not re.search(r"\b_[a-z]", err)  # the reason, not the name of a private parser
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["qreg q[2];\nh q[{}];\n", "qreg q[{}];\n"])
def test_validate_reports_an_oversized_integer_on_one_line(tmp_path, capsys, text):
    source = tmp_path / "big.qasm"
    source.write_text(text.format("1" * 5000))
    assert main(["validate", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and len(err.splitlines()) == 1


def test_main_parses_cleanly_after_a_usage_error(tmp_path, capsys):
    # the argument parser is built once per process and shared by every call
    circuit = tmp_path / "g.qasm"
    assert main(["gen", "-n", "4", "--gates", "10", "-o", str(circuit)]) == 0
    assert main(["synth", str(circuit), "--bogus", "-o", str(tmp_path / "t.json")]) == 1
    capsys.readouterr()
    topology = tmp_path / "t.json"
    assert main(["synth", str(circuit), "-o", str(topology)]) == 0
    assert main(["route", str(circuit), "-t", str(topology)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out.splitlines()[-1])["verified"] is True
    assert load_topology(topology).num_qubits == 4


@pytest.mark.parametrize("module", ["cacore", "cacore.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    good = tmp_path / "good.qasm"
    done = run("gen", "-n", "4", "--gates", "10", "-o", str(good))
    assert done.returncode == 0, done.stderr
    assert parse_qasm_file(good).num_qubits == 4
    bad = tmp_path / "bad.qasm"
    failed = run("gen", "-n", "4", "--gates", "-3", "-o", str(bad))
    assert failed.returncode == 1
    assert "Traceback" not in failed.stderr
    assert len([line for line in failed.stderr.splitlines() if "error:" in line]) == 1
    assert not bad.exists()


@pytest.mark.parametrize(
    "data",
    [
        {"name": "t", "num_qubits": True, "edges": []},
        {"name": "t", "num_qubits": 2, "edges": [[False, True]]},
        {"name": "t", "num_qubits": 2, "edges": [[0, 1]], "positions": [[0, False], [0, 1]]},
    ],
)
def test_validate_rejects_booleans_as_integers(tmp_path, capsys, data):
    topo = tmp_path / "bool.json"
    topo.write_text(json.dumps(data))
    assert main(["validate", str(topo)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_validate_circuit_and_topology(tmp_path, capsys):
    assert main(["validate", FIGURE]) == 0
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps({"name": "t", "num_qubits": 2, "edges": [[0, 1]]}))
    assert main(["validate", str(topo)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "t", "num_qubits": 2, "edges": [[0, 0]]}))
    assert main(["validate", str(bad)]) == 2  # format error at load time
    capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["synth"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_lists_commands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("synth", "route", "bench", "gen", "validate"):
        assert command in out


@pytest.mark.parametrize("command", ["synth", "route", "bench", "gen", "validate"])
def test_subcommand_help(command, capsys):
    assert main([command, "--help"]) == 0
    capsys.readouterr()
