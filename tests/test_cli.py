"""Command-line interface tests."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cacore.cli import main
from cacore.errors import CacoreError
from cacore.ir import MAX_QUBITS
from cacore.qasm import parse_qasm_file
from cacore.topology import Topology, builtin_topology, load_topology, save_topology

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


def test_route_that_fails_verification_says_so_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("cacore.cli.verify_routing", lambda circuit, result, topology: False)
    qasm = tmp_path / "c.qasm"
    qasm.write_text("qreg q[3];\ncx q[0],q[2];\n")
    metrics, routed = tmp_path / "metrics.json", tmp_path / "routed.qasm"
    argv = ["route", str(qasm), "-t", "line(3)", "--metrics", str(metrics), "--routed-qasm", str(routed)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == "error: routing verification failed\n"
    payload = json.loads(out)
    assert payload["verified"] is False and payload["swap_count"] == 1
    assert json.loads(metrics.read_text()) == payload
    assert parse_qasm_file(routed).num_qubits == 3


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


def test_bench_report_config_lists_the_run_in_order(tmp_path):
    out = tmp_path / "bench"
    args = ["bench", "--qubits", "4,5", "--seeds", "2", "--gates", "20",
            "--baselines", "line(5)", "-o", str(out)]
    assert main(args) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert list(config.items()) == [
        ("qubits", [4, 5]), ("seeds", [0, 1]), ("target_gates", 20),
        ("baselines", ["line(5)"]), ("epsilons", [0.0005, 0.001, 0.002, 0.005]),
    ]


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


@pytest.mark.parametrize("baselines", ["{ca},cairo27", "cairo27,cairo27"])
def test_bench_baselines_sharing_a_report_label_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                                 baselines):
    def no_circuits(*args):
        raise AssertionError("generated circuits before the labels were checked")

    monkeypatch.setattr("cacore.cli.gen_random_circuit", no_circuits)
    ca = tmp_path / "ca.json"
    cairo = builtin_topology("cairo27")
    save_topology(Topology("ca_core", cairo.num_qubits, cairo.edges), ca)
    out = tmp_path / "bench"
    code = main(["bench", "--qubits", "6", "--seeds", "2", "--gates", "200",
                 "--baselines", baselines.format(ca=ca), "-o", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("rates", ["0.001,0.001", "0.002,0.001,1e-3", "5e-4,0.0005"])
def test_bench_rates_sharing_a_fidelity_column_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                                 rates):
    def no_circuits(*args):
        raise AssertionError("generated circuits before the rates were checked")

    monkeypatch.setattr("cacore.cli.gen_random_circuit", no_circuits)
    out = tmp_path / "bench"
    code = main(["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "--eps", rates,
                 "-o", str(out)])
    assert code == 1
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "fidelity@" in errors[0]


def test_bench_output_naming_a_file_fails_before_any_circuit_is_generated(tmp_path, capsys,
                                                                         monkeypatch):
    def no_circuits(*args):
        raise AssertionError("generated circuits before the output directory was made")

    monkeypatch.setattr("cacore.cli.gen_random_circuit", no_circuits)
    out = tmp_path / "report"
    out.write_text("kept\n", encoding="utf-8")
    code = main(["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert out.read_text(encoding="utf-8") == "kept\n"


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
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "--eps", "0.001,0.001,1e-3"], 1),
        (["gen", "-n", "4", "--gates", "0"], 1),
        (["gen", "-n", "4", "--gates", "-3"], 1),
        (["bench", "--eps", "0.5"], 1),
        (["gen", "-n", "4", "--gates", "x"], 1),
        (["gen", "-n", str(MAX_QUBITS + 1)], 1),
        (["bench", "--qubits", f"2..{MAX_QUBITS + 1}"], 1),
        (["bench", "--qubits", "4", "--seeds", "1", "--gates", "20", "--eps", "0,-0",
          "--baselines", "line(4)"], 1),
    ],
)
def test_bad_values_fail_with_one_error_line(tmp_path, capsys, argv, code):
    assert main([*argv, "-o", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    if argv[:3] == ["bench", "--eps", "0.5"]:
        assert "exceeds 1" in err  # the reason, not just the rejected value
    if argv[:3] == ["bench", "--eps", "nan"]:  # the record's repr names the value
        assert "noise parameters must be finite, got NoiseParams(epsilon=nan)" in err
    assert not re.search(r"\b_[a-z]", err)  # the reason, not the name of a private parser
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "spec",
    ["file", f"line({MAX_QUBITS + 1})", f"grid(1,{MAX_QUBITS + 1})", f"line({'1' * 5000})"],
    ids=["json", "line", "grid", "line-of-5000-digits"],
)
def test_oversized_topology_fails_with_one_error_line(tmp_path, capsys, spec):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("qreg q[2];\ncx q[0],q[1];\n")
    if spec == "file":
        spec = str(tmp_path / "big.json")
        Path(spec).write_text(json.dumps({"name": "big", "num_qubits": MAX_QUBITS + 1, "edges": []}))
    assert main(["route", str(qasm), "-t", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"more than {MAX_QUBITS} qubits" in err


@pytest.mark.parametrize("spec", ["line(\u0664)", "line(4)\n", "grid(\uff12,\uff13)", "grid(2,\xa03)"])
def test_non_ascii_builtin_name_fails_with_one_error_line(tmp_path, capsys, spec):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("qreg q[2];\ncx q[0],q[1];\n")
    assert main(["route", str(qasm), "-t", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown topology") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", ["qreg q[2];\nh q[{}];\n", "qreg q[{}];\n"])
def test_validate_reports_an_oversized_integer_on_one_line(tmp_path, capsys, text):
    source = tmp_path / "big.qasm"
    source.write_text(text.format("1" * 5000))
    assert main(["validate", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and len(err.splitlines()) == 1


def test_validate_reports_an_oversized_register_on_one_line(tmp_path, capsys):
    source = tmp_path / "huge.qasm"
    source.write_text("qreg q[99999999999];\nh q[0];\n")
    assert main(["validate", str(source)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 1: ") and len(err.splitlines()) == 1


def test_validate_reports_identical_endpoints_on_one_line(tmp_path, capsys):
    source = tmp_path / "loop.qasm"
    source.write_text("qreg q[2];\nh q[0];\ncx q[0],q[0];\n")
    assert main(["validate", str(source)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 3: cx: duplicate qubit operand\n"


_DEEP = 5000  # far past the recursion limit of a descent without a depth bound
_NESTED = b"[" * 100_000 + b"]" * 100_000  # past the JSON reader's own limit


@pytest.mark.parametrize(
    "name, data, command, message",
    [
        ("c.qasm", b"qreg q[2];\r\nh q[0];\n// caf\xff\nh q[1];\n", "validate",
         "line 3: byte 0xff is not valid UTF-8"),
        ("c.qasm", b"qreg q[2];\ncx q[0],q[1]; \xff\n", "synth",
         "line 2: byte 0xff is not valid UTF-8"),
        ("t.json", b'{"name": "t",\n "num_qubits": 2, "edges": [[0, 1]]}\xfe\n', "validate",
         "byte 0xfe is not valid UTF-8 (at line 2)"),
        ("t.json", b'{"name": "t", "num_qubits": 2, "edges": [[0, 1]]}\xff', "route",
         "byte 0xff is not valid UTF-8 (at line 1)"),
        ("c.qasm", f"qreg q[1];\nrz({'(' * _DEEP}1{')' * _DEEP}) q[0];\n".encode(), "validate",
         "line 2: angle expression nested more than 64 deep"),
        ("c.qasm", f"qreg q[1];\n\nrz({'-' * _DEEP}1) q[0];\n".encode(), "synth",
         "line 3: angle expression nested more than 64 deep"),
        ("t.json", b'{"name": "t", "num_qubits": 2, "edges": ' + _NESTED + b"}", "route",
         "invalid JSON: nested too deeply"),
        ("t.json", b'{"edges": ' + _NESTED + b"}", "validate", "invalid JSON: nested too deeply"),
    ],
    ids=["qasm-validate", "qasm-synth", "json-validate", "json-route", "parens", "unary-minus",
         "json-route-deep", "json-validate-deep"],
)
def test_undecodable_or_deeply_nested_input_fails_with_one_error_line(
    tmp_path, capsys, name, data, command, message
):
    path = tmp_path / name
    path.write_bytes(data)
    circuit = tmp_path / "ok.qasm"
    circuit.write_text("qreg q[2];\ncx q[0],q[1];\n")
    argv = {
        "validate": ["validate", str(path)],
        "synth": ["synth", str(path), "-o", str(tmp_path / "out.json")],
        "route": ["route", str(circuit), "-t", str(path)],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"  # one line, no traceback


def _straddle(head: bytes, tail: bytes) -> bytes:
    """``head``, blanks and ``tail`` with a "\\r\\n" between them whose "\\r" is byte
    8191, so that the pair straddles a common buffer size."""
    return head + b" " * (8191 - len(head)) + b"\r\n" + tail


_READ_CASES = [
    ("cr.qasm", b"qreg q[2];\rh q[0];\rfoo q[0];\rh q[1];\r", "line 3: unsupported gate 'foo'"),
    ("crcrlf.qasm", b"qreg q[2];\r\r\nh q[0];\r\r\nfoo q[0];\r", "line 5: unsupported gate 'foo'"),
    ("trailing.qasm", b"qreg q[2];\r\r\nh q[0];\r\ncx q[0],q[1];\r", None),
    ("straddle.qasm", _straddle(b"qreg q[2];\n//", b"h q[0];\nfoo q[1];\n"),
     "line 4: unsupported gate 'foo'"),
    ("bom.qasm", b"\xef\xbb\xbfqreg q[2];\nh q[0];\n", "line 1: unexpected character '\\ufeff'"),
    ("cr-byte.qasm", b"qreg q[2];\rh q[0];\r\xff h q[1];\n", "line 3: byte 0xff is not valid UTF-8"),
    ("byte0.qasm", b"\xffqreg q[2];\n", "line 1: byte 0xff is not valid UTF-8"),
    ("cr.json", b'{"name": "t",\r"num_qubits": 2,\r"edges": [[0, 1]] x\r}',
     "invalid JSON: Expecting ',' delimiter (at line 3)"),
    ("trailing.json", b'{"name": "t",\r\r\n"num_qubits": 2,\r\n"edges": [[0, 1]]}\r', None),
    ("straddle.json", _straddle(b'{"name": "t",', b'"num_qubits": 2,\n"edges": [[0, 1]],\n}'),
     "invalid JSON: Expecting property name enclosed in double quotes (at line 4)"),
    ("bom.json", b'\xef\xbb\xbf{"name": "t", "num_qubits": 2, "edges": [[0, 1]]}',
     "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (at line 1)"),
    ("cr-byte.json", b'{"name": "t",\r"num_qubits": 2,\r\xfe"edges": [[0, 1]]}',
     "byte 0xfe is not valid UTF-8 (at line 3)"),
    ("byte0.json", b"\xff{}", "byte 0xff is not valid UTF-8 (at line 1)"),
]


@pytest.mark.parametrize("name, data, message", _READ_CASES, ids=[case[0] for case in _READ_CASES])
def test_files_are_read_as_read_text_reads_them(tmp_path, capsys, name, data, message):
    """``parse_qasm_file``, ``load_topology`` and ``cacore validate`` read a file as
    ``Path.read_text`` reads it: each "\\r\\n" and lone "\\r" ends one line, a BOM is
    kept, and a byte that is not UTF-8 is reported on the line text mode counts."""
    def outcome(path):
        read = parse_qasm_file if path.suffix == ".qasm" else load_topology
        try:
            value = read(path)
        except CacoreError as exc:
            value = str(exc)
        return value, main(["validate", str(path)]), capsys.readouterr()

    path = tmp_path / name
    path.write_bytes(data)
    value, code, (out, err) = got = outcome(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        head = io.TextIOWrapper(io.BytesIO(data[: exc.start]), encoding="utf-8").read()
        line = head.count("\n") + 1  # the bad byte's line, as text mode counts it
        assert f"line {line}" in message
    else:  # the outcome of read_text's text, which holds no "\r" left to translate
        plain = tmp_path / "plain" / name
        plain.parent.mkdir()
        plain.write_bytes(text.encode("utf-8"))
        assert "\r" not in text and outcome(plain) == got
    if message is None:
        assert not isinstance(value, str) and code == 0 and out.endswith(" ok\n") and err == ""
    else:
        assert value == message and code == 2 and out == "" and err == f"error: {message}\n"


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


@pytest.mark.parametrize("command", ["validate", "route", "bench"])
def test_two_qubits_in_one_cell_fail_with_one_error_line(tmp_path, capsys, command):
    topo = tmp_path / "shared.json"
    data = {"name": "t", "num_qubits": 3, "edges": [[0, 1], [1, 2]]}
    topo.write_text(json.dumps({**data, "positions": [[0, 0], [0, 1], [0, 0]]}))
    circuit = tmp_path / "c.qasm"
    circuit.write_text("qreg q[3];\ncx q[0],q[2];\n")
    argv = {
        "validate": ["validate", str(topo)],
        "route": ["route", str(circuit), "-t", str(topo)],
        "bench": ["bench", "--qubits", "3", "--seeds", "1", "--gates", "20",
                  "--baselines", str(topo), "-o", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: qubits 0 and 2 share cell [0, 0] (at positions[2])\n"
    assert not (tmp_path / "out").exists()


def test_validate_warns_about_side_sharing_diagonals_and_exits_zero(tmp_path, capsys):
    topo = tmp_path / "crowded.json"
    data = {
        "name": "crowded",
        "num_qubits": 6,
        "edges": [[0, 4], [1, 5]],
        "positions": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
    }
    topo.write_text(json.dumps(data))
    assert main(["validate", str(topo)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (
        "warning: diagonal couplers (0, 4) and (1, 5) occupy side-sharing cells "
        "(frequency-collision risk)\n"
        "crowded: 6 qubits, 2 couplers, ok\n"
    )


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
