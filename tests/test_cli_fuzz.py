"""A seeded fuzz of ``cli.main`` over every command.

Inputs are QASM files mutated by the parser fuzz's mutator, topology JSON files
mutated by truncation, type swaps, huge and negative numbers and deep nesting,
odd option values, and random circuits routed on long lines with the SWAP bound
patched small. Every run must exit 0, or exit with its documented code
and name the failure on exactly one ``error:`` line of stderr, with no
traceback; a bench run that completes with failed cells exits 4 and counts them
on stdout, as its report lists them. Every JSON it writes, as a file or on
stdout, must parse with NaN and infinities refused, and every QASM file it
writes must validate.
"""

import copy
import json
import random
import shutil
from pathlib import Path

import pytest

from cacore.cli import main
from cacore.ir import MAX_GATES, MAX_QUBITS
from cacore.qasm import parse_qasm_file, to_qasm
from cacore.synthesis import synthesize_topology
from cacore.topology import builtin_topology, save_topology

from conftest import DATA_DIR
from test_qasm import _HAND_WRITTEN_SEED, _mixed_circuit, _mutate

_FAILURE_CODES = {1, 2, 3}  # usage, input and pipeline errors


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} in JSON output")

    return json.loads(text, parse_constant=refuse)


class _Runner:
    """Runs ``main`` in a scratch directory and checks each run's contract."""

    def __init__(self, tmp_path: Path, capsys):
        self.dir, self.capsys = tmp_path, capsys

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def __call__(self, argv: list[str], writes: tuple[str, ...] = ()) -> int:
        """The exit code of ``main(argv)``. ``writes`` names the files and directories the
        run may write, removed first so that no stale one stands in for this run's."""
        outputs = [self.dir / name for name in writes]
        for path in outputs:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback on the command line
            pytest.fail(f"{argv!r} raised {exc!r}")
        out, err = self.capsys.readouterr()
        assert "Traceback" not in err, argv
        errors = [line for line in err.splitlines() if "error: " in line]
        if code == 0:
            assert errors == [], (argv, err)
        elif code == 4:  # a partial bench run
            assert argv[0] == "bench" and err == "" and " failed) to " in out, (argv, out, err)
        else:
            assert code in _FAILURE_CODES, (argv, code, err)
            assert len(errors) == 1, (argv, code, err)
            if code != 1:  # a usage error adds argparse's usage lines
                assert err == errors[0] + "\n" and err.startswith("error: "), (argv, err)
        if argv[0] == "route" and code in (0, 3) and out:  # its payload, verified or not
            _strict_json(out)
        for path in outputs:
            if path.is_dir():
                path = path / "report.json"
            if path.suffix == ".json" and path.exists():
                _strict_json(path.read_text(encoding="utf-8"))
            elif path.suffix == ".qasm" and path.exists():  # emitted QASM reads back
                assert main(["validate", str(path)]) == 0, argv
                self.capsys.readouterr()
        return code


@pytest.fixture
def run(tmp_path, capsys):
    return _Runner(tmp_path, capsys)


def test_mutated_qasm_through_validate_synth_and_route(run):
    rng = random.Random(20261021)
    bases = [_HAND_WRITTEN_SEED] + [path.read_text(encoding="utf-8") for path in sorted(DATA_DIR.glob("*.qasm"))]
    bases += [to_qasm(_mixed_circuit(rng, rng.randint(2, 8))) for _ in range(8)]
    circuit, topology = run.path("c.qasm"), run.path("t.json")
    codes = []
    for i in range(240):
        Path(circuit).write_text(_mutate(rng, bases[i % len(bases)]), encoding="utf-8")
        codes.append(run(["validate", circuit]))
        drop = ["--drop-synthetic"] if i % 3 == 0 else []
        synth = run(["synth", circuit, "-o", topology, *drop], writes=("t.json",))
        device = topology if synth == 0 else rng.choice(["line(5)", "grid(2,3)", "cairo27"])
        argv = ["route", circuit, "-t", device, "--metrics", run.path("m.json"), "--routed-qasm", run.path("r.qasm")]
        run(argv, writes=("m.json", "r.qasm"))
    assert codes.count(0) >= 40 and codes.count(2) >= 40  # both paths are fuzzed


def test_routes_on_a_long_line_past_a_small_swap_bound(run, monkeypatch):
    """Random circuits route on a line, with the SWAP bound patched small: each
    route is kept, or refused with one ``error:`` line, exit 3 and no file."""
    rng = random.Random(20261023)
    circuit = run.path("far.qasm")
    codes = []
    for _ in range(60):
        n = rng.randint(8, 64)
        Path(circuit).write_text(to_qasm(_mixed_circuit(rng, n)), encoding="utf-8")
        monkeypatch.setattr("cacore.routing._SWAP_LIMIT", rng.choice((0, 5, 20, 80, 320)))
        argv = ["route", circuit, "-t", f"line({n + rng.choice((0, 1, 40))})",
                "--metrics", run.path("m.json"), "--routed-qasm", run.path("r.qasm")]
        codes.append(run(argv, writes=("m.json", "r.qasm")))
        if codes[-1] == 3:
            assert not (run.dir / "m.json").exists() and not (run.dir / "r.qasm").exists()
    assert codes.count(0) >= 10 and codes.count(3) >= 10  # both sides of the bound are fuzzed


def _topology_texts(tmp_path: Path) -> list[str]:
    """The saved text of a grid with positions, a synthesized map with synthetic
    couplers, and a line with neither."""
    figure = synthesize_topology(parse_qasm_file(DATA_DIR / "figure6.qasm"))
    path = tmp_path / "base.json"
    texts = []
    for topology in (builtin_topology("grid(2,3)"), figure, builtin_topology("line(4)")):
        save_topology(topology, path)
        texts.append(path.read_text(encoding="utf-8"))
    return texts


_ODD_VALUES = [
    "x", "", 1.5, -0.0, True, False, None, [], {}, [[]], -1, 0, 2**31, -(2**63), 10**40,
    MAX_QUBITS, MAX_QUBITS + 1, 1e308, float("nan"), float("inf"), [0, 0], [1, 0], [-1, 2],
    "line(3)", {"name": "x"},
]


def _odd(rng):
    """One of ``_ODD_VALUES``, a copy, so no list or dict is shared by two places."""
    return copy.deepcopy(rng.choice(_ODD_VALUES))


_DEEP = "<deep>"  # stands for a value nested in thousands of lists


def _swap_a_value(rng, data):
    """``data`` with one value somewhere inside it replaced, removed or nested deeply."""
    holders = []

    def walk(node):
        if isinstance(node, dict):
            holders.extend((node, key) for key in node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            holders.extend((node, index) for index in range(len(node)))
            for value in node:
                walk(value)

    walk(data)
    if not holders:
        return _odd(rng)
    holder, key = rng.choice(holders)
    pick = rng.randrange(6)
    if pick == 0:
        del holder[key]
    elif pick == 1:  # nested in the text, past what json.dumps can recurse into
        holder[key] = _DEEP
    else:
        holder[key] = _odd(rng)
    return data


def _keep_valid(rng, data: dict) -> dict:
    """``data`` changed in a way a valid topology allows: an odd name, an unknown key,
    no positions or no synthetic flags, more qubits, far-off and negative cells, or
    a coupler fewer."""
    pick = rng.randrange(6)
    if pick == 5 and data["edges"]:  # one coupler fewer, which may split the map
        index = rng.randrange(len(data["edges"]))
        del data["edges"][index]
        if "synthetic" in data:
            del data["synthetic"][index]
    elif pick == 0:
        data["name"] = rng.choice(["", "x" * 10000, "line(3)", "ca_core", "名前", "a\nb", '"q"', "{ca}"])
    elif pick == 1:
        data[rng.choice(["extra", "Name", ""])] = _odd(rng)
    elif pick == 2:
        data.pop(rng.choice(["positions", "synthetic"]), None)
    elif pick == 3 and "positions" not in data:
        data["num_qubits"] += rng.choice((1, 7, 1000))
    elif "positions" in data:
        far = rng.choice((-1, 1)) * rng.choice((5, 2**40, 10**40))
        data["positions"] = [[far * row, col - far] for row, col in data["positions"]]
    return data


def _mutate_json(rng, text: str) -> str:
    data = json.loads(text)
    if rng.random() < 0.4:
        data = _keep_valid(rng, data)
    else:
        for _ in range(rng.choice((1, 1, 2, 3))):
            data = _swap_a_value(rng, data)
    if rng.random() < 0.1:
        data = rng.choice([[data], 7, "topology", None])
    mutated = json.dumps(data, indent=rng.choice((None, 2)))
    depth = rng.choice((2, 50, 5000))
    mutated = mutated.replace(json.dumps(_DEEP), "[" * depth + "0" + "]" * depth)
    if rng.random() < 0.2:  # truncated, or cut and spliced with a stray character
        cut = rng.randrange(len(mutated))
        mutated = mutated[:cut] + rng.choice(["", "", "}", "]", ",", "\x00", " ", "\ud800"])
    return mutated


def test_mutated_topology_json_through_validate_route_and_bench(run, tmp_path):
    rng = random.Random(20261022)
    texts = _topology_texts(tmp_path)
    circuit, topology = run.path("small.qasm"), run.path("mutant.json")
    Path(circuit).write_text("qreg q[3];\ncx q[0],q[2];\nh q[1];\nmeasure q[2] -> c[2];\n", encoding="utf-8")
    codes, benches = [], []
    for i in range(160):
        mutated = _mutate_json(rng, texts[i % len(texts)])
        Path(topology).write_text(mutated, encoding="utf-8", errors="surrogatepass")
        codes.append(run(["validate", topology]))
        argv = ["route", circuit, "-t", topology, "--metrics", run.path("m.json"), "--routed-qasm", run.path("r.qasm")]
        run(argv, writes=("m.json", "r.qasm"))
        if codes[-1] == 0 or i % 16 == 0:
            argv = ["bench", "--qubits", "2..4", "--seeds", "1", "--gates", "20", "--baselines", topology,
                    "-o", run.path("report")]
            benches.append(run(argv, writes=("report",)))
    assert codes.count(0) >= 40 and codes.count(2) >= 80  # both paths are fuzzed
    assert {0, 1, 2, 4} <= set(benches)


_COMMANDS = [  # each placeholder takes its odd values one at a time, the rest their first
    ["gen", "-n", "{n}", "--gates", "{gates}", "--seed", "{seed}", "-o", "{out}"],
    ["bench", "--qubits", "{qubits}", "--seeds", "{seeds}", "--gates", "{gates}", "--eps", "{eps}",
     "--format", "{format}", "--baselines", "{baselines}", "-o", "{report}"],
    ["route", "{qasm}", "-t", "{baselines}", "--metrics", "{metrics}"],
    ["synth", "{qasm}", "-o", "{topology}"],
    ["validate", "{qasm}"],
]
_VALUES = {  # the first of each is valid
    "n": ["3", "0", "1", "-3", "2", "x", "", " 4", "4 ", "\u0664", "1e3", "0x10", str(MAX_QUBITS + 1), "9" * 5000],
    "gates": ["20", "1", "0", "-1", "x", "1.5", str(MAX_GATES + 1), "\uff15"],
    "seed": ["0", "-5", "x", "9" * 40],
    "qubits": ["2..3", "3..2", "0..2", "-1..2", "2,,3", ",", "..", "2..", "a..b", "2", f"2..{MAX_QUBITS + 1}"],
    "seeds": ["1", "0", "-1", "x"],
    "eps": ["0.001", "nan", "inf", "-0.1", "1.5", "0", "1e-400", "0.001,0.001", ",", "x", "1e-3,5e-4"],
    "format": ["csv,json", "xml", "", "csv", "json,json", "csv,xml", ","],
    "baselines": ["line(3)", "", ",", "nope", "line(2)", "line(0)", "grid(0,0)", "line(-1)",
                  "grid(2,3),grid(2,3)", "line(3),{ca}", "sycamore53", "{missing}", "{dir}"],
    "qasm": ["{figure}", "{missing}", "{dir}", "{empty}", "{figure},{figure}"],
    # output paths: a directory, a file under a missing directory, a file under a file
    "out": ["{dir}/g.qasm", "{dir}", "{dir}/none/g.qasm", "{empty}/g.qasm"],
    "report": ["{dir}/report", "{dir}/new/report", "{empty}", "{empty}/report"],
    "metrics": ["{dir}/m.json", "{dir}", "{dir}/none/m.json", ""],
    "topology": ["{dir}/t.json", "{dir}", "{dir}/none/t.json", "{empty}/t.json"],
}


def _fill(text: str, table: dict) -> str:
    """``text`` with each ``{key}`` of ``table`` replaced; other braces, as in a baseline
    name such as ``{ca}``, are kept."""
    for key, value in table.items():
        text = text.replace("{" + key + "}", value)
    return text


def test_odd_option_values_through_gen_bench_route_synth_and_validate(run):
    Path(run.path("empty.qasm")).write_text("", encoding="utf-8")
    places = {
        "missing": run.path("missing.json"), "dir": str(run.dir), "empty": run.path("empty.qasm"),
        "figure": str(DATA_DIR / "figure6.qasm"),
    }
    valid = {key: values[0] for key, values in _VALUES.items()}
    codes = []
    for template in _COMMANDS:
        for key, values in _VALUES.items():
            if not any("{" + key + "}" in part for part in template):
                continue
            for value in values:
                argv = [_fill(_fill(part, {**valid, key: value}), places) for part in template]
                codes.append(run(argv, writes=("g.qasm", "report", "new", "m.json", "t.json")))
    assert sorted(set(codes)) == [0, 1, 2, 3]
