"""The bytes of the CLI's outputs are pinned.

Each run below goes through ``cli.main`` in an output directory that first gets the
files of ``INPUTS``. Its exit code must match; its stdout, its stderr and every file it
writes are hashed with sha256 and compared with ``tests/data/outputs.json``. When
outputs are meant to change, re-record the manifest with

    PYTHONPATH=src python tests/test_outputs.py

and name each re-recorded entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from cacore.cli import main
from cacore.topology import DEVICES

from conftest import DATA_DIR

MANIFEST = DATA_DIR / "outputs.json"
FIGURE = str(DATA_DIR / "figure6.qasm")
ROUTE = ["--metrics", "{out}/metrics.json", "--routed-qasm", "{out}/routed.qasm"]
ROUTED = ["metrics.json", "routed.qasm"]
BENCH = ["--format", "csv,json", "-o", "{out}/bench"]
REPORTS = ["bench/report.csv", "bench/report.json"]

# Files written into the output directory before the first run.
INPUTS = {
    "malformed.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0] q[1];\n',
    # two components, {0, 1, 2} and {3, 4, 5}
    "split.json": '{"name": "split6", "num_qubits": 6, "edges": [[0, 1], [1, 2], [3, 4], [4, 5]]}\n',
    # 551 bytes whose broadcasts name 6,553,600 gates, far past ir.MAX_GATES
    "broadcast.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[65536];\n' + "h q;\n" * 100,
    # 1040 CNOTs, each of whose walks on line(1024) crosses the line: past routing._SWAP_LIMIT
    "far.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1024];\n' + "cx q[0],q[1023];\ncx q[0],q[1];\n" * 520,
}

# Every circuit here has at most 19 qubits, so it fits every bundled device.
CIRCUITS = sorted(path.stem for path in DATA_DIR.glob("*.qasm"))


def _circuit_runs(name: str) -> list:
    """synth with and without --drop-synthetic, then route on the synthesized map (and
    validate both of its outputs) and on every bundled device."""
    path = str(DATA_DIR / f"{name}.qasm")
    return [
        (f"synth {name}", ["synth", path, "-o", f"{{out}}/{name}.json"], [f"{name}.json"], 0),
        (f"synth {name} --drop-synthetic",
         ["synth", path, "--drop-synthetic", "-o", f"{{out}}/{name}-drop.json"],
         [f"{name}-drop.json"], 0),
        (f"route {name} on its map", ["route", path, "-t", f"{{out}}/{name}.json", *ROUTE],
         ROUTED, 0),
        (f"validate {name} routed on its map", ["validate", "{out}/routed.qasm"], [], 0),
        (f"validate {name} map", ["validate", f"{{out}}/{name}.json"], [], 0),
    ] + [
        (f"route {name} on {device}", ["route", path, "-t", device, *ROUTE], ROUTED, 0)
        for device in DEVICES
    ]


# (label, argv, files written under the output directory "{out}", exit code), in run order.
RUNS = [
    ("gen n=8 seed=0", ["gen", "-n", "8", "--seed", "0", "-o", "{out}/gen.qasm"], ["gen.qasm"], 0),
    ("gen n=20 seed=7", ["gen", "-n", "20", "--seed", "7", "-o", "{out}/gen.qasm"], ["gen.qasm"], 0),
    *(run for name in CIRCUITS for run in _circuit_runs(name)),
    ("bench", ["bench", "--qubits", "4..5", "--seeds", "2", "--gates", "40", "--baselines",
               "cairo27,line(6)", *BENCH], REPORTS, 0),
    # one failing input per exit code
    ("bench --seeds 0", ["bench", "--seeds", "0", "-o", "{out}/unmade"], [], 1),
    ("validate malformed.qasm", ["validate", "{out}/malformed.qasm"], [], 2),
    ("route figure6 on split.json", ["route", FIGURE, "-t", "{out}/split.json"], [], 3),
    ("bench on split.json", ["bench", "--qubits", "6", "--seeds", "1", "--gates", "40",
                             "--baselines", "{out}/split.json", *BENCH], REPORTS, 4),
    ("validate broadcast.qasm", ["validate", "{out}/broadcast.qasm"], [], 2),
    ("route far.qasm on line(1024)", ["route", "{out}/far.qasm", "-t", "line(1024)", *ROUTE], [], 3),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(out: Path) -> dict[str, str]:
    """``"<label>: stdout"``, ``"<label>: stderr"`` and ``"<label>: <file>"`` -> sha256,
    in run order. The output directory's path reads as ``{out}`` in stdout and stderr.
    A usage message is wrapped at 80 columns, whatever the terminal."""
    for name, text in INPUTS.items():
        (out / name).write_text(text, encoding="utf-8")
    hashes = {}
    for label, argv, files, expected in RUNS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code = main([arg.replace("{out}", str(out)) for arg in argv])
        assert code == expected, f"{label} exited {code}, not {expected}: {stderr.getvalue()}"
        for stream, text in (("stdout", stdout), ("stderr", stderr)):
            text = text.getvalue().replace(str(out), "{out}")
            hashes[f"{label}: {stream}"] = _sha256(text.encode())
        for name in files:
            hashes[f"{label}: {name}"] = _sha256((out / name).read_bytes())
    return hashes


def test_cli_outputs_match_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = outputs(tmp_path)
    differ = [label for label in expected if actual.get(label) != expected[label]]
    assert not differ, f"first output that differs from {MANIFEST.name}: {differ[0]}"
    assert list(actual) == list(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        text = json.dumps(outputs(Path(out)), indent=2) + "\n"
    MANIFEST.write_text(text, encoding="utf-8")
    print(f"wrote {MANIFEST}")
