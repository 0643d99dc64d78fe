"""The bytes of the CLI's outputs are pinned.

Each run below goes through ``cli.main``; its stdout and every file it writes are
hashed with sha256 and compared with ``tests/data/outputs.json``. When outputs are
meant to change, re-record the manifest with

    PYTHONPATH=src python tests/test_outputs.py

and name each re-recorded entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from cacore.cli import main

from conftest import DATA_DIR

MANIFEST = DATA_DIR / "outputs.json"
FIGURE = str(DATA_DIR / "figure6.qasm")
ROUTE = ["--metrics", "{out}/metrics.json", "--routed-qasm", "{out}/routed.qasm"]

# (label, argv, files written under the output directory "{out}"), run in this order.
RUNS = [
    ("gen n=8 seed=0", ["gen", "-n", "8", "--seed", "0", "-o", "{out}/gen.qasm"], ["gen.qasm"]),
    ("gen n=20 seed=7", ["gen", "-n", "20", "--seed", "7", "-o", "{out}/gen.qasm"], ["gen.qasm"]),
    ("synth figure6", ["synth", FIGURE, "-o", "{out}/figure6.json"], ["figure6.json"]),
    ("route figure6 on its map", ["route", FIGURE, "-t", "{out}/figure6.json", *ROUTE],
     ["metrics.json", "routed.qasm"]),
    ("route figure6 on cairo27", ["route", FIGURE, "-t", "cairo27", *ROUTE],
     ["metrics.json", "routed.qasm"]),
    ("bench", ["bench", "--qubits", "4..5", "--seeds", "2", "--gates", "40", "--baselines",
               "cairo27,line(6)", "--format", "csv,json", "-o", "{out}/bench"],
     ["bench/report.csv", "bench/report.json"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(out: Path) -> dict[str, str]:
    """``"<label>: stdout"`` and ``"<label>: <file>"`` -> sha256, in run order. The output
    directory's path reads as ``{out}`` in stdout."""
    hashes = {}
    for label, argv, files in RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([arg.replace("{out}", str(out)) for arg in argv])
        assert code == 0, f"{label} exited {code}"
        hashes[f"{label}: stdout"] = _sha256(stdout.getvalue().replace(str(out), "{out}").encode())
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
