"""The benchmark's three workloads: seeded inputs, one timed item, its checks.

Every input is named by a key such as ``15:2000:7`` (qubits, target gates,
circuit seed) or ``file:bv_n14``. A workload seed draws its keys from a
fixed pool, so every input any seed can produce has an output hash recorded
in ``golden.json`` (written by ``record_golden.py`` at the seed commit).

Items call cacore through module attributes (``cacore.bench.run_comparison``),
so the tracer's replacements see them. The checks are the benchmark's own:
they use no cacore function to judge cacore's output, apart from re-parsing
emitted QASM through ``parse_qasm`` bound at import time, which the tracer
never replaces.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import cacore
from cacore.bench import BenchmarkReport, NoiseParams, gen_random_circuit
from cacore.qasm import parse_qasm, parse_qasm_file, to_qasm

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "tests" / "data"
# Circuit seeds per (qubits, gates) input; a workload seed draws from them.
POOL = 32
BASELINES = ("almaden20", "cairo27", "prague33", "sycamore53")
EPSILONS = (0.0005, 0.001, 0.002, 0.005)
BUNDLED = (
    "bigadder_n18",
    "bv_n14",
    "bv_n19",
    "figure6",
    "multiplier_n15",
    "multiply_n13",
    "qec_xz_n17",
)


@dataclass
class Item:
    key: str
    payload: object  # a Circuit, or a QASM file path for qasm_files


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    counts: Counter = field(default_factory=Counter)


def random_circuit(key: str):
    n, gates, seed = (int(part) for part in key.split(":"))
    return gen_random_circuit(n, gates, seed)


# -- canonical records and hashing -------------------------------------------


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def topology_record(topology) -> dict:
    positions = topology.positions
    return {
        "name": topology.name,
        "num_qubits": topology.num_qubits,
        "edges": [list(pair) for pair in topology.edges],
        "synthetic": sorted(list(pair) for pair in topology.synthetic),
        "positions": None if positions is None else [[q, *positions[q]] for q in sorted(positions)],
    }


def gates_record(gates) -> list:
    return [[g.kind._value_, list(g.qubits), g.param] for g in gates]


def routing_record(result, topology) -> dict:
    return {
        "topology": topology.name,
        "gates": gates_record(result.routed.gates),
        "inserted": list(result.inserted),
        "metrics": result.metrics.as_dict(),
    }


# -- independent checks -------------------------------------------------------


def off_edge_gates(gates, edges) -> list[tuple[int, ...]]:
    """Two-qubit gates whose physical qubits share no coupler."""
    allowed = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    return [
        tuple(g.qubits)
        for g in gates
        if g.kind._value_ in ("cx", "swap") and tuple(g.qubits) not in allowed
    ]


def layout_problems(num_qubits: int, edges, positions: dict[int, tuple[int, int]]) -> list[str]:
    """Grid legality of a synthesized map, checked from its own definition.

    Every qubit has its own cell, every coupler joins side- or
    corner-neighbouring cells, and no two kept diagonals sit in unit cells
    that share a side (the frequency-collision rule).
    """
    problems = []
    if sorted(positions) != list(range(num_qubits)) or len(set(positions.values())) != num_qubits:
        problems.append("positions do not give one cell per qubit")
        return problems
    diagonal_cells = set()
    for a, b in edges:
        if not 0 <= a < b < num_qubits:
            problems.append(f"coupler ({a},{b}) is not a sorted in-range pair")
            continue
        (r1, c1), (r2, c2) = positions[a], positions[b]
        if max(abs(r1 - r2), abs(c1 - c2)) != 1:
            problems.append(f"coupler ({a},{b}) joins cells that do not touch")
        elif r1 != r2 and c1 != c2:
            diagonal_cells.add((min(r1, r2), min(c1, c2)))
    for row, col in sorted(diagonal_cells):
        if (row + 1, col) in diagonal_cells or (row, col + 1) in diagonal_cells:
            problems.append(f"diagonals in side-sharing cells at ({row},{col})")
    return problems


def _runs(indices) -> int:
    """Maximal runs of consecutive indices: one per BFS path search."""
    return sum(1 for i, idx in enumerate(indices) if i == 0 or indices[i - 1] != idx - 1)


def work_counts(calls) -> Counter:
    """Work done, derived from the arguments and results of captured calls."""
    counts: Counter = Counter()
    for name, args, result in calls:
        if name == "routing.route_circuit":
            counts["routing.route_calls"] += 1
            counts["routing.swaps_inserted"] += len(result.inserted)
            counts["routing.path_searches"] += _runs(result.inserted)
            counts["routing.routed_depth"] += result.metrics.depth
            counts["routing.routed_gates"] += len(result.routed.gates)
        elif name == "analysis.build_correlation":
            counts["analysis.correlation_pairs"] += len(result.weights)
            counts["analysis.correlation_gates"] += len(args[0].gates)
        elif name == "synthesis.synthesize_topology":
            counts["synthesis.couplers"] += len(result.edges)
            counts["synthesis.synthetic_couplers"] += len(result.synthetic)
        elif name == "qasm.parse_qasm":
            counts["qasm.parse_bytes"] += len(args[0].encode())
        elif name == "qasm.to_qasm":
            counts["qasm.emit_bytes"] += len(result.encode())
    return counts


def _routes(calls) -> list[tuple]:
    """(circuit, result, topology) for each captured route_circuit call."""
    return [(args[0], result, args[1]) for name, args, result in calls if name == "routing.route_circuit"]


def replay_problems(circuit, routed_gates, inserted, num_physical: int) -> list[str]:
    """Undo the inserted SWAPs from the identity start layout: the other
    routed gates must map back to the circuit's gates, in program order."""
    phys_to_log: list[int | None] = list(range(circuit.num_qubits))
    phys_to_log += [None] * (num_physical - circuit.num_qubits)
    inserted = set(inserted)
    expected = iter(circuit.gates)
    for index, gate in enumerate(routed_gates):
        if index in inserted:
            if gate.kind._value_ != "swap":
                return [f"inserted gate {index} is not a SWAP"]
            a, b = gate.qubits
            phys_to_log[a], phys_to_log[b] = phys_to_log[b], phys_to_log[a]
            continue
        original = next(expected, None)
        logical = tuple(map(phys_to_log.__getitem__, gate.qubits))
        if original is None or (original.kind, original.qubits, original.param) != (
            gate.kind, logical, gate.param
        ):
            return [f"routed gate {index} does not replay to the circuit's next gate"]
    if next(expected, None) is not None:
        return ["routed circuit drops gates of the circuit"]
    return []


def routing_problems(calls) -> list[str]:
    problems = []
    for circuit, result, topology in _routes(calls):
        off = off_edge_gates(result.routed.gates, topology.edges)
        if off:
            problems.append(f"{len(off)} two-qubit gates off the couplers of {topology.name}, first {off[0]}")
        problems += replay_problems(circuit, result.routed.gates, result.inserted, topology.num_qubits)
    verdicts = [result for name, _, result in calls if name == "routing.verify_routing"]
    if len(verdicts) != len(_routes(calls)):
        problems.append(f"{len(_routes(calls))} routes but {len(verdicts)} verifications")
    if not all(v is True for v in verdicts):
        problems.append("verify_routing returned false")
    return problems


# -- workloads ------------------------------------------------------------------


class Workload:
    """Inputs drawn from a seed, the timed item, and the checks of its outputs."""

    name = ""
    baselines: tuple[str, ...] = ()  # builtin topologies the program loads at set-up
    specs: list[tuple[int, int]] = []  # (qubits, gates) of each random input
    fixed_keys: tuple[str, ...] = ()  # inputs every seed includes

    @classmethod
    def draw(cls, seed: int) -> list[str]:
        rng = random.Random(f"{cls.name}/{seed}")
        return [f"{n}:{gates}:{rng.randrange(POOL)}" for n, gates in cls.specs] + list(cls.fixed_keys)

    @classmethod
    def pool(cls) -> list[str]:
        """Every key any seed can draw."""
        sizes = dict.fromkeys(cls.specs)
        return [f"{n}:{gates}:{s}" for n, gates in sizes for s in range(POOL)] + list(cls.fixed_keys)

    def setup(self) -> None:
        """The program's own set-up, once per process, before the passes."""

    def finish_pass(self, outputs):
        """Timed work that ends a pass."""

    def check_pass(self, outputs, finished) -> list[str]:
        return []


class BenchGrid(Workload):
    """One item: one circuit through ``run_comparison`` against four devices."""

    name = "bench_grid"
    baselines = BASELINES
    # Two circuits per size, so the slowest tenth of items is not one circuit.
    specs = [(n, 2000) for n in range(10, 21) for _ in range(2)]

    def __init__(self, keys: list[str], workdir: Path):
        self.items = [Item(key, random_circuit(key)) for key in keys]
        self.workdir = workdir

    def setup(self) -> None:
        self.topologies = [cacore.topology.builtin_topology(name) for name in self.baselines]
        self.noise = [NoiseParams(eps) for eps in EPSILONS]

    def run(self, item: Item):
        seed = int(item.key.rsplit(":", 1)[1])
        return cacore.bench.run_comparison([item.payload], self.topologies, self.noise, seeds=[seed])

    def check(self, item: Item, report, calls) -> Outcome:
        out = Outcome(counts=work_counts(calls))
        out.counts["bench.skips"] += len(report.skips)
        out.counts["bench.failures"] += len(report.failures)
        out.problems += routing_problems(calls)
        if report.failures:
            out.problems.append(f"report failures: {report.failures}")
        fidelities = [v for row in report.rows for k, v in row.items() if k.startswith("fidelity@")]
        if len(fidelities) != len(report.rows) * len(EPSILONS):
            out.problems.append("report rows miss fidelity columns")
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in fidelities):
            out.problems.append("fidelity is not a finite probability")
        topologies = [r for n, _, r in calls if n == "synthesis.synthesize_topology"]
        if len(topologies) != 1:
            out.problems.append(f"expected one synthesized topology, got {len(topologies)}")
            return out
        ca = topologies[0]
        out.problems += layout_problems(ca.num_qubits, ca.edges, ca.positions or {})
        out.digest = digest(
            topology_record(ca),
            [routing_record(result, topology) for _, result, topology in _routes(calls)],
            report.to_dict(),
        )
        return out

    def finish_pass(self, reports) -> list[Path]:
        """The pass ends with one CSV and one JSON report over its items."""
        merged = BenchmarkReport(
            config={"baselines": list(self.baselines), "epsilons": list(EPSILONS)},
            rows=[row for r in reports if r is not None for row in r.rows],
            skips=[s for r in reports if r is not None for s in r.skips],
            failures=[f for r in reports if r is not None for f in r.failures],
            aggregates=[a for r in reports if r is not None for a in r.aggregates],
        )
        paths = [self.workdir / "report.csv", self.workdir / "report.json"]
        cacore.bench.emit_report(merged, "csv", paths[0])
        cacore.bench.emit_report(merged, "json", paths[1])
        return paths

    def check_pass(self, reports, paths) -> list[str]:
        rows = [row for r in reports if r is not None for row in r.rows]
        problems = []
        written = json.loads(paths[1].read_text(encoding="utf-8"))
        if written["rows"] != json.loads(json.dumps(rows)):
            problems.append("report.json rows differ from the returned rows")
        with open(paths[0], newline="", encoding="utf-8") as handle:
            csv_rows = list(csv.DictReader(handle))
        if [r["circuit"] + "@" + r["topology"] for r in csv_rows] != [
            f"{r['circuit']}@{r['topology']}" for r in rows
        ]:
            problems.append("report.csv rows differ from the returned rows")
        return problems


class SynthSweep(Workload):
    """One item: one ``synthesize_topology`` call."""

    name = "synth_sweep"
    specs = [(n, gates) for gates in (2000, 100) for n in range(8, 34)]
    fixed_keys = tuple(f"file:{name}" for name in BUNDLED)

    def __init__(self, keys: list[str], workdir: Path):
        self.items = [
            Item(key, parse_qasm_file(DATA_DIR / f"{key[5:]}.qasm"))
            if key.startswith("file:")
            else Item(key, random_circuit(key))
            for key in keys
        ]

    def run(self, item: Item):
        return cacore.synthesis.synthesize_topology(item.payload)

    def check(self, item: Item, topology, calls) -> Outcome:
        out = Outcome(counts=work_counts(calls))
        out.problems += layout_problems(topology.num_qubits, topology.edges, topology.positions or {})
        if topology.num_qubits != item.payload.num_qubits:
            out.problems.append("topology size differs from the circuit")
        out.digest = digest(topology_record(topology))
        return out


class QasmFiles(Workload):
    """One item: ``cacore synth`` then ``cacore route`` on a QASM file, in process."""

    name = "qasm_files"
    specs = [(n, 2000) for n in (8, 20, 33)]

    def __init__(self, keys: list[str], workdir: Path):
        self.workdir = workdir
        self.items = []
        self.circuits = {}
        for key in keys:
            path = workdir / ("random_" + key.replace(":", "_") + ".qasm")
            circuit = random_circuit(key)
            path.write_text(to_qasm(circuit), encoding="utf-8")
            self.items.append(Item(key, path))
            self.circuits[key] = circuit
        self.topology_path = workdir / "T.json"
        self.metrics_path = workdir / "M.json"
        self.routed_path = workdir / "R.qasm"

    def setup(self) -> None:
        pass

    def run(self, item: Item):
        source = str(item.payload)
        for path in (self.topology_path, self.metrics_path, self.routed_path):
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            synth = cacore.cli.main(["synth", source, "-o", str(self.topology_path)])
            route = cacore.cli.main(
                [
                    "route", source, "-t", str(self.topology_path),
                    "--metrics", str(self.metrics_path), "--routed-qasm", str(self.routed_path),
                ]
            )
        return synth, route, sink.getvalue()

    def check(self, item: Item, output, calls) -> Outcome:
        out = Outcome(counts=work_counts(calls))
        synth, route, messages = output
        if (synth, route) != (0, 0):
            out.problems.append(f"exit codes synth={synth} route={route}: {messages.strip()}")
            return out
        topo = json.loads(self.topology_path.read_text(encoding="utf-8"))
        metrics = json.loads(self.metrics_path.read_text(encoding="utf-8"))
        routed = parse_qasm(self.routed_path.read_text(encoding="utf-8"))
        positions = {q: tuple(rc) for q, rc in enumerate(topo.get("positions", []))}
        out.problems += layout_problems(topo["num_qubits"], topo["edges"], positions)
        off = off_edge_gates(routed.gates, topo["edges"])
        if off:
            out.problems.append(f"{len(off)} routed two-qubit gates off the written couplers, first {off[0]}")
        if metrics.get("verified") is not True:
            out.problems.append("metrics report verified: false")
        # The random inputs hold no SWAPs, so every routed SWAP was inserted.
        swaps = [i for i, g in enumerate(routed.gates) if g.kind._value_ == "swap"]
        if len(swaps) != metrics.get("swap_count"):
            out.problems.append(f"routed QASM has {len(swaps)} SWAPs, metrics say {metrics.get('swap_count')}")
        out.problems += replay_problems(self.circuits[item.key], routed.gates, swaps, topo["num_qubits"])
        out.digest = digest(topo, metrics, gates_record(routed.gates))
        return out


WORKLOADS = {cls.name: cls for cls in (BenchGrid, SynthSweep, QasmFiles)}
