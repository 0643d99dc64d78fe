"""Benchmark harness: random circuits, fidelity proxy, topology comparison.

The comparison reproduces the evaluation protocol: per circuit, synthesize
an application-specific topology, route the same circuit on it and on
every baseline with the same router, and report depth/gate/SWAP totals
plus a closed-form depolarizing success probability per error rate.
Reduction percentages are oriented so positive means the synthesized
topology wins: (baseline - ca_core) / baseline.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CacoreError, DegenerateInputError
from .ir import Circuit, Gate, GateKind
from .routing import RouteMetrics, route_circuit, verify_routing
from .synthesis import synthesize_topology
from .topology import Topology

_ONE_QUBIT_POOL = (GateKind.H, GateKind.X, GateKind.S, GateKind.T)

CA_CORE = "ca_core"


def gen_random_circuit(
    num_qubits: int,
    target_gates: int,
    seed: int,
    *,
    pair_fraction: float = 0.25,
    one_qubit_prob: float = 0.7,
    name: str | None = None,
) -> Circuit:
    """Layered random circuit, fully reproducible from the seed.

    Each layer shuffles the qubits, pairs the first ``2*floor(n *
    pair_fraction)`` of them into disjoint CNOTs, and gives every
    remaining qubit a uniformly chosen one-qubit gate with probability
    ``one_qubit_prob``. Layers are appended until the gate count reaches
    ``target_gates``, so the total lands in [target, target + layer size).
    """
    if num_qubits < 2:
        raise DegenerateInputError(f"random circuits need at least 2 qubits, got {num_qubits}")
    rng = random.Random(seed)
    gates: list[Gate] = []
    pairs = int(num_qubits * pair_fraction)
    while len(gates) < target_gates:
        order = list(range(num_qubits))
        rng.shuffle(order)
        for k in range(pairs):
            gates.append(Gate(GateKind.CNOT, (order[2 * k], order[2 * k + 1])))
        for q in order[2 * pairs :]:
            if rng.random() < one_qubit_prob:
                gates.append(Gate(rng.choice(_ONE_QUBIT_POOL), (q,)))
    return Circuit(num_qubits, tuple(gates), name or f"random_n{num_qubits}_s{seed}")


@dataclass(frozen=True)
class NoiseParams:
    """Depolarizing error rates: epsilon per one-qubit gate, epsilon times
    ``two_qubit_factor`` per two-qubit gate."""

    epsilon: float
    two_qubit_factor: float = 5.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.two_qubit_factor)):
            raise ValueError(f"noise parameters must be finite, got {self}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.epsilon * self.two_qubit_factor > 1:
            raise ValueError(
                f"epsilon * factor = {self.epsilon * self.two_qubit_factor} exceeds 1"
            )


def estimate_fidelity(metrics: RouteMetrics, noise: NoiseParams) -> float:
    """Success-probability proxy F = (1-e)^N1 * (1-e*factor)^N2.

    N1 counts one-qubit gates; N2 counts two-qubit gates with every SWAP
    expanded to its three-CNOT equivalent. More SWAPs therefore always
    mean a strictly lower proxy for any positive epsilon.
    """
    n1 = metrics.one_qubit_gates
    n2 = metrics.two_qubit_gates + 2 * metrics.total_swap_gates
    return (1.0 - noise.epsilon) ** n1 * (1.0 - noise.epsilon * noise.two_qubit_factor) ** n2


def _fidelity_key(noise: NoiseParams) -> str:
    return f"fidelity@{noise.epsilon:g}"


@dataclass
class BenchmarkReport:
    """Comparison results plus the configuration needed to reproduce them."""

    config: dict
    rows: list[dict] = field(default_factory=list)
    skips: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "rows": self.rows,
            "skips": self.skips,
            "failures": self.failures,
            "aggregates": self.aggregates,
        }


def _reduction_pct(baseline: float, ca: float) -> float:
    if baseline == 0:
        return 0.0
    return (baseline - ca) / baseline * 100.0


def run_comparison(
    circuits: list[Circuit],
    baselines: list[Topology],
    noise: list[NoiseParams],
    *,
    seeds: list[int] | None = None,
    config: dict | None = None,
) -> BenchmarkReport:
    """Route every circuit on its synthesized topology and each baseline.

    Pairs where the circuit does not fit the topology are recorded as
    skips; a circuit's synthesis failure and per-pair routing failures are
    recorded and the run continues.
    Aggregates hold per (qubit count, baseline) mean depth/gate/SWAP totals
    and reduction percentages against the synthesized topology.
    """
    report = BenchmarkReport(config=dict(config or {}))
    report.config.setdefault("epsilons", [n.epsilon for n in noise])
    report.config.setdefault("baselines", [t.name for t in baselines])
    if seeds is not None:
        report.config.setdefault("seeds", list(seeds))

    for index, circuit in enumerate(circuits):
        seed = seeds[index] if seeds is not None and index < len(seeds) else None
        pairs = [(topology.name, topology) for topology in baselines]
        try:
            pairs.insert(0, (CA_CORE, synthesize_topology(circuit)))
        except CacoreError as exc:
            report.failures.append(
                {"circuit": circuit.name, "topology": CA_CORE, "error": str(exc)}
            )
        for label, topology in pairs:
            if circuit.num_qubits > topology.num_qubits:
                report.skips.append(
                    {"circuit": circuit.name, "topology": label, "reason": "circuit too large"}
                )
                continue
            try:
                result = route_circuit(circuit, topology)
                if not verify_routing(circuit, result, topology):
                    raise CacoreError("routing verification failed")
            except CacoreError as exc:
                report.failures.append(
                    {"circuit": circuit.name, "topology": label, "error": str(exc)}
                )
                continue
            row = {
                "circuit": circuit.name,
                "seed": seed,
                "qubits": circuit.num_qubits,
                "topology": label,
                "depth": result.metrics.depth,
                "gates": result.metrics.total_gates,
                "swaps": result.metrics.swap_count,
            }
            for params in noise:
                row[_fidelity_key(params)] = estimate_fidelity(result.metrics, params)
            report.rows.append(row)

    report.aggregates = _aggregate(report.rows, [t.name for t in baselines])
    return report


def _aggregate(rows: list[dict], baseline_names: list[str]) -> list[dict]:
    by_key: dict[tuple[int, str], list[dict]] = {}
    for row in rows:
        by_key.setdefault((row["qubits"], row["topology"]), []).append(row)

    aggregates = []
    for qubits in sorted({row["qubits"] for row in rows}):
        ca_rows = by_key.get((qubits, CA_CORE), [])
        if not ca_rows:
            continue
        ca_means = {m: sum(r[m] for r in ca_rows) / len(ca_rows) for m in ("depth", "gates", "swaps")}
        for name in baseline_names:
            base_rows = by_key.get((qubits, name), [])
            if not base_rows:
                continue
            base_means = {
                m: sum(r[m] for r in base_rows) / len(base_rows) for m in ("depth", "gates", "swaps")
            }
            aggregates.append(
                {
                    "qubits": qubits,
                    "baseline": name,
                    "samples": len(base_rows),
                    "baseline_mean": base_means,
                    "ca_core_mean": ca_means,
                    "depth_reduction_pct": _reduction_pct(base_means["depth"], ca_means["depth"]),
                    "gate_reduction_pct": _reduction_pct(base_means["gates"], ca_means["gates"]),
                    "swap_reduction_pct": _reduction_pct(base_means["swaps"], ca_means["swaps"]),
                }
            )
    return aggregates


def write_report_csv(report: BenchmarkReport, path: str | Path) -> None:
    columns = ["circuit", "seed", "qubits", "topology", "depth", "gates", "swaps"]
    columns += [f"fidelity@{e:g}" for e in report.config.get("epsilons", [])]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in report.rows:
            writer.writerow(row)


def write_report_json(report: BenchmarkReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")


def emit_report(report: BenchmarkReport, fmt: str, path: str | Path) -> None:
    """Write the report as ``csv`` or ``json``."""
    if fmt == "csv":
        write_report_csv(report, path)
    elif fmt == "json":
        write_report_json(report, path)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
