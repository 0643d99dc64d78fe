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
from pathlib import Path

from .errors import CacoreError, DegenerateInputError
from .ir import MAX_GATES, Circuit, Frozen, Gate, GateKind, Record, shared_gate
from .routing import RouteMetrics, route_circuit, verify_routing
from .synthesis import CA_CORE, synthesize_topology
from .topology import Topology

_ONE_QUBIT_POOL = (GateKind.H, GateKind.X, GateKind.S, GateKind.T)

# A two-qubit gate fails five times as often as a one-qubit gate.
TWO_QUBIT_FACTOR = 5.0

# Each row metric an aggregate averages -> the key of its reduction percentage.
_REDUCTIONS = {"depth": "depth_reduction_pct", "gates": "gate_reduction_pct", "swaps": "swap_reduction_pct"}


def gen_random_circuit(num_qubits: int, target_gates: int, seed: int) -> Circuit:
    """Layered random circuit ``random_n{num_qubits}_s{seed}``, fully
    reproducible from the seed.

    Each layer shuffles the qubits, pairs the first ``2*floor(n * 0.25)``
    of them into disjoint CNOTs, and gives every remaining qubit a
    uniformly chosen one-qubit gate with probability 0.7. Layers are
    appended until the gate count reaches ``target_gates``, so the total
    lands in [target, target + layer size); once past ``MAX_GATES``, which
    the parser would refuse, it stops and raises DegenerateInputError.
    """
    if num_qubits < 2:
        raise DegenerateInputError(f"random circuits need at least 2 qubits, got {num_qubits}")
    rng = random.Random(seed)
    gates: list[Gate] = []
    pairs = int(num_qubits * 0.25)
    while len(gates) < target_gates and len(gates) <= MAX_GATES:
        order = list(range(num_qubits))
        rng.shuffle(order)
        for k in range(pairs):
            gates.append(shared_gate(GateKind.CNOT, (order[2 * k], order[2 * k + 1])))
        for q in order[2 * pairs :]:
            if rng.random() < 0.7:
                gates.append(shared_gate(rng.choice(_ONE_QUBIT_POOL), (q,)))
    if len(gates) > MAX_GATES:
        raise DegenerateInputError(f"{len(gates)} random gates exceed the limit of {MAX_GATES}")
    return Circuit(num_qubits, tuple(gates), f"random_n{num_qubits}_s{seed}")


class NoiseParams(Frozen):
    """Depolarizing error rates: epsilon per one-qubit gate, epsilon times
    ``TWO_QUBIT_FACTOR`` per two-qubit gate."""

    def __init__(self, epsilon: float):
        if epsilon == 0 and math.copysign(1.0, epsilon) < 0:  # -0.0: one column with 0
            epsilon = 0.0
        object.__setattr__(self, "epsilon", epsilon)
        if not math.isfinite(epsilon):
            raise ValueError(f"noise parameters must be finite, got {self}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if epsilon * TWO_QUBIT_FACTOR > 1:
            raise ValueError(f"epsilon * factor = {epsilon * TWO_QUBIT_FACTOR} exceeds 1")


def estimate_fidelity(metrics: RouteMetrics, noise: NoiseParams) -> float:
    """Success-probability proxy F = (1-e)^N1 * (1-e*TWO_QUBIT_FACTOR)^N2.

    N1 counts one-qubit gates; N2 counts two-qubit gates with every SWAP
    expanded to its three-CNOT equivalent. More SWAPs therefore always
    mean a strictly lower proxy for any positive epsilon.
    """
    n1 = metrics.one_qubit_gates
    n2 = metrics.two_qubit_gates + 2 * metrics.total_swap_gates
    return (1.0 - noise.epsilon) ** n1 * (1.0 - noise.epsilon * TWO_QUBIT_FACTOR) ** n2


def _fidelity_key(epsilon: float) -> str:
    """The report column of the fidelity proxy at one error rate: the short
    ``:g`` text when it reads back as the same float, else the exact repr,
    so two distinct rates never share a column."""
    text = f"{epsilon:g}"
    return f"fidelity@{text if float(text) == epsilon else repr(epsilon)}"


class BenchmarkReport(Record):
    """Comparison results plus the configuration needed to reproduce them;
    mutable and unhashable, equal to a report with equal fields."""

    def __init__(self, config: dict, rows=None, skips=None, failures=None, aggregates=None):
        self.config = config
        self.rows: list[dict] = [] if rows is None else rows
        self.skips: list[dict] = [] if skips is None else skips
        self.failures: list[dict] = [] if failures is None else failures
        self.aggregates: list[dict] = [] if aggregates is None else aggregates

    def to_dict(self) -> dict:
        return dict(vars(self))


def _refuse_repeats(labels: list[str], what: str) -> None:
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"two {what} would share the report label {label!r}")


def check_baseline_names(baselines: list[Topology]) -> None:
    """Refuse (ValueError) a baseline named ``ca_core`` or two of one name: rows would mix."""
    _refuse_repeats([CA_CORE] + [t.name for t in baselines], "topologies")


def check_error_rates(noise: list[NoiseParams]) -> None:
    """Refuse (ValueError) two rates with one fidelity column, such as 0.001
    and 1e-3: the report would hold one value under several names."""
    _refuse_repeats([_fidelity_key(params.epsilon) for params in noise], "error rates")


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
    recorded and the run continues; ``check_baseline_names`` and
    ``check_error_rates`` run first.
    Aggregates hold per (qubit count, baseline) mean depth/gate/SWAP totals
    and reduction percentages against the synthesized topology.
    """
    check_baseline_names(baselines)
    check_error_rates(noise)
    report = BenchmarkReport(config=dict(config or {}))
    report.config["baselines"] = [t.name for t in baselines]
    report.config["epsilons"] = [n.epsilon for n in noise]  # the CSV's fidelity columns
    if seeds is not None:
        report.config.setdefault("seeds", list(seeds))

    fidelity_keys = [(_fidelity_key(params.epsilon), params) for params in noise]
    for index, circuit in enumerate(circuits):
        seed = seeds[index] if seeds is not None and index < len(seeds) else None
        topologies = list(baselines)
        try:
            topologies.insert(0, synthesize_topology(circuit))  # named CA_CORE
        except CacoreError as exc:
            report.failures.append(
                {"circuit": circuit.name, "topology": CA_CORE, "error": str(exc)}
            )
        for topology in topologies:
            if circuit.num_qubits > topology.num_qubits:
                report.skips.append(
                    {"circuit": circuit.name, "topology": topology.name, "reason": "circuit too large"}
                )
                continue
            try:
                result = route_circuit(circuit, topology)
                if not verify_routing(circuit, result, topology):
                    raise CacoreError("routing verification failed")
            except CacoreError as exc:
                report.failures.append(
                    {"circuit": circuit.name, "topology": topology.name, "error": str(exc)}
                )
                continue
            row = {
                "circuit": circuit.name,
                "seed": seed,
                "qubits": circuit.num_qubits,
                "topology": topology.name,
                "depth": result.metrics.depth,
                "gates": result.metrics.total_gates,
                "swaps": result.metrics.swap_count,
            }
            for key, params in fidelity_keys:
                row[key] = estimate_fidelity(result.metrics, params)
            report.rows.append(row)

    report.aggregates = _aggregate(report.rows, [t.name for t in baselines])
    return report


def _aggregate(rows: list[dict], baseline_names: list[str]) -> list[dict]:
    by_key: dict[tuple[int, str], list[dict]] = {}
    for row in rows:
        by_key.setdefault((row["qubits"], row["topology"]), []).append(row)
    means = {
        key: {m: sum(r[m] for r in group) / len(group) for m in _REDUCTIONS}
        for key, group in by_key.items()
    }

    aggregates = []
    for qubits in sorted({qubits for qubits, topology in by_key if topology == CA_CORE}):
        ca_means = means[qubits, CA_CORE]
        for name in baseline_names:
            base_means = means.get((qubits, name))
            if base_means is None:
                continue
            entry = {
                "qubits": qubits,
                "baseline": name,
                "samples": len(by_key[qubits, name]),
                "baseline_mean": base_means,
                "ca_core_mean": ca_means,
            }
            for m, key in _REDUCTIONS.items():
                base = base_means[m]
                entry[key] = (base - ca_means[m]) / base * 100.0 if base else 0.0
            aggregates.append(entry)
    return aggregates


def emit_report(report: BenchmarkReport, fmt: str, path: str | Path) -> None:
    """Write the report as ``csv``, one line per row with a fidelity column
    per configured error rate, or as ``json``, the whole ``to_dict``."""
    if fmt == "csv":
        columns = ["circuit", "seed", "qubits", "topology", "depth", "gates", "swaps"]
        columns += [_fidelity_key(e) for e in report.config.get("epsilons", [])]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            for row in report.rows:
                writer.writerow(row)
    elif fmt == "json":
        Path(path).write_text(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
