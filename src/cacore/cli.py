"""Command-line entry point.

Commands: synth, route, bench, gen, validate. Exit codes: 0 success,
1 usage error, 2 input error (missing or malformed files), 3 pipeline
error, and 4 when a bench run completes with some failed cells.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from .errors import (
    CacoreError,
    QasmSyntaxError,
    TopologyFormatError,
    UnknownTopologyError,
)
from .ir import MAX_QUBITS
from .qasm import parse_qasm_file, to_qasm
from .routing import route_circuit, verify_routing
from .synthesis import synthesize_topology
from .topology import (
    DEVICES,
    builtin_topology,
    load_topology,
    save_topology,
    validate_topology,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PIPELINE = 3
EXIT_PARTIAL = 4

_INPUT_ERRORS = (
    OSError,
    QasmSyntaxError,
    TopologyFormatError,
    UnknownTopologyError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_topology(spec: str):
    """Builtin names take priority; anything else is read as a JSON file."""
    try:
        return builtin_topology(spec)
    except UnknownTopologyError:
        if Path(spec).exists():
            return load_topology(spec)
        raise


def _qubit_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer qubit count, got {text!r}") from None
    if value > MAX_QUBITS:
        raise argparse.ArgumentTypeError(f"{value} qubits exceed the limit of {MAX_QUBITS}")
    return value


def _parse_qubit_range(text: str) -> list[int]:
    """A range a..b or a comma list, each bound checked before the list is built."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        qubits = list(range(_qubit_count(lo), _qubit_count(hi) + 1))
    else:
        qubits = [_qubit_count(part) for part in text.split(",") if part]
    if not qubits:
        raise argparse.ArgumentTypeError(f"empty qubit range {text!r}")
    return qubits


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: rejected below with the same message
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_formats(text: str) -> list[str]:
    formats = _split_names(text)
    if not set(formats) <= {"csv", "json"}:
        raise argparse.ArgumentTypeError(f"expected a non-empty subset of csv,json, got {text!r}")
    return formats


def _parse_noise(text: str) -> list[NoiseParams]:
    from .bench import NoiseParams, check_error_rates  # bench, csv and random: bench and gen only
    try:
        noise = [NoiseParams(float(eps)) for eps in text.split(",") if eps.strip()]
        check_error_rates(noise)
    except ValueError as exc:  # a bad number, a rate NoiseParams rejects, or a repeat: keep why
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not noise:
        raise argparse.ArgumentTypeError(f"expected at least one error rate, got {text!r}")
    return noise


def _split_names(text: str) -> list[str]:
    """The names of a comma list, keeping commas inside parentheses (grid(2,3)); at least one."""
    names = [name.strip() for name in re.split(r",(?![^(]*\))", text) if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one name, got {text!r}")
    return names


@functools.cache  # built on first use, then shared: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cacore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a coupling map for a circuit")
    p_synth.add_argument("circuit", help="OpenQASM 2.0 input file")
    p_synth.add_argument("-o", "--output", required=True, help="topology JSON output path")
    p_synth.add_argument(
        "--drop-synthetic",
        action="store_true",
        help="omit zero-correlation joining couplers from the topology",
    )

    p_route = sub.add_parser("route", help="route a circuit on a topology")
    p_route.add_argument("circuit", help="OpenQASM 2.0 input file")
    p_route.add_argument(
        "-t", "--topology", required=True, help="builtin topology name or JSON file path"
    )
    p_route.add_argument("--metrics", help="write metrics JSON to this path")
    p_route.add_argument("--routed-qasm", help="write the routed circuit as OpenQASM")

    p_gen = sub.add_parser("gen", help="generate a seeded random circuit")
    p_gen.add_argument("-n", "--qubits", type=_qubit_count, required=True)
    p_gen.add_argument("--gates", type=_positive_int, default=2000, help="target gate count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True, help="QASM output path")

    p_bench = sub.add_parser("bench", help="compare synthesized topologies against baselines")
    p_bench.add_argument(
        "--qubits", type=_parse_qubit_range, default="10..20", help="range a..b or comma list"
    )
    p_bench.add_argument(
        "--seeds", type=_positive_int, default=10, help="random seeds per qubit count"
    )
    p_bench.add_argument(
        "--gates", type=_positive_int, default=2000, help="target gates per circuit"
    )
    p_bench.add_argument(
        "--baselines",
        type=_split_names,
        default=",".join(DEVICES),
        help="comma-separated builtin names or topology file paths",
    )
    p_bench.add_argument(
        "--eps",
        type=_parse_noise,
        default="0.0005,0.001,0.002,0.005",
        help="comma-separated depolarizing error rates",
    )
    p_bench.add_argument("-o", "--output", required=True, help="output directory")
    p_bench.add_argument(
        "--format", type=_parse_formats, default="csv,json", help="report formats to emit (csv, json)"
    )

    p_val = sub.add_parser("validate", help="validate a circuit (.qasm) or topology (.json)")
    p_val.add_argument("path")

    return parser


def _cmd_synth(args) -> int:
    circuit = parse_qasm_file(args.circuit)
    topology = synthesize_topology(circuit, keep_synthetic=not args.drop_synthetic)
    save_topology(topology, args.output)
    print(f"wrote {topology.num_qubits}-qubit topology ({len(topology.edges)} couplers) to {args.output}")
    return EXIT_OK


def _cmd_route(args) -> int:
    circuit = parse_qasm_file(args.circuit)
    topology = _resolve_topology(args.topology)
    result = route_circuit(circuit, topology)
    verified = verify_routing(circuit, result, topology)
    payload = {
        "circuit": circuit.name,
        "topology": topology.name,
        "verified": verified,
        **result.metrics.as_dict(),
    }
    if args.metrics:
        Path(args.metrics).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    if args.routed_qasm:
        Path(args.routed_qasm).write_text(to_qasm(result.routed), encoding="utf-8")
    print(json.dumps(payload, allow_nan=False))
    if not verified:  # the payload and files above still show the route
        print("error: routing verification failed", file=sys.stderr)
    return EXIT_OK if verified else EXIT_PIPELINE


def _cmd_gen(args) -> int:
    from .bench import gen_random_circuit
    circuit = gen_random_circuit(args.qubits, args.gates, args.seed)
    Path(args.output).write_text(to_qasm(circuit), encoding="utf-8")
    print(f"wrote {circuit.name} ({len(circuit.gates)} gates) to {args.output}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import check_baseline_names, emit_report, gen_random_circuit, run_comparison
    seeds = list(range(args.seeds))
    baselines = [_resolve_topology(name) for name in args.baselines]
    try:
        check_baseline_names(baselines)
    except ValueError as exc:  # checked before any circuit is generated
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)  # an existing file fails here, before the run

    circuits = []
    circuit_seeds = []
    for n in args.qubits:
        for seed in seeds:
            circuits.append(gen_random_circuit(n, args.gates, seed))
            circuit_seeds.append(seed)

    config = {"qubits": args.qubits, "seeds": seeds, "target_gates": args.gates}
    report = run_comparison(circuits, baselines, args.eps, seeds=circuit_seeds, config=config)
    for fmt in args.format:
        emit_report(report, fmt, out_dir / f"report.{fmt}")
    print(
        f"wrote {len(report.rows)} rows ({len(report.skips)} skipped, "
        f"{len(report.failures)} failed) to {out_dir}"
    )
    if report.failures:
        return EXIT_PIPELINE if not report.rows else EXIT_PARTIAL
    return EXIT_OK


def _cmd_validate(args) -> int:
    path = Path(args.path)
    if path.suffix.lower() == ".qasm":
        circuit = parse_qasm_file(path)  # parsing checks every circuit rule
        print(f"{circuit.name}: {circuit.num_qubits} qubits, {len(circuit.gates)} gates, ok")
        return EXIT_OK
    topology = load_topology(path)
    for message in validate_topology(topology):
        print(f"warning: {message}")
    print(f"{topology.name}: {topology.num_qubits} qubits, {len(topology.edges)} couplers, ok")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "route": _cmd_route,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CacoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
