"""Context-aware coupler layout synthesis for tunable-coupler hardware.

Parses OpenQASM 2.0 circuits, analyzes qubit-pair correlation, synthesizes
an application-specific grid coupling map, and evaluates it against fixed
baselines with a deterministic SWAP-insertion router, gate/depth metrics,
and a depolarizing fidelity proxy.

``import cacore`` loads no submodule: each name below is imported from its
module when first read (PEP 562), then kept in this namespace.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("CorrelationMatrix", "build_correlation"),
    "bench": ("BenchmarkReport", "NoiseParams", "emit_report", "estimate_fidelity",
              "gen_random_circuit", "run_comparison"),
    "errors": ("CacoreError", "DegenerateInputError", "QasmSyntaxError", "TopologyFormatError",
               "UnknownTopologyError", "UnroutableGateError"),
    "ir": ("Circuit", "Gate", "GateKind"),
    "qasm": ("parse_qasm", "parse_qasm_file", "to_qasm"),
    "routing": ("RouteMetrics", "RoutingResult", "route_circuit", "trivial_layout", "verify_routing"),
    "synthesis": ("synthesize_topology",),
    "topology": ("Topology", "builtin_topology", "grid_topology", "line_topology", "load_topology",
                 "save_topology", "validate_topology"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, *_EXPORTS]  # what an eager import bound: the names and their modules


def __getattr__(name):
    home = _HOME.get(name)
    if home is None and name not in (*_EXPORTS, "cli"):  # neither a re-export nor a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{home or name}"
    __import__(module)  # also binds the submodule in this namespace
    value = globals()[name] = getattr(sys.modules[module], name) if home else sys.modules[module]
    return value
