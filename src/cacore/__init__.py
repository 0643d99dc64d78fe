"""Context-aware coupler layout synthesis for tunable-coupler hardware.

Parses OpenQASM 2.0 circuits, analyzes qubit-pair correlation, synthesizes
an application-specific grid coupling map, and evaluates it against fixed
baselines with a deterministic SWAP-insertion router, gate/depth metrics,
and a depolarizing fidelity proxy.
"""

from .analysis import CorrelationMatrix, build_correlation
from .bench import (
    BenchmarkReport,
    NoiseParams,
    emit_report,
    estimate_fidelity,
    gen_random_circuit,
    run_comparison,
)
from .errors import (
    CacoreError,
    DegenerateInputError,
    QasmSyntaxError,
    TopologyFormatError,
    UnknownTopologyError,
    UnroutableGateError,
)
from .ir import Circuit, Gate, GateKind
from .qasm import parse_qasm, parse_qasm_file, to_qasm
from .routing import (
    RouteMetrics,
    RoutingResult,
    route_circuit,
    trivial_layout,
    verify_routing,
)
from .synthesis import synthesize_topology
from .topology import (
    Topology,
    builtin_topology,
    grid_topology,
    line_topology,
    load_topology,
    save_topology,
    validate_topology,
)

__version__ = "0.1.0"
