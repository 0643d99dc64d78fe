"""The record types that are not dataclasses keep the dataclass contract, and
``import cacore`` stays free of what it does not use.

``Gate``, ``NoiseParams`` and ``BenchmarkReport`` are ``ir.Record``s, whose
``repr`` and ``==`` read ``vars(self)``: the fields ``__init__`` stores, in its
parameter order. ``Gate`` and ``NoiseParams`` are also ``ir.Frozen``, which adds
``hash`` and immutability; ``BenchmarkReport`` stays mutable and unhashable.
``CorrelationMatrix`` and ``RouteMetrics`` are ``NamedTuple``s. Their
constructors, ``repr`` text, ``==``, ``hash`` and immutability are those of the
dataclasses they replaced.
"""

import inspect
import json
import math
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from functools import cached_property

import pytest

from cacore.analysis import CorrelationMatrix
from cacore.bench import BenchmarkReport, NoiseParams, gen_random_circuit, run_comparison
from cacore.ir import Frozen, Gate, GateKind
from cacore.routing import RouteMetrics, route_circuit
from cacore.topology import builtin_topology

from conftest import SRC_DIR

# Run under ``python -I -S``: no site hook preloads a module, so every module
# the import needs shows up as new.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cacore
import json
modules = [module for name, module in sys.modules.items() if name.startswith("cacore.")]
dataclasses = {
    name
    for module in modules
    for name, value in vars(module).items()
    if isinstance(value, type) and value.__module__ == module.__name__
    and hasattr(value, "__dataclass_fields__")
}
print(json.dumps({"dataclasses": sorted(dataclasses), "new": sorted(set(sys.modules) - before)}))
"""


@pytest.fixture(scope="module")
def imported():
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_PROBE, str(SRC_DIR)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_only_the_types_copied_with_replace_are_dataclasses(imported):
    # tests/ and perfbench/ copy these three with dataclasses.replace.
    assert imported["dataclasses"] == ["Circuit", "RoutingResult", "Topology"]


def test_import_loads_every_submodule_and_no_resource_machinery(imported):
    submodules = ("analysis", "bench", "errors", "ir", "qasm", "routing", "synthesis", "topology")
    assert {f"cacore.{name}" for name in submodules} <= set(imported["new"])
    assert {"importlib.resources", "tempfile", "shutil"}.isdisjoint(imported["new"])


@pytest.mark.parametrize(
    "record,text",
    [
        (Gate(GateKind.RZ, (1,), 0.5), "Gate(kind=<GateKind.RZ: 'rz'>, qubits=(1,), param=0.5)"),
        (Gate(GateKind.CNOT, [0, 1]), "Gate(kind=<GateKind.CNOT: 'cx'>, qubits=(0, 1), param=None)"),
        (NoiseParams(0.001), "NoiseParams(epsilon=0.001)"),
        (CorrelationMatrix(3, {(0, 1): 2}), "CorrelationMatrix(num_qubits=3, weights={(0, 1): 2})"),
        (
            RouteMetrics(1, 2, 3, 4, 5, 6),
            "RouteMetrics(depth=1, total_gates=2, one_qubit_gates=3, two_qubit_gates=4, "
            "swap_count=5, total_swap_gates=6)",
        ),
        (
            BenchmarkReport({"seeds": [0]}, rows=[{"depth": 1}]),
            "BenchmarkReport(config={'seeds': [0]}, rows=[{'depth': 1}], skips=[], failures=[], "
            "aggregates=[])",
        ),
    ],
    ids=["gate-angle", "gate", "noise", "correlation", "metrics", "report"],
)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


def test_keyword_constructors():
    assert NoiseParams(epsilon=0.002) == NoiseParams(0.002)
    assert Gate(kind=GateKind.RX, qubits=(2,), param=1.0) == Gate(GateKind.RX, (2,), 1.0)
    report = BenchmarkReport(config={}, rows=[{"depth": 1}], skips=[], failures=[], aggregates=[])
    assert report == BenchmarkReport({}, [{"depth": 1}])
    assert BenchmarkReport({}).rows is not BenchmarkReport({}).rows  # a fresh list each


def test_equal_records_hash_equal_and_the_report_is_unhashable():
    gate = Gate(GateKind.CNOT, (0, 1))
    assert gate == Gate(GateKind.CNOT, [0, 1]) and hash(gate) == hash(Gate(GateKind.CNOT, [0, 1]))
    assert hash(gate) == hash((GateKind.CNOT, (0, 1), None))  # the dataclass's hash value
    assert gate != Gate(GateKind.CNOT, (1, 0)) and gate != (GateKind.CNOT, (0, 1), None)
    assert hash(NoiseParams(0.001)) == hash(NoiseParams(epsilon=0.001))
    assert pickle.loads(pickle.dumps(gate)) == gate
    report = BenchmarkReport({})
    assert report != BenchmarkReport({"seeds": [0]})
    with pytest.raises(TypeError):
        hash(report)


def test_gates_and_noise_parameters_are_frozen():
    gate = Gate(GateKind.H, (0,))
    with pytest.raises(FrozenInstanceError):
        gate.kind = GateKind.X
    with pytest.raises(FrozenInstanceError):
        del gate.qubits
    with pytest.raises(FrozenInstanceError):
        NoiseParams(0.001).epsilon = 0.002
    assert gate == Gate(GateKind.H, (0,))


def test_a_gate_holding_a_nan_angle_equals_itself_on_every_version():
    # The field tuples are compared, the dataclass rule up to Python 3.12; from
    # 3.13 a dataclass compares field by field, where NaN never equals itself.
    gate = Gate(GateKind.RZ, (0,), math.nan)
    assert gate == gate
    assert gate == Gate(GateKind.RZ, (0,), gate.param)
    assert gate != Gate(GateKind.RZ, (0,), float("nan"))  # another NaN object


def test_route_metrics_as_dict_keeps_the_field_order():
    assert list(RouteMetrics(1, 2, 3, 4, 5, 6).as_dict().items()) == [
        ("depth", 1), ("total_gates", 2), ("one_qubit_gates", 3),
        ("two_qubit_gates", 4), ("swap_count", 5), ("total_swap_gates", 6),
    ]


def stores_only_its_init_fields(record) -> bool:
    """Whether ``vars(record)``, which ``Record`` reads for ``repr``, ``==`` and
    ``hash``, holds just the ``__init__`` parameters, in their order."""
    return list(vars(record)) == list(inspect.signature(type(record)).parameters)


def test_records_store_only_their_init_fields_in_order():
    circuit, line = gen_random_circuit(4, 20, seed=0), builtin_topology("line(4)")
    report = run_comparison([circuit], [line], [NoiseParams(0.001)])
    routed = route_circuit(circuit, line).routed
    records = [*circuit.gates, *routed.gates, Gate(GateKind.RZ, (0,), 0.5), NoiseParams(-0.0)]
    for record in [*records, report, BenchmarkReport({})]:
        assert repr(record) and record == record
        if isinstance(record, Frozen):
            hash(record)
        assert stores_only_its_init_fields(record), record


class _Cached(Gate):
    @cached_property  # writes the instance __dict__ past Frozen.__setattr__
    def width(self) -> int:
        return len(self.qubits)


def test_a_cached_attribute_is_found():
    gate = _Cached(GateKind.CNOT, (0, 1))
    assert stores_only_its_init_fields(gate) and gate.width == 2
    assert not stores_only_its_init_fields(gate)
    # what the guard keeps out: the cached value is now a field of repr, == and hash
    assert repr(gate).endswith("param=None, width=2)") and gate != _Cached(GateKind.CNOT, (0, 1))
    assert hash(gate) == hash((GateKind.CNOT, (0, 1), None, 2))
