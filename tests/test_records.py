"""The record types keep the dataclass contract, and ``import cacore`` stays free of
what it does not use.

``Gate``, ``NoiseParams``, ``BenchmarkReport``, ``Circuit``, ``Topology`` and
``RoutingResult`` are ``ir.Record``s: ``repr`` and ``==`` read the fields named by the
``__init__`` parameters (``_fields``), so a value cached in the instance dict, such as
``Topology._routing``, enters neither. ``Gate``,
``NoiseParams``, ``Circuit`` and ``Topology`` are also ``ir.Frozen``, which adds ``hash``
and immutability; ``BenchmarkReport`` and ``RoutingResult`` stay mutable and unhashable.
``Circuit``, ``Topology`` and ``RoutingResult`` also answer ``dataclasses.replace``
through ``__dataclass_fields__``, built when first read. ``CorrelationMatrix`` and
``RouteMetrics`` are namedtuple subclasses. Their constructors, ``repr`` text, ``==``,
``hash`` and immutability are those of the dataclasses they replaced.

``import cacore`` loads no submodule: each re-export, and each submodule read as an
attribute, is imported when first read.
"""

import dataclasses
import importlib
import inspect
import json
import math
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from functools import cached_property

import pytest

import cacore
from cacore.analysis import CorrelationMatrix
from cacore.bench import BenchmarkReport, NoiseParams, gen_random_circuit, run_comparison
from cacore.ir import Circuit, Frozen, Gate, GateKind
from cacore.qasm import parse_qasm_file
from cacore.routing import RouteMetrics, RoutingResult, route_circuit
from cacore.synthesis import synthesize_topology
from cacore.topology import Topology, builtin_topology, load_topology

from conftest import DATA_DIR, SRC_DIR

# Run under ``python -I -S``: no site hook preloads a module, so every module each
# step needs shows up as new. The module sets are taken before anything reads a
# ``__dataclass_fields__``, which loads ``dataclasses``.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
new = {}
import cacore
new["cacore"] = sorted(set(sys.modules) - before)
for name in ("almaden20", "cairo27", "prague33", "sycamore53"):  # the devices bench_grid loads
    cacore.builtin_topology(name)
new["builtin_topology"] = sorted(set(sys.modules) - before)
from cacore import cli
new["cacore.cli"] = sorted(set(sys.modules) - before)
topology = sys.argv[3] + "/t.json"
codes = [
    cli.main(["synth", sys.argv[2], "-o", topology]),
    cli.main(["route", sys.argv[2], "-t", topology]),
]
new["synth, route"] = sorted(set(sys.modules) - before)
cacore.bench  # a submodule read as an attribute loads, so the search below sees it
import dataclasses, json
modules = [module for name, module in sys.modules.items() if name.startswith("cacore.")]
found = {
    name
    for module in modules
    for name, value in vars(module).items()
    if isinstance(value, type) and value.__module__ == module.__name__
    and dataclasses.is_dataclass(value)
}
print(json.dumps({"dataclasses": sorted(found), "new": new, "codes": codes}))
"""

# What ``import dataclasses`` loaded with it, and ``typing``: none is needed to run.
_UNUSED = ("dataclasses", "inspect", "typing", "ast", "dis")


@pytest.fixture(scope="module")
def imported(tmp_path_factory):
    figure, out = DATA_DIR / "figure6.qasm", tmp_path_factory.mktemp("probe")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_PROBE, str(SRC_DIR), str(figure), str(out)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_only_the_types_copied_with_replace_are_dataclasses(imported):
    # tests/ and perfbench/ copy these three with dataclasses.replace.
    assert imported["dataclasses"] == ["Circuit", "RoutingResult", "Topology"]


def _loaded(imported, step) -> list[str]:
    return [name for name in imported["new"][step] if name.split(".")[0] == "cacore"]


def test_import_loads_no_submodule_and_no_resource_machinery(imported):
    assert _loaded(imported, "cacore") == ["cacore"]
    assert {"importlib.resources", "tempfile", "shutil"}.isdisjoint(imported["new"]["cacore"])


def test_builtin_devices_load_only_ir_errors_and_topology(imported):
    loaded = _loaded(imported, "builtin_topology")
    assert loaded == ["cacore", "cacore.errors", "cacore.ir", "cacore.topology"]
    # the device maps are Python data: no JSON decoder, pattern compiler or path class
    assert {"json", "re", "pathlib"}.isdisjoint(imported["new"]["builtin_topology"])
    assert "csv" not in imported["new"]["builtin_topology"]


def _first_call(statement: str, path) -> subprocess.CompletedProcess:
    """Run ``statement`` as the first call into cacore of a fresh ``python -I -S``."""
    probe = "import sys\nsys.path.insert(0, sys.argv[1])\nfrom cacore import topology\n" + statement
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(SRC_DIR), str(path)],
        capture_output=True, text=True, timeout=60,
    )


def test_topology_json_io_works_as_the_first_call_of_a_process(tmp_path):
    # json and pathlib are imported inside save_topology and load_topology
    path = tmp_path / "t.json"
    saved = _first_call("topology.save_topology(topology.builtin_topology('almaden20'), sys.argv[2])", path)
    assert (saved.returncode, saved.stderr) == (0, "")
    loaded = _first_call("print(topology.load_topology(sys.argv[2]).name)", path)
    assert (loaded.returncode, loaded.stdout, loaded.stderr) == (0, "almaden20\n", "")
    assert load_topology(path) == builtin_topology("almaden20")


def test_synth_and_route_load_neither_bench_nor_csv_nor_random(imported):
    assert imported["codes"] == [0, 0]
    assert {"cacore.bench", "csv", "random"}.isdisjoint(imported["new"]["synth, route"])


@pytest.mark.parametrize("step", ["cacore", "builtin_topology", "cacore.cli", "synth, route"])
def test_import_and_the_file_flow_load_no_dataclasses_inspect_or_typing(imported, step):
    assert imported["codes"] == [0, 0]
    assert set(_UNUSED).isdisjoint(imported["new"][step]), step


# What ``from cacore import X`` gave when ``import cacore`` imported every module.
_REEXPORTS = {
    "analysis": ["CorrelationMatrix", "build_correlation"],
    "bench": ["BenchmarkReport", "NoiseParams", "emit_report", "estimate_fidelity",
              "gen_random_circuit", "run_comparison"],
    "errors": ["CacoreError", "DegenerateInputError", "QasmSyntaxError", "TopologyFormatError",
               "UnknownTopologyError", "UnroutableGateError"],
    "ir": ["Circuit", "Gate", "GateKind"],
    "qasm": ["parse_qasm", "parse_qasm_file", "to_qasm"],
    "routing": ["RouteMetrics", "RoutingResult", "route_circuit", "trivial_layout", "verify_routing"],
    "synthesis": ["synthesize_topology"],
    "topology": ["Topology", "builtin_topology", "grid_topology", "line_topology", "load_topology",
                 "save_topology", "validate_topology"],
}


@pytest.mark.parametrize("module", sorted(_REEXPORTS))
def test_each_reexport_is_its_modules_object_and_is_kept(module):
    home = importlib.import_module(f"cacore.{module}")
    for name in _REEXPORTS[module]:
        assert getattr(cacore, name) is getattr(home, name), name
        assert vars(cacore)[name] is getattr(home, name), name


def test_submodules_resolve_as_attributes():
    for module in (*_REEXPORTS, "cli"):
        assert getattr(cacore, module) is importlib.import_module(f"cacore.{module}")


def test_star_import_binds_the_names_of_the_eager_import():
    namespace = {}
    exec("from cacore import *", namespace)
    names = {name for names in _REEXPORTS.values() for name in names} | set(_REEXPORTS)
    assert len(names) == 41 and set(namespace) - {"__builtins__"} == names


@pytest.mark.parametrize("name", ["no_such_name", "MAX_QUBITS", "__wrapped__"])
def test_an_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'cacore' has no attribute '{name}'"):
        getattr(cacore, name)
    assert not hasattr(cacore, name)
    with pytest.raises(ImportError):
        exec(f"from cacore import {name}", {})


def test_every_topology_hashes_and_equal_topologies_hash_equal():
    line, grid = builtin_topology("line(6)"), builtin_topology("grid(2,3)")
    synthesized = synthesize_topology(_figure())
    copy = dataclasses.replace(synthesized)
    for topology in (line, grid, synthesized, copy):
        assert topology.positions and hash(topology) == hash(Topology(*topology._values()))
    assert copy == synthesized and hash(copy) == hash(synthesized)
    assert len({line, grid, synthesized, copy, builtin_topology("line(6)")}) == 3


_CX = "Gate(kind=<GateKind.CNOT: 'cx'>, qubits=(0, 2), param=None)"
_RZ = "Gate(kind=<GateKind.RZ: 'rz'>, qubits=(1,), param=0.5)"
_TINY = Circuit(3, [Gate(GateKind.CNOT, (0, 2)), Gate(GateKind.RZ, (1,), 0.5)], "tiny")
_PAIR = Topology("pair", 3, ((0, 1), (1, 2)), frozenset({(1, 2)}), {0: (0, 0), 1: (0, 1), 2: (1, 1)})


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
        (_TINY, f"Circuit(num_qubits=3, gates=({_CX}, {_RZ}), name='tiny')"),
        (Circuit(1), "Circuit(num_qubits=1, gates=(), name='circuit')"),
        (
            _PAIR,
            "Topology(name='pair', num_qubits=3, edges=((0, 1), (1, 2)), "
            "synthetic=frozenset({(1, 2)}), positions={0: (0, 0), 1: (0, 1), 2: (1, 1)})",
        ),
        (
            Topology("l", 2, ((0, 1),)),
            "Topology(name='l', num_qubits=2, edges=((0, 1),), synthetic=frozenset(), positions=None)",
        ),
        (
            route_circuit(_TINY, _PAIR),
            "RoutingResult(routed=Circuit(num_qubits=3, gates=(Gate(kind=<GateKind.SWAP: 'swap'>, "
            "qubits=(0, 1), param=None), Gate(kind=<GateKind.CNOT: 'cx'>, qubits=(1, 2), "
            "param=None), Gate(kind=<GateKind.RZ: 'rz'>, qubits=(0,), param=0.5)), "
            "name='tiny@pair'), inserted=(0,), metrics=RouteMetrics(depth=2, total_gates=3, "
            "one_qubit_gates=1, two_qubit_gates=2, swap_count=1, total_swap_gates=1))",
        ),
    ],
    ids=[
        "gate-angle", "gate", "noise", "correlation", "metrics", "report",
        "circuit", "empty-circuit", "topology", "plain-topology", "routing-result",
    ],
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
    """Whether ``vars(record)`` holds just the ``__init__`` parameters, in their order,
    and ``_fields``, which ``Record`` reads for ``repr``, ``==`` and ``hash``, names them."""
    parameters = list(inspect.signature(type(record)).parameters)
    return list(vars(record)) == parameters == list(type(record)._fields)


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


def test_a_cached_attribute_never_enters_repr_eq_or_hash():
    gate, fresh = _Cached(GateKind.CNOT, (0, 1)), _Cached(GateKind.CNOT, (0, 1))
    assert gate.width == 2 and "width" in vars(gate) and "width" not in vars(fresh)
    assert repr(gate) == repr(fresh) == "_Cached(kind=<GateKind.CNOT: 'cx'>, qubits=(0, 1), param=None)"
    assert gate == fresh and hash(gate) == hash(fresh) == hash((GateKind.CNOT, (0, 1), None))
    # the topology's routing tables, once filled; the circuit caches nothing
    circuit, topology = _figure(), _chain()
    text, value = repr(circuit), hash(circuit)
    result = route_circuit(circuit, topology)
    assert "_routing" in vars(topology) and set(vars(circuit)) == set(Circuit._fields)
    assert (repr(circuit), hash(circuit)) == (text, value)
    assert repr(topology) == (
        "Topology(name='chain', num_qubits=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)), "
        "synthetic=frozenset(), positions=None)"
    )
    assert circuit == Circuit(circuit.num_qubits, circuit.gates, circuit.name)
    assert topology == Topology(topology.name, topology.num_qubits, topology.edges)
    assert hash(topology) == hash((topology.name, 6, topology.edges, frozenset()))
    assert result == RoutingResult(result.routed, result.inserted, result.metrics)


def _chain() -> Topology:
    """Six qubits in a line and no positions."""
    return Topology("chain", 6, tuple((q, q + 1) for q in range(5)))


def _figure() -> Circuit:
    """The figure circuit, parsed afresh: the parser builds it unscanned."""
    return parse_qasm_file(DATA_DIR / "figure6.qasm")


def test_the_field_tables_name_the_init_parameters():
    for record in (Circuit, Topology, RoutingResult):
        assert dataclasses.is_dataclass(record)
        names = [field.name for field in dataclasses.fields(record)]
        assert names == list(record._fields) == list(inspect.signature(record).parameters)


def test_replace_gives_an_equal_copy_with_empty_caches():
    circuit, topology = _figure(), _chain()
    result = route_circuit(circuit, topology)
    for record, cache in ((circuit, None), (topology, "_routing"), (result, None)):
        copy = dataclasses.replace(record)
        assert type(copy) is type(record) and copy == record and copy is not record
        assert repr(copy) == repr(record)
        if cache is not None:
            assert cache in vars(record) and cache not in vars(copy)
            assert hash(copy) == hash(record)
    shorter = dataclasses.replace(circuit, gates=circuit.gates[:3], name="head")
    assert shorter == Circuit(circuit.num_qubits, circuit.gates[:3], "head")
    assert dataclasses.replace(result, inserted=()).inserted == () and result.inserted


@pytest.mark.parametrize("record", [_figure(), builtin_topology("line(3)")], ids=["circuit", "topology"])
def test_circuit_and_topology_fields_are_frozen(record):
    for name in type(record)._fields:
        value = getattr(record, name)
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_routing_result_stays_mutable_and_unhashable():
    result = route_circuit(_figure(), builtin_topology("line(6)"))
    with pytest.raises(TypeError):
        hash(result)
    inserted = result.inserted
    result.inserted = ()
    assert result.inserted == () and result != dataclasses.replace(result, inserted=inserted)
