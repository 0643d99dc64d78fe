"""Frontend tests: parsing, ccx expansion, errors, and round-trips."""

import dataclasses
import itertools
import math
import operator
import random
import re
import signal
from pathlib import Path

import pytest
from conftest import empty_gate_table, gates_held
from oracles import plain_to_qasm, same_up_to_phase, statevector, token_parse

from cacore.bench import gen_random_circuit
from cacore.cli import main
from cacore.errors import DegenerateInputError, QasmSyntaxError
from cacore.ir import _SHARED_LIMIT, TWO_QUBIT_KINDS, Circuit, Gate, GateKind, shared_gate
from cacore.qasm import MAX_QUBITS, _lex, _read_gate, parse_qasm, to_qasm
from cacore.routing import route_circuit
from cacore.synthesis import synthesize_topology
from cacore.topology import BUILTIN_NAMES, builtin_topology

DATA_DIR = Path(__file__).parent / "data"


def kinds(circuit):
    return [g.kind for g in circuit.gates]


def test_minimal_program():
    circuit = parse_qasm("qreg q[2]; cx q[0],q[1];")
    assert circuit.num_qubits == 2
    assert circuit.gates == (Gate(GateKind.CNOT, (0, 1)),)


def test_header_and_include_accepted():
    circuit = parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n')
    assert kinds(circuit) == [GateKind.H]


def test_openqasm3_rejected():
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm("OPENQASM 3.0;\nqreg q[1];")
    assert err.value.line == 1


def test_ccx_expands_to_six_cnots_and_nine_singles():
    circuit = parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")
    cnots = [g for g in circuit.gates if g.kind is GateKind.CNOT]
    singles = [g for g in circuit.gates if len(g.qubits) == 1]
    assert len(cnots) == 6
    assert len(singles) == 9
    assert len(circuit.gates) == 15
    # dagger phases come out as rz(-pi/4)
    rz = [g for g in singles if g.kind is GateKind.RZ]
    assert len(rz) == 3
    assert all(g.param == -math.pi / 4 for g in rz)
    assert sum(1 for g in singles if g.kind is GateKind.T) == 4
    assert sum(1 for g in singles if g.kind is GateKind.H) == 2


@pytest.mark.parametrize("n", [3, 4])
def test_ccx_computes_a_toffoli_for_every_operand_order(n):
    """On a normalized random state, the expansion of ``ccx a,b,c`` flips qubit c
    where a and b are 1, up to a global phase, for every order of 3 of n qubits."""
    rng = random.Random(20261019 + n)
    state = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in state))
    state = [x / norm for x in state]
    for a, b, c in itertools.permutations(range(n), 3):
        gates = parse_qasm(f"qreg q[{n}];\nccx q[{a}],q[{b}],q[{c}];\n").gates
        both = 1 << a | 1 << b
        toffoli = [state[i ^ 1 << c] if (i & both) == both else state[i] for i in range(1 << n)]
        assert not same_up_to_phase(toffoli, state)
        assert same_up_to_phase(statevector(gates, n, state), toffoli), (a, b, c)


def test_figure_circuit_transcription(figure_circuit):
    two_qubit = [g for g in figure_circuit.gates if g.kind in TWO_QUBIT_KINDS]
    assert figure_circuit.num_qubits == 6
    assert len(two_qubit) == 8
    assert figure_circuit.gates[0] == Gate(GateKind.CNOT, (0, 1))
    assert figure_circuit.gates[1] == Gate(GateKind.CNOT, (1, 3))


def test_gate_count_matches_statement_count():
    source = "qreg q[4];\n" + "\n".join(
        ["h q[0];", "x q[1];", "cx q[0],q[1];", "swap q[2],q[3];", "t q[2];"]
    )
    circuit = parse_qasm(source)
    assert len(circuit.gates) == 5


def test_multiple_qregs_flatten_in_declaration_order():
    circuit = parse_qasm("qreg a[2]; qreg b[3]; cx a[1],b[0];")
    assert circuit.num_qubits == 5
    assert circuit.gates[0].qubits == (1, 2)


def test_an_empty_qreg_between_two_registers_takes_no_qubit():
    # offsets 0, 2 and 2: the qubit count is the number of declared qubits
    source = "qreg a[2];\nqreg r[0];\nqreg b[3];\ncx a[1],b[0];\nh b[2];\nbarrier a,r,b;\n"
    gates = [(GateKind.CNOT, (1, 2), "None"), (GateKind.H, (4,), "None"),
             (GateKind.BARRIER, (0, 1, 2, 3, 4), "None")]
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source) == (5, gates)
    over = f"qreg a[{MAX_QUBITS - 2}];\nqreg r[0];\nqreg b[3];\n"
    message = f"qreg b[3] brings the qubit count to {MAX_QUBITS + 1}, above the limit of {MAX_QUBITS}"
    expected = (QasmSyntaxError, f"line 3: {message}", 3)
    assert _outcome(parse_qasm, over) == _outcome(token_parse, over) == expected


def test_one_qubit_broadcast_and_barrier_register():
    circuit = parse_qasm("qreg q[3]; h q; barrier q; measure q -> c;")
    assert kinds(circuit) == [GateKind.H] * 3 + [GateKind.BARRIER] + [GateKind.MEASURE] * 3
    assert circuit.gates[3].qubits == (0, 1, 2)


def test_barrier_subset_kept_and_measure_target_optional():
    circuit = parse_qasm("qreg q[4]; barrier q[0],q[2]; measure q[1];")
    assert circuit.gates[0] == Gate(GateKind.BARRIER, (0, 2))
    assert circuit.gates[1] == Gate(GateKind.MEASURE, (1,))


@pytest.mark.parametrize(
    "source, gates, synth_code",
    [("qreg q[0];\nbarrier q;\n", [], 3),  # no grid for 0 qubits
     ("qreg q[0];\nqreg r[1];\nbarrier q,r;\nbarrier q,q;\n", [(GateKind.BARRIER, (0,), "None")], 0)],
    ids=["empty", "one-empty-operand"],
)
def test_barrier_on_empty_registers_only_adds_no_gate(tmp_path, capsys, source, gates, synth_code):
    # as `h q;` and `measure q;` on an empty register add none
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)
    assert _outcome(parse_qasm, source)[1] == gates
    path = tmp_path / "empty.qasm"
    path.write_text(source)
    assert main(["validate", str(path)]) == 0
    assert main(["synth", str(path), "-o", str(tmp_path / "t.json")]) == synth_code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == (synth_code != 0)


@pytest.mark.parametrize(
    "expr,value",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("-pi/4", -math.pi / 4),
        ("(2*pi)/3", 2 * math.pi / 3),
        ("1.5e-1", 0.15),
        ("2+3*4", 14.0),
        ("-(1-3)", 2.0),
    ],
)
def test_angle_expressions(expr, value):
    circuit = parse_qasm(f"qreg q[1]; rz({expr}) q[0];")
    assert circuit.gates[0].param == pytest.approx(value)


@pytest.mark.parametrize(
    "prefix, suffix, levels", [("-", "", 1), ("+", "", 1), ("(", ")", 1), ("-(", ")", 2)]
)
def test_angle_nesting_is_bounded_with_line(prefix, suffix, levels):
    def source(depth):
        return f"qreg q[1];\n\nrz({prefix * depth}1{suffix * depth}) q[0];\n"

    assert abs(parse_qasm(source(64 // levels)).gates[0].param) == 1.0  # at the bound
    for depth in (64 // levels + 1, 5000):
        with pytest.raises(QasmSyntaxError, match="nested more than 64 deep") as err:
            parse_qasm(source(depth))
        assert err.value.line == 3


def test_angle_division_by_zero():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; rz(pi/0) q[0];")


@pytest.mark.parametrize(
    "source,line",
    [
        ("qreg q[2];\nif(c==1) h q[0];", 2),
        ("qreg q[1];\ngate my q { h q; }", 2),
        ("qreg q[1];\nreset q[0];", 2),
        ("qreg q[2];\ncz q[0],q[1];", 2),
        ("qreg q[3];\nu3(0,0,0) q[0];", 2),
    ],
)
def test_unsupported_statements_rejected_with_line(source, line):
    with pytest.raises(QasmSyntaxError, match="not supported|unsupported gate") as err:
        parse_qasm(source)
    assert err.value.line == line


@pytest.mark.parametrize(
    "source",
    [
        "qreg q[2]; cx q[0] q[1];",
        "qreg q[2]; cx q[0],q[1]",
        "qreg q[2]; cx q[0],q[0];",
        "qreg q[2]; rz() q[0];",
        "qreg q[2]; h 3;",
        "qreg q[2]; qreg q[3];",
        "qreg q[2]; cx q,q;",
        "qreg q[2]; @ q[0];",
        "qreg q[1];\nrx(1e400) q[0];",
        "qreg q[1];\nrx(0*1e400) q[0];",
    ],
)
def test_malformed_statements_raise_syntax_errors(source):
    with pytest.raises(QasmSyntaxError):
        parse_qasm(source)


def _declared_cregs(text):
    return {name: int(size) for name, size in re.findall(r"creg (\w+)\[(\d+)\];", text)}


def test_creg_declared_and_emitted_for_measured_circuits():
    circuit = parse_qasm(
        "qreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nmeasure q[1] -> d[1];"
    )
    # classical state is not modeled: a creg adds no qubits, undeclared targets pass
    assert circuit.num_qubits == 2
    assert kinds(circuit) == [GateKind.H, GateKind.MEASURE, GateKind.MEASURE]
    for source in ("qreg q[2];\ncreg q[2];", "creg c[2];\ncreg c[1];", "creg c[2];\nqreg c[2];"):
        with pytest.raises(QasmSyntaxError) as err:
            parse_qasm(source)
        assert err.value.line == 2

    measured = Circuit(3, (Gate(GateKind.H, (0,)), Gate(GateKind.MEASURE, (2,)),
                           Gate(GateKind.MEASURE, (0,))))
    sources = [to_qasm(measured)] + [
        to_qasm(parse_qasm(path.read_text(encoding="utf-8")))
        for path in sorted(DATA_DIR.glob("*.qasm"))
    ]
    assert sources[0].splitlines()[2:4] == ["qreg q[3];", "creg c[3];"]
    assert parse_qasm(sources[0]).gates == measured.gates
    for text in sources:
        declared = _declared_cregs(text)
        for name, index in re.findall(r"-> (\w+)\[(\d+)\];", text):
            assert int(index) < declared[name]

    # a circuit without a measure declares no classical register
    plain = to_qasm(parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1]; barrier q;"))
    assert plain == (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        "barrier q[0],q[1];\n"
    )


def test_index_out_of_range_with_line():
    with pytest.raises(QasmSyntaxError, match="out of range for register") as err:
        parse_qasm("qreg q[3];\nh q[0];\ncx q[0],q[7];")
    assert err.value.line == 3


_HUGE = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "source, line",
    [
        (f"qreg q[2];\nh q[{_HUGE}];", 2),
        (f"qreg q[2];\ncx q[0],q[{_HUGE}];", 2),
        (f"qreg q[{_HUGE}];", 1),
        (f"qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[{_HUGE}];", 3),
        (f"qreg q[2];\nh q[{_HUGE}];\n$", 3),  # the later lines are lexed first
    ],
)
def test_oversized_integers_raise_syntax_errors_with_line(source, line):
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm(source)
    assert err.value.line == line


@pytest.mark.parametrize(
    "source, line",
    [
        ("qreg q[99999999999];\nh q[0];", 1),
        ("qreg q[99999999];", 1),
        (f"qreg a[{MAX_QUBITS}];\nqreg b[1];", 2),  # the declared total counts
        (f"creg c[2];\nqreg q[{MAX_QUBITS + 1}];\nh q[0];", 2),
    ],
)
def test_declared_qubit_count_is_bounded(source, line):
    with pytest.raises(QasmSyntaxError, match=f"above the limit of {MAX_QUBITS}") as err:
        parse_qasm(source)
    assert err.value.line == line
    # the token-by-token oracle refuses it with the same message and line
    assert _outcome(token_parse, source) == _outcome(parse_qasm, source)


@pytest.mark.parametrize(
    "source, line",
    [
        ("qreg q[4];\nh q;\nx q;\nh q[0];\nz q;\n", 5),  # a broadcast passes the bound
        ("qreg q[3];\nccx q[0],q[1],q[2];\n", 2),  # one expansion adds 15 gates
        ("qreg q[2];\nh q; x q; y q; z q; s q; t q;\n", 2),  # six statements on one line
        ("qreg q[2];\n" + "h q[0];\n" * 10 + "x q[1];\n// end\n", 13),  # one gate a line
        ("qreg q[2];\n" + "h q[0];\n" * 11, 12),  # the total is checked at the last line
    ],
    ids=["broadcast", "ccx", "statements", "lines", "repeated-line"],
)
def test_gate_count_is_bounded(monkeypatch, source, line):
    monkeypatch.setattr("cacore.qasm.MAX_GATES", 10)
    with pytest.raises(QasmSyntaxError, match="more than 10 gates") as err:
        parse_qasm(source)
    assert err.value.line == line
    assert len(parse_qasm("qreg q[2];\nh q; x q; y q; z q; s q;\n").gates) == 10  # at the bound


def test_declared_qubit_count_may_reach_the_bound():
    source = f"qreg a[{MAX_QUBITS - 1}];\nqreg b[1];\ncreg c[{MAX_QUBITS + 1}];\nh b[0];"
    circuit = parse_qasm(source)
    assert circuit.num_qubits == MAX_QUBITS
    assert circuit.gates == (Gate(GateKind.H, (MAX_QUBITS - 1,)),)


def test_comments_ignored():
    circuit = parse_qasm("// header comment\nqreg q[1]; // trailing\nh q[0];")
    assert kinds(circuit) == [GateKind.H]


def test_round_trip_hand_written():
    source = (
        "qreg q[4];\nh q[0];\nrz(-pi/4) q[1];\ncx q[0],q[3];\nswap q[1],q[2];\n"
        "barrier q[0],q[3];\nmeasure q[2] -> c[2];\n"
    )
    first = parse_qasm(source)
    second = parse_qasm(to_qasm(first))
    assert first.gates == second.gates
    assert first.num_qubits == second.num_qubits


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_random_circuits(seed):
    circuit = gen_random_circuit(8, 120, seed)
    assert parse_qasm(to_qasm(circuit)).gates == circuit.gates


def test_reals_have_a_dot_in_the_mantissa_and_round_trip():
    # OpenQASM 2.0 reals need a '.', which repr drops in its exponent form
    angles = (1e-05, 1e16, 5e-324, -1e-07, 1.5e-300, -0.0, 0.0, 0.25)
    circuit = Circuit(1, tuple(Gate(GateKind.RZ, (0,), angle) for angle in angles))
    text = to_qasm(circuit)
    assert "rz(1.0e-05) q[0];" in text and "rz(1.0e+16) q[0];" in text
    assert "rz(5.0e-324) q[0];" in text and "rz(-0.0) q[0];" in text
    reals = re.findall(r"rz\(([^)]*)\)", text)
    assert all(re.fullmatch(r"-?(\d+\.\d*|\d*\.\d+)([eE][-+]?\d+)?", r) for r in reals)
    back = parse_qasm(text).gates
    assert [g.param for g in back] == list(angles)
    assert [math.copysign(1.0, g.param) for g in back] == [math.copysign(1.0, a) for a in angles]


@pytest.mark.parametrize("kind, angle", [(GateKind.RZ, math.nan), (GateKind.RX, math.inf),
                                         (GateKind.RY, -math.inf)])
def test_non_finite_angle_is_not_emitted(kind, angle):
    circuit = Circuit(2, (Gate(GateKind.H, (0,)), Gate(kind, (1,), angle)))
    with pytest.raises(ValueError, match=rf"gate 1: angle {angle!r} is not finite"):
        to_qasm(circuit)


@pytest.mark.parametrize("gate, qubit", [(Gate(GateKind.H, (-1,)), -1),
                                         (Gate(GateKind.CNOT, (0, 5)), 5),
                                         (Gate(GateKind.RZ, (3,), 0.5), 3)])
def test_out_of_range_qubit_is_not_emitted(gate, qubit):
    # no such circuit is built, so to_qasm never sees one
    with pytest.raises(DegenerateInputError, match=rf"^logical qubit {qubit} out of range for 2-qubit"):
        Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,)), gate))


def test_out_of_range_error_names_the_lowest_negative_else_the_highest_qubit():
    # the offending object repeats, after an equal twin of a valid shared gate
    h, bad = shared_gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (1, 4))
    gates = (h, Gate(GateKind.H, (0,)), h, bad, h, bad, Gate(GateKind.H, (3,)))
    with pytest.raises(DegenerateInputError, match=r"^logical qubit 4 out of range for 2-qubit circuit 'c'$"):
        Circuit(2, gates, "c")
    gates += (Gate(GateKind.H, (-1,)), Gate(GateKind.BARRIER, (0, -2, 5)))
    with pytest.raises(DegenerateInputError, match=r"^logical qubit -2 out of range for 2-qubit circuit 'c'$"):
        Circuit(2, gates, "c")


def _with_special_angles(rng, circuit):
    """The circuit with rotations by angles whose text is easy to get wrong."""
    gates = list(circuit.gates)
    for angle in (0.0, -0.0, 1e-05, 5e-324, -0.0, 0.0):
        gate = Gate(rng.choice([GateKind.RX, GateKind.RY, GateKind.RZ]),
                    (rng.randrange(circuit.num_qubits),), angle)
        gates.insert(rng.randrange(len(gates) + 1), gate)
    return Circuit(circuit.num_qubits, tuple(gates))


def test_emit_matches_per_gate_renderer():
    """to_qasm writes the same bytes as a renderer that formats every gate alone."""
    paths = sorted(DATA_DIR.glob("*.qasm"))
    assert len(paths) == 7
    devices = [builtin_topology(name) for name in BUILTIN_NAMES if "(" not in name]
    circuits = []
    for path in paths:
        circuit = parse_qasm(path.read_text(encoding="utf-8"))
        circuits.append(circuit)
        for topology in [synthesize_topology(circuit)] + devices:
            if circuit.num_qubits <= topology.num_qubits:
                circuits.append(route_circuit(circuit, topology).routed)
    rng = random.Random(20261019)
    circuits += [_with_special_angles(rng, _mixed_circuit(rng, rng.randint(2, 12)))
                 for _ in range(40)]
    # equal gates that are distinct objects, one object repeated (a rotation three times),
    # and the gate table's own
    twin, shared = Gate(GateKind.CNOT, (0, 1)), shared_gate(GateKind.CNOT, (0, 1))
    turn = Gate(GateKind.RY, (1,), -0.75)
    circuits.append(Circuit(3, (Gate(GateKind.CNOT, (0, 1)), turn, Gate(GateKind.CNOT, (0, 1)),
                                twin, shared, Gate(GateKind.MEASURE, (2,)), turn, twin, shared,
                                shared_gate(GateKind.MEASURE, (2,)), Gate(GateKind.MEASURE, (2,)),
                                Gate(GateKind.BARRIER, (0, 2)), Gate(GateKind.BARRIER, (0, 2)),
                                Gate(GateKind.BARRIER, (2, 0, 1)), shared_gate(GateKind.H, (1,)),
                                Gate(GateKind.RZ, (2,), -0.0), Gate(GateKind.RZ, (2,), 0.0),
                                Gate(GateKind.RX, (1,), 1e-05), turn,
                                shared_gate(GateKind.H, (1,)))))
    assert len(circuits) > 80
    for circuit in circuits:
        assert to_qasm(circuit) == plain_to_qasm(circuit)


def test_round_trip_of_ccx_expansion():
    circuit = parse_qasm("qreg q[5]; ccx q[4],q[1],q[2]; ccx q[0],q[2],q[3];")
    assert parse_qasm(to_qasm(circuit)).gates == circuit.gates


def test_parser_total_on_fuzzed_inputs():
    rng = random.Random(20240817)
    fragments = [
        "qreg q[3];", "h q[0];", "cx q[0],q[1];", "swap q[1],q[2];", "barrier q;",
        "measure q[2] -> c[2];", "rz(pi/2) q[1];", "ccx q[0],q[1],q[2];",
        "creg c[3];", "cz q[0],q[1];", "h q[9];", "cx q[0];", "qreg q[2];", "][",
        'include "qelib1.inc";', "OPENQASM 2.0;",
    ]
    for _ in range(300):
        program = "\n".join(rng.choice(fragments) for _ in range(rng.randint(1, 8)))
        try:
            circuit = parse_qasm(program)
        except QasmSyntaxError:
            continue
        assert _rebuilt(circuit) == circuit


def _rebuilt(circuit):
    """A copy through the public constructor, which scans its gates: ``parse_qasm``
    builds its circuit unscanned, so only a rebuilt one checks the parser's claim."""
    return Circuit(circuit.num_qubits, circuit.gates, circuit.name)


def test_circuit_rule_examples():
    parsed = parse_qasm("qreg q[2]; cx q[0],q[1];")
    assert _rebuilt(parsed) == parsed
    shapes = [
        (GateKind.CNOT, (0, 0), None, "cx: identical endpoints 0"),
        (GateKind.SWAP, (1, 1), None, "swap: identical endpoints 1"),
        (GateKind.CNOT, (0,), None, "cx takes exactly 2 qubits, got 1"),
        (GateKind.SWAP, (0, 1, 2), None, "swap takes exactly 2 qubits, got 3"),
        (GateKind.BARRIER, (), None, "barrier requires at least one qubit"),
        (GateKind.H, (0, 1), None, "h takes exactly 1 qubit, got 2"),
        (GateKind.MEASURE, (), None, "measure takes exactly 1 qubit, got 0"),
        (GateKind.H, (0,), 0.5, "h: angle parameter mismatch"),
        (GateKind.CNOT, (0, 1), 0.5, "cx: angle parameter mismatch"),
        (GateKind.RZ, (0,), None, "rz: angle parameter mismatch"),
    ]
    for kind, qubits, param, message in shapes:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Gate(kind, qubits, param)
    with pytest.raises(DegenerateInputError, match="^logical qubit 7 out of range for 6-qubit circuit 'circuit'$"):
        Circuit(6, (Gate(GateKind.H, (7,)),))


_STAGES = {
    "synthesize_topology": synthesize_topology,
    "route_circuit": lambda circuit: route_circuit(circuit, builtin_topology("line(4)")),
}


@pytest.mark.parametrize("stage", list(_STAGES))
def test_a_replaced_copy_of_a_parsed_circuit_is_scanned(stage):
    """Only the parsed circuit itself is built unscanned: a ``dataclasses.replace``
    copy given an out-of-range gate fails where it is made, before any stage reads it,
    and one given an in-range gate is read like the parsed circuit."""
    parsed = parse_qasm("qreg q[4];\ncx q[0],q[1];\nh q[3];\n")
    _STAGES[stage](parsed)
    with pytest.raises(DegenerateInputError, match="^logical qubit 4 out of range for 4-qubit circuit 'circuit'$"):
        dataclasses.replace(parsed, gates=(*parsed.gates, Gate(GateKind.CNOT, (2, 4))))
    _STAGES[stage](dataclasses.replace(parsed, gates=(*parsed.gates, Gate(GateKind.CNOT, (2, 3)))))


def _outcome(parse, source):
    """The circuit as (kinds, qubits, exact params), or the error's (type, message, line)."""
    try:
        circuit = parse(source)
    except QasmSyntaxError as err:
        return type(err), str(err), err.line
    return circuit.num_qubits, [(g.kind, g.qubits, repr(g.param)) for g in circuit.gates]


def _mixed_circuit(rng, n):
    """A random circuit with every gate kind, angles in several literal forms."""
    gates = list(gen_random_circuit(n, rng.randint(4, 16), rng.randrange(1000)).gates)
    for _ in range(rng.randint(2, 8)):
        q = rng.randrange(n)
        pick = rng.randrange(5)
        if pick == 0:
            angle = rng.choice([rng.uniform(-4, 4), 1e-5, -2.5e12, 0.0, -0.0, 3.0])
            gates.insert(rng.randrange(len(gates) + 1),
                         Gate(rng.choice([GateKind.RX, GateKind.RY, GateKind.RZ]), (q,), angle))
        elif pick == 1:
            gates.append(Gate(GateKind.SWAP, (q, (q + 1) % n)))
        elif pick == 2:
            gates.append(Gate(GateKind.MEASURE, (q,)))
        elif pick == 3:
            gates.append(Gate(GateKind.BARRIER, (q, (q + 2) % n) if n > 2 else (q,)))
        else:
            gates.append(Gate(rng.choice([GateKind.Y, GateKind.Z]), (q,)))
    return Circuit(n, tuple(gates))


_HAND_WRITTEN_SEED = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
qreg r[2];
creg c[3];
h q[0]; x r[1];
rz(-0.25) q[1];
rx(pi/2) r[0];
rx(1e400) q[2];
cx q[1],q[1];
ccx q[0],q[1];
cx q[0],
   r[1];
swap q[2],r[0];
ry(.5e-3) q[2];
measure q[1] -> c[1];
barrier q;
cx q[2], // a comment inside a statement
   q[0];
h q[7];
cx q[0],q[2];
x u[0];
$
"""

_MUTATION_ALPHABET = [
    "cx ", "rx(", "q[", "];", ";", "\n", "->", "//", "$", "ccx ", "measure ", "qreg r[2];",
    "creg c[2];", "h ", "rz(-", ")", ",", " ", "[", "]", "0", "1", "7", "e", ".", "pi", "r[",
    "cx q[0],\n q[1];", "cx q[0], // c\n q[1];", "x u[0];",
    # aimed at the lookup of a repeated statement by its text
    "// a;b\n", "\r\n", "h\tq[0];", "cx q[0],\tq[1];", "h q[0];\nqreg r[2];\nh q[0];",
    # aimed at a reader that splits at every ';' and keys operands by their text
    'include "a;b.inc";', "q[007]", "qreg qq[2];", "qq[0]", "cx qq[1],q[0];",
]


def _mutate(rng, source):
    """Insert, delete or replace a few characters, or delete or copy a whole line."""
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        pos = rng.randint(0, len(source))
        width = rng.randint(1, 4)
        op = rng.randrange(5)
        if op == 0:
            source = source[:pos] + rng.choice(_MUTATION_ALPHABET) + source[pos:]
        elif op == 1:
            source = source[:pos] + source[pos + width:]
        elif op == 2:
            source = source[:pos] + rng.choice(_MUTATION_ALPHABET) + source[pos + width:]
        else:
            lines = source.split("\n")
            line = lines.pop(rng.randrange(len(lines)))
            if op == 4:
                lines[rng.randint(0, len(lines)):0] = [line, line]
            source = "\n".join(lines)
    return source


def _canonical_statements(source):
    """The statements between ';'s that ``_read_gate`` reads without the lexer,
    against the operand table of the registers the source declares."""
    qubits, total = {}, 0
    for reg, size in re.findall(r"qreg (\w+)\[([0-9]+)\];", source):
        if total + int(size) > MAX_QUBITS:
            break  # the parser refuses this declaration, so the table stays small
        qubits.update((f"{reg}[{i}]", total + i) for i in range(int(size)))
        total += int(size)
    texts = (piece.lstrip(" \t\r\n") for piece in source.split(";")[:-1])
    return [text for text in texts if _read_gate(text, qubits) is not None]


def test_statement_tokens_match_token_by_token_oracle():
    """Mutated sources parse to the same circuit, or fail with the same error and
    line, as the parser that reads every statement token by token."""
    rng = random.Random(20261018)
    bases = [_HAND_WRITTEN_SEED] + [
        path.read_text(encoding="utf-8") for path in sorted(DATA_DIR.glob("*.qasm"))
    ]
    bases += [to_qasm(_mixed_circuit(rng, rng.randint(2, 12))) for _ in range(40)]
    # every base holds a canonical statement, so both readings are compared
    assert all(_canonical_statements(base) for base in bases)
    parsed = failed = 0
    for i in range(2500):
        source = _mutate(rng, bases[i % len(bases)])
        expected = _outcome(token_parse, source)
        assert _outcome(parse_qasm, source) == expected, source
        if isinstance(expected[0], int):
            parsed += 1
            # a parsed circuit is always valid, so it is built unscanned
            circuit = parse_qasm(source)
            assert _rebuilt(circuit) == circuit
        else:
            failed += 1
    assert parsed >= 300 and failed >= 300


_SPELLINGS = {  # a rewrite of ``to_qasm`` text that parses to the same circuit
    "canonical": lambda text: text,
    "spaced": lambda text: text.replace("],q[", "], q["),
    "comment-line-before": lambda text: "".join(f"// c\n{line}\n" for line in text.splitlines()),
    "semicolon-comment-after": lambda text: text.replace("\n", " // a;b\n"),
}


@pytest.mark.parametrize(
    "spelling, n",
    [pytest.param(spelling, n, id=str(n) if spelling == "canonical" else f"{spelling}-{n}")
     for spelling in _SPELLINGS for n in (8, 20, 33)],
)
def test_parse_builds_one_gate_per_distinct_param_less_gate(monkeypatch, gate_builds, spelling, n):
    """A deterministic work count: repeats of a param-less gate share one Gate,
    however the file spells them, counted from an empty gate table."""
    circuit = gen_random_circuit(n, 2000, 1)
    source = _SPELLINGS[spelling](to_qasm(circuit))
    empty_gate_table(monkeypatch)
    gate_builds.clear()  # the circuit above was built before counting starts
    built = gate_builds
    assert parse_qasm(source).gates == circuit.gates
    distinct = {(g.kind, g.qubits) for g in circuit.gates if g.param is None}
    rotations = sum(g.param is not None for g in circuit.gates)
    assert len(built) == len(distinct) + rotations < len(circuit.gates)


@pytest.mark.parametrize(
    "tail",
    ["cx q[0],q[1]", "\ncx q[0],q[1]", "\n// a;b\ncx q[0],q[1]", "h q[1]", "h q[1]\n",
     "rz(0.5) q[0]", "// a;b", "\n// a;b\n", "\n\n", ""],
)
def test_text_after_the_last_semicolon_reads_as_the_oracle_reads_it(tail):
    # every statement in the tail is a repeat, so only the missing ';' can fail it
    source = "qreg q[2];\ncx q[0],q[1];\nh q[1];\nrz(0.5) q[0];\n" + tail
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)


@pytest.mark.parametrize(
    "source",
    [
        "qreg q[1];\n// ;h q[0]\n;",  # the oracle fails on line 3; trusting the split reads h
        'include "a;b.inc";\nqreg q[1];\nh q[0];',
        "qreg q[1];\nh q[0] // c;\n;",
        "qreg q[2];\ncx q[0], // a;b\n q[1];",
        "qreg q[1];\nh q[0];;",
        "qreg q[1];\n// a;b;c\nh q[0];\n// ;\nh q[0];",
        "qreg q[1];\nh q[0]; // a;b",
        'qreg q[1];\ninclude ";";\nh q[0]; "a;b"',
        "qreg q[1];\n// a;b\nh q[0]\n// c;d\n;",
    ],
)
def test_a_semicolon_in_a_comment_or_string_reads_as_the_oracle_reads_it(source):
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)


def test_a_repeated_line_reads_to_the_gate_of_its_first_reading():
    lines = "cx q[0],q[1];\nh q[0];\nrz(0.5) q[0];\nrz(pi/4) q[1];\nrz(-0.0) q[1];\n"
    circuit = parse_qasm(f"qreg q[2];\n{lines}{lines}rz(0.0) q[1];\n")
    first, again, zero = circuit.gates[:5], circuit.gates[5:10], circuit.gates[10]
    assert all(map(operator.is_, first, again))  # rotations too, lexed or not
    # a line's text keeps rz(0.0) and rz(-0.0) apart, with their signs
    assert zero is not first[4] and zero == first[4]
    assert [math.copysign(1.0, g.param) for g in (first[4], zero)] == [-1.0, 1.0]


def test_a_second_parse_builds_only_its_rotations(gate_builds):
    source = to_qasm(gen_random_circuit(8, 300, 2)) + (
        "ccx q[0],q[1],q[2];\nrz(0.5) q[3];\nrx(-0.0) q[3];\nmeasure q[4] -> c[4];\n"
    )
    first = parse_qasm(source)
    gate_builds.clear()
    again = parse_qasm(source)
    rotations = [g for g in again.gates if g.param is not None]
    assert len(rotations) == 5  # three from the ccx expansion
    assert again.gates == first.gates and gate_builds == rotations


def test_a_wide_file_leaves_the_gate_table_within_its_limit(monkeypatch):
    table = empty_gate_table(monkeypatch)
    pairs = [(a, (a + k) % 300) for k in range(1, 20) for a in range(300)]
    source = "qreg q[300];\n" + "".join(f"cx q[{a}],q[{b}];\n" for a, b in pairs) * 2
    assert [g.qubits for g in parse_qasm(source).gates] == pairs * 2
    assert 0 < gates_held(table) <= _SHARED_LIMIT < len(set(pairs))


def test_every_kind_table_is_emptied_together_at_the_limit(monkeypatch):
    table = empty_gate_table(monkeypatch)
    x, cx = shared_gate(GateKind.X, (0,)), shared_gate(GateKind.CNOT, (0, 1))
    for q in range(_SHARED_LIMIT - 2):
        shared_gate(GateKind.H, (q,))
    assert gates_held(table) == _SHARED_LIMIT
    assert shared_gate(GateKind.X, (0,)) is x and gates_held(table) == _SHARED_LIMIT  # a hit
    measure = shared_gate(GateKind.MEASURE, (0,))  # the first miss at the limit empties all
    assert {kind: dict(gates) for kind, gates in table.items() if gates} == {
        GateKind.MEASURE: {(0,): measure}
    }
    assert shared_gate(GateKind.CNOT, (0, 1)) is not cx


def test_repeats_after_a_comment_holding_a_semicolon_and_crlf_are_shared():
    # The text through the first ';' of a statement after "// a;b" is only a
    # prefix of it, so it must not be stored: the next "// a;b" is followed by h.
    source = (
        "qreg q[2];\r\ncx q[0],q[1];\r\n// a;b\ncx q[0],q[1];\r\ncx q[0],q[1];\r\n"
        "// a;b\nh q[1]; // c;d\r\nh q[1];\r\n\th q[1];\r\nh q[1];\r\ncx q[0],q[1];\r\n"
    )
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)
    gates = parse_qasm(source).gates
    assert [g.kind for g in gates] == [GateKind.CNOT] * 3 + [GateKind.H] * 4 + [GateKind.CNOT]
    assert all(g is gates[0] for g in gates if g.kind is GateKind.CNOT)
    assert all(g is gates[3] for g in gates if g.kind is GateKind.H)
    # an error after the repeats keeps its line, counted through the skipped text
    with pytest.raises(QasmSyntaxError, match="out of range for register") as err:
        parse_qasm(source + "h q[2];\r\n")
    assert err.value.line == 12


def test_long_run_of_blank_and_comment_lines_before_a_statement():
    # A non-canonical statement after the run makes the one-match reading fail
    # there, so its whitespace-and-comment part must not backtrack super-linearly.
    filler = "".join("\n" if i % 2 else "// a // b // c $\n" for i in range(10_000))
    circuit = parse_qasm("qreg q[1];\n" + filler + "measure q[0] -> c[0];\n")
    assert circuit.gates == (Gate(GateKind.MEASURE, (0,)),)
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm("qreg q[1];\n" + filler + "measure q[0] -> c[0];\nh r[0];\n")
    assert err.value.line == 10_003


def _parse_within_20_s(source):
    def too_slow(signum, frame):
        raise TimeoutError(f"{len(source.splitlines())} lines took over 20 s to read")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        return parse_qasm(source)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_half_a_million_comment_lines_before_a_canonical_statement_read_in_linear_time():
    # 3 MB of comment lines before statements the lexer never sees. A reader
    # that copies the rest of the run once per comment line moves about 750 GB
    # here and runs for minutes; a linear one takes well under a second.
    source = "qreg q[1];\n" + "// c\n\n" * 500_000 + "h q[0];\nh q[0];\n"
    assert _parse_within_20_s(source).gates == (Gate(GateKind.H, (0,)),) * 2


@pytest.mark.parametrize(
    "head, tail, gate",
    [("qreg q[1];\n", "h q[0];\n", Gate(GateKind.H, (0,))),
     ("qreg q[2];\ncx q[0],", "q[1];\n", Gate(GateKind.CNOT, (0, 1)))],
    ids=["before-a-statement", "inside-a-statement"],
)
def test_comment_lines_holding_a_semicolon_read_in_linear_time(head, tail, gate):
    # Each comment swallows a ';'. A reader that carries all the comment text
    # it has swallowed into the next piece is quadratic here: 5000 lines take
    # seconds, and 200 000 would take hours.
    assert _parse_within_20_s(head + "// a;b\n" * 200_000 + tail).gates == (gate,)


@pytest.mark.parametrize(
    "source, line, char",
    [
        ("qreg q[\u0664];\n", 1, "\u0664"),
        ("qreg q[4];\nh q[\u0663];\n", 2, "\u0663"),
        ("qreg q[1];\nrz(\u0661.\u0665) q[0];\n", 2, "\u0661"),
    ],
    ids=["qreg", "operand", "angle"],
)
def test_non_ascii_digits_are_unexpected_characters(source, line, char):
    # OpenQASM 2.0 numbers are ASCII; int() and float() would read these
    # Arabic-Indic digits as 4, 3 and 1.5.
    with pytest.raises(QasmSyntaxError, match=rf"^line {line}: unexpected character '{char}'$"):
        parse_qasm(source)
    with pytest.raises(QasmSyntaxError, match=rf"^line {line}: unexpected character '{char}'$"):
        token_parse(source)


def _counting_lex(monkeypatch):
    """The texts ``parse_qasm`` lexes from here on, in order."""
    lexed = []

    def counting_lex(text, line):
        lexed.append(text)
        return _lex(text, line)

    monkeypatch.setattr("cacore.qasm._lex", counting_lex)
    return lexed


def test_an_error_on_the_last_line_lexes_only_the_rest_from_its_piece(monkeypatch):
    """A deterministic work count: the lines before the failing one are not read
    again, so an error at the end of a long file lexes only its own line."""
    lexed = _counting_lex(monkeypatch)
    source = to_qasm(gen_random_circuit(20, 20000, 1)) + "h q[99];\n"
    with pytest.raises(QasmSyntaxError, match="^line 20014: index 99 out of range"):
        parse_qasm(source)
    assert sum(map(len, lexed)) < 200


@pytest.mark.parametrize(
    "source",
    [
        # a comment that swallows a ';', then an error some lines on
        "qreg q[2];\nh q[0];\n// a;b\nh q[0];\ncx q[0],q[1];\n\nh q[2];\nh q[0];\n",
        "qreg q[1];\n// a;b\nqreg r[2];\ncx q[0],r[1];\nh r[1];\nh r[2];\n",
        "qreg q[2];\ncx q[0], // a;b\n q[1];\nh q[0];\nh q[0];\n\n$\n",
        "qreg q[2];\nh q[0]; // a;b;c\nh q[1];\nh q[0];\ncx q[0],q[0];\n",
        # an include path that holds a ';'
        'qreg q[2];\ninclude "a;b.inc";\nh q[0];\ncx q[0],q[1];\n\nh q[5];\n',
        'OPENQASM 2.0;\ninclude "a;;b";\nqreg q[2];\nh q[0];\nrz(0.5) q[1];\nx u[0];\n',
        'qreg q[2];\nh q[0];\ninclude "a;b.inc";\nh q[0];\nh q[1];\nrz(pi/0) q[0];\n',
        # a CRLF run
        "qreg q[2];\r\nh q[0];\r\n\r\n\r\ncx q[0],q[1];\r\n\r\nh q[5];\r\n",
        "qreg q[2];\r\ncx q[0],\r\n q[1];\r\n\r\nh q[0];\r\n\r\nh q[1];\r\nccx q[0],q[1];\r\n",
        "qreg q[2];\r\n// a;b\r\nh q[0];\r\n\r\n\r\nh q[0];\r\nh r[0];\r\n",
        # an error inside the tail
        "qreg q[2];\nh q[0];\ncx q[0],q[1];\n\n\nh q[1]\n",
        "qreg q[2];\nh q[0];\n// a;b\nh q[0];\ncx q[0],q[1];\n\n\n$ h q[1]",
        "qreg q[2];\r\nh q[0];\r\ncx q[0],q[1];\r\n\r\n// c\r\ncx q[0],q[1]\r\n",
        'qreg q[2];\ninclude "a;b.inc";\nh q[0];\nh q[1];\n\n\nbarrier q',
    ],
)
def test_an_error_after_the_hand_over_reads_as_the_oracle_reads_it(source):
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)


# Blanks the lexer skips, comment pieces, and characters that a bare
# ``str.lstrip()`` strips but the lexer does not.
_PREFIX_ATOMS = [
    " ", "\t", "\r", "\n", "\r\n", "  \n\t", "// c\n", "//\n", "// a;b\r\n", "/", "// c",
    "\x0b", "\x0c", "\xa0", "\u2028",
]
_PREFIX_BODIES = ["h q[0]", "cx q[0],q[1]", "rz(-0.5) q[1]", "", "/ h q[0]", "q[0]"]


def test_blanks_and_comments_before_a_statement_read_as_the_oracle_reads_them():
    rng = random.Random(20261019)
    corpus = [
        "".join(rng.choice(_PREFIX_ATOMS) for _ in range(rng.randint(0, 5)))
        + rng.choice(_PREFIX_BODIES)
        for _ in range(3000)
    ]
    corpus += [f"{blank}{body}" for blank in _PREFIX_ATOMS for body in _PREFIX_BODIES]
    corpus += ["\r\n\r\nh q[0]", "\n  // c\n\t// d\r\n h q[0]", " \t// no newline", "/", "\n/x"]
    for char in "\x0b\x0c\xa0\u2028":  # a bare lstrip() would skip it; the lexer refuses it
        message = re.escape(f"line 1: unexpected character {char!r}")
        with pytest.raises(QasmSyntaxError, match=f"^{message}$"):
            parse_qasm(f"qreg q[1];{char}h q[0];")
    # the parser, which reads each piece after a declaration, reads it as the oracle does
    for piece in corpus:
        source = f"qreg q[2];{piece};h q[1];"
        assert _outcome(parse_qasm, source) == _outcome(token_parse, source), repr(piece)


def test_a_file_synthesized_then_routed_is_never_scanned_and_lexes_only_its_header(
    tmp_path, monkeypatch
):
    """A deterministic work count for ``cacore synth`` then ``cacore route`` on a
    33-qubit, 2000-gate file: ``parse_qasm`` checked every operand and
    ``route_circuit`` places every gate on the topology, so neither builds its
    circuit through the scanning ``Circuit.__init__``, and every gate line of
    ``to_qasm`` text is read without the lexer."""
    source, topology = tmp_path / "c.qasm", tmp_path / "t.json"
    assert main(["gen", "-n", "33", "--gates", "2000", "-o", str(source)]) == 0
    scans = []
    init = Circuit.__init__

    def counting_init(circuit, *args):
        scans.append(args)
        init(circuit, *args)

    monkeypatch.setattr(Circuit, "__init__", counting_init)
    lexed = _counting_lex(monkeypatch)
    assert main(["synth", str(source), "-o", str(topology)]) == 0
    assert main(["route", str(source), "-t", str(topology)]) == 0
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[33];"]
    assert not scans and lexed == header * 2
    # the counters see a caller's circuit and a line that is not a canonical gate
    Circuit(2, (Gate(GateKind.H, (0,)),))
    parse_qasm("qreg q[1];\n// c\nh\tq[0];\n")
    assert len(scans) == 1 and lexed[6:] == ["qreg q[1];", "h\tq[0];"]


@pytest.mark.parametrize(
    "source",
    [
        "qreg q[1];\n// a;b\ninclude \"//\"; // c;d\nh q[0]",  # the comment runs into the tail
        "qreg q[1];\n// a;b\ninclude \"//\"; // c;d\nh q[0];",
        "qreg q[1];\nh q[0]; // a;b;c",
        "qreg q[2];\ncx q[0], // a;b\n q[1]; // c;\nh q[0];",
        "qreg q[1];\ninclude \"a//b\"; // c;d\nh q[0];",  # a '//' in a string, then a comment
        "qreg q[1];\ninclude \"ab //c;d\";\nh q[0];",  # a string that holds '//' and ';'
        "qreg q[1];\n// \"x;y\nh q[0];",  # a comment that holds a quote
        "qreg q[1];\nh q[0]; // \"x\" y;z \"\nh q[0]; // \"x\" y;z \"\nh q[0];",
        'qreg q[1];\ninclude "a" // "b;c\n;h q[0];',  # a comment after a closed string
        "qreg q[1];\n// a;b\n// c;d\nh q[0];\n// a;b\n// c;d\nh q[0];",
        "qreg q[2];\n// a;b\r\ncx q[0],q[1];\r\n// a;b\r\ncx q[0],q[1];\r\n",
        "qreg q[1];\n// a;b\nh q[1];",
        "qreg q[1];\nh q[0]; // a;\n$",
        "qreg q[1];\n// a;b",
        "qreg q[1];\n// a;b\n",
        # a line that also declares is read again, not replayed as its one gate
        'qreg q[1];\ninclude "a //b;c"; qreg r[1];\nh r[0];\ninclude "a //b;c"; qreg r[1];\nh r[0];\n',
        'qreg q[1];\n// a;b\ninclude "//"; qreg r[1];\nh r[0];\n// a;b\ninclude "//"; qreg r[1];\nh r[0];\n',
        'qreg q[1];\ninclude "a //b;c"; qreg r[1]; eg q[0];\nh q[0];',  # fails after declaring
        # a repeated line is replayed only when it holds one whole statement:
        # not a line that ends inside a statement, nor the line that ends it
        "qreg q[2];\nh q[0] ; cx q[0],\n q[1];\nh q[0] ; cx q[0],\n q[1];\n",
        "qreg q[2];\nh q[0] ; cx q[0],\n q[1];\n q[1];\n",
        "qreg q[2];\ncx q[0],\nq[1];\ncx q[0],\nq[1];\nq[1];\n",
        "qreg q[2];\nh q[0];\ncx q[0],\nh q[0];\n",  # a repeat while a statement is open
        # a line that declares and applies, or applies twice
        "qreg q[1];\nqreg r[1]; h r[0];\nqreg r[1]; h r[0];\n",
        "qreg q[2];\nh q[0]; h q[1];\nh q[0]; h q[1];\n",
        # a comment that holds the line's only ';'
        "qreg q[1];\nh q[0] // c;\n;\nh q[0] // c;\n;\n",
        # one whole statement read by the lexer, then repeated
        "qreg q[2];\nmeasure q[0] -> c[0]; // m\nbarrier q;\n"
        "measure q[0] -> c[0]; // m\nbarrier q;\n",
    ],
)
def test_a_comment_holding_a_semicolon_reads_as_the_oracle_reads_it(source):
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)


@pytest.mark.parametrize("comment", ["once", "every-line"])
def test_a_comment_holding_a_semicolon_lexes_only_its_own_statement(monkeypatch, comment):
    """A deterministic work count: a comment that holds a ';' ends at its newline,
    so the rest of a valid file is still read line by line instead of lexed whole."""
    plain = to_qasm(gen_random_circuit(20, 2000, 1))
    head, body = plain.split("\n", 1)
    if comment == "once":
        source = f"{head}\n// generated; by hand\n{body}"
    else:
        source = plain.replace(";\n", "; // x;y\n")
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)
    lexed = _counting_lex(monkeypatch)
    assert parse_qasm(source).gates == parse_qasm(plain).gates
    assert sum(map(len, lexed)) < 200


def _with_line(index, line):
    """``to_qasm`` text of a 20-qubit, 20 000-gate circuit with ``line`` as line ``index + 1``."""
    lines = to_qasm(gen_random_circuit(20, 20000, 1)).split("\n")
    lines[index:index] = [line]
    return "\n".join(lines)


def test_an_early_error_lexes_each_later_line_at_most_once(monkeypatch):
    """A deterministic work count: after an error on line 4, each distinct later
    line is lexed once to find an unexpected character, and no token list of the
    rest of the file is built."""
    source = _with_line(3, "h q[99];")
    expected = _outcome(token_parse, source)
    assert expected[1:] == ("line 4: index 99 out of range for register 'q' of size 20", 4)
    lexed = _counting_lex(monkeypatch)
    assert _outcome(parse_qasm, source) == expected
    assert len(lexed) == len(set(lexed)) and set(lexed) <= set(source.split("\n"))
    assert len(lexed) < 1000  # of 20 013 lines
    # and an unexpected character near the end still wins
    late = source[:-30] + "$" + source[-30:]
    assert _outcome(parse_qasm, late) == _outcome(token_parse, late)
    assert _outcome(parse_qasm, late)[1].endswith("unexpected character '$'")


@pytest.mark.parametrize("case", ["include-path", "long-comment"])
def test_a_semicolon_in_a_string_or_a_long_comment_lexes_only_its_line(monkeypatch, case):
    """A deterministic work count: a line whose ';' sits in a string is lexed
    alone, and a comment after a statement's ';' is not lexed at all."""
    if case == "include-path":
        source, limit = _with_line(1, 'include "a;b";'), 200
    else:
        source, limit = "qreg q[1];// " + "a;" * 200_000, 100
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)
    lexed = _counting_lex(monkeypatch)
    parse_qasm(source)
    assert sum(map(len, lexed)) < limit


def test_a_repeated_measure_or_barrier_line_is_lexed_once(monkeypatch):
    lexed = _counting_lex(monkeypatch)
    gates = parse_qasm("qreg q[2];\n" + "measure q[0] -> c[0]; // m\nbarrier q;\n" * 3).gates
    assert lexed == ["qreg q[2];", "measure q[0] -> c[0];", "barrier q;"]
    assert gates[0] is gates[2] is gates[4] and gates[1] is gates[3] is gates[5]


def test_two_registers_are_read_through_one_operand_table(monkeypatch):
    """Each ``qreg`` enters its qubits at its offset, so canonical gates on either
    register are read without the lexer, and a register used before its
    declaration misses the table and fails as the oracle fails."""
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg a[2];", "qreg bb[3];"]
    body = ["h a[0];", "x bb[2];", "cx a[1],bb[0];", "cx bb[1],a[0];", "rz(0.5) bb[2];",
            "swap bb[0],bb[2];", "cx a[0],a[1];", "h a[0];"]
    source = "\n".join(header + body) + "\n"
    lexed = _counting_lex(monkeypatch)
    circuit = parse_qasm(source)
    assert lexed == header
    qubits = [(0,), (4,), (1, 2), (3, 0), (4,), (2, 4), (0, 1), (0,)]  # bb[i] is qubit 2 + i
    assert [g.qubits for g in circuit.gates] == qubits
    assert _outcome(parse_qasm, source) == _outcome(token_parse, source)
    early = source.replace("qreg bb[3];", "h bb[0];\nqreg bb[3];")
    expected = _outcome(token_parse, early)
    assert expected == (QasmSyntaxError, "line 4: unknown register 'bb'", 4)
    assert _outcome(parse_qasm, early) == expected


def test_a_file_joined_onto_one_line_parses_as_its_lines_do():
    rng = random.Random(20261020)
    for circuit in (gen_random_circuit(8, 300, 3), _mixed_circuit(rng, 8)):
        text = to_qasm(circuit)
        one_line = text.replace("\n", " ")
        assert parse_qasm(one_line).gates == parse_qasm(text).gates == circuit.gates
        assert _outcome(parse_qasm, one_line) == _outcome(token_parse, one_line)
    lines = _HAND_WRITTEN_SEED.split("\n")
    for k in range(1, len(lines) + 1):
        text, one_line = "\n".join(lines[:k]), " ".join(lines[:k])
        assert _outcome(parse_qasm, one_line) == _outcome(token_parse, one_line), one_line
        multi = _outcome(parse_qasm, text)
        if isinstance(multi[0], int) and "//" not in text:
            assert _outcome(parse_qasm, one_line) == multi, one_line
