"""Frontend tests: parsing, ccx expansion, errors, and round-trips."""

import math
import random
import re
from pathlib import Path

import pytest
from oracles import token_parse

from cacore.bench import gen_random_circuit
from cacore.errors import QasmSyntaxError, QubitIndexError, UnsupportedGateError
from cacore.ir import TWO_QUBIT_KINDS, Circuit, Gate, GateKind, validate_circuit
from cacore.qasm import _CANONICAL_KINDS, _STATEMENT_RE, parse_qasm, to_qasm

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


def test_one_qubit_broadcast_and_barrier_register():
    circuit = parse_qasm("qreg q[3]; h q; barrier q; measure q -> c;")
    assert kinds(circuit) == [GateKind.H] * 3 + [GateKind.BARRIER] + [GateKind.MEASURE] * 3
    assert circuit.gates[3].qubits == (0, 1, 2)


def test_barrier_subset_kept_and_measure_target_optional():
    circuit = parse_qasm("qreg q[4]; barrier q[0],q[2]; measure q[1];")
    assert circuit.gates[0] == Gate(GateKind.BARRIER, (0, 2))
    assert circuit.gates[1] == Gate(GateKind.MEASURE, (1,))


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
    with pytest.raises(UnsupportedGateError) as err:
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
    with pytest.raises(QubitIndexError) as err:
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
        (f"qreg q[2];\nh q[{_HUGE}];\n$", 3),  # the rest is lexed first
    ],
)
def test_oversized_integers_raise_syntax_errors_with_line(source, line):
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm(source)
    assert err.value.line == line


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
        except (QasmSyntaxError, UnsupportedGateError, QubitIndexError):
            continue
        assert validate_circuit(circuit) == []


def test_validate_circuit_examples():
    assert validate_circuit(parse_qasm("qreg q[2]; cx q[0],q[1];")) == []
    bad_loop = Circuit(2, (Gate(GateKind.CNOT, (0, 0)),))
    assert any("identical endpoints" in d for d in validate_circuit(bad_loop))
    bad_range = Circuit(6, (Gate(GateKind.H, (7,)),))
    assert any("out of range" in d for d in validate_circuit(bad_range))


def _outcome(parse, source):
    """The circuit as (kinds, qubits, exact params), or the error's (type, message, line)."""
    try:
        circuit = parse(source)
    except (QasmSyntaxError, UnsupportedGateError, QubitIndexError) as err:
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
    """The statements between ';'s that the scanner reads in one match."""
    matches = (_STATEMENT_RE.fullmatch(part + ";") for part in source.split(";"))
    return [
        m[1] for m in matches
        if m and (m[2], m[3] is not None, m[6] is not None) in _CANONICAL_KINDS
    ]


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
        else:
            failed += 1
    assert parsed >= 300 and failed >= 300


def test_repeated_param_less_gates_are_shared_and_rotations_are_not():
    circuit = parse_qasm(
        "qreg q[2];\ncx q[0],q[1];\nh q[0];\nrz(0.5) q[0];\nrz(-0.0) q[1];\n"
        "cx q[0],q[1];\nh q[0];\nrz(0.5) q[0];\nrz(0.0) q[1];\n"
    )
    first, again = circuit.gates[:4], circuit.gates[4:]
    assert first[0] is again[0] and first[1] is again[1]
    assert first[2] == again[2] and first[2] is not again[2]
    assert [math.copysign(1.0, g.param) for g in (first[3], again[3])] == [-1.0, 1.0]


def test_long_run_of_blank_and_comment_lines_before_a_statement():
    # A non-canonical statement after the run makes the one-match reading fail
    # there, so its whitespace-and-comment part must not backtrack super-linearly.
    filler = "".join("\n" if i % 2 else "// a // b // c $\n" for i in range(10_000))
    circuit = parse_qasm("qreg q[1];\n" + filler + "measure q[0] -> c[0];\n")
    assert circuit.gates == (Gate(GateKind.MEASURE, (0,)),)
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm("qreg q[1];\n" + filler + "measure q[0] -> c[0];\nh r[0];\n")
    assert err.value.line == 10_003
