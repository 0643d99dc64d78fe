"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.
"""

import math
import random
import statistics
import sys
import time

import pytest

from cacore.analysis import build_correlation
from cacore.bench import NoiseParams, estimate_fidelity, gen_random_circuit, run_comparison
from cacore.ir import METRIC_EXEMPT_KINDS, Circuit
from cacore.routing import route_circuit, verify_routing
from cacore.synthesis import (
    connect_adjacent,
    connect_diagonals,
    generate_mwpg,
    join_components,
    partition_diagonals,
    place_on_grid,
    choose_grid_dims,
    synthesize_topology,
)
from cacore.topology import builtin_topology

from conftest import ORDERING_BENCHMARKS
from oracles import (
    brute_force_diagonal_groups,
    complete,
    components,
    degrees,
    is_diagonal,
    layered_depth,
)


def _report(number: int | str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def reduction_report():
    """Shared protocol run for criteria 3 and 4: 10 seeds x {10,16,20} qubits."""
    baselines = [builtin_topology("cairo27"), builtin_topology("prague33")]
    circuits, seeds = [], []
    for n in (10, 16, 20):
        for seed in range(10):
            circuits.append(gen_random_circuit(n, 2000, seed))
            seeds.append(seed)
    return run_comparison(circuits, baselines, [NoiseParams(0.001)], seeds=seeds)


def test_criterion_1_paper_example_replay(figure_circuit):
    """Six-qubit walkthrough: correlated-pair diagonal elimination.

    The transcription realizes the narrative: the (q4,q6) diagonal
    candidate falls in the strictly lighter checkerboard group and is
    eliminated, while the heavier group, holding the top-weight (q2,q3)
    diagonal, is retained. The quoted accumulated weights (3 vs 2) are not
    realizable together with the pinned greedy scan at the eight-gate
    budget (exhaustively verified); this run realizes 2 vs 1 with the
    same structure. See the decisions ledger for the full analysis.
    """
    matrix = build_correlation(figure_circuit)
    path = join_components(6, generate_mwpg(matrix))
    positions = place_on_grid(6, path, *choose_grid_dims(6))
    grid = connect_diagonals(positions, connect_adjacent(positions, path, matrix), matrix)
    g1, g2 = partition_diagonals(positions, grid)
    candidates = {p: w for p, w in sorted(grid.items()) if is_diagonal(positions, p)}

    topology = synthesize_topology(figure_circuit)
    start = time.perf_counter()
    for _ in range(20):
        synthesize_topology(figure_circuit)
    elapsed_ms = (time.perf_counter() - start) / 20 * 1e3

    dropped = set(g1 if sum(g2.values()) > sum(g1.values()) else g2)
    retained = {p: w for p, w in candidates.items() if p not in dropped}
    dropped_weight = sum(candidates[p] for p in dropped)
    retained_weight = sum(retained.values())

    ok = (
        (3, 5) in candidates  # (q4,q6) was a diagonal candidate
        and (3, 5) in dropped  # and was eliminated with the lighter group
        and (3, 5) not in topology.edges
        and (1, 2) in retained  # (q2,q3) kept
        and (1, 2) in topology.edges
        and retained_weight > dropped_weight
        and max(retained.values()) == max(candidates.values())
        and topology.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 5), (3, 4))
        and elapsed_ms < 1.0
    )
    _report(
        1,
        "paper-example replay",
        ok,
        f"(q4,q6) dropped, groups {retained_weight} vs {dropped_weight}, "
        f"{elapsed_ms:.3f} ms (quoted 3-vs-2 weights unattainable; see ledger)",
    )


def test_criterion_2_runtime_33_qubits():
    times = []
    for seed in range(10):
        circuit = gen_random_circuit(33, 2000, seed)
        start = time.perf_counter()
        synthesize_topology(circuit)
        times.append(time.perf_counter() - start)
    median = statistics.median(times)
    _report(2, "33-qubit synthesis under 1 s", median < 1.0, f"median {median*1e3:.2f} ms")


def test_criterion_3_swap_reduction(reduction_report):
    reductions = {}
    for baseline in ("cairo27", "prague33"):
        cells = [a for a in reduction_report.aggregates if a["baseline"] == baseline]
        assert len(cells) == 3
        reductions[baseline] = sum(a["swap_reduction_pct"] for a in cells) / len(cells)
    every_cell_lower = all(
        a["ca_core_mean"]["swaps"] < a["baseline_mean"]["swaps"]
        for a in reduction_report.aggregates
    )
    ok = every_cell_lower and all(r >= 15.0 for r in reductions.values())
    detail = ", ".join(f"{b}: {r:.1f}%" for b, r in reductions.items())
    _report(3, "mean SWAP reduction >= 15%", ok, detail)


def test_criterion_4_depth_reduction(reduction_report):
    cells = reduction_report.aggregates
    wins = sum(1 for a in cells if a["ca_core_mean"]["depth"] <= a["baseline_mean"]["depth"])
    ok = wins / len(cells) >= 0.8
    _report(4, "depth no worse on >= 80% of cells", ok, f"{wins}/{len(cells)} cells")


def test_criterion_5_fidelity_ordering(benchmark_circuits):
    baselines = ["almaden20", "cairo27", "prague33", "sycamore53", "half_sycamore24"]
    epsilons = (0.0005, 0.001, 0.002, 0.005)
    checked = 0
    ok = True
    for name in ORDERING_BENCHMARKS:
        circuit = benchmark_circuits[name]
        ca_metrics = route_circuit(circuit, synthesize_topology(circuit)).metrics
        for base_name in baselines:
            topology = builtin_topology(base_name)
            if circuit.num_qubits > topology.num_qubits:
                continue
            base_metrics = route_circuit(circuit, topology).metrics
            for eps in epsilons:
                noise = NoiseParams(eps)
                ca_f = estimate_fidelity(ca_metrics, noise)
                base_f = estimate_fidelity(base_metrics, noise)
                ok = ok and ca_f >= base_f
                checked += 1
    _report(5, "fidelity proxy ordering", ok, f"{checked} (circuit, baseline, eps) cells")


def test_criterion_6_invariant_suites():
    from cacore.analysis import CorrelationMatrix

    rng = random.Random(424242)

    # (a) MWPG invariants over 1000 random weighted graphs up to 36 nodes
    mwpg_ok = True
    for _ in range(1000):
        n = rng.randint(2, 36)
        weights = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.2:
                    weights[(i, j)] = rng.randint(1, 9)
        matrix = CorrelationMatrix(n, dict(sorted(weights.items())))
        path = generate_mwpg(matrix)
        mwpg_ok &= path == generate_mwpg(matrix)
        mwpg_ok &= all(d <= 2 for d in degrees(n, path))
        for members in components(n, path):
            inside = [p for p in path if p[0] in members]
            mwpg_ok &= len(inside) == len(members) - 1

        # (b) Hamiltonian path after joining
        joined = join_components(n, path)
        counts = sorted(degrees(n, joined))
        mwpg_ok &= len(joined) == n - 1
        mwpg_ok &= counts[:2] == [1, 1] and all(d == 2 for d in counts[2:])

    # (c) Chebyshev edge legality and (d) prune safety on synthesized maps
    geometry_ok = True
    for seed in range(25):
        circuit = gen_random_circuit(4 + seed, 120, seed)
        topology = synthesize_topology(circuit)
        diag_cells = []
        for a, b in topology.edges:
            (r1, c1), (r2, c2) = topology.positions[a], topology.positions[b]
            geometry_ok &= max(abs(r1 - r2), abs(c1 - c2)) == 1
            if abs(r1 - r2) == 1 and abs(c1 - c2) == 1:
                diag_cells.append((min(r1, r2), min(c1, c2)))
        for i, cell_a in enumerate(diag_cells):
            for cell_b in diag_cells[i + 1 :]:
                geometry_ok &= abs(cell_a[0] - cell_b[0]) + abs(cell_a[1] - cell_b[1]) != 1

    # (e) 200 random circuit x topology routing verifications
    routing_ok = True
    topologies = [builtin_topology(name) for name in
                  ("line(16)", "grid(4,4)", "almaden20", "cairo27", "prague33",
                   "sycamore53", "half_sycamore24")]
    pairs = 0
    while pairs < 200:
        circuit = gen_random_circuit(rng.randint(3, 16), 60, rng.randint(0, 10**6))
        topology = topologies[pairs % len(topologies)]
        if circuit.num_qubits > topology.num_qubits:
            continue
        result = route_circuit(circuit, topology)
        routing_ok &= verify_routing(circuit, result, topology)
        pairs += 1

    ok = mwpg_ok and geometry_ok and routing_ok
    _report(6, "invariant suites", ok,
            f"mwpg/join={mwpg_ok}, geometry={geometry_ok}, routing 200/200={routing_ok}")


def test_criterion_7_oracle_equivalence():
    depth_ok = True
    for seed in range(100):
        circuit = gen_random_circuit(4 + seed % 12, 100, seed)
        stats = route_circuit(circuit, complete(circuit.num_qubits)).metrics  # no SWAPs
        depth_ok &= stats.swap_count == 0 and stats.depth == layered_depth(circuit)
        # spot-check gate totals against direct recounts
        computational = [g for g in circuit.gates if g.kind not in METRIC_EXEMPT_KINDS]
        depth_ok &= stats.total_gates == len(computational)

    from test_synthesis import diagonal_grid  # reuse the fully-diagonal builder

    partition_ok = True
    for nrow in range(2, 7):
        for ncol in range(2, 7):
            positions, grid = diagonal_grid(nrow, ncol)
            g1, g2 = partition_diagonals(positions, grid)
            group1, group2 = brute_force_diagonal_groups(positions, grid)
            partition_ok &= set(g1) == group1 and set(g2) == group2

    ok = depth_ok and partition_ok
    _report(7, "oracle equivalence", ok, f"depth={depth_ok}, partition={partition_ok}")


def test_criterion_8_complexity_scaling():
    sizes = range(8, 34)
    circuits = [gen_random_circuit(n, 2000, seed=7) for n in sizes]
    xs = [n * n + len(build_correlation(c).weights) for n, c in zip(sizes, circuits)]
    # Each round times every n once, so a slow spell of a shared machine
    # (100-800 ms here) never covers a run of consecutive n alone, and it
    # raises an n's minimum only if it lasts through all 60 rounds (about 1 s).
    ys = [math.inf] * len(circuits)
    for _ in range(60):
        for i, circuit in enumerate(circuits):
            start = time.perf_counter()
            synthesize_topology(circuit)
            ys[i] = min(ys[i], time.perf_counter() - start)

    r_squared = _r_squared(xs, ys)
    _report(8, "synthesis time fits n^2 + E", r_squared >= 0.8, f"R^2 = {r_squared:.3f}")


def _r_squared(xs, ys):
    """Coefficient of determination of the least-squares line of ys on xs."""
    count = len(xs)
    mean_x, mean_y = sum(xs) / count, sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


def _line_events(call) -> int:
    """Python line events while ``call()`` runs: a work count no timing noise moves."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_criterion_8b_complexity_by_line_count():
    """Criterion 8 with a deterministic cost: synthesis work must fit n^2 + E
    and fit it no worse than n^3 or E^2, so a super-linear step fails.

    n runs to 40: the passes over every gate add events that grow with the
    gate count, not with n, and up to n = 33 their jitter hid a step as small
    as n^3/8. Nothing is subtracted, so a step inside any pass still counts."""
    sizes = range(8, 41)
    circuits = [gen_random_circuit(n, 2000, seed=7) for n in sizes]
    edges = [len(build_correlation(c).weights) for c in circuits]
    # a fresh Circuit per call, so no pass finds a result cached on the object
    ys = [
        _line_events(lambda: synthesize_topology(Circuit(c.num_qubits, c.gates, c.name)))
        for c in circuits
    ]
    fits = {
        "n^2 + E": _r_squared([n * n + e for n, e in zip(sizes, edges)], ys),
        "n^3": _r_squared([n**3 for n in sizes], ys),
        "E^2": _r_squared([e * e for e in edges], ys),
    }
    best = fits["n^2 + E"]
    ok = best >= 0.8 and best >= max(fits["n^3"], fits["E^2"])
    detail = ", ".join(f"R^2({model}) = {r2:.3f}" for model, r2 in fits.items())
    _report("8b", "synthesis line events fit n^2 + E best", ok, detail)
