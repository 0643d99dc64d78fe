#!/usr/bin/env python3
"""Benchmark for cacore: three closed-loop, single-client workloads.

    python3 perfbench/run.py                  # every workload, one row each
    python3 perfbench/run.py --trace 1        # the same, traced, per layer
    python3 perfbench/run.py --workload bench_grid --seed 1 --seconds 20 --trace 0

A run builds its inputs from ``--seed`` (untimed), measures the program's
set-up in fresh interpreter processes, then repeats passes over the inputs
for ``--seconds``. One client sends the next item only when the previous one
has returned. Every item's outputs are checked and hashed against
``golden.json``. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See NOTES.md for the workloads, the metrics and the seed-commit baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEV_SEED = 1

# End-to-end metrics, as listed in BENCHMARK.json. Every timing among them is
# normalized to reference speed (see reference.py); the raw wall-clock
# values are printed beside them with a ``wall_`` prefix.
E2E_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "cpu_ms_per_item": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the table but not bounded in BENCHMARK.json: failed_frac is 0 on
# a correct program, and synth_sweep routes nothing. The output hashes pin
# the SWAP and depth outcomes exactly.
QUALITY_UNITS = {"failed_frac": "ratio", "swaps_inserted": "count", "routed_depth": "count"}
# Layer shares this benchmark was designed around: (layers, least share).
PREDICTED_SHARES = {
    "bench_grid": (("routing",), 0.85),
    "synth_sweep": (("analysis", "synthesis"), 0.80),
    "qasm_files": (("qasm",), 0.50),
}
SETUP_PROBES = 9
# Time the reference kernel at least this often, in seconds of item time.
KERNEL_EVERY_S = 0.05
_PROBE = """\
import statistics, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cacore
for name in sys.argv[3:]:
    cacore.builtin_topology(name)
setup_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import reference
print(setup_s, statistics.median(reference.kernel_ms() for _ in range(3)))
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import cacore from this checkout's source tree, and nowhere else."""
    if not (SRC / "cacore" / "__init__.py").is_file():
        fail(f"no cacore source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import cacore

    if Path(cacore.__file__).resolve().parent != SRC / "cacore":
        fail(f"imported cacore from {cacore.__file__}, not from {SRC}")
    import tracer
    import workloads

    return tracer, workloads


def per_layer_units(tracer) -> dict[str, str]:
    units = {}
    for layer, functions in tracer.TRACED.items():
        for function in functions:
            name = tracer.metric_name(layer, function)
            units[f"{name}.self_ms"] = "ms"
            units[f"{name}.calls"] = "count"
    units.update(
        {
            "routing.path_searches": "count",
            "routing.swaps_inserted": "count",
            "routing.routed_depth": "count",
            "routing.hops_per_search": "ratio",
            "routing.routed_gates_per_s": "1/s",
            "analysis.correlation_pairs": "count",
            "analysis.correlation_gates_per_s": "1/s",
            "synthesis.couplers": "count",
            "synthesis.synthetic_couplers": "count",
            "qasm.parse_kb_per_s": "KB/s",
            "qasm.emit_kb_per_s": "KB/s",
            "bench.skips": "count",
            "bench.failures": "count",
        }
    )
    for layer in (*tracer.LAYERS, "harness"):
        units[f"{layer}.self_ms"] = "ms"
    units["trace.overhead_items_per_s"] = "1/s"
    return units


def setup_seconds(baselines) -> tuple[float, float]:
    """Time, in fresh interpreters, to import cacore and load the baselines.

    Returns the median normalized to reference speed and the median wall
    time. The first probe is discarded: it may write the bytecode cache.
    """
    normalized, wall = [], []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _PROBE, str(SRC), str(HERE), *baselines],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup_s, kernel_ms = (float(v) for v in done.stdout.split())
        if probe:
            normalized.append(setup_s * reference.NOMINAL_MS / kernel_ms)
            wall.append(setup_s)
    return statistics.median(normalized), statistics.median(wall)


def tail_percentile(samples: int) -> int:
    """90, or the highest whole percentile with at least ten samples above it."""
    if samples >= 100:
        return 90
    return max(0, math.floor(100 * (samples - 10) / samples))


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


class Measurement:
    """Repeats passes over a workload's items and checks every output."""

    def __init__(self, tracer, workload, golden: dict[str, str] | None):
        self.tracer = tracer
        self.workload = workload
        self.golden = golden
        self.inst = tracer.Instrument()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.item_ms = array("d")  # plain passes, wall clock
        self.item_ref_ms = array("d")  # plain passes, at reference speed
        self.kernel_ms: list[float] = []
        self._kernel_due = 0.0
        self.passes: list[dict] = []
        self.counts: Counter | None = None  # work counts of the first pass
        self.digests: dict[str, str] = {}
        self.setup_spans: list[tuple] = []

    def setup(self, trace: bool) -> None:
        self.inst.item = ["setup", self._scale()]
        if trace:
            self.inst.install(trace=True, only=frozenset({"topology.builtin_topology"}))
        try:
            self.workload.setup()
        finally:
            self.inst.restore()
        self.setup_spans = list(self.inst.spans)
        self.inst.spans.clear()

    def run(self, seconds: float, trace: bool) -> None:
        """Alternate plain and traced passes when tracing, until ``seconds`` pass."""
        start = perf_counter()
        while True:
            traced = trace and len(self.passes) % 2 == 1
            self.inst.install(trace=traced)
            try:
                self._pass(traced)
            finally:
                self.inst.restore()
            enough = perf_counter() - start >= seconds
            if enough and (not trace or len(self.passes) % 2 == 0):
                return

    def _scale(self, force: bool = False) -> float:
        """Factor from wall time to reference speed, from the last kernel timings."""
        if force or perf_counter() >= self._kernel_due:
            self.kernel_ms.append(reference.kernel_ms())
            self._kernel_due = perf_counter() + KERNEL_EVERY_S
        return reference.NOMINAL_MS / statistics.median(self.kernel_ms[-3:])

    def _timed(self, fn, arg, totals: Counter, item_id):
        """Call ``fn(arg)``, adding its wall and CPU time, raw and at reference
        speed, to ``totals``. Spans it opens carry ``[item_id, scale]``.
        Returns the result or the exception, the wall time and the scale.

        A call longer than KERNEL_EVERY_S is followed by one more kernel
        timing, so a change of speed during the call weighs in its scale.
        """
        self.inst.item = [item_id, self._scale()]
        c0, t0 = process_time(), perf_counter()
        try:
            result, error = fn(arg), None
        except Exception as exc:  # the caller counts it as a failure
            result, error = None, exc
        t1, c1 = perf_counter(), process_time()
        if t1 - t0 > KERNEL_EVERY_S:
            self.inst.item[1] = self._scale(force=True)
        scale = self.inst.item[1]
        totals["wall"] += t1 - t0
        totals["cpu"] += c1 - c0
        totals["ref_wall"] += (t1 - t0) * scale
        totals["ref_cpu"] += (c1 - c0) * scale
        return result, error, t1 - t0, scale

    def _pass(self, traced: bool) -> None:
        totals: Counter = Counter()
        counts: Counter = Counter()
        outputs = []
        for item in self.workload.items:
            self.inst.calls.clear()
            output, error, wall_s, scale = self._timed(self.workload.run, item, totals, self.attempted)
            self.attempted += 1
            if not traced:
                self.item_ms.append(wall_s * 1e3)
                self.item_ref_ms.append(wall_s * 1e3 * scale)
            outputs.append(output)
            problems = [f"raised {error!r}"] if error else self._check(item, output, counts)
            if problems:
                self.failed += 1
                self.problems += [f"{item.key}: {p}" for p in problems[:3]]
        finish_id = f"finish{len(self.passes)}"
        finished, error, _, _ = self._timed(self.workload.finish_pass, outputs, totals, finish_id)
        if error:
            self.problems.append(f"finishing the pass raised {error!r}")
        else:
            self.problems += self.workload.check_pass(outputs, finished)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.problems.append(f"work counts of pass {len(self.passes)} differ from pass 0")
        n = len(self.workload.items)
        self.passes.append({"traced": traced, "items": n, **totals})

    def _check(self, item, output, counts: Counter) -> list[str]:
        calls = list(self.inst.calls)
        try:
            outcome = self.workload.check(item, output, calls)
        except Exception as exc:  # malformed output
            return [f"check raised {exc!r}"]
        counts.update(outcome.counts)
        problems = list(outcome.problems)
        first = self.digests.setdefault(item.key, outcome.digest)
        if outcome.digest != first:
            problems.append("output differs from this item's first pass")
        if self.golden is not None:
            expected = self.golden.get(item.key)
            if expected is None:
                problems.append("no recorded output hash")
            elif expected != outcome.digest:
                problems.append(f"output hash {outcome.digest} != recorded {expected}")
        return problems

    # -- metrics ------------------------------------------------------------------

    def _rates(self, traced: bool) -> list[float]:
        return [p["items"] / p["ref_wall"] for p in self.passes if p["traced"] == traced]

    def end_to_end(self, setup: tuple[float, float]) -> tuple[dict[str, float], dict]:
        """Bounded metrics at reference speed; wall-clock twins go in the detail."""
        plain = [p for p in self.passes if not p["traced"]]
        pct = tail_percentile(len(self.item_ms))
        counts = self.counts

        def timings(item_ms, wall, cpu, setup_s):
            return {
                "items_per_s": statistics.median(p["items"] / p[wall] for p in plain),
                "item_ms_p50": statistics.median(item_ms),
                "item_ms_p90": percentile(item_ms, pct),
                "cpu_ms_per_item": statistics.median(p[cpu] * 1e3 / p["items"] for p in plain),
                "setup_s": setup_s,
            }

        metrics = timings(self.item_ref_ms, "ref_wall", "ref_cpu", setup[0])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = timings(self.item_ms, "wall", "cpu", setup[1])
        detail = {
            "passes": len(plain),
            "items_timed": len(self.item_ms),
            "item_ms_p90_is_percentile": pct,
            "failed_frac": self.failed / self.attempted,
            "swaps_inserted": counts["routing.swaps_inserted"],
            "routed_depth": counts["routing.routed_depth"],
            "kernel_ms_median": statistics.median(self.kernel_ms),
            **{f"wall_{k}": v for k, v in wall.items()},
        }
        return metrics, detail

    def per_layer(self, units: dict[str, str]) -> tuple[dict[str, float], dict]:
        traced = [p for p in self.passes if p["traced"]]
        passes = len(traced)
        per_name, top_level = self.tracer.summarize(self.inst.spans)
        metrics = {name: 0.0 for name in units}
        layer_ms = Counter()
        for name, (self_s, _, calls) in per_name.items():
            metrics[f"{name}.self_ms"] = self_s * 1e3 / passes
            metrics[f"{name}.calls"] = calls / passes
            layer_ms[name.split(".")[0]] += self_s * 1e3 / passes
        pass_ms = sum(p["ref_wall"] for p in traced) * 1e3 / passes
        layer_ms["harness"] = pass_ms - top_level * 1e3 / passes
        for layer, ms in layer_ms.items():
            metrics[f"{layer}.self_ms"] = ms
        # builtin_topology runs once, at set-up, outside the passes.
        for name, (self_s, _, calls) in self.tracer.summarize(self.setup_spans)[0].items():
            metrics[f"{name}.self_ms"] = self_s * 1e3
            metrics[f"{name}.calls"] = calls

        counts = self.counts

        def inclusive_s(name):
            return per_name.get(name, [0.0, 0.0, 0])[1] / passes

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        searches = counts["routing.path_searches"]
        metrics.update(
            {
                "routing.path_searches": searches,
                "routing.swaps_inserted": counts["routing.swaps_inserted"],
                "routing.routed_depth": counts["routing.routed_depth"],
                "routing.hops_per_search": rate(counts["routing.swaps_inserted"], searches),
                "routing.routed_gates_per_s": rate(
                    counts["routing.routed_gates"], inclusive_s("routing.route_circuit")
                ),
                "analysis.correlation_pairs": counts["analysis.correlation_pairs"],
                "analysis.correlation_gates_per_s": rate(
                    counts["analysis.correlation_gates"], inclusive_s("analysis.build_correlation")
                ),
                "synthesis.couplers": counts["synthesis.couplers"],
                "synthesis.synthetic_couplers": counts["synthesis.synthetic_couplers"],
                "qasm.parse_kb_per_s": rate(counts["qasm.parse_bytes"] / 1024, inclusive_s("qasm.parse_qasm")),
                "qasm.emit_kb_per_s": rate(counts["qasm.emit_bytes"] / 1024, inclusive_s("qasm.to_qasm")),
                "bench.skips": counts["bench.skips"],
                "bench.failures": counts["bench.failures"],
                "trace.overhead_items_per_s": statistics.median(self._rates(True))
                - statistics.median(self._rates(False)),
            }
        )
        shares = {layer: ms / pass_ms for layer, ms in layer_ms.items()}
        detail = {"traced_passes": passes, "traced_pass_ms": pass_ms, "layer_share": shares}
        return metrics, detail


def write_trace(path: Path, measurement: Measurement, metrics: dict, detail: dict) -> None:
    """The per-layer metrics, the span tree by call path and every span.

    Span rows hold wall-clock times; ``scale`` converts a duration to
    reference speed, as the metrics and the tree already are.
    """
    def rows(spans):
        origin = spans[0][1] if spans else 0.0
        return [[n, (s - origin) * 1e3, (e - s) * 1e3, p, *item] for n, s, e, p, item in spans]

    payload = {
        "per_layer": metrics,
        **detail,
        "tree": measurement.tracer.span_tree(measurement.inst.spans),
        "span_fields": ["name", "start_ms", "duration_ms", "parent", "item", "scale"],
        "setup_spans": rows(measurement.setup_spans),
        "spans": rows(measurement.inst.spans),
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, trace: bool, keys: list[str] | None = None) -> int:
    """One workload in this process. ``keys`` replaces the seed's draw, for the
    self-tests' tiny inputs, which have no recorded hashes."""
    tracer, workloads = load_program()
    cls = workloads.WORKLOADS[name]
    golden_path = HERE / "golden.json"
    if not golden_path.is_file():
        fail(f"missing {golden_path}")
    golden = None if keys else json.loads(golden_path.read_text(encoding="utf-8"))[name]
    workdir = OUT / f"work_{name}_{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        workload = cls(keys or cls.draw(seed), workdir)
        input_s = perf_counter() - t0
        measurement = Measurement(tracer, workload, golden)
        measurement.setup(trace)
        measurement.run(seconds, trace)
        if trace:
            units = per_layer_units(tracer)
            metrics, detail = measurement.per_layer(units)
            trace_path = OUT / f"trace_{name}_seed{seed}.json"
            write_trace(trace_path, measurement, metrics, detail)
            detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            units = E2E_UNITS
            metrics, detail = measurement.end_to_end(setup_seconds(cls.baselines))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = measurement.failed == 0 and not measurement.problems
    detail.update(
        {"workload": name, "seed": seed, "input_generation_s": input_s, "problems": measurement.problems[:20]}
    )
    print_report(name, seed, metrics, detail, trace)
    for problem in measurement.problems[:20]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    print("DETAIL " + json.dumps(detail))
    result = {
        "correct": correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def print_report(name, seed, metrics, detail, trace) -> None:
    print(f"# {name}, seed {seed}, input generation {detail['input_generation_s']:.2f} s (untimed)")
    if not trace:
        print(f"# timings at reference speed (kernel {reference.NOMINAL_MS} ms), wall clock beside them")
        for key, unit in E2E_UNITS.items():
            wall = detail.get(f"wall_{key}")
            beside = "" if wall is None else f"   wall {wall:12.4f}"
            print(f"{key:>28} {metrics[key]:14.4f} {unit:<6}{beside}")
        for key, unit in QUALITY_UNITS.items():
            print(f"{key:>28} {detail[key]:14.4f} {unit}")
        print(f"{'item_ms_p90 is percentile':>28} {detail['item_ms_p90_is_percentile']:9d}")
        return
    shares = detail["layer_share"]
    print(f"# layer self time per traced pass ({detail['traced_pass_ms']:.1f} ms), at reference speed")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{layer:>12} {metrics[layer + '.self_ms']:12.3f} ms {100 * share:6.1f} %")
    layers, least = PREDICTED_SHARES[name]
    measured = sum(shares.get(layer, 0.0) for layer in layers)
    verdict = "meets" if measured >= least else "MISSES"
    print(f"# predicted {'+'.join(layers)} >= {100 * least:.0f} %, measured {100 * measured:.1f} %: {verdict}")
    print(f"# tracing overhead {metrics['trace.overhead_items_per_s']:.3f} items/s; spans in {detail['trace_file']}")


def run_all(seed: int, seconds: float, trace: bool, names: list[str]) -> int:
    """Each workload in its own fresh process, then one table row per workload."""
    rows = []
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"error: {name} exited with {done.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-2]))
        detail = json.loads(lines[-2].removeprefix("DETAIL "))
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        rows.append((name, result, detail))
    if not trace:
        columns = [f"{k} ({u})" for k, u in {**E2E_UNITS, **QUALITY_UNITS}.items()]
        print()
        print(f"{'workload':<12}" + "".join(f"{c:>{len(c) + 2}}" for c in columns) + "  correct")
        for name, result, detail in rows:
            values = [result["metrics"][k]["value"] for k in E2E_UNITS] + [detail[k] for k in QUALITY_UNITS]
            cells = "".join(f"{v:>{len(c) + 2}.4f}" for c, v in zip(columns, values))
            print(f"{name:<12}{cells}  {result['correct']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of bench_grid, synth_sweep, qasm_files; all when omitted")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = ["bench_grid", "synth_sweep", "qasm_files"]
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
