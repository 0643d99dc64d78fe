"""Span tracing and call capture around the public cacore API.

Everything here works from outside the package. Each instrumented function
is replaced, by name, in the namespace of every cacore module that holds a
reference to it (``cacore.synthesis.build_correlation``,
``cacore.bench.route_circuit``, ``cacore.cli.parse_qasm_file``, ...), and
``Topology.adjacency`` is replaced on the class. The package's own nested
calls therefore produce a real span tree. Private helpers such as
``_shortest_path`` or ``Gate.__post_init__`` are not wrapped and stay inside
their callers' self time.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Layer (package module) -> public functions timed in the traced run.
# ``errors`` defines exception types only and does no work.
TRACED = {
    "qasm": ("parse_qasm", "parse_qasm_file", "to_qasm"),
    "ir": ("validate_circuit",),
    "analysis": ("build_correlation", "build_interaction_graph", "circuit_stats"),
    "synthesis": (
        "generate_mwpg",
        "join_components",
        "choose_grid_dims",
        "place_on_grid",
        "connect_adjacent",
        "connect_diagonals",
        "partition_diagonals",
        "prune_diagonals",
        "synthesize_topology",
    ),
    "topology": (
        "Topology.adjacency",
        "builtin_topology",
        "load_topology",
        "save_topology",
        "topology_from_dict",
        "validate_topology",
        "topology_errors",
    ),
    "routing": ("route_circuit", "verify_routing", "trivial_layout"),
    "bench": (
        "run_comparison",
        "estimate_fidelity",
        "emit_report",
        "write_report_csv",
        "write_report_json",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)

# Arguments and results of these calls are recorded in plain and traced runs
# alike: the correctness checks and the derived work counts read them.
CAPTURED = frozenset(
    {
        "analysis.build_correlation",
        "synthesis.synthesize_topology",
        "routing.route_circuit",
        "routing.verify_routing",
        "qasm.parse_qasm",
        "qasm.to_qasm",
    }
)


def metric_name(layer: str, function: str) -> str:
    """``topology.Topology.adjacency`` is reported as ``topology.adjacency``."""
    return f"{layer}.{function.rsplit('.', 1)[-1]}"


def _cacore_modules() -> list:
    for layer in LAYERS:
        importlib.import_module(f"cacore.{layer}")
    return [m for name, m in sys.modules.items() if name == "cacore" or name.startswith("cacore.")]


def _find_sites() -> dict[str, tuple[object, list[tuple[object, str]]]]:
    """Map each traced name to its original function and every binding of it.

    A function a later version of the package no longer defines is skipped;
    its metrics then read zero.
    """
    modules = _cacore_modules()
    sites = {}
    for layer, functions in TRACED.items():
        module = sys.modules[f"cacore.{layer}"]
        for function in functions:
            name = metric_name(layer, function)
            if "." in function:
                cls_name, attr = function.split(".")
                owner = getattr(module, cls_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is not None:
                    sites[name] = (original, [(owner, attr)])
                continue
            original = getattr(module, function, None)
            if original is None:
                continue
            bindings = [
                (m, attr) for m in modules for attr, value in vars(m).items() if value is original
            ]
            sites[name] = (original, bindings)
    return sites


class Instrument:
    """Installs capture (always) or span (traced runs) wrappers, and restores them.

    ``calls`` collects ``(name, args, result)`` for the CAPTURED functions;
    the harness clears it before each item. ``spans`` collects
    ``(name, start, end, parent_index, item)`` tuples while tracing; they are
    kept in memory and written out when the run ends. The harness sets
    ``item`` to ``[item_id, scale]``, where ``scale`` converts the item's
    wall-clock durations to reference speed; spans share the list, so the
    harness may refine the scale after the call.
    """

    def __init__(self):
        self.calls: list[tuple[str, tuple, object]] = []
        self.spans: list[tuple | None] = []
        self.item: object = None
        self._current: int | None = None
        self._sites = _find_sites()
        self._saved: list[tuple[object, str, object]] = []
        missing = CAPTURED - set(self._sites)
        if missing:
            raise RuntimeError(f"cacore no longer defines {sorted(missing)}")

    def install(self, *, trace: bool, only: frozenset[str] | None = None) -> None:
        self.restore()
        for name, (original, bindings) in self._sites.items():
            if only is not None and name not in only:
                continue
            if trace:
                wrapper = self._span_wrapper(name, original, name in CAPTURED)
            elif name in CAPTURED:
                wrapper = self._capture_wrapper(name, original)
            else:
                continue
            for owner, attr in bindings:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _capture_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, result))
            return result

        return wrapper

    def _span_wrapper(self, name, fn, capture):
        calls = self.calls
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = self._current
            index = len(spans)
            spans.append(None)
            self._current = index
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent, self.item)
                self._current = parent
            if capture:
                calls.append((name, args, result))
            return result

        return wrapper


def _durations(spans: list[tuple]) -> tuple[list[float], list[float]]:
    """Each span's duration and self time, at its item's reference scale.

    Self time is the duration minus the durations of the direct children;
    calls are single-threaded, so children never overlap.
    """
    durations = [(end - start) * item[1] for _, start, end, _, item in spans]
    self_times = list(durations)
    for (_, _, _, parent, _), duration in zip(spans, durations):
        if parent is not None:
            self_times[parent] -= duration
    return durations, self_times


def summarize(spans: list[tuple]) -> tuple[dict[str, list[float]], float]:
    """Per name ``[self_s, inclusive_s, calls]``, and the time of top-level spans."""
    durations, self_times = _durations(spans)
    per_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    top_level = 0.0
    for (name, _, _, parent, _), duration, self_time in zip(spans, durations, self_times):
        entry = per_name[name]
        entry[0] += self_time
        entry[1] += duration
        entry[2] += 1
        if parent is None:
            top_level += duration
    return dict(per_name), top_level


def span_tree(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Aggregate spans by call path (``a > b > c``): calls, inclusive and self ms."""
    durations, self_times = _durations(spans)
    paths: list[str] = []
    tree: dict[str, dict[str, float]] = {}
    for (name, _, _, parent, _), duration, self_time in zip(spans, durations, self_times):
        path = name if parent is None else f"{paths[parent]} > {name}"
        paths.append(path)
        node = tree.setdefault(path, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0})
        node["calls"] += 1
        node["incl_ms"] += duration * 1e3
        node["self_ms"] += self_time * 1e3
    return tree
