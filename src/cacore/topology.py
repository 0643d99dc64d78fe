"""Coupling-map topologies: representation, validation, JSON I/O, builtins.

Baseline device maps are Python data here, built anew on each call; ``line(n)``,
``grid(r,c)``, and ``half_sycamore24`` are generated analytically. The
JSON schema is the contract between the synth and route commands: ``name``
(string), ``num_qubits`` (int), ``edges`` (sorted ``[i, j]`` pairs with
``i < j``), optional ``synthetic`` (booleans parallel to edges), optional
``positions`` (one distinct ``[row, col]`` cell per qubit).
``topology_from_dict`` checks every rule of this schema;
``validate_topology`` adds only the diagonal-collision warning.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import TopologyFormatError, UnknownTopologyError, read_utf8
from .ir import MAX_QUBITS, FieldTable, Frozen

DEVICES = ("almaden20", "cairo27", "prague33", "sycamore53")  # defined below as Python data
BUILTIN_NAMES = (*DEVICES, "half_sycamore24", "line(n)", "grid(nrow,ncol)")

# almaden20: the publicly documented 20-qubit 4x5 lattice (a family retired in 2020), rows of five
_ALMADEN_COLUMNS = ((0, 1, 3, 4), (0, 2, 4), (0, 1, 3, 4))  # of the couplers below rows 0, 1, 2
# cairo27: the publicly documented 27-qubit heavy-hex device (Falcon-family coupling list).
_CAIRO_EDGES = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10), (8, 9), (8, 11),
    (10, 12), (11, 14), (12, 13), (12, 15), (13, 14), (14, 16), (15, 18), (16, 19), (17, 18),
    (18, 21), (19, 20), (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)
# prague33: best-effort heavy-hex reconstruction; the retired system's coupling list is not public.
_PRAGUE_EDGES = (
    (0, 1), (0, 9), (1, 2), (2, 3), (3, 4), (4, 5), (4, 10), (5, 6), (6, 7), (7, 8), (8, 11),
    (9, 12), (10, 16), (11, 20), (12, 13), (13, 14), (14, 15), (14, 21), (15, 16), (16, 17),
    (17, 18), (18, 19), (18, 22), (19, 20), (21, 25), (22, 29), (23, 24), (24, 25), (25, 26),
    (26, 27), (27, 28), (27, 32), (28, 29), (29, 30), (30, 31),
)
_HEAVY_HEX = {"cairo27": (27, _CAIRO_EDGES), "prague33": (33, _PRAGUE_EDGES)}  # qubits, couplers


class Topology(Frozen):
    """Physical coupling map: qubits, coupler edges, optional grid positions."""

    __dataclass_fields__ = FieldTable()

    def __init__(
        self,
        name: str,
        num_qubits: int,
        edges: tuple[tuple[int, int], ...],
        synthetic: frozenset[tuple[int, int]] = frozenset(),
        positions: dict[int, tuple[int, int]] | None = None,
    ):
        for field, value in zip(self._fields, (name, num_qubits, edges, synthetic, positions)):
            object.__setattr__(self, field, value)

    def __hash__(self):  # fields that == compares, less the positions dict
        return hash((self.name, self.num_qubits, self.edges, self.synthetic))

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Neighbor lists in ascending order, one entry per qubit.

        An edge endpoint that is not a qubit index raises TopologyFormatError.
        """
        n = self.num_qubits
        neighbors: dict[int, list[int]] = {q: [] for q in range(n)}
        try:  # costs nothing per edge when every endpoint is a qubit
            for a, b in self.edges:
                neighbors[a].append(b)
                neighbors[b].append(a)
        except KeyError:
            message = f"coupler ({a}, {b}) has an endpoint that is not a qubit index in [0, {n})"
            raise TopologyFormatError(message, f"topology {self.name!r}") from None
        return {q: tuple(sorted(ns)) for q, ns in neighbors.items()}

    @cached_property  # in the instance __dict__, so a dataclasses.replace copy starts empty
    def _routing(self) -> tuple[dict[int, tuple[int, ...]], dict, dict]:
        """Routing state, which depends only on num_qubits and edges: the adjacency,
        the one coupler map that ``route_circuit`` and ``verify_routing`` read, and two
        dicts that start empty and that ``route_circuit`` alone fills."""
        return self.adjacency(), {}, {}


def validate_topology(topology: Topology) -> list[str]:
    """Warn about each pair of diagonal couplers whose unit cells share a side.

    That is the configuration the frequency-collision constraint forbids.
    Diagonals are indexed by unit cell, so each is compared only with the
    cells below and to the right of its own. The warnings come ordered by
    the pair's edge indices; a topology without positions has none. Every
    other rule is checked where a topology is read (``topology_from_dict``).
    """
    positions = topology.positions or {}
    cells: dict[tuple[int, int], list[int]] = {}
    for index, (a, b) in enumerate(topology.edges):
        if a not in positions or b not in positions:
            continue
        (r1, c1), (r2, c2) = positions[a], positions[b]
        if abs(r1 - r2) == 1 and abs(c1 - c2) == 1:
            cells.setdefault((min(r1, r2), min(c1, c2)), []).append(index)
    pairs = []
    for (r, c), here in cells.items():
        for side in ((r + 1, c), (r, c + 1)):
            for i in here:
                pairs.extend((min(i, j), max(i, j)) for j in cells.get(side, ()))
    edges = topology.edges
    return [
        f"diagonal couplers {edges[i]} and {edges[j]} occupy side-sharing cells "
        "(frequency-collision risk)"
        for i, j in sorted(pairs)
    ]


# -- JSON serialization ------------------------------------------------------


def save_topology(topology: Topology, path) -> None:  # path: a str or path-like
    """``json.dumps(fields, indent=2)`` and a newline, built as strings (its indenting is slow)."""
    import json  # here and in load_topology alone, so a builtin device loads without it
    from pathlib import Path
    edges, synthetic, positions = topology.edges, topology.synthetic, topology.positions
    name, size = json.dumps(topology.name), topology.num_qubits
    fields = [f'"name": {name}', f'"num_qubits": {size}', f'"edges": {_pairs(edges)}']
    if synthetic:
        flags = ",\n    ".join("true" if pair in synthetic else "false" for pair in edges)
        fields.append(f'"synthetic": [\n    {flags}\n  ]' if edges else '"synthetic": []')
    if positions is not None:
        fields.append(f'"positions": {_pairs(positions[q] for q in range(size))}')
    Path(path).write_text("{\n  " + ",\n  ".join(fields) + "\n}\n", encoding="utf-8")


def _pairs(pairs) -> str:
    """Integer pairs as ``json.dumps(indent=2)`` writes a list of them under a top-level key."""
    text = "],\n    [".join(f"\n      {a},\n      {b}\n    " for a, b in pairs)
    return f"[\n    [{text}]\n  ]" if text else "[]"


def _require(condition: bool, message: str, location: str) -> None:
    if not condition:
        raise TopologyFormatError(message, location)


def topology_from_dict(data: dict, *, source: str = "topology") -> Topology:
    _require(isinstance(data, dict), "expected a JSON object", source)
    _require(isinstance(data.get("name"), str), "missing or non-string 'name'", "name")
    num_qubits = data.get("num_qubits")
    _require(type(num_qubits) is int and num_qubits >= 0, "missing or bad 'num_qubits'", "num_qubits")
    _require(num_qubits <= MAX_QUBITS, f"more than {MAX_QUBITS} qubits", "num_qubits")
    raw_edges = data.get("edges")
    _require(isinstance(raw_edges, list), "missing or non-array 'edges'", "edges")

    # plain checks, so a valid file builds no message
    edges: dict[tuple[int, int], None] = {}  # in file order
    for idx, item in enumerate(raw_edges):
        if not (isinstance(item, list) and len(item) == 2 and type(item[0]) is type(item[1]) is int):
            raise TopologyFormatError("edge must be a pair of integers", f"edges[{idx}]")
        a, b = pair = (item[0], item[1])
        if not 0 <= a < b < num_qubits or pair in edges:
            message = (
                f"self-edge ({a},{b})" if a == b
                else f"edge ({a},{b}) must satisfy i < j" if a > b
                else f"edge ({a},{b}) out of range" if a < 0 or b >= num_qubits
                else f"duplicate edge ({a},{b})"
            )
            raise TopologyFormatError(message, f"edges[{idx}]")
        edges[pair] = None

    synthetic: frozenset[tuple[int, int]] = frozenset()
    if "synthetic" in data:
        flags = data["synthetic"]
        _require(
            isinstance(flags, list) and len(flags) == len(edges)
            and all(isinstance(v, bool) for v in flags),
            "'synthetic' must be booleans parallel to 'edges'",
            "synthetic",
        )
        synthetic = frozenset(pair for pair, flag in zip(edges, flags) if flag)

    positions: dict[int, tuple[int, int]] | None = None
    if "positions" in data:
        raw_pos = data["positions"]
        _require(
            isinstance(raw_pos, list) and len(raw_pos) == num_qubits,
            "'positions' must list one [row, col] per qubit",
            "positions",
        )
        positions = {}
        owners: dict[tuple[int, int], int] = {}
        for q, item in enumerate(raw_pos):
            if not (isinstance(item, list) and len(item) == 2 and type(item[0]) is type(item[1]) is int):
                message = "position must be an [row, col] integer pair"
                raise TopologyFormatError(message, f"positions[{q}]")
            cell = positions[q] = (item[0], item[1])
            first = owners.setdefault(cell, q)
            if first != q:
                message = f"qubits {first} and {q} share cell {list(cell)}"
                raise TopologyFormatError(message, f"positions[{q}]")

    return Topology(data["name"], num_qubits, tuple(edges), synthetic, positions)


def load_topology(path) -> Topology:  # path: a str or path-like
    import json
    from pathlib import Path
    path = Path(path)
    text = read_utf8(path, lambda message, line: TopologyFormatError(message, f"line {line}"))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyFormatError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    except RecursionError:
        raise TopologyFormatError("invalid JSON: nested too deeply") from None
    return topology_from_dict(data, source=str(path))


# -- builtins ----------------------------------------------------------------


def line_topology(n: int) -> Topology:
    edges = tuple((i, i + 1) for i in range(n - 1))
    positions = {i: (0, i) for i in range(n)}
    return Topology(f"line({n})", n, edges, positions=positions)


def grid_topology(nrow: int, ncol: int) -> Topology:
    edges = []
    for r in range(nrow):
        for c in range(ncol):
            q = r * ncol + c
            if c + 1 < ncol:
                edges.append((q, q + 1))
            if r + 1 < nrow:
                edges.append((q, q + ncol))
    positions = {r * ncol + c: (r, c) for r in range(nrow) for c in range(ncol)}
    return Topology(f"grid({nrow},{ncol})", nrow * ncol, tuple(sorted(edges)), positions=positions)


def sycamore_pattern(nrow: int, ncol: int) -> list[tuple[int, int]]:
    """Diagonal-grid coupler pattern: odd rows link up/down and up-right/down-right."""
    edges: set[tuple[int, int]] = set()
    for r in range(1, nrow, 2):
        for c in range(ncol):
            q = r * ncol + c
            partners = [(r - 1, c), (r + 1, c)]
            if c + 1 < ncol:
                partners += [(r - 1, c + 1), (r + 1, c + 1)]
            for pr, pc in partners:
                if 0 <= pr < nrow:
                    p = pr * ncol + pc
                    edges.add((min(q, p), max(q, p)))
    return sorted(edges)


def builtin_topology(name: str) -> Topology:
    """Resolve a builtin topology by name, built anew on each call.

    Device maps (``almaden20``, ``cairo27``, ``prague33``, ``sycamore53``)
    come from the data above; ``half_sycamore24``, ``line(n)``, and
    ``grid(nrow,ncol)`` are generated, up to ``MAX_QUBITS`` qubits.
    """
    if name == "almaden20":  # qubit q at row q // 5, column q % 5
        down = [(5 * r + c, 5 * r + c + 5) for r, cs in enumerate(_ALMADEN_COLUMNS) for c in cs]
        edges = sorted([(q, q + 1) for q in range(20) if q % 5 != 4] + down)
        return Topology(name, 20, tuple(edges), positions={q: divmod(q, 5) for q in range(20)})
    if name in _HEAVY_HEX:
        return Topology(name, *_HEAVY_HEX[name])
    if name == "sycamore53":  # the published 54-site 9x6 diagonal grid less inoperable qubit 53
        return Topology(name, 53, tuple(edge for edge in sycamore_pattern(9, 6) if 53 not in edge))
    if name == "half_sycamore24":  # six rows by four columns, all couplers enabled
        return Topology(name, 24, tuple(sycamore_pattern(6, 4)))
    import re  # here alone: no device needs it
    line, grid = r"line\((\d+)\)", r"grid\((\d+),\s*(\d+)\)"  # ASCII digits, nothing after ")"
    if m := re.fullmatch(line, name, re.ASCII) or re.fullmatch(grid, name, re.ASCII):
        try:
            dims = [int(d) for d in m.groups()]
        except ValueError:  # more digits than int() converts
            dims = [MAX_QUBITS + 1]
        if math.prod(dims) > MAX_QUBITS:
            raise TopologyFormatError(f"more than {MAX_QUBITS} qubits", f"topology {name!r}")
        return line_topology(*dims) if len(dims) == 1 else grid_topology(*dims)
    raise UnknownTopologyError(
        f"unknown topology {name!r}; builtins are {', '.join(BUILTIN_NAMES)}"
    )
