"""A fixed pure-Python kernel that measures the machine's current speed.

On a shared machine the CPU speed this process gets switches between
regimes up to about 40 % apart, each lasting seconds to minutes, so one
wall-clock measurement of the program says as much about the neighbours as
about the program. The benchmark times this kernel next to the program's
work and scales each timing by ``NOMINAL_MS / kernel_ms``: the result is
the time the work would take on a machine where the kernel takes
``NOMINAL_MS``. The kernel does the kind of work cacore does (dict counting,
tuple building, sorting, attribute access in a loop), so both slow down
together. Changing the kernel or ``NOMINAL_MS`` changes every normalized
number, so neither may change between two measurements that are compared.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_MS = 5.0


class _Cell:
    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col


def kernel() -> int:
    counts: dict[tuple[int, int], int] = {}
    values = [(i * 7919) % 1009 for i in range(12000)]
    for a, b in zip(values, values[1:]):
        pair = (a, b) if a < b else (b, a)
        counts[pair] = counts.get(pair, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    cells = [_Cell(v // 32, v % 32) for v in values[:4000]]
    return len(ordered) + sum(c.row - c.col for c in cells)


def kernel_ms() -> float:
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3
