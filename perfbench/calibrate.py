"""A fixed reference kernel that measures how fast the host runs Python right now.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by 20-50% over minutes.  The worker runs this kernel in short chunks between
the workload's operations, so the chunks sample the host's speed at the same
moments as the operations.  ``run.py`` divides each pass's times by the
speed the chunks saw: the figures it reports are seconds on a host where one
unit of this kernel takes ``UNIT_REF_S``.

The kernel shares no code with hypercut and does the same kinds of work:
bit-parallel BFS over 2^n-bit integers, BFS over Python sets of ints, and
sorting and hashing tuples.  Its inputs are made once at import; a unit
allocates only short-lived objects and runs with the garbage collector off,
so the size of the workload's heap does not change its time.
"""

from __future__ import annotations

import gc
import random
import time

# seconds one unit takes at the reference speed: a round figure inside the
# 1.3-2.1 ms that one unit took on a 2-vCPU Intel Xeon VM with Python 3.11
UNIT_REF_S = 0.002

_N = 14
_SIZE = 1 << _N
_FULL = (1 << _SIZE) - 1
# (shift, vertices whose bit b is 0, vertices whose bit b is 1) for each b
_SHIFTS = []
for _b in range(_N):
    _lo = ((1 << (1 << _b)) - 1) * (_FULL // ((1 << (2 << _b)) - 1))
    _SHIFTS.append((1 << _b, _lo, _FULL ^ _lo))
_rng = random.Random(20021013)
_REMOVED = [sum(1 << v for v in _rng.sample(range(_SIZE), 2 * _N)) for _ in range(4)]
_REST = [frozenset(v for v in range(1 << 9) if not m >> v & 1) for m in _REMOVED]
_TUPLES = [tuple(_rng.sample(range(1 << 12), 6)) for _ in range(600)]


def _unit(i: int) -> int:
    removed = _REMOVED[i % len(_REMOVED)]
    remaining = _FULL & ~removed
    frontier = remaining & -remaining
    visited = frontier
    while frontier:
        nxt = 0
        for b, lo, hi in _SHIFTS:
            nxt |= ((frontier & lo) << b) | ((frontier & hi) >> b)
        frontier = nxt & remaining & ~visited
        visited |= frontier
    rest = _REST[i % len(_REST)]
    start = min(rest)
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for k in range(9):
            w = v ^ (1 << k)
            if w in rest and w not in seen:
                seen.add(w)
                todo.append(w)
    table = {tuple(sorted(t)): j for j, t in enumerate(_TUPLES)}
    return (visited == remaining) + len(seen) + len(table)


def chunk(units: int) -> float:
    """Seconds that ``units`` units of the kernel take now, the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(units):
            _unit(i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
