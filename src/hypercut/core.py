"""Bit-label model of the hypercube Q_n.

Vertices are plain integers in [0, 2^n); bit i of the label is coordinate
x^i, so the neighbor across coordinate i is a single XOR with 1 << i.
Rendered strings put x^0 first.  The graph is never materialized as an
adjacency structure: adjacency, distances and automorphisms are all
label arithmetic, so dimensions well past 20 cost nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


def adjacent(u: int, v: int) -> bool:
    """True iff the labels differ in exactly one bit."""
    return (u ^ v).bit_count() == 1


def vertex_to_string(v: int, n: int) -> str:
    """Render a label as the coordinate string x^0 x^1 ... x^{n-1}: its low n bits, lowest first."""
    return format(v, f"0{n}b")[:-n - 1:-1]


def vertex_from_string(s: str) -> int:
    """Parse a coordinate string (x^0 first) back into a label."""
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"not a coordinate string: {s!r}")
    return sum(1 << i for i, c in enumerate(s) if c == "1")


@dataclass(frozen=True)
class Cube:
    """The hypercube Q_n on labels 0 .. 2^n - 1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    def vertices(self) -> range:
        return range(1 << self.n)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < (1 << self.n):
            raise ValueError(f"label {v} out of range for dimension {self.n}")

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        return [v ^ (1 << i) for i in range(self.n)]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ordered pairs (u, v) with u < v."""
        for v in self.vertices():
            for i in range(self.n):
                if not (v >> i) & 1:
                    yield (v, v | (1 << i))

    def common_neighbors(self, u: int, v: int) -> set[int]:
        """N(u) & N(v); size 2 at distance 2, n at distance 0, 0 at odd distance."""
        self.check_vertex(u)
        self.check_vertex(v)
        nu = {u ^ (1 << i) for i in range(self.n)}
        nv = {v ^ (1 << i) for i in range(self.n)}
        return nu & nv

    def from_string(self, s: str) -> int:
        if len(s) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(s)}")
        return vertex_from_string(s)


@lru_cache(maxsize=None)
def automorphism_vertex_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Vertex maps of the n! coordinate permutations of Q_n, its automorphisms fixing 0, as lookup tables.

    Table p sends bit i of a label to bit perm[i], for the p-th permutation
    perm of itertools.permutations, so the first table is the identity.
    Each followed by the 2^n translations (XOR with a mask) gives the whole
    group; callers translate for themselves.  Refused past n = 5, the oracle's
    desk scale.
    """
    if n > 5:
        raise ValueError(f"coordinate permutation tables are limited to n <= 5, got {n}")
    tables: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        table = [0]
        for p in perm:  # step i appends labels 2^i .. 2^(i+1) - 1: the earlier images, with bit perm[i] set
            table += [b | 1 << p for b in table]
        tables.append(tuple(table))
    return tuple(tables)
