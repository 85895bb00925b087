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


@dataclass(frozen=True)
class Automorphism:
    """A hypercube automorphism: coordinate permutation plus complement mask.

    Coordinate i of the input becomes coordinate perm[i] of the image, and
    the mask is XORed afterwards.  These maps are exactly the automorphism
    group of Q_n, of size n! * 2^n, and they preserve adjacency by
    construction: sigma(v ^ (1 << i)) == sigma(v) ^ (1 << perm[i]).
    """

    n: int
    perm: tuple[int, ...]
    mask: int

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{self.n - 1}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask} out of range for dimension {self.n}")

    def apply(self, v: int) -> int:
        w = 0
        bits = v
        while bits:
            low = bits & -bits
            w |= 1 << self.perm[low.bit_length() - 1]
            bits ^= low
        return w ^ self.mask

    def vertex_table(self) -> tuple[int, ...]:
        """The induced vertex map as a lookup table over all 2^n labels."""
        return tuple(self.apply(v) for v in range(1 << self.n))


def edge_mapping_automorphism(
    n: int, src_edge: tuple[int, int], dst_edge: tuple[int, int]
) -> Automorphism:
    """An automorphism sending src_edge onto dst_edge, endpoint to endpoint.

    Swap the two differing coordinates in the permutation, then pick the
    mask that carries the first source endpoint onto the first destination
    endpoint; the second endpoints line up automatically.
    """
    cube = Cube(n)
    for name, (a, b) in (("src", src_edge), ("dst", dst_edge)):
        cube.check_vertex(a)
        cube.check_vertex(b)
        if not adjacent(a, b):
            raise ValueError(f"{name} pair is not an edge: {(a, b)}")
    (a, b), (c, d) = src_edge, dst_edge
    i = (a ^ b).bit_length() - 1
    j = (c ^ d).bit_length() - 1
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    partial = Automorphism(n, tuple(perm), 0)
    return Automorphism(n, tuple(perm), partial.apply(a) ^ c)


@lru_cache(maxsize=None)
def automorphism_vertex_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Vertex maps of every automorphism of Q_n, as lookup tables.

    Enumerating the full group is only sane at desk scale (n! * 2^n maps).
    """
    if n > 5:
        raise ValueError(f"full group enumeration is limited to n <= 5, got {n}")
    size = 1 << n
    tables: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        base = Automorphism(n, perm, 0).vertex_table()
        for mask in range(size):
            tables.append(tuple(b ^ mask for b in base))
    return tuple(tables)
