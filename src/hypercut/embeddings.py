"""Constructive embeddings the cut builders depend on.

Everything here is deterministic: Hamiltonian cycles come from the
reflected Gray code, a cycle through a prescribed edge is the Gray cycle
pushed through an edge-mapping automorphism, even cycles of any admissible
length fold the first l/2 Gray codewords of Q_{n-1} across the last
coordinate, and odd paths between adjacent vertices are such a cycle minus
one edge.  Returned cycles are canonicalized: smallest vertex first, then
its smaller cycle neighbor.

Builders emit only the vertices they return: each lists the coordinates
its walk crosses, and an automorphism carries the walk one XOR per step,
so a k-vertex element costs O(k) big-int operations at any n.  An
element checks its invariants once, in C-level loops, and keeps the answer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import ClassVar

from .core import Cube, adjacent, edge_mapping_automorphism


def gray_sequence(n: int) -> list[int]:
    """All 2^n labels in reflected Gray code order; consecutive entries differ in one bit."""
    return [m ^ (m >> 1) for m in range(1 << n)]


class _Embedded:
    """What paths, cycles and stars share.

    shape and size place an element in the admissibility table of cuts:
    size counts vertices for paths and cycles, leaves for stars.
    """

    shape: ClassVar[str]
    n: int
    verts: tuple[int, ...]

    def violation(self) -> str | None:
        """None if the invariants hold, else the first failure.

        Checked once per object: elements are frozen and hold tuples, so the
        answer is kept in the instance __dict__, which == and hash never read.
        """
        if "_reason" not in self.__dict__:
            self.__dict__["_reason"] = self._check()
        return self.__dict__["_reason"]

    def _violation(self, pairs) -> str | None:
        """The shared checks: labels in range, distinct, and every pair from pairs() adjacent.

        Range and distinctness are read off the sorted labels: a sorted list
        takes 8 bytes a label, a set of them 32 to 48 while it grows, and the
        long elements of a cut at n = 18 have over 10^5 labels.  Adjacency is
        one C-level pass over the two iterables pairs() returns; only when it
        fails does a Python loop walk fresh ones to name the first bad pair.
        """
        ordered = sorted(self.verts)
        for v in ordered[:1] + ordered[-1:]:
            if not 0 <= v < 1 << self.n:
                return f"label {v} out of range for dimension {self.n}"
        if not all(map(operator.lt, ordered, islice(ordered, 1, None))):
            return "vertices are not distinct"
        if all(map((1).__eq__, map(int.bit_count, map(operator.xor, *pairs())))):
            return None
        return next(f"vertices {a} and {b} are not adjacent" for a, b in zip(*pairs()) if (a ^ b).bit_count() != 1)

    @property
    def size(self) -> int:
        return len(self.verts)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.verts)


@dataclass(frozen=True)
class CubePath(_Embedded):
    """A path embedded in Q_n: distinct vertices, consecutive ones adjacent."""

    shape: ClassVar[str] = "path"
    n: int
    verts: tuple[int, ...]

    def _check(self) -> str | None:
        if not self.verts:
            return "path has no vertices"
        return self._violation(lambda: (self.verts, islice(self.verts, 1, None)))


@dataclass(frozen=True)
class CubeCycle(_Embedded):
    """A cycle embedded in Q_n; the closing edge is implicit (first vertex not repeated).

    Q_n is bipartite, so the length must be even (and at least 4).
    """

    shape: ClassVar[str] = "cycle"
    n: int
    verts: tuple[int, ...]

    def _check(self) -> str | None:
        if len(self.verts) < 4:
            return "cycle needs at least 4 vertices"
        if len(self.verts) % 2:
            return "odd cycle cannot embed in a bipartite graph"
        # consecutive pairs and the closing pair, without copying a long tuple
        return self._violation(lambda: (self.verts, chain(islice(self.verts, 1, None), self.verts[:1])))


@dataclass(frozen=True)
class CubeStar(_Embedded):
    """A star K_{1,r} embedded in Q_n: a center and r >= 2 of its neighbors, sorted."""

    shape: ClassVar[str] = "star"
    n: int
    center: int
    leaves: tuple[int, ...]

    def _check(self) -> str | None:
        if len(self.leaves) < 2:
            return "a star needs at least 2 leaves (smaller stars are paths)"
        if tuple(sorted(self.leaves)) != self.leaves:
            return "leaves must be sorted"
        return self._violation(lambda: (repeat(self.center), self.leaves))

    @property
    def size(self) -> int:
        return len(self.leaves)

    @property
    def verts(self) -> tuple[int, ...]:
        return (self.center,) + self.leaves


def require_valid(obj: _Embedded) -> None:
    reason = obj.violation()
    if reason is not None:
        raise AssertionError(f"constructed object violates its invariants: {reason}")


def canonical_cycle_orientation(verts: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect so the smallest vertex comes first, its smaller neighbor second."""
    pos = verts.index(min(verts))
    fwd = verts[pos:] + verts[:pos]
    bwd = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, bwd)


def _gray_steps(count: int) -> list[int]:
    """The coordinates crossed by the first count Gray codewords, m's lowest set bit at step m.

    Reflected: the first 2^(j+1) cross the first 2^j's steps, then j, then those steps again.
    """
    steps: list[int] = []
    while len(steps) < count - 1:
        steps = steps + [len(steps).bit_length()] + steps
    return steps[:count - 1]


def _fold_steps(n: int, l: int) -> list[int]:
    """The coordinates crossed around embed_even_cycle(n, l) from 0: out, across n - 1, back, across again."""
    half = _gray_steps(l // 2)
    return half + [n - 1] + half[::-1] + [n - 1]


def _carry(start: int, perm, coords) -> list[int]:
    """The walk from start that crosses coordinate perm[i] for each i in coords, one XOR a step.

    An automorphism sigma maps v ^ e_i to sigma(v) ^ e_perm[i], so this carries a walk by sigma.
    """
    bits = [1 << p for p in perm]
    walk = [start]
    for i in coords:
        start ^= bits[i]
        walk.append(start)
    return walk


def hamiltonian_through_edge(n: int, edge: tuple[int, int]) -> CubeCycle:
    """A Hamiltonian cycle of Q_n containing the given edge.

    The Gray cycle contains the edge (0, 1); an edge-mapping automorphism
    carries its steps onto the target, so no search is ever needed.
    """
    if n < 2:
        raise ValueError(f"Hamiltonian cycles need n >= 2, got {n}")
    sigma = edge_mapping_automorphism(n, (0, 1), edge)
    walk = _carry(sigma.mask, sigma.perm, _gray_steps(1 << n))
    cycle = CubeCycle(n, canonical_cycle_orientation(tuple(walk)))
    require_valid(cycle)
    return cycle


def embed_even_cycle(n: int, l: int) -> CubeCycle:
    """A cycle of length l in Q_n, for any even l with 4 <= l <= 2^n.

    Take the first l/2 codewords g_0..g_{l/2-1} of the Gray order of
    Q_{n-1} and fold them across coordinate n-1:

        g_0.0, g_1.0, ..., g_{l/2-1}.0, g_{l/2-1}.1, ..., g_1.1, g_0.1

    Consecutive codewords are adjacent and the two columns are matched, so
    this is always a cycle; at l = 2^n it is the full Gray cycle of Q_n.
    """
    if l % 2:
        raise ValueError(f"cycle length must be even, got {l}")
    if l < 4:
        raise ValueError(f"cycle length must be at least 4, got {l}")
    if l > 1 << n:
        raise ValueError(f"cycle length {l} exceeds 2^{n} vertices")
    # already canonical: it starts 0, 1 and ends with 2^(n-1), and 1 < 2^(n-1)
    cycle = CubeCycle(n, tuple(_carry(0, range(n), _fold_steps(n, l)[:-1])))  # the closing step is implicit
    require_valid(cycle)
    return cycle


def odd_path_between_adjacent(n: int, u: int, v: int, q: int) -> CubePath:
    """A path of odd length q from u to v, for adjacent u, v and 1 <= q <= 2^n - 1.

    q = 1 is the bare edge; otherwise the fold of embed_even_cycle(n, q + 1),
    which starts with the edge (0, 1), is walked the long way round from 0
    to 1, its steps reversed, and carried onto (u, v) by an edge-mapping
    automorphism, with no cycle built.
    """
    Cube(n).check_vertex(u)
    Cube(n).check_vertex(v)
    if not adjacent(u, v):
        raise ValueError(f"{u} and {v} are not adjacent")
    if q % 2 == 0:
        raise ValueError(f"path length must be odd, got {q}")
    if not 1 <= q <= (1 << n) - 1:
        raise ValueError(f"path length {q} out of range [1, 2^{n} - 1]")
    if q == 1:
        return CubePath(n, (u, v))
    sigma = edge_mapping_automorphism(n, (0, 1), (u, v))
    path = CubePath(n, tuple(_carry(u, sigma.perm, _fold_steps(n, q + 1)[:0:-1])))  # backwards, all but (0, 1)
    require_valid(path)
    return path


def restrict_to_subcube(
    fixed_coords: dict[int, int], inner: CubePath | CubeCycle
) -> CubePath | CubeCycle:
    """Relabel a path/cycle of Q_m into the subcube of Q_n that fixes the top coordinates.

    fixed_coords pins each of the ambient coordinates m .. n - 1 to a
    constant bit, so inner's coordinates keep their places and the lift
    is one OR.  The relabeling is injective and adjacency-preserving, so
    the result is the same kind of object one dimension class up.
    """
    ambient_n = inner.n + len(fixed_coords)
    for coord, bit in fixed_coords.items():
        if not inner.n <= coord < ambient_n:
            raise ValueError(f"fixed coordinate {coord} is not among the top coordinates {inner.n}..{ambient_n - 1}")
        if bit not in (0, 1):
            raise ValueError(f"fixed coordinate {coord} must be 0 or 1, got {bit}")
    base = sum(bit << coord for coord, bit in fixed_coords.items())
    lifted = type(inner)(ambient_n, tuple(base | v for v in inner.verts))
    require_valid(lifted)
    return lifted
