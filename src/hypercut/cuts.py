"""Explicit structure-cut families around the all-zeros vertex.

Both builders cover every neighbor e_j = (v)^j of v = 00..0 with paths or
cycles that thread weight-2 bridge vertices e_j | e_{j+1} between
consecutive neighbors, so v is isolated once the family is removed.  Long
elements (more vertices than 2n - 1) extend into the subcube x^{n-1} = 1
along a Gray walk, or close through an odd path inside the subcube
x^{n-2} = 0, x^{n-1} = 1, carried step by step into one tuple, checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .embeddings import (
    CubeCycle,
    CubePath,
    CubeStar,
    _carry,
    _fold_steps,
    _gray_steps,
    _swap_onto,
    hamiltonian_through_edge,  # re-exported: perfbench/tracing.py wraps cuts.hamiltonian_through_edge
    odd_path_between_adjacent,  # re-exported, unused here, for the same wrapper
    require_valid,
    restrict_to_subcube,  # re-exported, unused here, for the same wrapper
)


# kind name -> (label template, which sizes the kind takes)
_KINDS = {
    "vertex": ("K1", lambda s: s == 1),
    "edge": ("K1,1", lambda s: s == 2),
    "star": ("K1,{}", lambda s: s >= 2),
    "path": ("P{}", lambda s: s >= 1),
    "cycle": ("C{}", lambda s: s >= 4 and s % 2 == 0),
}


@dataclass(frozen=True)
class StructureKind:
    """Shape descriptor for the structure H of a cut family.

    name/size pairs: ("vertex", 1), ("edge", 2), ("star", r) for K_{1,r}
    with r >= 2, ("path", k) for the path on k vertices, ("cycle", k) for
    the cycle of even length k >= 4.
    """

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.name not in _KINDS:
            raise ValueError(f"unknown structure kind {self.name!r}")
        if not _KINDS[self.name][1](self.size):
            raise ValueError(f"invalid size {self.size} for kind {self.name!r}")

    def label(self) -> str:
        return _KINDS[self.name][0].format(self.size)


CutElement = Union[CubePath, CubeCycle, CubeStar]

STRUCTURE = "structure"
SUBSTRUCTURE = "substructure"

# The admissible elements of a cut family, per (kind, mode), as (shape, size)
# pairs of the kind's size; size counts vertices for paths and cycles and
# leaves for stars.  Structure mode takes copies of H, substructure mode its
# connected subgraphs.  The oracle enumerates exactly these and the validator
# accepts exactly these.
ADMISSIBLE = {
    ("vertex", STRUCTURE): lambda _: [("path", 1)],
    ("vertex", SUBSTRUCTURE): lambda _: [("path", 1)],
    ("edge", STRUCTURE): lambda _: [("path", 2)],
    ("edge", SUBSTRUCTURE): lambda _: [("path", 1), ("path", 2)],
    ("star", STRUCTURE): lambda r: [("star", r)],
    ("star", SUBSTRUCTURE): lambda r: [("path", 1), ("path", 2)] + [("star", j) for j in range(2, r + 1)],
    ("path", STRUCTURE): lambda k: [("path", k)],
    ("path", SUBSTRUCTURE): lambda k: [("path", j) for j in range(1, k + 1)],
    ("cycle", STRUCTURE): lambda k: [("cycle", k)],
    ("cycle", SUBSTRUCTURE): lambda k: [("path", j) for j in range(1, k + 1)] + [("cycle", k)],
}


def at_most_power_of_two(k: int, m: int) -> bool:
    """True iff k <= 2^m, read from the bit length of k - 1 so that 2^m is never built."""
    return k < 1 or (k - 1).bit_length() <= m


def check_mode(mode: str) -> None:
    """Reject any mode other than structure and substructure."""
    if mode not in (STRUCTURE, SUBSTRUCTURE):
        raise ValueError(f"mode must be structure or substructure, got {mode!r}")


def admissible_shapes(kind: StructureKind, mode: str) -> tuple[tuple[str, int], ...]:
    """The (shape, size) pairs an element of a (kind, mode) family may have."""
    check_mode(mode)
    return tuple(ADMISSIBLE[kind.name, mode](kind.size))


@dataclass(frozen=True)
class CutFamily:
    """A candidate H-structure or H-substructure cut: a set of embedded elements.

    Elements may share vertices; only each element individually must match
    the kind's contract, ADMISSIBLE (checked by the validator, not here).
    """

    n: int
    kind: StructureKind
    mode: str
    elements: tuple[CutElement, ...]

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    def __len__(self) -> int:
        return len(self.elements)

    def vertex_union(self) -> frozenset[int]:
        out: set[int] = set()
        for el in self.elements:
            out.update(el.verts)
        return frozenset(out)


def _spine(start: int, stop: int) -> list[int]:
    """e_start, e_start|e_{start+1}, e_{start+1}, ..., e_{stop-2}|e_{stop-1}, e_{stop-1}."""
    verts: list[int] = []
    for j in range(start, stop):
        verts.append(1 << j)
        if j < stop - 1:
            verts.append((1 << j) | (1 << (j + 1)))
    return verts


def _window(n: int, start: int, h: int, close: int | None) -> CubePath | CubeCycle:
    """Cover neighbors e_start .. e_{start+h-1} with bridges between them.

    A close coordinate appends the bridge e_{start+h-1} | e_close: closing
    on start itself makes a cycle (h >= 3), any other close a path with a
    trailing bridge, and None leaves the bare path.
    """
    verts = _spine(start, start + h)
    if close is not None:
        verts.append((1 << (start + h - 1)) | (1 << close))
    return (CubeCycle if close == start else CubePath)(n, tuple(verts))


def _window_starts(n: int, h: int) -> list[int]:
    """Window origins i*h plus a final window at n - h (shifted when h does not divide n)."""
    count = -(-n // h)
    return [i * h for i in range(count - 1)] + [n - h]


def _extended_path(n: int, k: int) -> CubePath:
    """One path on k >= 2n - 1 vertices covering all neighbors of the zero vertex.

    The spine already ends with the edge (e_{n-2}|e_{n-1}, e_{n-1}), whose
    endpoints lie in the subcube x^{n-1} = 1.  The Gray walk of Q_n, which
    starts with the edge (0, 1), carried onto that edge by swapping
    coordinates 0 and n - 2 and translating by e_{n-2}|e_{n-1}, supplies
    the k - (2n - 1) extension vertices, leading away from e_{n-2}|e_{n-1};
    its k - 2n + 3 <= 2^(n-1) vertices cross no coordinate past n - 2, so
    it stays in the subcube with no lift.
    """
    verts = _spine(0, n)
    extension = k - (2 * n - 1)
    if extension:
        verts.extend(_carry(3 << (n - 2), _swap_onto(n, 3 << (n - 2), 1 << (n - 1)), _gray_steps(extension + 2))[2:])
    path = CubePath(n, tuple(verts))
    require_valid(path)
    return path


def check_path_cut(n: int, k: int) -> None:
    """Raise ValueError unless build_path_cut(n, k) is defined."""
    if n < 3:
        raise ValueError(f"path cuts need n >= 3, got {n}")
    if not (k >= 3 and at_most_power_of_two(k, n - 1)):
        raise ValueError(f"k must be in [3, 2^(n-1)] at n = {n}, got {k}")


def build_path_cut(n: int, k: int) -> CutFamily:
    """The explicit family of k-vertex paths isolating the zero vertex.

    Element count is ceil(2n / (k+1)) for odd k and ceil(2n / k) for even
    k.  Odd k uses windows of (k+1)/2 neighbors; even k uses windows of
    k/2 neighbors with a trailing bridge each; k past 2n - 1 collapses to
    a single extended path.
    """
    check_path_cut(n, k)
    elements: tuple[CutElement, ...]
    if (k % 2 == 1 and k >= 2 * n - 1) or (k % 2 == 0 and k >= 2 * n):
        elements = (_extended_path(n, k),)
    else:
        h = (k + 1) // 2  # k/2 for even k
        # even k closes each window with a trailing bridge to e_{s+h}, wrapping to e_0 for the last one
        elements = tuple(_window(n, s, h, None if k % 2 else (s + h) % n) for s in _window_starts(n, h))
    return CutFamily(n, StructureKind("path", k), STRUCTURE, elements)


def _long_cycle(n: int, k: int) -> CubeCycle:
    """One cycle of length k >= 2n + 2 through all neighbors of the zero vertex.

    The spine runs e_0 .. e_{n-1}; an odd path of length q = k - (2n - 1)
    from e_{n-1} to e_0|e_{n-1} inside the subcube x^{n-2} = 0, x^{n-1} = 1
    closes it back to e_0.  That path is the folded (q + 1)-cycle of
    _fold_steps(n - 2, q + 1), which starts with the edge (0, e_0), walked
    backwards with that edge left out, and _carry runs its steps from e_{n-1}
    with the coordinates in place, straight into the cycle.
    """
    verts = _spine(0, n)
    q = k - (2 * n - 1)
    verts.extend(_carry(1 << (n - 1), range(n - 2), _fold_steps(n - 2, q + 1)[:0:-1])[1:])
    cycle = CubeCycle(n, tuple(verts))
    require_valid(cycle)
    return cycle


def check_cycle_cut(n: int, k: int) -> None:
    """Raise ValueError unless build_cycle_cut(n, k) is defined."""
    if n < 5:
        raise ValueError(f"cycle cuts need n >= 5, got {n}")
    if k % 2:
        raise ValueError(f"cycle length must be even, got {k}")
    if k < 6:
        raise ValueError(f"cycle cuts need k >= 6, got {k}")
    if not at_most_power_of_two(k, n - 2):
        raise ValueError(f"k must be at most 2^(n-2) at n = {n}, got {k}")


def build_cycle_cut(n: int, k: int) -> CutFamily:
    """The explicit family of k-cycles isolating the zero vertex.

    Element count is ceil(2n / k).  Windows of k/2 neighbors work while
    k/2 <= n; past that a single long cycle closes through the subcube
    x^{n-2} = 0, x^{n-1} = 1.  Length 4 is rejected: the closing bridge of
    a window would coincide with its inner bridge, and the 4-cycle value
    n - 2 comes from the star/C4 baseline, not from this construction.
    """
    check_cycle_cut(n, k)
    h = k // 2
    elements: tuple[CutElement, ...]
    if h <= n:
        elements = tuple(_window(n, s, h, s) for s in _window_starts(n, h))
    else:
        elements = (_long_cycle(n, k),)
    return CutFamily(n, StructureKind("cycle", k), STRUCTURE, elements)
