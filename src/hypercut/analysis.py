"""Complement connectivity, cut validation, the exhaustive family sweep,
neighborhood bounds, and brute-force extra connectivity.

Vertex sets live in single integers (bit v set = vertex v present).  A
component grows by passes over the n coordinates, one shift-and-mask
operation per coordinate, however many vertices move; a pass reaches at
least as far as a BFS level, and most cut tests settle in two passes.
The n coordinate masks are built by doubling one period, O(n * 2^n) bits
in all, and a component mask is decoded into its vertices in one pass
over its binary digits, so each walk over a whole 2^n-bit mask is linear
in 2^n.
cut_bits turns that around for the sweep's many small complements: one
int per vertex, one bit per removal, so one big-int operation moves every
removal of a batch a step.  One sweep, for the oracle's levels and g-extra
connectivity, takes a family's first element from the orbit starts and its
second up to the first's stabiliser, and hands its predicate each family
prefix with every candidate for the last element.  g-extra connectivity is
nondecreasing in g, so one climb over the removal sizes answers every g of
Q_n: each level is swept once, and a hit raises g in place for the rest of
the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, repeat
from operator import or_, xor
from typing import Callable, Iterable

from .core import Cube, automorphism_vertex_tables
from .cuts import CutFamily, admissible_shapes


@lru_cache(maxsize=None)
def coordinate_shift_masks(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per coordinate i: (2^i, mask of labels with bit i clear, with bit i set).

    lo starts as one period, 2^i ones in its low half, and doubles until it
    fills the 2^n bits: n - i - 1 shift-and-or steps of at most 2^n bits, so
    the n masks cost O(n * 2^n) bits in all, not the O(4^n) of ORing in
    each of the 2^(n-i-1) blocks in turn.
    """
    out = []
    for i in range(n):
        b = 1 << i
        lo, period = (1 << b) - 1, 2 * b
        while period < 1 << n:
            lo |= lo << period
            period *= 2
        out.append((b, lo, lo << b))
    return tuple(out)


def neighborhood_vertex_mask(n: int, vertex_mask: int) -> int:
    """Bitmask of all vertices adjacent to the given vertex set (set itself excluded)."""
    result = 0
    for b, lo, hi in coordinate_shift_masks(n):
        result |= ((vertex_mask & lo) << b) | ((vertex_mask & hi) >> b)
    return result & ~vertex_mask


def vertex_mask(n: int, vertices: Iterable[int]) -> int:
    """Bitmask of a vertex set; built in a byte buffer, so large n costs O(2^n / 8) once."""
    bits = bytearray(((1 << n) + 7) // 8)
    for v in vertices:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def _grow_component(n: int, seed: int, allowed: int) -> int:
    """The component of the allowed vertices that contains the one-vertex mask seed.

    Each pass runs over coordinates 0..n-1 and adds the allowed neighbours
    across that coordinate of everything reached so far, so vertices reached
    through one coordinate are carried on by the later ones in the same pass.
    A pass therefore reaches at least one BFS level further, and never leaves
    the component, so passes repeat until one adds nothing, which takes no
    more passes than the BFS takes levels.  Growth stops early once every
    allowed vertex is reached, the usual end of a cut test that finds no cut.
    """
    shifts = coordinate_shift_masks(n)
    visited, before = seed, 0
    while visited != before and visited != allowed:
        before = visited
        for b, lo, hi in shifts:
            visited |= (((visited & lo) << b) | ((visited & hi) >> b)) & allowed
    return visited


def component_masks(n: int, removed_mask: int) -> list[int]:
    """Connected components of Q_n minus the removed vertices, as bitmasks."""
    remaining = ((1 << (1 << n)) - 1) & ~removed_mask
    comps: list[int] = []
    while remaining:
        comp = _grow_component(n, remaining & -remaining, remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_disconnecting_mask(n: int, removed_mask: int) -> bool:
    """True iff the complement is trivial (<= 1 vertex) or disconnected."""
    remaining = ((1 << (1 << n)) - 1) & ~removed_mask
    if remaining & (remaining - 1) == 0:
        return True  # empty or a single vertex
    return _grow_component(n, remaining & -remaining, remaining) != remaining


# _DIGITS[i][b] is the ASCII binary digit of bit i of the byte b
_DIGITS = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]


@lru_cache(maxsize=None)
def _neighbours(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(v ^ 1 << i for i in range(n)) for v in range(1 << n))


def cut_bits(n: int, base: int, cands: list[int]) -> int:
    """Bit t set iff Q_n minus base | cands[t] is disconnected or has at most one vertex.

    Bit-sliced, the way multi-source BFS runs many searches as one: vertex v
    holds one int whose bit t says that v survives candidate t.  Packed into
    little-endian bytes, the last candidate first, byte v >> 3 of every
    candidate, read as the binary digit of its bit v & 7, spells v's int.
    Each candidate is seeded at its least survivor, and reach spreads along
    the cube edges, vertex by vertex in ascending then descending order,
    until a pass changes nothing.  A candidate is a cut when a survivor is
    not reached or fewer than two survive.
    """
    if not cands:
        return 0
    every, width = (1 << len(cands)) - 1, (1 << n) + 7 >> 3
    data = b"".join(map(int.to_bytes, reversed(cands), repeat(width), repeat("little")))
    alive = [0 if base >> v & 1 else every ^ int(data[v >> 3::width].translate(_DIGITS[v & 7]), 2)
             for v in range(1 << n)]
    reach, unseeded = [], every
    for a in alive:
        reach.append(a & unseeded)
        unseeded &= ~a
    crowded = reduce(or_, map(xor, alive, reach))  # a second survivor
    neighbours = _neighbours(n)
    order = [v for v, a in enumerate(alive) if a]
    while reach != alive:
        before = reach.copy()
        for v in order:
            got = 0
            for w in neighbours[v]:
                got |= reach[w]
            reach[v] |= got & alive[v]
        if reach == before:
            break
        order.reverse()
    return reduce(or_, map(xor, alive, reach)) | every ^ crowded


def components_after_removal(n: int, removed: Iterable[int]) -> tuple[frozenset[int], ...]:
    """Components of Q_n minus a removed vertex set, sorted small first."""
    cube = Cube(n)
    removed_set = frozenset(removed)
    for v in removed_set:
        cube.check_vertex(v)
    mask = vertex_mask(n, removed_set)
    # one pass over each mask's binary digits, lowest vertex first
    comps = [frozenset(v for v, d in enumerate(format(m, "b")[::-1]) if d == "1")
             for m in component_masks(n, mask)]
    comps.sort(key=lambda c: (len(c), min(c)))
    return tuple(comps)


VALID_CUT = "valid-cut"
NOT_A_CUT = "elements-ok-but-not-a-cut"
MALFORMED = "malformed-element"


@dataclass(frozen=True)
class CutVerdict:
    status: str
    element_index: int | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == VALID_CUT


def validate_cut(family: CutFamily) -> CutVerdict:
    """First malformed element wins; otherwise decide cut vs non-cut.

    An element is well formed when its own invariants hold and its
    (shape, size) is admissible for the family's kind and mode.  A vertex
    outside the union with all n neighbors inside it is cut off, or is all
    that is left, so the family is a cut at any n; only when no neighbor of
    the union is such a vertex does component growth over the 2^n-bit
    complement decide.
    """
    admissible = admissible_shapes(family.kind, family.mode)
    for idx, el in enumerate(family.elements):
        if getattr(el, "n", None) != family.n:
            return CutVerdict(MALFORMED, idx, f"element dimension {el.n} != family dimension {family.n}")
        reason = el.violation()
        if reason is None and (el.shape, el.size) not in admissible:
            reason = (f"a {el.shape} of size {el.size} is not admissible in a"
                      f" {family.mode} {family.kind.label()} family")
        if reason is not None:
            return CutVerdict(MALFORMED, idx, reason)
    union = family.vertex_union()
    bits = [1 << i for i in range(family.n)]
    # in element order, every built family's first vertex neighbors the zero vertex it encloses
    for u in (v for el in family.elements for v in el.verts):
        for w in (u ^ b for b in bits):
            if w not in union and all(w ^ c in union for c in bits):
                return CutVerdict(VALID_CUT)
    removed = vertex_mask(family.n, union)
    return CutVerdict(VALID_CUT if is_disconnecting_mask(family.n, removed) else NOT_A_CUT)


def path_neighbor_bound(k: int) -> int:
    """Cap on |N({u,v}) & V(P_k)| for an adjacent pair outside the path: 2*floor(k/3) + k mod 3.

    Always at most k - 1.  oracle.neighbor_count_maximum checks it at every n.
    """
    if k < 3:
        raise ValueError(f"bound is defined for k >= 3, got {k}")
    return 2 * (k // 3) + k % 3


def sweep(
    masks: list[int], starts: list[int], tables: list[tuple[int, ...]], s: int,
    first_cut: Callable[[int, list[int]], int | None],
) -> tuple[int, ...] | None:
    """The first family of size s whose union is a cut, as ascending indices into masks; None after the last.

    first_cut(base, cands) answers a batch: the least t for which base |
    cands[t] is a cut, or None.  Each batch is one family prefix, its union
    base, with every candidate for its last element, in the order below.
    The sweep is exhaustive when masks holds each orbit of a group that
    keeps "is a cut" of every union as one contiguous run, and starts holds
    where each run begins.  The group is the coordinate permutations tables
    (table[0] == 0) with the translations.  Stab(r) is its (table, x) with
    table(S_r) ^ x = S_r, for start r's vertex set S_r: x is table(v0) ^ w
    for the least v0 and some w of S_r.  The indices after r are grouped by
    Stab(r)-orbit, groups in order of first appearance, each led by its
    least index.  A family is r, a leader u, and s - 2 indices after u in
    that order, tried start by start, leader by leader, then in
    lexicographic order, so each batch is a run of consecutive families.
    At s = 2 each index is its own group: a group costs more mask images
    than the one cut test it saves, and the batch is every index after r.
    Take any accepted family: a group element carries its earliest member
    onto the start r of that member's run, and the others, which lie in
    that run or later ones, onto indices after r.  Stab(r) keeps each
    group, so one of its elements carries the member in the earliest group
    onto that group's leader, and the rest onto indices after it: a family
    the sweep tries, accepted too.  A run not closed under Stab(r) raises
    AssertionError.  At s = 1 the one batch is the starts.
    """
    if s == 1:
        hit = first_cut(0, [masks[r] for r in starts])
        return None if hit is None else (starts[hit],)
    runs = {a: {masks[j]: j for j in range(a, b)} for a, b in zip(starts, [*starts[1:], len(masks)])} if s > 2 else {}
    for r in starts:
        order, prefixes = range(r + 1, len(masks)), [()]  # prefixes: positions in order; at s = 2 the start alone
        if s > 2:
            verts = [v for v in range(len(tables[0])) if masks[r] >> v & 1]
            stab = [[t ^ x for t in table] for table in tables for x in {table[verts[0]] ^ w for w in verts}
                    if sum(1 << (table[v] ^ x) for v in verts) == masks[r]]
            lead: dict[int, int] = {}  # index -> the least index of its group
            for where in runs.values():
                for j in (j for j in where.values() if j > r and j not in lead):
                    members = [v for v in range(len(tables[0])) if masks[j] >> v & 1]
                    images = {sum(1 << h[v] for v in members) for h in stab}
                    if not images <= where.keys():
                        raise AssertionError(f"mask {min(images - where.keys()):#x}, an image of mask"
                                             f" {masks[j]:#x} under Stab({r}), is not in its run")
                    lead.update((where[m], j) for m in images)
            order = sorted(lead, key=lambda j: (lead[j], j))
            # a leader with s - 3 positions after it, each prefix leaving a candidate for the last element
            prefixes = ((p, *mid) for p, j in enumerate(order[:-1]) if lead[j] == j
                        for mid in combinations(range(p + 1, len(order) - 1), s - 3))
        cands = [masks[j] for j in order]
        for pos in prefixes:
            base, at = masks[r], pos[-1] + 1 if pos else 0
            for q in pos:
                base |= cands[q]
            hit = first_cut(base, cands[at:])
            if hit is not None:
                return (r, *sorted(order[q] for q in (*pos, at + hit)))
    return None


def g_extra_connectivity(n: int, g: int) -> int:
    """Brute-force minimum removal that disconnects Q_n into components of size >= g + 1.

    Read from one climb over the removal sizes that answers every g of Q_n
    at once (_g_extra_climb), kept per n: a removal whose components all
    have g + 1 vertices or more works for every smaller g too, so the
    answer never falls as g grows, and each level is swept once, its hits
    raising g in place.  Only sane up to the exhaustive ceiling, n = 4.
    """
    if n > 4:
        raise ValueError(f"dimension {n} above exhaustive ceiling 4")
    if not 0 <= g <= n:
        raise ValueError(f"g must be in [0, {n}], got {g}")
    value = _g_extra_climb(n)[g]
    if value is None:
        raise ValueError(f"no removal of Q_{n} satisfies the g = {g} condition")
    return value


@lru_cache(maxsize=None)
def _g_extra_climb(n: int) -> tuple[int | None, ...]:
    """kappa_0 .. kappa_n of Q_n, None where no removal works, from one climb over the removal sizes.

    Level s is the sweep over the 2^n one-vertex masks with the single
    start 0, so only removal sets that hold vertex 0 are tried, and from
    size 3 on only up to Stab(0), the coordinate permutations of
    core.automorphism_vertex_tables, which group the vertices by weight.
    That is exact: the automorphisms keep every component size and move
    vertex 0 onto every vertex, so the masks are one run that begins at 0.
    Each level is swept once, from s = 1 up.  A removal whose least
    component has m vertices, m above the least g still open, answers every
    open g below m with s, and the rest of the sweep is judged against the
    raised g: each set passed over failed a weaker test, so it fails this
    one too, and no lower level held a removal for any g still open.  The
    climb ends once g = n is answered.
    """
    tables = automorphism_vertex_tables(n)
    masks = [1 << v for v in range(1 << n)]
    answers: list[int | None] = []
    for s in range(1, 1 << n):

        def answers_the_last_g(base: int, cands: list[int]) -> int | None:
            for t, c in enumerate(cands):
                comps = component_masks(n, base | c)
                if len(comps) >= 2 and (smallest := min(map(int.bit_count, comps))) > len(answers):
                    answers.extend([s] * (smallest - len(answers)))
                    if len(answers) > n:
                        return t
            return None

        if sweep(masks, [0], tables, s, answers_the_last_g) is not None:
            break
    answers += [None] * (n + 1 - len(answers))
    return tuple(answers[: n + 1])


def scan_distance2_common_neighbors(n: int) -> int:
    """Count distance-2 pairs of Q_n without exactly 2 common neighbors (expected 0).

    One pair answers for all 2^(n-1)·C(n, 2) of them.  A translation moves
    one end of any distance-2 pair to 0, and a coordinate permutation then
    moves the other end onto 3 = e_0|e_1.  Automorphisms keep common
    neighbours, so the count is 0 if 0 and 3 have exactly two, and every
    pair fails otherwise.  Below n = 2 there are no such pairs.
    """
    if n < 2:
        return 0
    return 0 if len(Cube(n).common_neighbors(0, 3)) == 2 else math.comb(n, 2) << (n - 1)
