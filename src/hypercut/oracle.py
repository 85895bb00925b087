"""Brute-force ground truth for structure/substructure connectivity.

The oracle enumerates every embedded copy of the structure (or of its
connected subgraphs), then searches families by increasing size until one
disconnects or trivializes the cube.  The first element of a family is
restricted to one representative per automorphism orbit, which is sound:
any cut can be carried by an automorphism onto one whose minimum-orbit
element is that orbit's representative, and orbit indices are preserved,
so the remaining elements only need to range over orbits at least as
large.  Before each exhaustive pass, a cheap seeded pass hunts for cuts
that isolate a fixed vertex or edge, since every known minimum cut here
does exactly that.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Mapping

from .analysis import is_disconnecting_mask, neighborhood_vertex_mask
from .core import adjacent, automorphism_vertex_tables
from .cuts import CutElement, CutFamily, StructureKind, STRUCTURE, admissible_shapes
from .embeddings import CubeCycle, CubePath, CubeStar, canonical_cycle_orientation
from .formulas import EXACT, LOWER_BOUND


class BudgetError(RuntimeError):
    """The requested search cannot be answered soundly within the budget."""


@dataclass(frozen=True)
class SearchBudget:
    """Limits keeping the exhaustive search at desk scale.

    A search refuses any n above max_dimension, and every n >= 6; at n = 5
    only a few pool blocks and family sizes are sanctioned (_check_budget).
    """

    max_family_size: int = 4
    max_dimension: int = 4

    def __post_init__(self) -> None:
        if self.max_family_size < 1:
            raise ValueError("max_family_size must be >= 1")

_COMBINATION_CEILING = 20_000_000
# The largest dimension any search accepts: exhaustive search is out of reach from n = 6.
MAX_SEARCH_DIM = 5


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a minimum-cut search.

    status "exact": value is the minimum and witness attains it.
    status "lower-bound": every family of size < value was exhausted
    without finding a cut; the minimum (if any) is at least value.
    """

    value: int
    status: str
    witness: CutFamily | None
    stats: Mapping[str, int] = field(default_factory=dict)

    @property
    def exhaustive(self) -> bool:
        """True exactly when the minimum was pinned down."""
        return self.status == EXACT


_SHAPE_ORDER = {"path": 0, "cycle": 1, "star": 2}


def _shape_key(el: CutElement) -> tuple[int, tuple[int, ...]]:
    return (_SHAPE_ORDER[el.shape], el.verts)


def _canon_image(el: CutElement, table: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The _shape_key of el's image under an automorphism's vertex table."""
    mapped = tuple(table[v] for v in el.verts)
    if el.shape == "cycle":
        mapped = canonical_cycle_orientation(mapped)
    elif el.shape == "star":
        mapped = (mapped[0],) + tuple(sorted(mapped[1:]))
    elif len(mapped) > 1 and mapped[0] > mapped[-1]:
        mapped = mapped[::-1]
    return (_SHAPE_ORDER[el.shape], mapped)


def _enumerate_walks(n: int, k: int, closed: bool) -> list[CubePath] | list[CubeCycle]:
    """Every self-avoiding walk on k vertices, one canonical form each.

    Paths keep the direction with the smaller endpoint first.  Cycles
    (closed) are walks whose ends are adjacent; the start is forced to be
    the cycle minimum and the second vertex smaller than the last, so every
    cycle appears exactly once.
    """
    size = 1 << n
    if k > size:
        return []
    out: list = []

    def dfs(seq: list[int], used: int) -> None:
        if len(seq) == k:
            if closed:
                if adjacent(seq[-1], seq[0]) and seq[1] < seq[-1]:
                    out.append(CubeCycle(n, tuple(seq)))
            elif seq[0] <= seq[-1]:
                out.append(CubePath(n, tuple(seq)))
            return
        v = seq[-1]
        reach = k - len(seq) if closed else n  # a cycle must get back to its start in time
        for i in range(n):
            w = v ^ (1 << i)
            if w > floor and not used >> w & 1 and (w ^ seq[0]).bit_count() <= reach:
                seq.append(w)
                dfs(seq, used | (1 << w))
                seq.pop()

    for v0 in range(size):
        floor = v0 if closed else -1  # a cycle never revisits below its start
        dfs([v0], 1 << v0)
    return out


def _enumerate_stars(n: int, r: int) -> list[CubeStar]:
    out = []
    for center in range(1 << n):
        nbrs = sorted(center ^ (1 << i) for i in range(n))
        for leaves in combinations(nbrs, r):
            out.append(CubeStar(n, center, tuple(leaves)))
    return out


def enumerate_copies(n: int, kind: StructureKind, mode: str = STRUCTURE) -> list[CutElement]:
    """Every embedded element admissible for (kind, mode), deduplicated canonically.

    The pool is sorted by shape (paths, cycles, stars), then by vertex tuple.
    """
    return _pool(n, kind, mode)[0]


@lru_cache(maxsize=None)
def pool_block(n: int, shape: str, size: int) -> tuple[tuple[CutElement, ...], tuple[int, ...], tuple[int, ...]]:
    """Every element of one (shape, size), sorted by vertex tuple: (elements, masks, orbit_of).

    An automorphism keeps an element's shape and size, so the orbits of a
    pool never cross its blocks and each block is partitioned alone.  The
    cache lives for one command: cli.main clears it as it starts.
    """
    els = _enumerate_stars(n, size) if shape == "star" else _enumerate_walks(n, size, shape == "cycle")
    els.sort(key=_shape_key)
    masks = tuple(sum(1 << v for v in el.verts) for el in els)
    return tuple(els), masks, tuple(_orbit_partition(els, n))


def _pool(n: int, kind: StructureKind, mode: str) -> tuple[list[CutElement], list[int], list[int], list[int]]:
    """The (kind, mode) pool from its blocks: (elements, masks, orbit_of, reps).

    Blocks are merged in _shape_key order and orbits numbered by first
    appearance, which is what partitioning the whole pool would give.
    """
    shapes = admissible_shapes(kind, mode)
    els: list[CutElement] = []
    masks: list[int] = []
    tagged: list[int] = []  # block-local orbits shifted past the orbits of earlier blocks
    shift = 0
    for shape, size in shapes:
        block_els, block_masks, block_orbits = pool_block(n, shape, size)
        els += block_els
        masks += block_masks
        tagged += [o + shift for o in block_orbits]
        shift += max(block_orbits, default=-1) + 1
    if len(shapes) > 1:
        order = sorted(range(len(els)), key=lambda i: _shape_key(els[i]))
        els, masks, tagged = [els[i] for i in order], [masks[i] for i in order], [tagged[i] for i in order]
    first: dict[int, int] = {}  # each orbit's first pool index, in order of first appearance
    for i, o in enumerate(tagged):
        first.setdefault(o, i)
    number = {o: j for j, o in enumerate(first)}
    return els, masks, [number[o] for o in tagged], list(first.values())


def _orbit_partition(block: list[CutElement], n: int) -> list[int]:
    """Each element's automorphism orbit index, numbered by first appearance.

    Orbits are expanded by applying the whole group to each fresh
    representative, so the cost scales with the number of orbits, not the
    block size.  The block must hold every image of its elements.
    """
    tables = automorphism_vertex_tables(n)
    index = {_shape_key(el): i for i, el in enumerate(block)}
    orbit_of = [-1] * len(block)
    next_orbit = 0
    for idx, el in enumerate(block):
        if orbit_of[idx] >= 0:
            continue
        for table in tables:
            j = index.get(_canon_image(el, table))
            if j is None:
                raise AssertionError("automorphic image missing from enumeration pool")
            if orbit_of[j] < 0:
                orbit_of[j] = next_orbit
        next_orbit += 1
    return orbit_of


def default_family_size(n: int) -> int:
    """The family-size budget at dimension n: the largest sanctioned at n = 5, else the default."""
    return 3 if n == 5 else SearchBudget.max_family_size


# The pool blocks a dimension 5 search may build; Q5 C8, 6,720 copies, is the largest.
# C8 substructure would add P5..P8, a pool of 333,872 copies: 4.8 s and 159 MB.
_SANCTIONED_AT_5 = frozenset([("path", 1), ("path", 2), ("path", 3), ("path", 4), ("cycle", 4), ("cycle", 8)])


def _check_budget(n: int, kind: StructureKind, mode: str, budget: SearchBudget) -> None:
    limit = min(budget.max_dimension, MAX_SEARCH_DIM)
    if n > limit:
        raise BudgetError(f"dimension {n} above the search limit {limit}")
    if n == 5:
        for shape, size in admissible_shapes(kind, mode):
            if (shape, size) not in _SANCTIONED_AT_5:
                raise BudgetError(f"dimension 5 searches are limited to the blocks path(1..4), cycle(4) and"
                                  f" cycle(8), but {mode} {kind.label()} needs {shape}({size})")
        if budget.max_family_size > default_family_size(5):
            raise BudgetError(f"dimension 5 searches are limited to family sizes up to {default_family_size(5)}")


def _cut_test(n: int, mask: int, memo: dict[int, bool], stats: dict[str, int]) -> bool:
    cached = memo.get(mask)
    if cached is not None:
        stats["memo_hits"] += 1
        return cached
    result = is_disconnecting_mask(n, mask)
    stats["cut_tests"] += 1
    memo[mask] = result
    return result


def _seed_targets(n: int) -> list[tuple[int, int]]:
    """(target neighborhood mask, forbidden vertex mask) around vertex 0 and edge {0, e_0}."""
    vertex, edge = 1 << 0, (1 << 0) | (1 << 1)
    return [(neighborhood_vertex_mask(n, vertex), vertex), (neighborhood_vertex_mask(n, edge), edge)]


def _seed_level(
    n: int, masks: list[int], s: int, memo: dict[int, bool], stats: dict[str, int]
) -> tuple[int, ...] | None:
    """Hunt for a size-s cut covering a fixed vertex/edge neighborhood.

    Finding-only: a miss here proves nothing, the exhaustive pass follows.
    """
    for target, forbidden in _seed_targets(n):
        scored = [
            (i, (masks[i] & target).bit_count())
            for i in range(len(masks))
            if masks[i] & target and not masks[i] & forbidden
        ]
        scored.sort(key=lambda t: (-t[1], t[0]))
        scored = scored[:400]
        idxs = [i for i, _ in scored]
        coverages = [c for _, c in scored]
        covers = [masks[i] & target for i in idxs]
        chosen: list[int] = []

        def backtrack(pos: int, covered: int, union: int) -> tuple[int, ...] | None:
            if len(chosen) == s:
                if covered & target == target and _cut_test(n, union, memo, stats):
                    return tuple(sorted(chosen))
                return None
            missing = (target & ~covered).bit_count()
            slots = s - len(chosen)
            for p in range(pos, len(idxs)):
                if coverages[p] * slots < missing:
                    break  # sorted by coverage, nothing later can help
                chosen.append(idxs[p])
                hit = backtrack(p + 1, covered | covers[p], union | masks[idxs[p]])
                chosen.pop()
                if hit:
                    return hit
            return None

        hit = backtrack(0, 0, 0)
        if hit:
            return hit
    return None


def _level_search(
    n: int,
    masks: list[int],
    orbit_of: list[int],
    reps: list[int],
    s: int,
    stats: dict[str, int],
) -> tuple[int, ...] | None:
    """Search all families of size s; None only after an exhaustive sweep."""
    memo: dict[int, bool] = {}
    hit = _seed_level(n, masks, s, memo, stats)
    if hit:
        return hit
    orbit_sizes = Counter(orbit_of)
    below = total = 0
    for orbit in sorted(orbit_sizes):
        total += math.comb(len(masks) - below - 1, s - 1)
        below += orbit_sizes[orbit]
    if total > _COMBINATION_CEILING:
        raise BudgetError(
            f"size-{s} sweep needs about {total} family tests, over the {_COMBINATION_CEILING} ceiling"
        )
    for r in reps:
        o = orbit_of[r]
        # at s = 1, combinations(cands, 0) yields one empty tuple: each representative alone
        cands = [j for j in range(len(masks)) if j != r and orbit_of[j] >= o] if s > 1 else []
        base = masks[r]
        for comb in combinations(cands, s - 1):
            union = base
            for j in comb:
                union |= masks[j]
            if _cut_test(n, union, memo, stats):
                return tuple(sorted((r,) + comb))
    return None


def min_structure_cut(
    n: int,
    kind: StructureKind,
    mode: str = STRUCTURE,
    budget: SearchBudget | None = None,
) -> OracleResult:
    """Minimum family size whose removal disconnects or trivializes Q_n.

    Iterative deepening over the family size; exact results carry a
    witness, and running past the size budget yields a lower bound, never
    a wrong exact value.
    """
    budget = budget or SearchBudget()
    _check_budget(n, kind, mode, budget)
    pool, masks, orbit_of, reps = _pool(n, kind, mode)
    if not pool:
        raise ValueError(f"no embedded copies of {kind.label()} exist in Q_{n}")
    stats = {
        "copies": len(pool),
        "orbits": len(reps),
        "cut_tests": 0,
        "memo_hits": 0,
    }
    for s in range(1, budget.max_family_size + 1):
        hit = _level_search(n, masks, orbit_of, reps, s, stats)
        if hit is not None:
            witness = CutFamily(n, kind, mode, tuple(pool[i] for i in hit))
            return OracleResult(s, EXACT, witness, stats=stats)
    return OracleResult(budget.max_family_size + 1, LOWER_BOUND, None, stats=stats)
