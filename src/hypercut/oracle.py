"""Brute-force ground truth for structure/substructure connectivity.

The copies of the structure (or of its connected subgraphs) come in
(shape, size) blocks, and orderly walks at vertex 0 give each block's
seeds: every copy is an automorphic image of a seed.  An automorphism
keeps "is a cut", so level 1 (one element alone) is answered by streaming
the seeds, with no copy built.  Only when no single element is a cut does
the oracle build the pool and search families of size 2, 3, ... until one
disconnects or trivializes the cube.  Whether a family is a cut depends
only on its vertex sets, so the pool holds each block's vertex sets, not
its labelled copies, and a minimum family never holds two elements on
one vertex set (dropping one keeps the union).  An element is built from
its vertex set only when it joins a witness.  Each stage has one budget
rule: the dimension limit bounds level 1, the copy ceiling the pool, and
the combination ceiling each sweep.  The pool holds each orbit as one
run, in seed order, with the run starts, and the automorphisms keep "is a
cut", so analysis.sweep, which takes each family's first element from the
run starts and its second up to the first's stabiliser, is exhaustive.
Before each exhaustive pass, a cheap seeded pass hunts for cuts that
isolate a fixed vertex or edge, since every known minimum cut here does
exactly that.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import Callable, Iterator, Mapping

from .analysis import coordinate_shift_masks, cut_bits, is_disconnecting_mask, neighborhood_vertex_mask, sweep
from .core import automorphism_vertex_tables
from .cuts import CutElement, CutFamily, StructureKind, STRUCTURE, admissible_shapes, at_most_power_of_two
from .embeddings import CubeCycle, CubePath, CubeStar, _gray_steps
from .formulas import EXACT, LOWER_BOUND


class BudgetError(RuntimeError):
    """The requested search cannot be answered soundly within the budget."""


# The largest dimension any search accepts.  What holds it at 5: core.automorphism_vertex_tables, pool_block's
# coordinate permutations, refuses n > 5, and Q6's P7 block alone makes 522,240 labelled copies, over _COPY_CEILING.
MAX_SEARCH_DIM = 5


@dataclass(frozen=True)
class SearchBudget:
    """Limits keeping the exhaustive search at desk scale.

    A search refuses any n above max_dimension, which is at most
    MAX_SEARCH_DIM.  Families of up to max_family_size elements are searched,
    the same at every n; families of 2 or more only from a pool of at most
    _COPY_CEILING labelled copies, and each size under _COMBINATION_CEILING tests.
    """

    max_family_size: int = 4
    max_dimension: int = MAX_SEARCH_DIM

    def __post_init__(self) -> None:
        if self.max_family_size < 1:
            raise ValueError("max_family_size must be >= 1")
        if self.max_dimension > MAX_SEARCH_DIM:
            raise ValueError(f"max_dimension must be <= {MAX_SEARCH_DIM}, got {self.max_dimension}")

_COMBINATION_CEILING = 20_000_000


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


# The element a canonical vertex tuple stands for, by shape.
_ELEMENT = {"path": CubePath, "cycle": CubeCycle, "star": lambda n, verts: CubeStar(n, verts[0], verts[1:])}


def _seeds(n: int, shape: str, size: int) -> Iterator[tuple[int, ...]]:
    """The orderly walks of one block at vertex 0, in DFS order; for stars, the one star there.

    Each step reuses a coordinate the walk has crossed or crosses the
    smallest one it has not, so every copy is an automorphic image of a
    seed.  A cycle seed ends next to 0 and never strays too far to get back.
    Each seed is its element's canonical tuple: it starts 0, 1, so a path
    ends above 0 and a cycle closes on a weight-1 vertex of at least 2, and
    a star's leaves ascend.  The walks are generated as the DFS reaches
    them, so a caller that stops early never pays for the rest of the block.
    """
    if shape == "star":
        if size <= n:
            yield (0,) + tuple(1 << i for i in range(size))
        return
    if size > 1 << n:
        return
    closed = shape == "cycle"

    def dfs(seq: list[int], used: int, coords: int) -> Iterator[tuple[int, ...]]:
        if len(seq) == size:
            if not closed or seq[-1].bit_count() == 1:
                yield tuple(seq)
            return
        for i in range(min(coords + 1, n)):  # a crossed coordinate, or the smallest new one
            w = seq[-1] ^ (1 << i)
            if not used >> w & 1 and (not closed or w.bit_count() <= size - len(seq)):
                seq.append(w)
                yield from dfs(seq, used | (1 << w), max(coords, i + 1))
                seq.pop()

    yield from dfs([0], 1, 0)


def neighbor_count_maximum(n: int, shape: str, k: int) -> int | None:
    """The largest |N({u,v}) & V(H)| over copies H of (shape, k) in Q_n and adjacent u, v outside H.

    None when no copy leaves an adjacent pair outside it.  The count is
    kept by automorphisms, so the seeds answer for every copy.  Q_n is
    bipartite, so adjacent u and v have disjoint neighbourhoods and the
    count is c(u) + c(v), where c(x) = |N(x) & V(H)|.  A seed crosses
    coordinates 0..d-1, and a vertex with c > 0 sets at most one coordinate
    beyond them, so a pair with a nonzero count sets at most two; an
    automorphism fixing the seed carries them onto d and d + 1.  So each
    seed is evaluated in Q_min(n, d+2), and the maximum is the same at
    every n >= d_max + 2 (d_max is k - 1 for P_k, k/2 for C_k).  d + 1
    happens to give the same maxima for P3..P10 and C4..C10, but it drops
    pairs such as u = x ^ e_d, v = u ^ e_(d+1), so it proves nothing.
    """
    best = None
    for seed in _seeds(n, shape, k):
        bits = [1 << i for i in range(min(n, max(seed).bit_length() + 2))]
        inside = set(seed)
        count = Counter(x ^ b for x in seed for b in bits)  # c(x) for every x with c(x) > 0
        for x in seed:
            count.pop(x, None)
        for u, c in count.items():
            for b in bits:
                if u ^ b not in inside:
                    total = c + count.get(u ^ b, 0)
                    if best is None or total > best:
                        best = total
    return best


@lru_cache(maxsize=None)
def _block_size(n: int, shape: str, size: int) -> int:
    """The number of labelled copies on pool_block(n, shape, size)'s vertex sets, counted from its seeds alone.

    A seed crossing coordinates 0..d-1 (d is its largest label's bit
    length) is carried onto 2^n * n!/(n-d)! labelled copies; a copy has 2
    labellings as a path (1 at size 1), 2 * size as a cycle and size! as a
    star.
    """
    labelled = sum(math.perm(n, max(seed).bit_length()) for seed in _seeds(n, shape, size))
    labellings = math.factorial(size) if shape == "star" else 2 * size if shape == "cycle" else min(size, 2)
    return (labelled << n) // labellings


def _elements_on(n: int, shape: str, mask: int) -> list[tuple[int, ...]]:
    """The canonical vertex tuples of every element of one shape whose vertex set is mask, sorted.

    A DFS inside the mask.  A star is centred at each vertex adjacent to all
    the others.  A vertex with fewer than two neighbours in the mask leaves
    no cycle and must end every path, so a path is walked from the least
    such vertex, or from every vertex when there is none; a cycle runs from
    its least vertex towards the smaller of that vertex's two neighbours.
    """
    verts = [v for v in range(1 << n) if mask >> v & 1]
    nbrs = {v: [v ^ (1 << i) for i in range(n) if mask >> (v ^ (1 << i)) & 1] for v in verts}
    if shape == "star":
        return [(c,) + tuple(v for v in verts if v != c) for c in verts if len(nbrs[c]) == len(verts) - 1]
    closed = shape == "cycle"
    ends = [v for v in verts if len(nbrs[v]) < 2]
    if len(ends) > (0 if closed else 2):
        return []
    out = []

    def dfs(seq: list[int], left: int) -> None:
        if not left:
            if closed:
                if (seq[-1] ^ seq[0]).bit_count() == 1 and seq[1] < seq[-1]:
                    out.append(tuple(seq))
            elif ends or seq[0] < seq[-1]:  # from an end, each path is walked once; else once each way
                out.append(tuple(seq) if seq[0] < seq[-1] else tuple(reversed(seq)))
            return
        for w in nbrs[seq[-1]]:
            if left >> w & 1:
                seq.append(w)
                dfs(seq, left ^ (1 << w))
                seq.pop()

    for v in verts[:1] if closed else ends[:1] or verts:
        dfs([v], mask ^ (1 << v))
    return sorted(out)


def enumerate_copies(n: int, kind: StructureKind, mode: str = STRUCTURE) -> list[CutElement]:
    """Every embedded element admissible for (kind, mode), each once in canonical form.

    Every vertex set of the pool is expanded into the elements on it, so
    the copies come block by block in admissible_shapes order, within a
    block orbit by orbit in seed order, and on one vertex set sorted.
    """
    shapes, masks, _ = _pool(n, kind, mode)
    return [_ELEMENT[shape](n, verts) for shape, mask in zip(shapes, masks) for verts in _elements_on(n, shape, mask)]


@lru_cache(maxsize=None)
def pool_block(n: int, shape: str, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertex sets of every element of one (shape, size), orbit by orbit: (masks, starts).

    A cut test reads only vertex sets, so no labelled element is built.
    Each seed whose mask is not yet seen opens a run: its images under the
    coordinate permutations (the automorphisms fixing 0) are each carried
    through the 2^n translations in reflected Gray order, one coordinate
    swap a step, crossing the coordinates embeddings._gray_steps lists (the
    one statement of the Gray step rule), and every new mask is kept.  So
    each orbit is one contiguous run, and starts holds where each run
    begins.  An automorphism carries the elements on a vertex set one to one
    onto those on its image, so the runs, each weighted by the elements on
    its first mask, must count _block_size: an orbit grown short raises
    AssertionError.  That count comes from the same seeds, whose own
    completeness the reference tests check.  The orbits of a pool never
    cross its blocks.
    The cache lives for one command: cli.main clears it as it starts.
    """
    perms = automorphism_vertex_tables(n)  # the coordinate permutations; the Gray steps below translate
    shifts = coordinate_shift_masks(n)
    gray = [shifts[i] for i in _gray_steps(1 << n)]
    keys: dict[int, None] = {}  # masks, in insertion order
    starts = []
    for seed in _seeds(n, shape, size):
        if sum(1 << v for v in seed) not in keys:
            starts.append(len(keys))
            for table in perms:
                mask = sum(1 << table[v] for v in seed)
                if mask in keys:
                    continue  # a translate of an earlier image: its translates are all kept
                keys[mask] = None
                for b, lo, hi in gray:
                    mask = ((mask & lo) << b) | ((mask & hi) >> b)
                    keys.setdefault(mask)
    masks = tuple(keys)
    grown = sum((end - start) * len(_elements_on(n, shape, masks[start]))
                for start, end in zip(starts, [*starts[1:], len(masks)]))
    if grown != _block_size(n, shape, size):
        raise AssertionError(f"{shape}({size}) of Q_{n} grew {grown} copies, not {_block_size(n, shape, size)}")
    return masks, tuple(starts)


def _pool(n: int, kind: StructureKind, mode: str) -> tuple[list[str], list[int], list[int]]:
    """The (kind, mode) pool, its blocks joined in admissible_shapes order: (shapes, masks, reps).

    shapes names the block of each mask.  reps are the run starts of every
    block, shifted past the earlier blocks: each is the first mask of its orbit.
    """
    shapes: list[str] = []
    masks: list[int] = []
    reps: list[int] = []
    for shape, size in admissible_shapes(kind, mode):
        block_masks, starts = pool_block(n, shape, size)
        reps += [len(masks) + r for r in starts]
        shapes += [shape] * len(block_masks)
        masks += block_masks
    return shapes, masks, reps


# The most labelled copies a search may stand for, counted from the seeds before any block is
# built: just above Q5 C8 substructure's 333,872, on 186,352 vertex sets (P8 substructure: 327,152
# on 179,832).  A pool holds at most one vertex set per copy, so the count bounds what is built.
_COPY_CEILING = 340_000


# the seeded pass calls _cut_test once per union, so mask comes last and each level binds
# partial(_cut_test, n, stats) positionally: bound by keyword, each call would copy the keywords.
# is_disconnecting_mask is looked up in this module at each call, so a hook on that name sees every test
def _cut_test(n: int, stats: dict[str, int], mask: int) -> bool:
    stats["cut_tests"] += 1
    return is_disconnecting_mask(n, mask)


def _first_cut(n: int, stats: dict[str, int], base: int, cands: list[int]) -> int | None:
    """The sweep's batch test: cut_bits decides every union base | cands[t] at once.

    The unions up to and including the first cut, or all of them on a miss,
    each count as one cut test, as _cut_test on each in turn counts them.
    """
    bits = cut_bits(n, base, cands)
    tested = (bits & -bits).bit_length() or len(cands)
    stats["cut_tests"] += tested
    return tested - 1 if bits else None


def _single_cut(n: int, shapes: tuple[tuple[str, int], ...], stats: dict[str, int]) -> CutElement | None:
    """The first seed, in block and DFS order, whose removal alone is a cut; None if no copy's is.

    Every copy is an automorphic image of a seed, so the seeds answer for
    their whole blocks.  A mask shared by several seeds is tested, and
    counted, at each of them.
    """
    is_cut = partial(_cut_test, n, stats)
    for shape, size in shapes:
        for seed in _seeds(n, shape, size):
            if is_cut(sum(1 << v for v in seed)):
                return _ELEMENT[shape](n, seed)
    return None


def _seed_candidates(n: int, masks: list[int], forbidden: int) -> tuple[int, list[int], list[int], list[int]]:
    """(target, idxs, coverages, covers) for the neighborhood of the vertex set forbidden.

    The candidates are the 400 vertex sets covering most of the target while
    avoiding forbidden itself, best first and then by pool index.  They do
    not depend on the family size, so a search scores each target once, when
    its seeded pass first reaches it.
    """
    target = neighborhood_vertex_mask(n, forbidden)
    scored = sorted((-(m & target).bit_count(), i) for i, m in enumerate(masks)
                    if m & target and not m & forbidden)[:400]
    idxs = [i for _, i in scored]
    return target, idxs, [-c for c, _ in scored], [masks[i] & target for i in idxs]


def _seed_level(
    masks: list[int], scorers: list[Callable[[], tuple]], s: int, is_cut: Callable[[int], bool]
) -> tuple[int, ...] | None:
    """Hunt for a size-s cut covering a fixed vertex/edge neighborhood, judged by is_cut.

    Each scorer gives one target's candidates, and is called only when the
    hunt reaches that target.  Finding-only: a miss here proves nothing, the
    exhaustive pass follows.
    """
    for score in scorers:
        target, idxs, coverages, covers = score()
        chosen: list[int] = []

        def backtrack(pos: int, covered: int, union: int) -> tuple[int, ...] | None:
            if len(chosen) == s:
                if covered & target == target and is_cut(union):
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
    n: int, masks: list[int], reps: list[int], scorers: list[Callable[[], tuple]], s: int, stats: dict[str, int]
) -> tuple[int, ...] | None:
    """Search all families of size s; None only after an exhaustive sweep.

    The seeded pass tests one union at a time, and then analysis.sweep, over
    the run starts reps and the coordinate permutations, hands its batches to
    cut_bits, once the sweep's family count is within _COMBINATION_CEILING.
    Every union handed to either counts once in cut_tests.
    """
    hit = _seed_level(masks, scorers, s, partial(_cut_test, n, stats))
    if hit:
        return hit
    total = sum(math.comb(len(masks) - r - 1, s - 1) for r in reps)
    if total > _COMBINATION_CEILING:
        raise BudgetError(
            f"size-{s} sweep needs about {total} family tests, over the {_COMBINATION_CEILING} ceiling"
        )
    return sweep(masks, reps, automorphism_vertex_tables(n), s, partial(_first_cut, n, stats))


def min_structure_cut(
    n: int,
    kind: StructureKind,
    mode: str = STRUCTURE,
    budget: SearchBudget | None = None,
) -> OracleResult:
    """Minimum family size whose removal disconnects or trivializes Q_n.

    The dimension is checked first, then whether H itself embeds in Q_n at
    all (a path or cycle on at most 2^n vertices, a star with at most n
    leaves), both by arithmetic alone.  Level 1 streams the seeds of each
    block and stops at the first cut (_single_cut); at n <= MAX_SEARCH_DIM
    its domain is finite and small.  Only if no single element is a cut,
    and the budget allows families of 2 or more, is the pool counted
    against _COPY_CEILING, then built, for the seeded and exhaustive passes
    at s = 2, 3, ...  The stats' copies and orbits count the vertex sets and
    orbits of the pool built, so they are 0 when none is.  Exact results
    carry a witness, each element the first on its vertex set, and running
    past the size budget yields a lower bound, never a wrong exact value.
    """
    budget = budget or SearchBudget()
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > budget.max_dimension:
        raise BudgetError(f"dimension {n} above the search limit {budget.max_dimension}")
    fits = kind.size <= n if kind.name == "star" else at_most_power_of_two(kind.size, n)
    if not fits:
        raise ValueError(f"no embedded copies of {kind.label()} exist in Q_{n}")
    shapes = admissible_shapes(kind, mode)
    stats = {"copies": 0, "orbits": 0, "cut_tests": 0}
    single = _single_cut(n, shapes, stats)
    if single is not None:
        return OracleResult(1, EXACT, CutFamily(n, kind, mode, (single,)), stats=stats)
    if budget.max_family_size >= 2:
        copies = sum(_block_size(n, shape, size) for shape, size in shapes)
        if copies > _COPY_CEILING:
            raise BudgetError(f"the {mode} {kind.label()} pool of Q_{n} holds {copies} copies,"
                              f" over the {_COPY_CEILING} ceiling")
        shapes, masks, reps = _pool(n, kind, mode)
        stats["copies"], stats["orbits"] = len(masks), len(reps)
        # one cached scorer per target, the vertex 0 and the edge {0, e_0}
        scorers = [cache(partial(_seed_candidates, n, masks, forbidden)) for forbidden in (1, 3)]
        for s in range(2, budget.max_family_size + 1):
            hit = _level_search(n, masks, reps, scorers, s, stats)
            if hit is not None:
                elements = (_ELEMENT[shapes[i]](n, _elements_on(n, shapes[i], masks[i])[0]) for i in hit)
                witness = CutFamily(n, kind, mode, tuple(elements))
                return OracleResult(s, EXACT, witness, stats=stats)
    return OracleResult(budget.max_family_size + 1, LOWER_BOUND, None, stats=stats)
