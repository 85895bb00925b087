from bisect import bisect_right
from collections import Counter
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hypercut import cli, embeddings, formulas, oracle
from hypercut.analysis import is_disconnecting_mask, path_neighbor_bound, validate_cut
from hypercut.core import Automorphism, adjacent, automorphism_vertex_tables
from hypercut.cuts import StructureKind, admissible_shapes, build_path_cut
from hypercut.embeddings import CubeCycle, CubePath, CubeStar
from hypercut.oracle import (
    BudgetError,
    SearchBudget,
    enumerate_copies,
    min_structure_cut,
    pool_block,
)


def _brute_min_cut(n, kind, mode, max_size):
    """Reference search without any orbit pruning or seeding."""
    copies = enumerate_copies(n, kind, mode)
    masks = []
    for el in copies:
        m = 0
        for v in el.verts:
            m |= 1 << v
        masks.append(m)
    for s in range(1, max_size + 1):
        for comb in combinations(range(len(copies)), s):
            union = 0
            for i in comb:
                union |= masks[i]
            if is_disconnecting_mask(n, union):
                return s
    return None


def test_enumerate_counts_small():
    assert len(enumerate_copies(2, StructureKind("cycle", 4))) == 1
    # 4-cycles of Q_n are its 2-faces: C(n,2) * 2^(n-2)
    assert len(enumerate_copies(3, StructureKind("cycle", 4))) == 6
    assert len(enumerate_copies(4, StructureKind("cycle", 4))) == 24
    # paths on 2 vertices are the edges: n * 2^(n-1)
    assert len(enumerate_copies(3, StructureKind("path", 2))) == 12
    # paths on 3 vertices: a middle vertex and an unordered neighbor pair
    assert len(enumerate_copies(3, StructureKind("path", 3))) == 24
    # paths on 4 vertices in Q_3: 8*3*2*2 directed walks, halved
    assert len(enumerate_copies(3, StructureKind("path", 4))) == 48


def test_enumerate_substructure_pools():
    assert len(enumerate_copies(3, StructureKind("path", 3), "substructure")) == 8 + 12 + 24
    assert len(enumerate_copies(3, StructureKind("cycle", 4), "substructure")) == 8 + 12 + 24 + 48 + 6
    assert len(enumerate_copies(3, StructureKind("edge", 2), "substructure")) == 8 + 12
    # stars: center times leaf subsets
    assert len(enumerate_copies(3, StructureKind("star", 2))) == 8 * 3
    assert len(enumerate_copies(3, StructureKind("star", 3))) == 8
    assert len(enumerate_copies(3, StructureKind("star", 3), "substructure")) == 8 + 12 + 24 + 8


def test_enumerate_canonical_forms():
    for el in enumerate_copies(3, StructureKind("path", 4)):
        assert el.verts[0] < el.verts[-1]
    for el in enumerate_copies(4, StructureKind("cycle", 6)):
        assert el.verts[0] == min(el.verts)
        assert el.verts[1] < el.verts[-1]


def test_min_cut_values_q3():
    assert min_structure_cut(3, StructureKind("path", 3)).value == 2
    assert min_structure_cut(3, StructureKind("cycle", 4)).value == 2


def test_min_cut_value_q4_c4():
    result = min_structure_cut(4, StructureKind("cycle", 4))
    assert result.value == 2
    assert result.status == "exact"
    assert result.exhaustive


def test_witnesses_validate():
    for kind, mode in (
        (StructureKind("path", 3), "structure"),
        (StructureKind("path", 4), "substructure"),
        (StructureKind("cycle", 4), "structure"),
        (StructureKind("star", 2), "structure"),
    ):
        result = min_structure_cut(3, kind, mode)
        assert result.witness is not None
        assert validate_cut(result.witness).ok
        assert len(result.witness.elements) == result.value


def test_substructure_cycle_values_match_formula():
    from hypercut.formulas import kappa_cycle

    for n in (3, 4):
        for k in range(4, (1 << (n - 1)) + 1, 2):
            expected = kappa_cycle(n, k, "substructure").value
            value = min_structure_cut(n, StructureKind("cycle", k), "substructure").value
            assert value == expected, (n, k)


def test_baseline_star_values_match_formula_q4():
    from hypercut.formulas import kappa_baseline

    kinds = (
        StructureKind("vertex", 1),
        StructureKind("edge", 2),
        StructureKind("star", 2),
        StructureKind("star", 3),
        StructureKind("cycle", 4),
    )
    for kind in kinds:
        for mode in ("structure", "substructure"):
            expected = kappa_baseline(4, kind, mode).value
            assert min_structure_cut(4, kind, mode).value == expected, (kind, mode)


def test_oracle_never_beats_construction():
    for n in (3, 4):
        for k in range(3, (1 << (n - 1)) + 1):
            constructed = len(build_path_cut(n, k))
            value = min_structure_cut(n, StructureKind("path", k)).value
            assert value <= constructed


def test_pruned_matches_unpruned_q3():
    cases = [
        (StructureKind("path", 3), "structure"),
        (StructureKind("path", 3), "substructure"),
        (StructureKind("path", 4), "structure"),
        (StructureKind("path", 4), "substructure"),
        (StructureKind("cycle", 4), "structure"),
        (StructureKind("cycle", 4), "substructure"),
        (StructureKind("vertex", 1), "structure"),
        (StructureKind("edge", 2), "structure"),
        (StructureKind("star", 2), "structure"),
    ]
    for kind, mode in cases:
        expected = _brute_min_cut(3, kind, mode, 3)
        result = min_structure_cut(3, kind, mode, SearchBudget(max_family_size=3))
        assert result.value == expected, (kind, mode)


def test_pruned_matches_unpruned_q4_small_pools():
    # pools small enough for the reference combination sweep to be cheap
    cases = [
        (StructureKind("cycle", 4), "structure", 3),
        (StructureKind("vertex", 1), "structure", 4),
        (StructureKind("edge", 2), "structure", 3),
        (StructureKind("star", 2), "structure", 2),
        (StructureKind("star", 3), "structure", 2),
        (StructureKind("star", 3), "substructure", 2),
    ]
    for kind, mode, smax in cases:
        expected = _brute_min_cut(4, kind, mode, smax)
        assert expected is not None, (kind, mode)
        result = min_structure_cut(4, kind, mode, SearchBudget(max_family_size=smax))
        assert result.value == expected, (kind, mode)


def test_verify_no_smaller_cut():
    # no cut of size < s exists exactly when a search capped at s - 1 ends in a lower bound
    def no_smaller_cut(n, kind, s):
        budget = SearchBudget(max_family_size=s - 1)
        return min_structure_cut(n, kind, "structure", budget).status == "lower-bound"

    assert no_smaller_cut(4, StructureKind("path", 6), 2)
    assert no_smaller_cut(3, StructureKind("path", 4), 2)
    assert not no_smaller_cut(3, StructureKind("path", 3), 3)


def test_lower_bound_on_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(oracle, "pool_block", _no_block)  # a miss at level 1 with max_family_size 1 needs no pool
    result = min_structure_cut(4, StructureKind("path", 6), budget=SearchBudget(max_family_size=1))
    assert result.status == "lower-bound"
    assert result.value == 2
    assert result.witness is None
    assert not result.exhaustive


def _no_seeds(*args):
    raise AssertionError("a seed was walked before the search was refused")


def test_dimension_gates(monkeypatch):
    # MAX_SEARCH_DIM is the one dimension fact: the default budget, and the most any budget may ask for
    with pytest.raises(ValueError, match="max_dimension must be <= 5, got 6"):
        SearchBudget(max_dimension=6)
    assert SearchBudget().max_dimension == oracle.MAX_SEARCH_DIM == 5
    result = min_structure_cut(5, StructureKind("cycle", 4))  # the default budget searches dimension 5
    assert (result.value, result.status) == (formulas.kappa_baseline(5, StructureKind("cycle", 4)).value, "exact")
    monkeypatch.setattr(oracle, "_seeds", _no_seeds)  # every gate is arithmetic, checked before level 1
    with pytest.raises(BudgetError, match="dimension 4 above the search limit 3"):
        min_structure_cut(4, StructureKind("path", 3), budget=SearchBudget(max_dimension=3))
    with pytest.raises(BudgetError, match="dimension 6 above the search limit 5"):
        min_structure_cut(6, StructureKind("path", 3))
    with pytest.raises(BudgetError):  # the dimension comes before the size of H
        min_structure_cut(6, StructureKind("path", 10**9))
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"dimension must be >= 1, got {n}"):
            min_structure_cut(n, StructureKind("path", 3), budget=SearchBudget(3, 5))


def _no_block(*args):
    raise AssertionError("a pool block was built before the search was refused")


def test_dimension_5_sanctions_blocks_not_kinds(monkeypatch):
    # no kind is refused at n = 5 for what it is: the copy ceiling weighs the blocks its pool needs,
    # so under a ceiling of 250,000 C8 substructure (P1..P8 and C8, 333,872 copies) is refused,
    # and P5 substructure and stars are searched
    big5 = SearchBudget(max_dimension=5)
    for kind, mode, value in ((StructureKind("path", 5), "substructure", 2),
                              (StructureKind("star", 2), "structure", 3),
                              (StructureKind("star", 2), "substructure", 3)):
        result = min_structure_cut(5, kind, mode, big5)
        assert (result.value, result.status) == (value, "exact"), (kind, mode)
    monkeypatch.setattr(oracle, "_COPY_CEILING", 250_000)
    monkeypatch.setattr(oracle, "pool_block", _no_block)
    with pytest.raises(BudgetError, match=r"substructure C8 pool of Q_5 holds 333872 copies"):
        min_structure_cut(5, StructureKind("cycle", 8), "substructure", big5)


def test_orbit_statistics_reported():
    result = min_structure_cut(3, StructureKind("path", 3))
    assert result.stats["copies"] == 24
    assert result.stats["orbits"] >= 1
    assert result.stats["cut_tests"] > 0


# --- pools built from cached blocks ---


def _mask(verts):
    return sum(1 << v for v in verts)


def _image(table, mask):
    """The vertex set mask carried by an automorphism's vertex table."""
    return sum(1 << w for v, w in enumerate(table) if mask >> v & 1)


def _runs(keys, starts):
    """The runs of a block or pool that begin at starts, each as the set of its keys."""
    ends = [*starts[1:], len(keys)]
    return [frozenset(keys[a:b]) for a, b in zip(starts, ends)]


def _assert_runs_are_the_orbits(keys, starts, reference, n):
    """keys are the reference's (shape, mask) pairs, each once, and each run is exactly one reference orbit."""
    assert len(keys) == len(set(keys))
    assert set(keys) == {(el.shape, _mask(el.verts)) for el in reference}
    assert list(starts[:1]) == [0] and list(starts) == sorted(set(starts))
    runs, orbits = _runs(keys, starts), _whole_pool_partition(reference, n)
    assert len(runs) == len(orbits)
    assert set(runs) == orbits


def _whole_pool_partition(pool, n):
    """The orbit partition of a pool's (shape, mask) pairs, taken over the whole group: a set of frozensets."""
    keys = {(el.shape, _mask(el.verts)) for el in pool}
    orbits, seen = set(), set()
    for shape, mask in keys:
        if (shape, mask) not in seen:
            orbit = frozenset((shape, _image(table, mask)) for table in automorphism_vertex_tables(n))
            assert orbit <= keys  # the pool is closed under the group
            orbits.add(orbit)
            seen |= orbit
    return orbits


# Reference enumerators that do not use the automorphism group, so they check the seeds and
# the group pass of pool_block: a DFS from every start, and every leaf subset at every centre.
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


def _kinds(n):
    yield StructureKind("vertex", 1)
    yield StructureKind("edge", 2)
    for r in range(2, n + 1):
        yield StructureKind("star", r)
    for k in range(3, 9):
        yield StructureKind("path", k)
    for k in (4, 6, 8):
        yield StructureKind("cycle", k)


# every admissible (kind, mode) at n = 3, 4, and the smaller kinds at n = 5; the
# Q5 C8 substructure pool (333,872 copies, about 4 s to build) is left out for time
_POOL_CASES = (
    [(n, kind, mode) for n in (3, 4) for kind in _kinds(n) for mode in ("structure", "substructure")]
    + [(5, StructureKind(name, k), mode)
       for name, k in (("path", 1), ("path", 2), ("path", 3), ("path", 4), ("cycle", 4))
       for mode in ("structure", "substructure")]
    + [(5, StructureKind("cycle", 8), "structure")]
)


@pytest.mark.parametrize("n,kind,mode", _POOL_CASES,
                         ids=[f"Q{n}-{kind.label()}-{mode}" for n, kind, mode in _POOL_CASES])
def test_block_built_pool_matches_whole_pool_partition(n, kind, mode):
    # the pool is its blocks' vertex sets, one run per orbit, and reps are the run starts; the order is not sorted
    pool = []
    for shape, size in admissible_shapes(kind, mode):
        if shape == "star":
            pool += _enumerate_stars(n, size)
        else:
            pool += _enumerate_walks(n, size, shape == "cycle")
    shapes, masks, reps = oracle._pool(n, kind, mode)
    _assert_runs_are_the_orbits(list(zip(shapes, masks)), reps, pool, n)


_BLOCKS = [(n, shape, size) for n in (3, 4)
           for shape, size in [("path", k) for k in range(1, 9)] + [("cycle", k) for k in (4, 6, 8)]
           + [("star", r) for r in range(2, n + 1)]]


@settings(max_examples=60, deadline=None)
@given(block=st.sampled_from(_BLOCKS), data=st.data())
def test_block_orbits_closed_under_random_automorphism(block, data):
    n, shape, size = block
    masks, starts = pool_block(n, shape, size)
    perm = data.draw(st.permutations(range(n)))
    table = Automorphism(n, tuple(perm), data.draw(st.integers(0, (1 << n) - 1))).vertex_table()
    run_of = {mask: bisect_right(starts, i) - 1 for i, mask in enumerate(masks)}
    for mask in masks:
        assert run_of[_image(table, mask)] == run_of[mask]


@settings(max_examples=30, deadline=None)
@given(block=st.sampled_from(_BLOCKS))
def test_block_orbit_sizes_divide_group_order(block):
    n, shape, size = block
    group_order = (1 << n) * factorial(n)
    masks, starts = pool_block(n, shape, size)
    for a, b in zip(starts, [*starts[1:], len(masks)]):
        assert group_order % (b - a) == 0


def _unpruned_cycles(n, k):
    """Every k-cycle of Q_n once, by a DFS from each cycle minimum with no distance pruning."""
    found = set()

    def dfs(seq, used):
        if len(seq) == k:
            if (seq[-1] ^ seq[0]).bit_count() == 1 and seq[1] < seq[-1]:
                found.add(tuple(seq))
            return
        for i in range(n):
            w = seq[-1] ^ (1 << i)
            if w > seq[0] and w not in used:
                dfs(seq + [w], used | {w})

    for v in range(1 << n):
        dfs([v], {v})
    return found


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 5), k=st.sampled_from([4, 6, 8]))
def test_pruned_cycle_enumeration_matches_unpruned_dfs(n, k):
    masks = pool_block(n, "cycle", k)[0]
    cycles = [c for mask in masks for c in oracle._elements_on(n, "cycle", mask)]
    assert len(masks) == len(set(masks)) and len(cycles) == len(set(cycles))
    assert set(cycles) == (_unpruned_cycles(n, k) if k <= 1 << n else set())
    assert set(masks) == {_mask(c) for c in cycles}


# every path and cycle block at n <= 4 with k <= 10, and three of the larger Q5 blocks
_GROWN_BLOCKS = (
    [(n, "path", k) for n in (1, 2, 3, 4) for k in range(1, min(10, 1 << n) + 1)]
    + [(n, "cycle", k) for n in (2, 3, 4) for k in range(4, min(10, 1 << n) + 1, 2)]
    + [(5, "path", 5), (5, "path", 6), (5, "cycle", 6)]
)


@pytest.mark.parametrize("n,shape,size", _GROWN_BLOCKS, ids=[f"Q{n}-{s}{k}" for n, s, k in _GROWN_BLOCKS])
def test_block_grown_from_seeds_matches_the_all_starts_dfs(n, shape, size):
    els = _enumerate_walks(n, size, shape == "cycle")
    masks, starts = pool_block(n, shape, size)
    _assert_runs_are_the_orbits([(shape, mask) for mask in masks], starts, els, n)
    assert oracle._block_size(n, shape, size) == len(els)
    # the vertex sets expand into exactly the DFS's elements, each once
    assert sorted(v for mask in masks for v in oracle._elements_on(n, shape, mask)) == sorted(el.verts for el in els)


def test_block_size_counts_large_pools_without_building_them(monkeypatch):
    monkeypatch.setattr(oracle, "pool_block", _no_block)
    assert sum(oracle._block_size(4, "path", k) for k in range(1, 17)) == 725_424
    assert oracle._block_size(5, "path", 8) == 237_120
    assert oracle._block_size(5, "cycle", 14) == 4_652_160
    assert oracle._block_size(4, "star", 3) == 16 * 4


@pytest.mark.parametrize("n,shape,size", [(2, "star", 3), (3, "star", 4), (2, "path", 5), (3, "cycle", 10)])
def test_blocks_too_large_for_the_cube_are_empty(n, shape, size):
    assert pool_block(n, shape, size) == ((), ())
    assert oracle._block_size(n, shape, size) == 0


def test_copy_ceiling_refuses_large_pools_before_building(monkeypatch):
    # the ceiling lies above Q5 P8 and C8 substructure's pools, so a lower one must refuse them unbuilt
    monkeypatch.setattr(oracle, "_COPY_CEILING", 250_000)
    monkeypatch.setattr(oracle, "pool_block", _no_block)
    big5 = SearchBudget(max_dimension=5)
    for kind in (StructureKind("path", 8), StructureKind("cycle", 8)):  # level 1 misses, so the pool is weighed
        with pytest.raises(BudgetError, match=r"copies, over the 250000 ceiling"):
            min_structure_cut(5, kind, "substructure", big5)
        # a miss with no family of 2 to search needs no pool, so the ceiling is not consulted
        result = min_structure_cut(5, kind, "substructure", SearchBudget(1, 5))
        assert (result.value, result.status, result.stats["copies"]) == (2, "lower-bound", 0)
    # Q4 P16 substructure would hold 725,424 copies, but one element cuts, so none is built
    for kind in (StructureKind("path", 12), StructureKind("path", 16), StructureKind("cycle", 12)):
        assert min_structure_cut(4, kind, "substructure").value == 1
    # Q5 P8, 237,120 copies, is searched even under the lower ceiling
    assert oracle._block_size(5, "path", 8) <= oracle._COPY_CEILING


# every path, cycle and star block at n <= 4 with k <= 10, and the smallest blocks at n = 5;
# Q4 C12 is the first cycle block at n <= 4 whose orbits need both the rotations and the reflections
_SEEDED_BLOCKS = (
    [(n, "path", k) for n in (1, 2, 3, 4) for k in range(1, min(10, 1 << n) + 1)]
    + [(n, "cycle", k) for n in (2, 3, 4) for k in range(4, min(10, 1 << n) + 1, 2)] + [(4, "cycle", 12)]
    + [(n, "star", r) for n in (2, 3, 4) for r in range(2, n + 1)]
    + [(5, "path", k) for k in (1, 2, 3, 4)] + [(5, "cycle", 4), (5, "cycle", 8)]
)


@pytest.mark.parametrize("n,shape,size", _SEEDED_BLOCKS, ids=[f"Q{n}-{s}{k}" for n, s, k in _SEEDED_BLOCKS])
def test_seeds_answer_level_1_and_count_the_orbits_of_their_block(n, shape, size):
    masks, _ = pool_block(n, shape, size)
    stats = {"cut_tests": 0, "memo_hits": 0}
    single = oracle._single_cut(n, ((shape, size),), stats)
    assert (single is not None) == any(is_disconnecting_mask(n, m) for m in masks)
    if single is None:  # a miss has tested every seed's mask, each once
        seed_masks = [sum(1 << v for v in seed) for seed in oracle._seeds(n, shape, size)]
        assert (stats["cut_tests"], stats["memo_hits"]) == (len(set(seed_masks)), len(seed_masks) - len(set(seed_masks)))
    else:
        assert _mask(single.verts) in masks
        assert single.verts in oracle._elements_on(n, shape, _mask(single.verts))
        assert is_disconnecting_mask(n, _mask(single.verts))


@pytest.mark.parametrize("kind,mode", [(StructureKind("path", 8), "structure"), (StructureKind("cycle", 8), "substructure")])
def test_answers_of_1_build_no_block(monkeypatch, kind, mode):
    monkeypatch.setattr(oracle, "pool_block", _no_block)
    result = min_structure_cut(4, kind, mode)
    assert (result.value, result.status, len(result.witness.elements)) == (1, "exact", 1)
    assert validate_cut(result.witness).ok


def _every_kind(n):
    """Every path, cycle and star kind whose own element embeds in Q_n."""
    return ([StructureKind("path", k) for k in range(1, (1 << n) + 1)]
            + [StructureKind("cycle", k) for k in range(4, (1 << n) + 1, 2)]
            + [StructureKind("star", r) for r in range(2, n + 1)])


def test_level_1_walks_at_most_492_seeds_at_every_kind_up_to_dimension_5():
    # level 1 has no ceiling of its own: at n <= 5 its domain is finite, and this is its measured size
    walked = {}
    for n in range(1, 6):
        for kind in _every_kind(n):
            for mode in ("structure", "substructure"):
                stats = {"cut_tests": 0, "memo_hits": 0}
                oracle._single_cut(n, admissible_shapes(kind, mode), stats)
                walked[n, kind.label(), mode] = stats["cut_tests"] + stats["memo_hits"]
    assert max(walked.values()) == walked[5, "P14", "structure"] == 492


# (kind, mode) at n = 5, checked against the closed forms; C8 substructure builds the largest
# pool searched, 186,352 vertex sets, and P8 substructure the next, 179,832
_Q5_FORMULA_CASES = (
    [(StructureKind("path", k), mode) for k in range(3, 17) for mode in ("structure", "substructure")]
    + [(StructureKind("cycle", k), mode) for k in range(4, 17, 2) for mode in ("structure", "substructure")]
    + [(StructureKind(name, size), mode) for name, size in (("star", 2), ("star", 3), ("vertex", 1), ("edge", 2))
       for mode in ("structure", "substructure")]
)


def test_dimension_5_values_match_the_closed_forms():
    for kind, mode in _Q5_FORMULA_CASES:
        if kind.name == "path":
            want = formulas.kappa_path(5, kind.size, mode)
        elif kind.name == "cycle" and kind.size > 4:
            want = formulas.kappa_cycle(5, kind.size, mode)
        else:
            want = formulas.kappa_baseline(5, kind, mode)
        result = min_structure_cut(5, kind, mode, SearchBudget(5, 5))
        assert (result.value, result.status) == (want.value, "exact"), (kind, mode)
        # the even cycles past 2^(n-2) have only a lower bound in closed form, which the oracle makes exact
        assert want.is_exact == (kind.name != "cycle" or mode == "substructure" or kind.size <= 8), (kind, mode)
    pool_block.cache_clear()


# pools with no cut of 2, so the size-2 sweep runs to its end: Q3 vertices, Q4 edge substructure
# (two blocks, vertices and edges), and Q5 P4 structure (1,280 copies in 2 orbits)
_MISSED_SWEEPS = [(3, StructureKind("vertex", 1), "structure"), (4, StructureKind("edge", 2), "substructure"),
                  (5, StructureKind("path", 4), "structure")]


@pytest.mark.parametrize("n,kind,mode", _MISSED_SWEEPS, ids=[f"Q{n}-{k.label()}-{m}" for n, k, m in _MISSED_SWEEPS])
def test_the_sweep_tests_each_family_from_a_run_start_once_and_as_many_as_its_estimate(monkeypatch, n, kind, mode):
    _, masks, reps = oracle._pool(n, kind, mode)
    tested = []

    def record(n, memo, stats, mask):
        tested.append(mask)
        return False

    monkeypatch.setattr(oracle, "_cut_test", record)
    assert oracle._level_search(n, masks, reps, [], 2, {}) is None  # no seeded candidates: the sweep alone
    # the families whose first copy is a run start, listed without the sweep's own ranges
    starts = set(reps)
    families = [masks[i] | masks[j] for i, j in combinations(range(len(masks)), 2) if i in starts]
    assert sorted(tested) == sorted(families)
    # the ceiling estimate counts exactly those families: one below it refuses the sweep
    monkeypatch.setattr(oracle, "_COMBINATION_CEILING", len(families) - 1)
    with pytest.raises(BudgetError, match=f"needs about {len(families)} family tests"):
        oracle._level_search(n, masks, reps, [], 2, {})
    if n == 5:
        return  # the group check below would map 818,560 pairs through 3,840 automorphisms
    # every pair of the pool is an automorphic image of one the sweep tested
    tables = automorphism_vertex_tables(n)

    def orbit_key(mask):
        verts = [v for v in range(1 << n) if mask >> v & 1]
        return min(sum(1 << table[v] for v in verts) for table in tables)

    assert {orbit_key(m) for m in tested} == {orbit_key(a | b) for a, b in combinations(masks, 2)}


@pytest.mark.parametrize("n,kind,levels,scored", [(5, StructureKind("cycle", 8), 1, [1]),
                                                  (4, StructureKind("edge", 2), 2, [1, 3])],
                         ids=["Q5-C8", "Q4-K1,1"])
def test_each_seeded_target_is_scored_when_a_search_first_reaches_it(monkeypatch, n, kind, levels, scored):
    # the vertex target answers Q5 C8 at s = 2, so the edge target is never scored; Q4's edge misses
    # both targets at s = 2 and answers at s = 3, and each target is scored once for both levels
    forbidden = []
    target = oracle.neighborhood_vertex_mask
    monkeypatch.setattr(oracle, "neighborhood_vertex_mask", lambda n, f: forbidden.append(f) or target(n, f))
    result = min_structure_cut(n, kind)
    assert (result.value, result.status) == (levels + 1, "exact")
    assert forbidden == scored
    pool_block.cache_clear()


def test_enumerate_copies_returns_a_fresh_list():
    first = enumerate_copies(3, StructureKind("path", 3), "substructure")
    expected = list(first)
    first.clear()
    assert enumerate_copies(3, StructureKind("path", 3), "substructure") == expected


def test_cached_block_is_made_of_tuples():
    block = pool_block(3, "path", 4)  # 48 copies on 30 vertex sets (6 faces carry 4 each) in 2 orbits
    assert isinstance(block, tuple)
    assert all(isinstance(part, tuple) for part in block)
    masks, starts = block
    assert (len(masks), len(starts), starts[0]) == (30, 2, 0)
    assert all(type(mask) is int for mask in masks)


def _no_canonical_form(*args):
    raise AssertionError("an automorphism image was put in canonical form")


def test_blocks_are_built_without_canonical_forms(monkeypatch):
    assert not hasattr(oracle, "canonical_cycle_orientation")  # so the patch below reaches every caller
    monkeypatch.setattr(embeddings, "canonical_cycle_orientation", _no_canonical_form)
    pool_block.cache_clear()
    assert [len(pool_block(n, shape, k)[0]) for n, shape, k in ((4, "path", 8), (5, "cycle", 8))] == [2_672, 6_520]
    # Q5 C8 misses at level 1, so the whole search, witness included, runs on vertex sets
    result = min_structure_cut(5, StructureKind("cycle", 8))
    assert (result.value, result.status) == (2, "exact")
    assert validate_cut(result.witness).ok
    pool_block.cache_clear()


def _identity_only(n):
    return (tuple(range(1 << n)),)


def test_a_block_missing_an_orbit_fails_its_completeness_check(monkeypatch):
    # with the identity as the only permutation, each run holds just the translates of its seed's
    # mask, so the block misses the rest of each orbit; the count comes from the seeds alone
    for n, shape, size in ((4, "path", 6), (4, "path", 4), (4, "cycle", 6), (4, "star", 3)):
        block = pool_block(n, shape, size)
        monkeypatch.setattr(oracle, "automorphism_vertex_tables", _identity_only)
        pool_block.cache_clear()
        oracle._block_size.cache_clear()
        want = oracle._block_size(n, shape, size)
        with pytest.raises(AssertionError, match=rf"{shape}\({size}\) of Q_{n} grew \d+ copies, not {want}$"):
            pool_block(n, shape, size)
        monkeypatch.undo()
        pool_block.cache_clear()
        assert pool_block(n, shape, size) == block


def test_every_seed_is_an_element_on_its_own_mask():
    # the seeds are already canonical, so level 1 builds its witness straight from the seed
    for n, shape, size in _SEEDED_BLOCKS:
        if n <= 4:
            for seed in oracle._seeds(n, shape, size):
                assert seed in oracle._elements_on(n, shape, _mask(seed)), (n, shape, size, seed)


def test_each_cli_command_starts_from_an_empty_block_cache(monkeypatch, capsys):
    seen = []
    search = cli.min_structure_cut

    def traced(*args, **kwargs):
        seen.append(pool_block.cache_info().currsize)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "min_structure_cut", traced)
    pool_block(3, "path", 3)  # left over from an earlier caller
    argv = ["oracle", "--n", "3", "--kind", "path", "--k", "3", "--mode", "substructure"]
    for _ in range(2):
        assert cli.main(argv) == 0
        info = pool_block.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 3)  # P1, P2 and P3, each built here
    capsys.readouterr()
    assert seen == [0, 0]


# (shape, k, d_max), where d_max is the most coordinates a copy crosses: k - 1 for P_k, k/2 for C_k
_PATH_COUNTS = [("path", k, k - 1) for k in range(3, 11)]
_CYCLE_COUNTS = [("cycle", k, k // 2) for k in range(4, 11, 2)]


def test_neighbor_count_maxima_meet_the_path_bound_and_undershoot_the_cycle_bound():
    assert [oracle.neighbor_count_maximum(d + 2, shape, k) for shape, k, d in _PATH_COUNTS] == [
        path_neighbor_bound(k) for _, k, _ in _PATH_COUNTS]
    assert [oracle.neighbor_count_maximum(d + 2, shape, k) for shape, k, d in _CYCLE_COUNTS] == [2, 4, 5, 6]


def _full_dimension_maximum(n, shape, k):
    """neighbor_count_maximum with every seed evaluated in all of Q_n, not in Q_(d+2)."""
    best = None
    for seed in oracle._seeds(n, shape, k):
        inside = set(seed)
        count = Counter(x ^ (1 << i) for x in seed for i in range(n))
        for u in set(count) - inside:
            for v in (u ^ (1 << i) for i in range(n)):
                if v not in inside:
                    best = max(best or 0, count[u] + (count[v] if v in count else 0))
    return best


# P9 and P10 are left out for time: their seeds in Q_(d_max+3) take about 0.4 and 1.8 s
@pytest.mark.parametrize("shape,k,d", _PATH_COUNTS[:6] + _CYCLE_COUNTS,
                         ids=[f"{s[0].upper()}{k}" for s, k, _ in _PATH_COUNTS[:6] + _CYCLE_COUNTS])
def test_neighbor_count_maximum_stops_growing_at_d_max_plus_2(shape, k, d):
    # a pair with a nonzero count leaves a seed's coordinates in at most two places
    assert oracle.neighbor_count_maximum(d + 2, shape, k) == _full_dimension_maximum(d + 3, shape, k)
