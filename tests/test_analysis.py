from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hypercut import analysis, oracle
from hypercut.analysis import (
    MALFORMED,
    NOT_A_CUT,
    VALID_CUT,
    component_masks,
    components_after_removal,
    cut_bits,
    g_extra_connectivity,
    is_disconnecting_mask,
    path_neighbor_bound,
    scan_distance2_common_neighbors,
    sweep,
    validate_cut,
    vertex_mask,
)
from hypercut.core import Cube, automorphism_vertex_tables
from hypercut.cuts import CubeStar, CutFamily, StructureKind, build_cycle_cut, build_path_cut
from hypercut.embeddings import CubeCycle, CubePath
from test_core import whole_group


def test_remove_nothing():
    comps = components_after_removal(3, set())
    assert len(comps) == 1
    assert len(comps[0]) == 8
    assert not is_disconnecting_mask(3, 0)


def test_remove_neighborhood_isolates_vertex():
    removed = Cube(3).neighbors(0)
    comps = components_after_removal(3, removed)
    assert len(comps) == 2
    assert comps[0] == frozenset({0})
    assert is_disconnecting_mask(3, vertex_mask(3, removed))


def test_remove_single_face_leaves_connected():
    # taking out one 4-cycle of Q_3 leaves the opposite face connected
    comps = components_after_removal(3, {0, 1, 3, 2})
    assert len(comps) == 1
    assert len(comps[0]) == 4
    assert not is_disconnecting_mask(3, vertex_mask(3, {0, 1, 3, 2}))


def test_trivial_complements():
    # at most one surviving vertex counts as a cut
    for removed in ({0, 1, 2}, {0, 1, 2, 3}):
        assert sum(len(c) for c in components_after_removal(2, removed)) <= 1
        assert is_disconnecting_mask(2, vertex_mask(2, removed))
    assert len(components_after_removal(2, {0})) == 1
    assert not is_disconnecting_mask(2, vertex_mask(2, {0}))


@settings(max_examples=60)
@given(st.integers(2, 7), st.data())
def test_component_sizes_sum(n, data):
    removed = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=1 << n))
    comps = components_after_removal(n, removed)
    assert sum(len(c) for c in comps) == (1 << n) - len(removed)


def _set_based_components(n, removed):
    """Plain set/stack BFS, independent of the bitmask machinery."""
    remaining = set(range(1 << n)) - set(removed)
    comps = []
    while remaining:
        stack = [min(remaining)]
        seen = {stack[0]}
        while stack:
            v = stack.pop()
            for i in range(n):
                w = v ^ (1 << i)
                if w in remaining and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(seen))
        remaining -= seen
    return sorted(comps, key=lambda c: (len(c), min(c)))


@settings(max_examples=80)
@given(st.integers(2, 7), st.data())
def test_components_match_set_based_bfs(n, data):
    removed = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=(1 << n) - 1))
    assert list(components_after_removal(n, removed)) == _set_based_components(n, removed)


def _masks_of_q4_and_below():
    """Every removal mask of Q_1..Q_3, and of Q_4 those removing at most 5 or at least 11 vertices."""
    for n in (1, 2, 3):
        for mask in range(1 << (1 << n)):
            yield n, mask
    for s in (*range(6), *range(11, 17)):
        for removed in combinations(range(16), s):
            yield 4, sum(1 << v for v in removed)


def test_kernel_matches_set_based_bfs_on_every_small_mask():
    # the far end holds the small snake-like complements that take the most passes
    checked = 0
    for n, mask in _masks_of_q4_and_below():
        removed = [v for v in range(1 << n) if mask >> v & 1]
        expected = _set_based_components(n, removed)
        assert sorted(component_masks(n, mask)) == sorted(vertex_mask(n, c) for c in expected), (n, mask)
        trivial = (1 << n) - len(removed) <= 1
        assert is_disconnecting_mask(n, mask) == (trivial or len(expected) >= 2), (n, mask)
        checked += 1
    assert checked == 4 + 16 + 256 + 13_770


def test_component_growth_follows_a_path_whose_coordinates_descend():
    # 0-8-12-14-15 steps along coordinates 3, 2, 1, 0: each pass over the
    # coordinates in order extends it by one vertex, so it takes four passes
    path = {0, 8, 12, 14, 15}
    removed = vertex_mask(4, set(range(16)) - path)
    assert not is_disconnecting_mask(4, removed)
    assert component_masks(4, removed) == [vertex_mask(4, path)]
    removed |= 1 << 12
    assert is_disconnecting_mask(4, removed)
    assert component_masks(4, removed) == [vertex_mask(4, {0, 8}), vertex_mask(4, {14, 15})]


def test_validate_constructed_family():
    assert validate_cut(build_path_cut(5, 3)).status == VALID_CUT


def test_validate_single_face_not_a_cut():
    family = CutFamily(3, StructureKind("cycle", 4), "structure", (CubeCycle(3, (0, 1, 3, 2)),))
    assert validate_cut(family).status == NOT_A_CUT


def test_validate_flags_malformed_element():
    # 7 and 4 differ in two bits, so the sequence is not a path
    bad = CubePath(3, (0, 1, 3, 7, 4))
    family = CutFamily(3, StructureKind("path", 5), "structure", (bad,))
    verdict = validate_cut(family)
    assert verdict.status == MALFORMED
    assert verdict.element_index == 0
    assert "adjacent" in verdict.reason


def test_validate_structure_mode_wants_exact_size():
    short = CubePath(4, (0, 1, 3))
    family = CutFamily(4, StructureKind("path", 5), "structure", (short,))
    assert validate_cut(family).status == MALFORMED
    family = CutFamily(4, StructureKind("path", 5), "substructure", (short,))
    assert validate_cut(family).status == NOT_A_CUT  # shape fine, just not a cut


def test_validate_substructure_cycle_accepts_paths_and_full_cycles():
    cyc = CubeCycle(4, (0, 1, 3, 2))
    path = CubePath(4, (0, 1, 3))
    fam = CutFamily(4, StructureKind("cycle", 4), "substructure", (cyc, path))
    assert validate_cut(fam).status in (VALID_CUT, NOT_A_CUT)
    # a 6-cycle element in a C_4 family is malformed in either mode
    six = CubeCycle(4, (0, 1, 3, 7, 5, 4))
    fam = CutFamily(4, StructureKind("cycle", 4), "substructure", (six,))
    assert validate_cut(fam).status == MALFORMED


def test_validate_star_contracts():
    claw = CubeStar(4, 0, (1, 2, 4))
    fam = CutFamily(4, StructureKind("star", 3), "structure", (claw,))
    assert validate_cut(fam).status == NOT_A_CUT
    fam = CutFamily(4, StructureKind("star", 2), "structure", (claw,))
    assert validate_cut(fam).status == MALFORMED  # too many leaves
    fam = CutFamily(4, StructureKind("star", 3), "substructure", (CubeStar(4, 0, (1, 2)),))
    assert validate_cut(fam).status == NOT_A_CUT


def _bfs_verdict(family):
    """The verdict of the complement BFS alone, on the union's 2^n-bit mask."""
    removed = vertex_mask(family.n, family.vertex_union())
    return VALID_CUT if is_disconnecting_mask(family.n, removed) else NOT_A_CUT


def test_validate_agrees_with_bfs_on_constructions():
    # the families that `verify` builds: paths at n = 3..11, cycles at n = 5..11, k <= 256
    families = [build_path_cut(n, k)
                for n in range(3, 12) for k in range(3, min(1 << (n - 1), 256) + 1)]
    families += [build_cycle_cut(n, k)
                 for n in range(5, 12) for k in range(6, min(1 << (n - 2), 256) + 1, 2)]
    assert len(families) == 1368
    for family in families:
        assert validate_cut(family).status == _bfs_verdict(family) == VALID_CUT, (
            family.n, family.kind)


def _vertex_family(n, verts):
    elements = tuple(CubePath(n, (v,)) for v in verts)
    return CutFamily(n, StructureKind("vertex", 1), "structure", elements)


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_validate_agrees_with_bfs_on_vertex_families(n, data):
    size = 1 << n
    drawn = data.draw(st.sets(st.integers(0, size - 1), max_size=size))
    # also draw near-complete unions, whose complement is trivial (one vertex or none)
    if data.draw(st.booleans()):
        drawn = set(range(size)) - set(list(drawn)[:1])
    family = _vertex_family(n, sorted(drawn))
    assert validate_cut(family).status == _bfs_verdict(family)


def test_validate_cuts_and_non_cuts_at_the_edges():
    assert validate_cut(_vertex_family(3, range(8))).status == VALID_CUT  # nothing left
    assert validate_cut(_vertex_family(3, range(1, 8))).status == VALID_CUT  # one vertex left
    assert validate_cut(_vertex_family(3, ())).status == NOT_A_CUT
    # without two antipodal vertices, Q_3 is a connected 6-cycle and no vertex is enclosed
    assert validate_cut(_vertex_family(3, (0, 7))).status == NOT_A_CUT
    # a removed vertex with all its neighbors removed encloses nothing: Q_3 minus
    # the ball around 000 is the connected claw around 111
    assert validate_cut(_vertex_family(3, (0, 1, 2, 4))).status == NOT_A_CUT


def test_validate_dimension_mismatch():
    fam = CutFamily(4, StructureKind("path", 3), "structure", (CubePath(3, (0, 1, 3)),))
    assert validate_cut(fam).status == MALFORMED


def test_path_neighbor_bound_values():
    assert path_neighbor_bound(3) == 2
    assert path_neighbor_bound(6) == 4
    assert path_neighbor_bound(7) == 5
    for k in range(3, 101):
        assert path_neighbor_bound(k) <= k - 1
    with pytest.raises(ValueError):
        path_neighbor_bound(2)


def test_g_extra_small_values():
    assert g_extra_connectivity(3, 0) == 3
    assert g_extra_connectivity(4, 0) == 4
    assert g_extra_connectivity(4, 1) == 6
    assert g_extra_connectivity(4, 2) == 6


def _g_extra_over_all_subsets(n, g):
    """Every removal set by size, vertex 0 or not: the search the translation argument shortens."""
    size = 1 << n
    for s in range(1, size):
        for subset in combinations(range(size), s):
            comps = component_masks(n, vertex_mask(n, subset))
            if len(comps) >= 2 and min(c.bit_count() for c in comps) >= g + 1:
                return s
    return None


def test_g_extra_matches_the_all_subsets_brute_force():
    defined = 0
    for n in range(1, 5):
        for g in range(n + 1):
            expected = _g_extra_over_all_subsets(n, g)
            if expected is None:
                with pytest.raises(ValueError, match="no removal"):
                    g_extra_connectivity(n, g)
            else:
                assert g_extra_connectivity(n, g) == expected, (n, g)
                defined += 1
    assert defined == 8  # Q2 g = 0, Q3 g = 0 and 1, Q4 g = 0..4


def _recording(first_cut, seen):
    """first_cut, recording each union it is asked about up to the first it accepts."""

    def batch(base, cands):
        hit = first_cut(base, cands)
        seen.extend(base | c for c in cands[: len(cands) if hit is None else hit + 1])
        return hit

    return batch


def _first_accepted(accepts):
    """The batch predicate of the one-union predicate accepts: the first candidate whose union it accepts."""
    return lambda base, cands: next((t for t, c in enumerate(cands) if accepts(base | c)), None)


def test_the_sweep_tries_each_family_from_a_start_once_in_order():
    masks = [1 << i for i in range(7)]  # one bit per index, so a union names its family
    starts, s = [0, 2, 5], 3
    identity = [tuple(range(8))]  # no coordinate permutation but the identity: each index is its own group
    families = [(r, a, b) for r in starts for a in range(r + 1, 7) for b in range(a + 1, 7)]
    unions = [sum(1 << i for i in family) for family in families]
    batches = []

    def nothing(base, cands):
        batches.append((base, cands))
        return None

    assert sweep(masks, starts, identity, s, nothing) is None
    # one batch per start and leader with a later index: the leader's union, then every later index
    assert batches == [((1 << r) | (1 << a), masks[a + 1:]) for r in starts for a in range(r + 1, 6)]
    assert [base | c for base, cands in batches for c in cands] == unions and len(unions) == 21
    wanted = families[17]
    seen = []
    only_wanted = _first_accepted(lambda union: union == unions[17])
    assert sweep(masks, starts, identity, s, _recording(only_wanted, seen)) == wanted
    assert seen == unions[:18]
    assert sweep(masks, starts, identity, s, _first_accepted(lambda union: union in (unions[17], unions[-1]))) == wanted


def test_the_sweep_hands_pairs_one_batch_a_start_and_singles_one_batch_of_starts():
    masks = [1 << i for i in range(7)]
    starts, identity = [0, 2, 5], [tuple(range(8))]
    batches = []

    def nothing(base, cands):
        batches.append((base, cands))
        return None

    assert sweep(masks, starts, identity, 2, nothing) is None
    assert batches == [(1 << r, masks[r + 1:]) for r in starts]
    batches.clear()
    assert sweep(masks, starts, identity, 1, nothing) is None
    assert batches == [(0, [masks[r] for r in starts])]
    assert sweep(masks, starts, identity, 2, lambda base, cands: 1 if base == 4 else None) == (2, 4)
    assert sweep(masks, starts, identity, 1, lambda base, cands: 2) == (5,)


def test_the_sweep_raises_when_an_image_under_the_stabiliser_is_missing_from_its_run():
    masks = [1 << v for v in range(16)]  # Q4's one-vertex masks: one run, whose Stab(0) groups them by weight
    tables = automorphism_vertex_tables(4)
    assert sweep(masks, [0], tables, 3, lambda base, cands: None) is None
    del masks[8]  # vertex 8, in the weight-1 group led by vertex 1
    assert sweep(masks, [0], tables, 2, lambda base, cands: None) is None  # s = 2 forms no group
    with pytest.raises(AssertionError, match=r"^mask 0x100, an image of mask 0x2 under Stab\(0\), is not in its run$"):
        sweep(masks, [0], tables, 3, lambda base, cands: None)


def _plain_is_cut(n, removed):
    """Q_n minus removed is disconnected or has at most one vertex, by a BFS over a vertex set."""
    rest = {v for v in range(1 << n) if not removed >> v & 1}
    if len(rest) <= 1:
        return True
    todo = [min(rest)]
    seen = set(todo)
    while todo:
        v = todo.pop()
        for w in (v ^ (1 << i) for i in range(n)):
            if w in rest and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen != rest


def _kernel_pools(n):
    if n == 5:
        yield from ((kind, "substructure") for kind in (StructureKind("path", 4), StructureKind("cycle", 4)))
        return
    kinds = [StructureKind("vertex", 1), StructureKind("edge", 2)] + [StructureKind("star", r) for r in range(2, n + 1)]
    kinds += [StructureKind("path", k) for k in range(3, 9)] + [StructureKind("cycle", k) for k in (4, 6, 8)]
    yield from ((kind, mode) for kind in kinds for mode in ("structure", "substructure"))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cut_bits_matches_a_plain_bfs_on_every_union_of_the_pair_sweep(n):
    """Every Q3 and Q4 pool, and Q5 P4 and C4 substructure: each run start with every later vertex set."""
    is_cut = cache(lambda union: _plain_is_cut(n, union))
    cuts = unions = 0
    for kind, mode in _kernel_pools(n):
        _, masks, reps = oracle._pool(n, kind, mode)
        for r in reps:
            cands = masks[r + 1:]
            want = sum(1 << t for t, c in enumerate(cands) if is_cut(masks[r] | c))
            assert cut_bits(n, masks[r], cands) == want, (kind, mode, r)
            cuts += want.bit_count()
            unions += len(cands)
    # both answers occur at n = 3, 4; no two Q5 P4 or C4 substructure elements cut Q5
    assert 0 < cuts < unions if n < 5 else cuts == 0 < unions
    oracle.pool_block.cache_clear()


def test_cut_bits_edge_cases():
    assert cut_bits(4, 0b1011, []) == 0
    # an empty base: nothing, one vertex, N(0), and every vertex but 0 and 15
    cands = [0, 1, 0b1_0001_0110, ((1 << 16) - 1) ^ 1 ^ (1 << 15)]
    assert cut_bits(4, 0, cands) == 0b1100 == sum(_plain_is_cut(4, c) << t for t, c in enumerate(cands))
    everything = (1 << 16) - 1
    # unions leaving exactly vertex 6, leaving nothing, and leaving the edge {6, 7}
    base = everything ^ (1 << 6) ^ (1 << 7)
    assert cut_bits(4, base, [1 << 7, 1 << 6 | 1 << 7, 0]) == 0b011
    assert cut_bits(3, 0, [0b11111111]) == 1


@pytest.fixture
def fresh_climb():
    """An empty g-extra climb cache before the test and after it, so no climb leaks in or out."""
    analysis._g_extra_climb.cache_clear()
    yield
    analysis._g_extra_climb.cache_clear()


def test_g_extra_grows_components_only_up_to_the_first_separating_removal_set(monkeypatch, fresh_climb):
    calls = []
    monkeypatch.setattr(analysis, "component_masks", lambda n, mask: calls.append(mask) or component_masks(n, mask))
    assert [g_extra_connectivity(4, g) for g in range(5)] == [4, 6, 6, 6, 6]
    assert len(calls) == 2724  # one climb for every g; a sweep of its own levels for each g took 6,900


def _g_extra_masks_by_a_plain_climb(n):
    """The removal sets that hold vertex 0, in the order a climb with no grouping tries them.

    Level by level, each set in lexicographic order, up to the first that
    separates for the least g without an answer; its least component
    answers every g below its size, and the level starts over for the next g.
    """
    seen, g, s = [], 0, 1
    while g <= n and s < 1 << n:
        for rest in combinations(range(1, 1 << n), s - 1):
            mask = 1 | sum(1 << v for v in rest)
            seen.append(mask)
            comps = component_masks(n, mask)
            if len(comps) >= 2 and min(c.bit_count() for c in comps) > g:
                g = min(c.bit_count() for c in comps)
                break
        else:
            s += 1
    return seen


@pytest.mark.parametrize("n", [3, 4])
def test_g_extra_tries_the_removal_sets_of_its_earlier_loop_in_order(monkeypatch, fresh_climb, n):
    """With the identity as the only coordinate permutation, Stab(0) is trivial and each sweep is the earlier loop."""
    identity = tuple(range(1 << n))
    monkeypatch.setattr(analysis, "automorphism_vertex_tables", lambda m: [identity] if m == n else None)
    seen = []

    def recording_sweep(masks, starts, tables, s, first_cut):
        assert tables == [identity]
        return sweep(masks, starts, tables, s, _recording(first_cut, seen))

    monkeypatch.setattr(analysis, "sweep", recording_sweep)
    for g in range(n + 1):
        try:
            g_extra_connectivity(n, g)
        except ValueError:
            pass  # Q3 has no removal for g = 2 or 3: the climb tries every set for g = 2
    assert seen == _g_extra_masks_by_a_plain_climb(n), n


@cache
def _orbit_key(n, mask):
    """The least image of a vertex set under the whole group of Q_n, read from the test-local group."""
    verts = [v for v in range(1 << n) if mask >> v & 1]
    return min(sum(1 << table[v] for v in verts) for table in whole_group(n))


@pytest.mark.parametrize("n", [3, 4])
def test_g_extra_tests_an_image_of_every_removal_set_holding_vertex_0_below_its_answer(monkeypatch, fresh_climb, n):
    sweeps = []  # the unions each sweep of the climb tested

    def recording_sweep(masks, starts, tables, s, first_cut):
        sweeps.append([])
        return sweep(masks, starts, tables, s, _recording(first_cut, sweeps[-1]))

    monkeypatch.setattr(analysis, "sweep", recording_sweep)
    answers = []
    for g in range(n + 1):
        try:
            answers.append(g_extra_connectivity(n, g))
        except ValueError:
            answers.append(1 << n)  # Q3 has no removal for g = 2 or 3: every size is swept to its end
    for tested in sweeps:
        assert all(mask & 1 for mask in tested) and len(tested) == len(set(tested))
    keys = {_orbit_key(n, mask) for tested in sweeps for mask in tested}
    for g, answer in enumerate(answers):
        for s in range(1, answer):
            for rest in combinations(range(1, 1 << n), s - 1):
                assert _orbit_key(n, 1 | sum(1 << v for v in rest)) in keys, (n, g, rest)


def test_g_extra_rejections():
    with pytest.raises(ValueError):
        g_extra_connectivity(5, 1)
    with pytest.raises(ValueError):
        g_extra_connectivity(4, 5)


def _distance2_pairs_without_two_common_neighbors(n):
    """The exhaustive count the one-pair argument replaces: every pair v < u at distance 2."""
    cube = Cube(n)
    violations = 0
    for v in cube.vertices():
        for i in range(n):
            for j in range(i + 1, n):
                u = v ^ (1 << i) ^ (1 << j)
                if v < u and len(cube.common_neighbors(v, u)) != 2:
                    violations += 1
    return violations


def test_scan_distance2_common_neighbors():
    for n in range(2, 9):
        assert scan_distance2_common_neighbors(n) == _distance2_pairs_without_two_common_neighbors(n) == 0
    assert scan_distance2_common_neighbors(1) == 0


def test_scan_distance2_common_neighbors_counts_every_pair_when_one_fails(monkeypatch):
    common_neighbors = Cube.common_neighbors
    monkeypatch.setattr(Cube, "common_neighbors", lambda cube, u, v: common_neighbors(cube, u, v) | {u})
    for n in range(2, 9):
        assert scan_distance2_common_neighbors(n) == _distance2_pairs_without_two_common_neighbors(n) > 0
