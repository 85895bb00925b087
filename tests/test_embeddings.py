import random
from dataclasses import replace
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from hypercut.cuts import _extended_path, build_cycle_cut
from hypercut.embeddings import (
    CubeCycle,
    CubePath,
    CubeStar,
    _carry,
    _fold_steps,
    _gray_steps,
    canonical_cycle_orientation,
    hamiltonian_through_edge,
    odd_path_between_adjacent,
    restrict_to_subcube,
)
from test_core import edge_image


def _gray(n):
    """The reflected Gray code of Q_n, read off m ^ (m >> 1)."""
    return [m ^ (m >> 1) for m in range(1 << n)]


def test_gray_hamiltonian_base_case():
    assert hamiltonian_through_edge(2, (0, 1)).verts == (0, 1, 3, 2)  # 00, 10, 11, 01


def test_gray_hamiltonian_invariants():
    for n in (2, 3, 10):
        cycle = hamiltonian_through_edge(n, (0, 1))  # the Gray cycle itself: no swap, no translation
        assert cycle.violation() is None
        assert cycle.verts == tuple(_gray(n))
        assert len(set(cycle.verts)) == 1 << n


def test_gray_successive_xor_is_power_of_two():
    for n in range(2, 11):
        seq = list(hamiltonian_through_edge(n, (0, 1)).verts)
        for a, b in zip(seq, seq[1:] + seq[:1]):
            step = a ^ b
            assert step and step & (step - 1) == 0


def test_gray_steps_are_the_coordinates_the_gray_sequence_crosses():
    for n in range(9):
        seq = _gray(n)
        crossed = [(a ^ b).bit_length() - 1 for a, b in zip(seq, seq[1:])]
        assert _gray_steps(1 << n) == crossed
        for count in range(1, (1 << n) + 1):
            assert _gray_steps(count) == crossed[:count - 1]


def test_gray_rejects_small_dimension():
    with pytest.raises(ValueError):
        hamiltonian_through_edge(1, (0, 1))


def test_gray_walk_from_edge_is_the_mapped_gray_cycle():
    # the Gray cycle carried onto an edge by the test-local edge_image, vertex by vertex
    def mapped(n, edge):
        return list(map(edge_image(n, *edge), _gray(n)))

    # every edge, both directions, at n <= 5
    for n in range(2, 6):
        for a in range(1 << n):
            for i in range(n):
                edge = (a, a ^ (1 << i))
                full = canonical_cycle_orientation(tuple(mapped(n, edge)))
                assert hamiltonian_through_edge(n, edge).verts == full
    # the long path's extension leaves the spine's last edge along the mapped prefix, for every extended k
    for n in range(3, 9):
        walk = mapped(n, (3 << (n - 2), 1 << (n - 1)))
        for k in range(2 * n - 1, (1 << (n - 1)) + 1):
            if k % 2 or k >= 2 * n:
                assert _extended_path(n, k).verts[2 * n - 1:] == tuple(walk[2:k - 2 * n + 3]), (n, k)


def test_gray_walk_from_edge_is_a_hamiltonian_walk_starting_on_the_edge():
    # read off the cycle itself: no automorphism, no Gray code
    for n in range(2, 8):
        for edge in ((0, 1), (1 << (n - 1), 0), ((1 << n) - 1, (1 << n) - 2)):
            cycle = hamiltonian_through_edge(n, edge)
            assert _has_edge(cycle, *edge)
            assert sorted(cycle.verts) == list(range(1 << n))
            for a, b in zip(cycle.verts, cycle.verts[1:] + cycle.verts[:1]):
                assert bin(a ^ b).count("1") == 1


def test_gray_walk_from_edge_rejections():
    # the Gray cycle is carried only onto an edge whose endpoints are labels of Q_n
    with pytest.raises(ValueError, match="out of range"):
        hamiltonian_through_edge(3, (8, 9))
    with pytest.raises(ValueError, match="out of range"):
        hamiltonian_through_edge(3, (-1, 0))


def _has_edge(cycle, a, b):
    """True iff {a, b} is one of the cycle's edges, the closing one included."""
    verts = cycle.verts
    return any({verts[i - 1], verts[i]} == {a, b} for i in range(len(verts)))


def test_hamiltonian_through_edge_q2():
    # "00" -> 0 and "01" -> 2: the unique 4-cycle contains every edge
    cycle = hamiltonian_through_edge(2, (0, 2))
    assert cycle.violation() is None
    assert _has_edge(cycle, 0, 2)


def test_hamiltonian_through_edge_q4():
    cycle = hamiltonian_through_edge(4, (0, 1))
    assert cycle.violation() is None
    assert len(cycle.verts) == 16
    assert _has_edge(cycle, 0, 1)


def test_hamiltonian_through_random_edges_q6():
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(64)
        b = a ^ (1 << rng.randrange(6))
        cycle = hamiltonian_through_edge(6, (a, b))
        assert cycle.violation() is None
        assert _has_edge(cycle, a, b)


def test_hamiltonian_through_edge_rejects_non_edge():
    with pytest.raises(ValueError):
        hamiltonian_through_edge(3, (0, 3))


def test_fold_steps_trace_an_even_cycle_of_every_admissible_length():
    # from 0, the fold's steps visit l distinct vertices and the last one returns to 0
    for n in range(2, 9):
        for l in range(4, (1 << n) + 1, 2):
            walk = _carry(0, range(n), _fold_steps(n, l))
            assert walk[-1] == 0
            cycle = CubeCycle(n, tuple(walk[:-1]))
            assert cycle.violation() is None
            assert len(cycle.verts) == l


def test_odd_path_length_one():
    assert odd_path_between_adjacent(2, 0, 1, 1).verts == (0, 1)


def test_odd_path_q2_length_three():
    # the 4-cycle of Q_2 minus the edge 00-10
    assert odd_path_between_adjacent(2, 0, 1, 3).verts == (0, 2, 3, 1)


def test_odd_path_q4_length_seven():
    path = odd_path_between_adjacent(4, 0, 1, 7)
    assert path.violation() is None
    assert len(path.verts) == 8
    assert path.verts[0] == 0
    assert path.verts[-1] == 1


def test_odd_path_every_admissible_length():
    for n in range(2, 6):
        for q in range(1, 1 << n, 2):
            path = odd_path_between_adjacent(n, 0, 1 << (n - 1), q)
            assert path.violation() is None
            assert len(path.verts) == q + 1
            assert path.verts[0] == 0 and path.verts[-1] == 1 << (n - 1)


def test_odd_path_rejections():
    with pytest.raises(ValueError):
        odd_path_between_adjacent(3, 0, 3, 3)  # not adjacent
    with pytest.raises(ValueError):
        odd_path_between_adjacent(3, 0, 1, 4)  # even length
    with pytest.raises(ValueError):
        odd_path_between_adjacent(3, 0, 1, 9)  # too long


def test_restrict_path_into_q5():
    inner = CubePath(3, (0, 1, 3, 7))
    lifted = restrict_to_subcube({3: 0, 4: 1}, inner)
    assert isinstance(lifted, CubePath)
    assert lifted.n == 5
    assert lifted.violation() is None
    for v in lifted.verts:
        assert (v >> 3) & 1 == 0
        assert (v >> 4) & 1 == 1


def test_restrict_q2_cycle_into_q4():
    inner = CubeCycle(2, (0, 1, 3, 2))
    lifted = restrict_to_subcube({2: 0, 3: 1}, inner)
    assert isinstance(lifted, CubeCycle)
    assert lifted.verts == (8, 9, 11, 10)


def test_restrict_rejects_bad_coords():
    inner = CubePath(2, (0, 1))
    with pytest.raises(ValueError):
        restrict_to_subcube({5: 0}, inner)
    with pytest.raises(ValueError):
        restrict_to_subcube({2: 2}, inner)


def test_restrict_rejects_a_low_coordinate():
    # only the top coordinates may be fixed: the lift keeps inner's bits in place
    inner = CubePath(2, (0, 1))
    for fixed in ({0: 1, 3: 0}, {1: 0, 2: 1}, {0: 0}):
        with pytest.raises(ValueError, match="top coordinates"):
            restrict_to_subcube(fixed, inner)


def _bitmask_random_path(n, k, rng):
    """A self-avoiding walk on k vertices from a uniform start, retrying dead ends."""
    while True:
        verts = [rng.randrange(1 << n)]
        used = 1 << verts[0]
        while len(verts) < k:
            options = [w for w in (verts[-1] ^ (1 << i) for i in range(n)) if not used & (1 << w)]
            if not options:
                break
            verts.append(rng.choice(options))
            used |= 1 << verts[-1]
        if len(verts) == k:
            return tuple(verts)


@settings(max_examples=50)
@given(st.integers(2, 5), st.data())
def test_restrict_preserves_invariants(inner_n, data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    k = data.draw(st.integers(2, 1 << inner_n))
    inner = CubePath(inner_n, _bitmask_random_path(inner_n, k, rng))
    fixed_count = data.draw(st.integers(1, 3))
    fixed = {c: data.draw(st.integers(0, 1)) for c in range(inner_n, inner_n + fixed_count)}
    lifted = restrict_to_subcube(fixed, inner)
    assert lifted.violation() is None
    assert len(lifted.verts) == len(inner.verts)


def _lift_bit_by_bit(fixed, inner_n, v):
    """Place v's bits, lowest first, on the ambient coordinates not in fixed."""
    w, j = 0, 0
    for coord in range(inner_n + len(fixed)):
        if coord in fixed:
            bit = fixed[coord]
        else:
            bit, j = (v >> j) & 1, j + 1
        w |= bit << coord
    return w


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_restrict_matches_bit_by_bit_lift(inner_n, fixed_count, data):
    # the fixed coordinates are the top ones: the free ones are 0 .. inner_n - 1
    fixed = {c: data.draw(st.integers(0, 1)) for c in range(inner_n, inner_n + fixed_count)}
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    inner = CubePath(inner_n, _bitmask_random_path(inner_n, data.draw(st.integers(1, 1 << inner_n)), rng))
    lifted = restrict_to_subcube(fixed, inner)
    assert lifted.verts == tuple(_lift_bit_by_bit(fixed, inner_n, v) for v in inner.verts)


def test_all_cycles_have_even_length():
    # bipartiteness: no constructor can produce an odd cycle
    assert CubeCycle(3, (0, 1, 3)).violation() is not None
    for n in range(2, 6):
        assert len(hamiltonian_through_edge(n, (0, 1)).verts) % 2 == 0
    for n in range(5, 9):
        for k in range(6, min(1 << (n - 2), 64) + 1, 2):
            assert all(len(el.verts) % 2 == 0 for el in build_cycle_cut(n, k).elements)


def test_cycle_canonical_orientation():
    for n in range(2, 6):
        for a in range(1 << n):
            for i in range(n):
                verts = hamiltonian_through_edge(n, (a, a ^ (1 << i))).verts
                assert verts[0] == min(verts)
                assert verts[1] < verts[-1]


def test_path_violations_reported():
    assert CubePath(3, ()).violation() is not None
    assert CubePath(3, (0, 3)).violation() is not None
    assert CubePath(3, (0, 1, 0)).violation() is not None
    assert CubePath(2, (0, 4)).violation() is not None
    assert CubePath(3, (0, 1, 3)).violation() is None
    # a failed adjacency pass names the first bad pair, closing and star pairs included
    assert CubePath(3, (0, 1, 7, 6, 5)).violation() == "vertices 1 and 7 are not adjacent"
    assert CubeCycle(3, (0, 1, 3, 7)).violation() == "vertices 7 and 0 are not adjacent"
    assert CubeStar(3, 0, (1, 2, 3)).violation() == "vertices 0 and 3 are not adjacent"
    # the answer is kept per object; it changes neither equality nor hash
    for el in (CubePath(3, (0, 1, 7, 6, 5)), CubeCycle(3, (0, 1, 3, 2)), CubeStar(3, 0, (1, 2, 4))):
        twin, digest = replace(el), hash(el)
        first = el.violation()
        assert el.violation() == first == twin.violation()
        assert el == twin and hash(el) == hash(twin) == digest


def _valid(n, verts, pairs):
    """The rule pair by pair, sharing nothing with _violation: labels in range, distinct, each pair one bit apart."""
    return (all(0 <= v < 1 << n for v in verts) and len(set(verts)) == len(verts)
            and all(bin(a ^ b).count("1") == 1 for a, b in pairs))


def test_violation_matches_the_pairwise_rule_on_every_small_element_of_q3():
    labels = range(-1, 9)  # Q3's labels and one out of range at each end
    valid = {"path": 0, "cycle": 0, "star": 0}
    for length in range(1, 5):
        for verts in product(labels, repeat=length):
            ok = _valid(3, verts, zip(verts, verts[1:]))
            assert (CubePath(3, verts).violation() is None) == ok, verts
            valid["path"] += ok
    for verts in product(labels, repeat=4):
        ok = _valid(3, verts, zip(verts, verts[1:] + verts[:1]))
        assert (CubeCycle(3, verts).violation() is None) == ok, verts
        valid["cycle"] += ok
    for center in labels:
        for leaves in (c for r in range(2, 5) for c in combinations_with_replacement(labels, r)):
            ok = _valid(3, (center, *leaves), ((center, leaf) for leaf in leaves))
            assert (CubeStar(3, center, leaves).violation() is None) == ok, (center, leaves)
            valid["star"] += ok
    # 8 one-vertex paths, 24 + 48 + 96 longer ones; 6 squares from 4 starts each way; 8 centres, 4 leaf sets each
    assert valid == {"path": 176, "cycle": 48, "star": 32}
