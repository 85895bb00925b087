import random
from functools import cache
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from hypercut.core import Cube, adjacent, automorphism_vertex_tables, vertex_from_string, vertex_to_string
from hypercut.embeddings import odd_path_between_adjacent


def test_neighbor_flips_single_bit():
    cube = Cube(3)
    assert cube.neighbors(0)[0] == 1
    assert vertex_to_string(cube.neighbors(0)[0], 3) == "100"
    # "110" has x^0 = x^1 = 1, so the label is 3; flipping bit 2 gives "111"
    assert cube.neighbors(3)[2] == 7
    assert vertex_to_string(7, 3) == "111"


def test_neighbor_index_out_of_range():
    cube = Cube(3)
    with pytest.raises(ValueError):
        cube.neighbors(8)
    with pytest.raises(ValueError):
        cube.neighbors(-1)


@given(st.integers(1, 12), st.data())
def test_neighbor_is_involutive(n, data):
    cube = Cube(n)
    v = data.draw(st.integers(0, (1 << n) - 1))
    i = data.draw(st.integers(0, n - 1))
    assert cube.neighbors(cube.neighbors(v)[i])[i] == v


def _string_distance(u, v, n):
    """Hamming distance of the rendered coordinate strings, independent of label XOR."""
    return sum(a != b for a, b in zip(vertex_to_string(u, n), vertex_to_string(v, n)))


def test_adjacency_iff_distance_one_exhaustive_q3():
    cube = Cube(3)
    for u in cube.vertices():
        for v in cube.vertices():
            assert adjacent(u, v) == (_string_distance(u, v, 3) == 1)
            assert (v in cube.neighbors(u)) == adjacent(u, v)


def test_degree_and_edge_count():
    for n in range(1, 7):
        cube = Cube(n)
        assert all(len(cube.neighbors(v)) == n for v in cube.vertices())
        assert sum(1 for _ in cube.edges()) == n * (1 << (n - 1))


def test_common_neighbors_distance_two():
    # u = 00..0 and v = 11 0..0 share exactly 10..0 and 01..0
    for n in range(2, 7):
        cube = Cube(n)
        assert cube.common_neighbors(0, 3) == {1, 2}


def test_common_neighbors_self_and_odd_distance():
    cube = Cube(4)
    assert cube.common_neighbors(5, 5) == set(cube.neighbors(5))
    assert cube.common_neighbors(0, 0b1111) == set()
    assert cube.common_neighbors(0, 1) == set()


def test_common_neighbors_exhaustive_small():
    for n in range(2, 7):
        cube = Cube(n)
        for v in cube.vertices():
            for u in cube.vertices():
                if _string_distance(u, v, n) == 2:
                    assert len(cube.common_neighbors(u, v)) == 2


def _permuted(n, perm, mask):
    """The automorphism sending bit i of a label to bit perm[i], then XOR mask, as a function, bit by bit."""
    return lambda w: sum(1 << perm[i] for i in range(n) if w >> i & 1) ^ mask


@cache
def whole_group(n):
    """Vertex maps of all n! * 2^n automorphisms of Q_n: each coordinate permutation, then each XOR mask.

    The reference for the orbit checks: built from itertools.permutations and
    XOR alone, it shares no code with the oracle's tables.
    """
    labels = range(1 << n)
    bases = [[*map(_permuted(n, perm, 0), labels)] for perm in permutations(range(n))]
    return tuple(tuple(w ^ mask for w in base) for base in bases for mask in labels)


def edge_image(n, u, v):
    """The vertex map carrying the edge (0, e_0) onto the edge (u, v): swap bit 0 with bit j, u ^ v = e_j, then XOR u.

    The reference for the carried walks: it shares no code with the builders' walk carrying.
    """
    j = (u ^ v).bit_length() - 1
    perm = list(range(n))
    perm[0], perm[j] = j, 0
    return _permuted(n, perm, u)


def test_automorphism_preserves_adjacency_random():
    rng = random.Random(7)
    n = 5
    tables = automorphism_vertex_tables(n)
    for _ in range(200):
        table = rng.choice(tables)
        for _ in range(50):
            v = rng.randrange(1 << n)
            i = rng.randrange(n)
            assert adjacent(table[v], table[v ^ (1 << i)])


def test_sampled_automorphisms_map_every_edge_to_an_edge():
    rng = random.Random(13)
    for n in range(2, 6):
        cube = Cube(n)
        for table in rng.choices(automorphism_vertex_tables(n), k=10):
            assert sorted(table) == list(range(1 << n))  # bijective
            for u, v in cube.edges():
                assert adjacent(table[u], table[v])


def test_vertex_tables_are_the_coordinate_permutations_in_permutations_order():
    # the oracle and the g-extra climb read Stab(0) in this order, so the order is part of the contract
    for n in range(1, 6):
        tables = automorphism_vertex_tables(n)
        labels = range(1 << n)
        assert tables == tuple(tuple(map(_permuted(n, perm, 0), labels)) for perm in permutations(range(n)))
        assert tables[0] == tuple(labels)
        for table in tables:
            assert table[0] == 0
            assert sorted(table) == list(labels)
            assert all(adjacent(table[u], table[v]) for u, v in Cube(n).edges())


def test_vertex_tables_refuse_the_full_group_past_dimension_5():
    with pytest.raises(ValueError, match="limited to n <= 5"):
        automorphism_vertex_tables(6)


def test_odd_path_is_the_even_cycle_walked_the_long_way_and_mapped_vertex_by_vertex():
    # the reference folds Gray codewords into the whole cycle, walks it from 0 the long way round
    # to 1, and maps each vertex through edge_image; the builder carries the fold's steps instead
    for n in range(2, 5):
        for edge in Cube(n).edges():
            for u, v in (edge, edge[::-1]):
                image = edge_image(n, u, v)
                assert odd_path_between_adjacent(n, u, v, 1).verts == (u, v)
                for q in range(3, 1 << n, 2):
                    half = [m ^ (m >> 1) for m in range((q + 1) // 2)]  # the first Gray codewords of Q_(n-1)
                    cycle = half + [g | (1 << (n - 1)) for g in reversed(half)]
                    long_way = cycle[:1] + cycle[:0:-1]
                    assert odd_path_between_adjacent(n, u, v, q).verts == tuple(map(image, long_way))


def test_whole_group_n3_has_48_distinct_maps():
    tables = whole_group(3)
    assert len(tables) == 48  # 3! * 2^3
    assert len(set(tables)) == 48


def test_vertex_string_roundtrip():
    assert vertex_to_string(1, 3) == "100"
    assert vertex_from_string("100") == 1
    for n in range(1, 9):
        for v in range(1 << n):
            assert vertex_from_string(vertex_to_string(v, n)) == v


def test_vertex_string_matches_the_per_bit_rendering():
    # labels at and past 2^n keep their low n bits, as the per-bit formula did
    for n in range(9):
        for v in range(1 << (n + 2)):
            assert vertex_to_string(v, n) == "".join("1" if (v >> i) & 1 else "0" for i in range(n)), (v, n)


def test_vertex_string_rejects_garbage():
    with pytest.raises(ValueError):
        vertex_from_string("10x")
    with pytest.raises(ValueError):
        vertex_from_string("")
    with pytest.raises(ValueError):
        Cube(3).from_string("10")


def test_cube_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Cube(0)
