import random

import pytest
from hypothesis import given, strategies as st

from hypercut.core import (
    Automorphism,
    Cube,
    adjacent,
    automorphism_vertex_tables,
    edge_mapping_automorphism,
    vertex_from_string,
    vertex_to_string,
)
from hypercut.embeddings import embed_even_cycle, gray_sequence, odd_path_between_adjacent


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


def test_identity_automorphism():
    ident = Automorphism(4, tuple(range(4)), 0)
    assert all(ident.apply(v) == v for v in range(16))


def test_pure_mask_automorphism():
    sigma = Automorphism(3, (0, 1, 2), 0b111)
    assert sigma.apply(0) == 7


def test_automorphism_preserves_adjacency_random():
    rng = random.Random(7)
    n = 6
    for _ in range(200):
        perm = list(range(n))
        rng.shuffle(perm)
        sigma = Automorphism(n, tuple(perm), rng.randrange(1 << n))
        for _ in range(50):
            v = rng.randrange(1 << n)
            i = rng.randrange(n)
            assert adjacent(sigma.apply(v), sigma.apply(v ^ (1 << i)))


def test_sampled_automorphisms_map_every_edge_to_an_edge():
    rng = random.Random(13)
    for n in range(2, 7):
        cube = Cube(n)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            sigma = Automorphism(n, tuple(perm), rng.randrange(1 << n))
            table = sigma.vertex_table()
            assert sorted(table) == list(range(1 << n))  # bijective
            for u, v in cube.edges():
                assert adjacent(table[u], table[v])


def test_odd_path_is_the_even_cycle_walked_the_long_way_and_mapped_vertex_by_vertex():
    # the reference folds Gray codewords into the whole cycle, walks it from 0 the long way round
    # to 1, and maps each vertex through apply; the builder carries the fold's steps instead
    for n in range(2, 5):
        for edge in Cube(n).edges():
            for u, v in (edge, edge[::-1]):
                sigma = edge_mapping_automorphism(n, (0, 1), (u, v))
                assert odd_path_between_adjacent(n, u, v, 1).verts == (u, v)
                for q in range(3, 1 << n, 2):
                    half = gray_sequence(n - 1)[: (q + 1) // 2]
                    cycle = half + [g | (1 << (n - 1)) for g in reversed(half)]
                    assert embed_even_cycle(n, q + 1).verts == tuple(cycle)
                    long_way = cycle[:1] + cycle[:0:-1]
                    assert odd_path_between_adjacent(n, u, v, q).verts == tuple(sigma.apply(w) for w in long_way)


def test_automorphism_group_size_n3():
    tables = automorphism_vertex_tables(3)
    assert len(tables) == 48  # 3! * 2^3
    assert len(set(tables)) == 48


def test_automorphism_rejects_bad_perm():
    with pytest.raises(ValueError):
        Automorphism(3, (0, 0, 1), 0)
    with pytest.raises(ValueError):
        Automorphism(3, (0, 1, 2), 8)


def test_edge_mapping_same_edge_is_identity_on_endpoints():
    sigma = edge_mapping_automorphism(4, (3, 7), (3, 7))
    assert sigma.apply(3) == 3
    assert sigma.apply(7) == 7


def test_edge_mapping_q3_example():
    # (000, 100) -> (111, 110): endpoints map and adjacency survives
    sigma = edge_mapping_automorphism(3, (0, 1), (7, 6))
    assert sigma.apply(0) == 7
    assert sigma.apply(1) == 6
    for v in range(8):
        for i in range(3):
            assert adjacent(sigma.apply(v), sigma.apply(v ^ (1 << i)))


def test_edge_mapping_composed_with_gray_cycle():
    # mapping the Gray cycle by an edge automorphism lands the target edge on the image cycle
    rng = random.Random(11)
    n = 5
    base = gray_sequence(n)
    for _ in range(25):
        a = rng.randrange(1 << n)
        b = a ^ (1 << rng.randrange(n))
        sigma = edge_mapping_automorphism(n, (0, 1), (a, b))
        image = [sigma.apply(v) for v in base]
        pos = image.index(a)
        k = len(image)
        assert b in (image[(pos + 1) % k], image[(pos - 1) % k])


def test_edge_mapping_rejects_non_edges():
    with pytest.raises(ValueError):
        edge_mapping_automorphism(3, (0, 3), (0, 1))
    with pytest.raises(ValueError):
        edge_mapping_automorphism(3, (0, 1), (2, 7))


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
