import tracemalloc
from fractions import Fraction

import pytest

from hypercut.analysis import validate_cut
from hypercut.core import Cube, edge_mapping_automorphism
from hypercut.cuts import (
    CubeStar,
    CutFamily,
    StructureKind,
    _extended_path,
    at_most_power_of_two,
    build_cycle_cut,
    build_path_cut,
    check_cycle_cut,
    check_path_cut,
)
from hypercut.embeddings import (
    canonical_cycle_orientation,
    gray_sequence,
    hamiltonian_through_edge,
)
from hypercut.formulas import kappa_cycle, kappa_path


def test_structure_kind_validation():
    assert StructureKind("path", 1).size == 1
    assert StructureKind("cycle", 6).label() == "C6"
    assert StructureKind("star", 3).label() == "K1,3"
    assert StructureKind("vertex", 1).label() == "K1"
    assert StructureKind("edge", 2).label() == "K1,1"
    with pytest.raises(ValueError):
        StructureKind("cycle", 5)
    with pytest.raises(ValueError):
        StructureKind("cycle", 2)
    with pytest.raises(ValueError):
        StructureKind("star", 1)
    with pytest.raises(ValueError):
        StructureKind("path", 0)
    with pytest.raises(ValueError):
        StructureKind("blob", 3)


def test_cube_star_validation():
    assert CubeStar(3, 0, (1, 2)).violation() is None
    assert CubeStar(3, 0, (2, 1)).violation() is not None  # unsorted
    assert CubeStar(3, 0, (1,)).violation() is not None
    assert CubeStar(3, 0, (1, 3)).violation() is not None  # 3 not adjacent to 0
    assert CubeStar(3, 0, (0, 1)).violation() is not None


def test_path_cut_fig4_family():
    family = build_path_cut(5, 3)
    assert [el.verts for el in family.elements] == [(1, 3, 2), (4, 12, 8), (8, 24, 16)]
    assert validate_cut(family).ok


def test_path_cut_single_long_path():
    family = build_path_cut(4, 7)
    assert len(family) == 1
    assert family.elements[0].verts == (1, 3, 2, 6, 4, 12, 8)
    assert validate_cut(family).ok


def test_path_cut_even_windows():
    family = build_path_cut(3, 4)
    assert len(family) == 2
    assert [el.verts for el in family.elements] == [(1, 3, 2, 6), (2, 6, 4, 5)]
    assert validate_cut(family).ok


def test_path_cut_extended_even():
    # k = 2n extends the spine by one Hamiltonian-cycle vertex inside x^3 = 1
    family = build_path_cut(4, 8)
    (path,) = family.elements
    assert path.verts[:7] == (1, 3, 2, 6, 4, 12, 8)
    assert len(path.verts) == 8
    assert (path.verts[7] >> 3) & 1 == 1
    assert validate_cut(family).ok


def test_extended_path_matches_the_full_cycle_construction():
    # the construction before Gray-index walking: build the whole Hamiltonian
    # cycle of x^{n-1} = 1 through the spine's last edge, rotate it onto that
    # edge, and keep the k - (2n - 1) vertices after it
    for n in range(4, 11):
        edge = (1 << (n - 2), 0)
        sigma = edge_mapping_automorphism(n - 1, (0, 1), edge)
        full = canonical_cycle_orientation(tuple(sigma.apply(g) for g in gray_sequence(n - 1)))
        assert hamiltonian_through_edge(n - 1, edge).verts == full
        top = 1 << (n - 1)
        lifted = tuple(v | top for v in full)
        # rotate the lifted cycle to start with the edge (e_{n-2} | e_{n-1}, e_{n-1})
        pos = lifted.index((1 << (n - 2)) | top)
        rotated = lifted[pos:] + lifted[:pos]
        if rotated[1] != top:
            rotated = rotated[:1] + rotated[:0:-1]
        assert rotated[1] == top
        spine = []
        for j in range(n):
            spine += [1 << j, (1 << j) | (2 << j)] if j < n - 1 else [1 << j]
        for k in range(2 * n - 1, (1 << (n - 1)) + 1):
            expected = tuple(spine) + rotated[2 : 2 + k - (2 * n - 1)]
            assert _extended_path(n, k).verts == expected


def test_path_cut_cardinality_and_shape():
    for n in range(3, 9):
        nbrs = set(Cube(n).neighbors(0))
        for k in range(3, min(1 << (n - 1), 64) + 1):
            family = build_path_cut(n, k)
            assert len(family) == kappa_path(n, k).value, (n, k)
            for el in family.elements:
                assert el.violation() is None
                assert el.size == k
            union = family.vertex_union()
            assert nbrs <= union and 0 not in union, (n, k)
            assert validate_cut(family).ok, (n, k)


def test_path_cut_isolates_zero():
    for n in range(3, 9):
        nbrs = set(Cube(n).neighbors(0))
        for k in (3, 4, 2 * n - 1, 2 * n):
            if k > 1 << (n - 1):
                continue
            family = build_path_cut(n, k)
            assert nbrs <= family.vertex_union()
            assert 0 not in family.vertex_union()


def test_path_cut_rejections():
    with pytest.raises(ValueError):
        build_path_cut(2, 3)
    with pytest.raises(ValueError):
        build_path_cut(3, 2)
    with pytest.raises(ValueError):
        build_path_cut(3, 5)  # above 2^(n-1)


def test_cycle_cut_two_window_family():
    family = build_cycle_cut(6, 6)
    assert [el.verts for el in family.elements] == [
        (1, 3, 2, 6, 4, 5),
        (8, 24, 16, 48, 32, 40),
    ]
    assert validate_cut(family).ok


def test_cycle_cut_shifted_window_family():
    family = build_cycle_cut(5, 6)
    assert [el.verts for el in family.elements] == [
        (1, 3, 2, 6, 4, 5),
        (4, 12, 8, 24, 16, 20),
    ]
    assert validate_cut(family).ok


def test_cycle_cut_long_cycle_case():
    family = build_cycle_cut(6, 16)
    assert len(family) == 1  # ceil(12/16)
    (cycle,) = family.elements
    assert len(cycle.verts) == 16
    assert cycle.violation() is None
    # the closing path stays inside the subcube x^4 = 0, x^5 = 1
    for v in cycle.verts[2 * 6 - 1 :]:
        assert (v >> 4) & 1 == 0
        assert (v >> 5) & 1 == 1
    assert validate_cut(family).ok


def test_long_element_builders_check_what_they_build(monkeypatch):
    # each long element is checked once, by its builder: one wrong step must raise there
    from hypercut import cuts

    gray, steps = cuts._gray_steps, cuts._fold_steps

    def steps_with_one_wrong(m, l):
        out = steps(m, l)
        out[len(out) // 2] = (out[len(out) // 2] + 1) % m
        return out

    monkeypatch.setattr(cuts, "_fold_steps", steps_with_one_wrong)
    for n in (6, 9):
        def steps_leaving_the_subcube(count, n=n):
            # the second step crosses x^{n-1} from e_{n-1} to 0, so the next one lands on the spine's e_{n-2}
            out = gray(count)
            out[1] = n - 1
            return out

        monkeypatch.setattr(cuts, "_gray_steps", steps_leaving_the_subcube)
        with pytest.raises(AssertionError, match="violates its invariants"):
            build_path_cut(n, 2 * n + 3)
        with pytest.raises(AssertionError, match="violates its invariants"):
            build_cycle_cut(n, 1 << (n - 2))


def test_cycle_cut_cardinality_and_shape():
    for n in range(5, 10):
        nbrs = set(Cube(n).neighbors(0))
        for k in range(6, min(1 << (n - 2), 64) + 1, 2):
            family = build_cycle_cut(n, k)
            assert len(family) == -(-2 * n // k), (n, k)
            for el in family.elements:
                assert el.violation() is None
                assert el.size == k
            union = family.vertex_union()
            assert nbrs <= union and 0 not in union, (n, k)
            assert validate_cut(family).ok, (n, k)


def test_cycle_cut_isolates_zero():
    for n in range(5, 10):
        nbrs = set(Cube(n).neighbors(0))
        for k in (6, 8, 2 * n, 2 * n + 2):
            if k > 1 << (n - 2):
                continue
            family = build_cycle_cut(n, k)
            assert nbrs <= family.vertex_union()
            assert 0 not in family.vertex_union()


def test_cycle_cut_rejections():
    with pytest.raises(ValueError, match="n >= 5"):
        build_cycle_cut(4, 6)
    with pytest.raises(ValueError):
        build_cycle_cut(6, 4)
    with pytest.raises(ValueError):
        build_cycle_cut(6, 7)
    with pytest.raises(ValueError):
        build_cycle_cut(5, 10)  # above 2^(n-2)


def test_at_most_power_of_two_matches_exact_comparison():
    for m in range(-2, 9):
        for k in range(-3, 300):
            assert at_most_power_of_two(k, m) == (k <= Fraction(2) ** m), (k, m)


def test_range_checks_do_not_build_two_to_the_n():
    # 2^(n-1) at n = 10^9 is a 125 MB integer
    n = 10**9
    for check, k in ((check_path_cut, 5), (check_cycle_cut, 10), (kappa_path, 5), (kappa_cycle, 10)):
        tracemalloc.start()
        try:
            check(n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (check.__name__, peak)


def test_overlapping_windows_still_exact_paths():
    # shifted last window shares vertices with its predecessor but stays a P_k
    family = build_path_cut(5, 3)
    assert family.elements[1].vertex_set() & family.elements[2].vertex_set()
    for el in family.elements:
        assert el.size == 3


def test_cut_family_mode_validation():
    with pytest.raises(ValueError):
        CutFamily(3, StructureKind("path", 3), "nonsense", ())
