from itertools import combinations

import pytest

from hypercut.analysis import is_disconnecting_mask, validate_cut
from hypercut.cuts import StructureKind, build_path_cut
from hypercut.oracle import (
    BudgetError,
    SearchBudget,
    enumerate_copies,
    min_structure_cut,
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


def test_lower_bound_on_budget_exhaustion():
    result = min_structure_cut(4, StructureKind("path", 6), budget=SearchBudget(max_family_size=1))
    assert result.status == "lower-bound"
    assert result.value == 2
    assert result.witness is None
    assert not result.exhaustive


def test_dimension_gates():
    with pytest.raises(BudgetError):
        min_structure_cut(5, StructureKind("cycle", 4))  # needs an explicit dimension-5 budget
    with pytest.raises(BudgetError):
        min_structure_cut(4, StructureKind("path", 3), budget=SearchBudget(max_dimension=3))
    big5 = SearchBudget(max_family_size=3, max_dimension=5)
    with pytest.raises(BudgetError):
        min_structure_cut(5, StructureKind("cycle", 6), "structure", big5)  # unsanctioned kind
    with pytest.raises(BudgetError):
        min_structure_cut(5, StructureKind("cycle", 8), "structure", SearchBudget(4, 5))
    with pytest.raises(BudgetError):
        min_structure_cut(6, StructureKind("path", 3), budget=SearchBudget(max_dimension=5))
    with pytest.raises(BudgetError):  # n >= 6 is refused whatever max_dimension says
        min_structure_cut(6, StructureKind("path", 3), budget=SearchBudget(3, 6))


def test_orbit_statistics_reported():
    result = min_structure_cut(3, StructureKind("path", 3))
    assert result.stats["copies"] == 24
    assert result.stats["orbits"] >= 1
    assert result.stats["cut_tests"] > 0
