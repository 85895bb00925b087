import pytest

from hypercut.cuts import StructureKind
from hypercut.formulas import (
    KappaValue,
    NotCoveredError,
    kappa_cycle,
    kappa_g_extra_formula,
    kappa_baseline,
    kappa_path,
    kappa_power_of_two_cycle,
    verify_budengs_inequality,
)


def test_kappa_path_values():
    assert kappa_path(5, 3).value == 3
    assert kappa_path(4, 8).value == 1
    assert kappa_path(3, 4, "substructure").value == 2
    assert kappa_path(3, 3).value == 2
    assert kappa_path(4, 6).value == 2


def test_kappa_path_mode_identical():
    for n in range(3, 9):
        for k in range(3, (1 << (n - 1)) + 1):
            assert kappa_path(n, k, "structure").value == kappa_path(n, k, "substructure").value


def test_kappa_path_range_errors():
    with pytest.raises(NotCoveredError):
        kappa_path(2, 3)
    with pytest.raises(NotCoveredError):
        kappa_path(4, 2)
    with pytest.raises(NotCoveredError):
        kappa_path(4, 9)


def test_kappa_cycle_structure_values():
    assert kappa_cycle(3, 4, "structure").value == 2
    assert kappa_cycle(6, 4, "structure").value == 4
    assert kappa_cycle(6, 6, "structure").value == 2
    # ceil(12/16) = 1: a single 16-cycle through all neighbors of a vertex suffices
    v = kappa_cycle(6, 16, "structure")
    assert v.value == 1 and v.is_exact


def test_kappa_cycle_open_regime_is_lower_bound():
    for n, k in ((4, 6), (4, 8), (5, 10), (5, 16), (6, 18), (6, 32)):
        v = kappa_cycle(n, k, "structure")
        assert v.status == "lower-bound"
        assert v.value == -(-2 * n // k)


def test_kappa_cycle_substructure_values():
    assert kappa_cycle(5, 3, "substructure").value == 3
    assert kappa_cycle(4, 6, "substructure").value == 2
    assert kappa_cycle(4, 8, "substructure").value == 1
    # odd length degenerates to the path value
    for n in range(3, 8):
        for k in range(3, (1 << (n - 1)) + 1, 2):
            assert kappa_cycle(n, k, "substructure").value == kappa_path(n, k).value


def test_kappa_cycle_range_errors():
    with pytest.raises(NotCoveredError):
        kappa_cycle(4, 5, "structure")  # odd cycles never embed
    with pytest.raises(NotCoveredError):
        kappa_cycle(2, 4, "structure")
    with pytest.raises(NotCoveredError):
        kappa_cycle(4, 10, "structure")
    with pytest.raises(NotCoveredError):
        kappa_cycle(4, 9, "substructure")


def test_kappa_power_of_two_values():
    assert kappa_power_of_two_cycle(5, 3).value == 2
    assert kappa_power_of_two_cycle(6, 3).value == 2
    assert kappa_power_of_two_cycle(4, 2).value == 2
    assert kappa_power_of_two_cycle(5, 2).value == 3
    assert kappa_power_of_two_cycle(10, 2).value == 8


def test_kappa_power_of_two_range_errors():
    with pytest.raises(NotCoveredError):
        kappa_power_of_two_cycle(3, 2)
    with pytest.raises(NotCoveredError):
        kappa_power_of_two_cycle(5, 4)
    with pytest.raises(NotCoveredError):
        kappa_power_of_two_cycle(6, 1)


def test_kappa_power_of_two_agrees_with_cycle_engine():
    for n in range(4, 21):
        for m in range(2, n - 1):
            value = kappa_power_of_two_cycle(n, m).value
            general = kappa_cycle(n, 1 << m, "structure")
            if general.is_exact:
                assert general.value == value, (n, m)
            if n >= 6 and m >= 3:
                assert value < n - m, (n, m)


def test_kappa_baseline_values():
    assert kappa_baseline(5, StructureKind("vertex", 1)).value == 5
    assert kappa_baseline(5, StructureKind("edge", 2)).value == 4
    assert kappa_baseline(5, StructureKind("star", 2)).value == 3
    assert kappa_baseline(5, StructureKind("star", 3)).value == 3
    assert kappa_baseline(5, StructureKind("cycle", 4)).value == 3
    assert kappa_baseline(5, StructureKind("cycle", 4), "substructure").value == 3
    assert kappa_baseline(6, StructureKind("cycle", 4), "substructure").value == 3
    assert kappa_baseline(6, StructureKind("cycle", 4), "structure").value == 4


def test_kappa_baseline_range_errors():
    with pytest.raises(NotCoveredError):
        kappa_baseline(3, StructureKind("vertex", 1))
    with pytest.raises(NotCoveredError):
        kappa_baseline(5, StructureKind("cycle", 6))


def test_g_extra_formula_values():
    assert kappa_g_extra_formula(5, 1) == 8
    assert kappa_g_extra_formula(6, 2) == 13
    assert kappa_g_extra_formula(4, 2) == 6
    assert [kappa_g_extra_formula(4, g) for g in range(5)] == [4, 6, 6, 6, 6]
    assert kappa_g_extra_formula(7, 0) == 7


def test_g_extra_formula_branch_boundary_is_continuous():
    # at g = n - 3 both branch expressions coincide with n(n-1)/2
    for n in range(4, 12):
        g = n - 3
        assert (g + 1) * n - 2 * g - g * (g - 1) // 2 == n * (n - 1) // 2


def test_g_extra_formula_range_errors():
    with pytest.raises(NotCoveredError):
        kappa_g_extra_formula(3, 0)
    with pytest.raises(NotCoveredError):
        kappa_g_extra_formula(5, 6)


def test_c6_lower_bound():
    # ceil(2n/6) is ceil(n/3), the 6-cycle lower bound, at every n >= 4
    assert kappa_cycle(4, 6).value == 2
    assert kappa_cycle(6, 6).value == 2
    assert kappa_cycle(7, 6).value == 3
    assert all(kappa_cycle(n, 6).value == -(-n // 3) for n in range(4, 64))
    with pytest.raises(NotCoveredError):
        kappa_cycle(3, 6)


def test_budengs_sweep():
    assert verify_budengs_inequality(6) == []
    assert verify_budengs_inequality(64) == []
    # spot values at the boundary
    assert -(-6 // 4) == 2 < 3
    assert -(-6 // 8) == 1 < 2
    with pytest.raises(ValueError):
        verify_budengs_inequality(5)


def test_kappa_value_validation():
    exact = KappaValue("exact", 3)
    assert exact.is_exact
    with pytest.raises(ValueError):
        KappaValue("made-up", 3)
    with pytest.raises(ValueError):
        KappaValue("interval", 3)  # no longer a status


def test_mode_validation():
    with pytest.raises(ValueError):
        kappa_path(4, 4, "both")
