"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

from hypercut.analysis import (
    components_after_removal,
    g_extra_connectivity,
    path_neighbor_bound,
    scan_distance2_common_neighbors,
    validate_cut,
)
from hypercut.cuts import StructureKind, build_cycle_cut, build_path_cut
from hypercut.formulas import (
    kappa_cycle,
    kappa_g_extra_formula,
    kappa_path,
    kappa_power_of_two_cycle,
    verify_budengs_inequality,
)
from hypercut.oracle import SearchBudget, enumerate_copies, min_structure_cut, neighbor_count_maximum


def _report(number: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_path_values_q3():
    start = time.perf_counter()
    values = {}
    for k in (3, 4):
        for mode in ("structure", "substructure"):
            values[(k, mode)] = min_structure_cut(3, StructureKind("path", k), mode).value
    ok = all(v == 2 for v in values.values())
    _report(1, ok, f"kappa(Q3;P3)=kappa(Q3;P4)=2 both modes, got {values}",
            time.perf_counter() - start, 1.0)


def test_criterion_2_path_values_q4():
    start = time.perf_counter()
    expected = {3: 2, 4: 2, 5: 2, 6: 2, 7: 1, 8: 1}
    got = {}
    ok = True
    for k in range(3, 9):
        for mode in ("structure", "substructure"):
            value = min_structure_cut(4, StructureKind("path", k), mode).value
            got[(k, mode)] = value
            ok = ok and value == expected[k] == kappa_path(4, k).value
    _report(2, ok, f"kappa(Q4;Pk) k=3..8 both modes equals 2,2,2,2,1,1; got {got}",
            time.perf_counter() - start, 300.0)


def test_criterion_3_construction_sweep():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(3, 12):
        for k in range(3, min(1 << (n - 1), 256) + 1):
            family = build_path_cut(n, k)
            ok = ok and validate_cut(family).ok and len(family) == kappa_path(n, k).value
            checked += 1
    for n in range(5, 12):
        for k in range(6, min(1 << (n - 2), 256) + 1, 2):
            family = build_cycle_cut(n, k)
            ok = ok and validate_cut(family).ok and len(family) == -(-2 * n // k)
            checked += 1
    _report(3, ok, f"{checked} constructed families all valid with the stated cardinality",
            time.perf_counter() - start, 60.0)


def test_criterion_4_power_of_two_table():
    start = time.perf_counter()
    budget5 = SearchBudget(max_family_size=3, max_dimension=5)
    got = {
        (4, 4): min_structure_cut(4, StructureKind("cycle", 4)).value,
        (5, 4): min_structure_cut(5, StructureKind("cycle", 4), "structure", budget5).value,
        (5, 8): min_structure_cut(5, StructureKind("cycle", 8), "structure", budget5).value,
    }
    ok = got == {(4, 4): 2, (5, 4): 3, (5, 8): 2}
    _report(4, ok, f"kappa(Q4;C4)=2, kappa(Q5;C4)=3, kappa(Q5;C8)=2; got {got}",
            time.perf_counter() - start, 600.0)


def test_criterion_5_single_element_case_analyses():
    start = time.perf_counter()
    ok = True
    # every embedded P_4 leaves Q_3 connected, every embedded P_6 leaves Q_4 connected
    for n, k in ((3, 4), (4, 6)):
        for path in enumerate_copies(n, StructureKind("path", k)):
            ok = ok and len(components_after_removal(n, path.verts)) == 1
    # every embedded 6-cycle leaves Q_4 connected
    for cyc in enumerate_copies(4, StructureKind("cycle", 6)):
        ok = ok and len(components_after_removal(4, cyc.verts)) == 1
    _report(5, ok, "no single P4 cuts Q3, no single P6 or C6 cuts Q4 (exhaustive)",
            time.perf_counter() - start, 10.0)


def test_criterion_6_g_extra_q4():
    start = time.perf_counter()
    got = [g_extra_connectivity(4, g) for g in range(5)]
    expected = [kappa_g_extra_formula(4, g) for g in range(5)]
    ok = got == expected == [4, 6, 6, 6, 6]
    _report(6, ok, f"brute-force kappa_g(Q4) g=0..4 equals formula; got {got}",
            time.perf_counter() - start, 60.0)


def test_criterion_7_inequality_sweep():
    start = time.perf_counter()
    violations = verify_budengs_inequality(64)
    _report(7, violations == [], f"ceil(n/2^(m-1)) < n-m sweep to 64, violations={violations}",
            time.perf_counter() - start, 1.0)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    bad_pairs = sum(scan_distance2_common_neighbors(n) for n in range(2, 11))
    # each maximum is taken where it stops growing: n = k + 1 for P_k, k/2 + 2 for C_k
    path_over = [k for k in range(3, 11) if neighbor_count_maximum(k + 1, "path", k) > path_neighbor_bound(k)]
    cycle_over = [k for k in range(4, 11, 2) if neighbor_count_maximum(k // 2 + 2, "cycle", k) > k - 1]
    ok = bad_pairs == 0 and not path_over and not cycle_over
    _report(
        8, ok,
        "common-neighbor scan n<=10 plus the exhaustive P3..P10 and C4..C10 neighbour-count maxima, "
        f"violations={bad_pairs}/{path_over}/{cycle_over}",
        time.perf_counter() - start, 120.0,
    )


def test_criterion_9_formula_consistency():
    start = time.perf_counter()
    ok = True
    for n in range(4, 21):
        for m in range(2, n - 1):
            value = kappa_power_of_two_cycle(n, m).value
            general = kappa_cycle(n, 1 << m, "structure")
            if general.is_exact and general.value != value:
                ok = False
            if n >= 6 and m >= 3 and not value < n - m:
                ok = False
    _report(9, ok, "power-of-two values agree with the cycle engine and stay below n-m",
            time.perf_counter() - start, 30.0)
