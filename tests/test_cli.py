import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypercut import cli
from hypercut.cli import MAX_CONSTRUCT_CHARS, main, render_dot
from hypercut.cuts import CutFamily, StructureKind
from hypercut.core import Cube
from hypercut.embeddings import CubePath

# pin name -> sha256 of the stdout it pins, and the argv where the pin is one command; CI reads the same file
PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_fig4_family(capsys):
    code, out, _ = run(capsys, "construct", "--n", "5", "--kind", "path", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "hypercut/v1"
    assert payload["family"]["cardinality"] == 3
    assert payload["verdict"] == "valid-cut"
    assert payload["isolated_vertex"] == "00000"
    assert payload["family"]["elements"][0]["vertices"] == ["10000", "11000", "01000"]


def test_construct_validates_past_dimension_14(capsys):
    # the union encloses 00..0, so the verdict needs no 2^n-bit complement
    for argv in (("--n", "16", "--kind", "path", "--k", "5"),
                 ("--n", "40", "--kind", "cycle", "--k", "10")):
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0
        assert json.loads(out)["verdict"] == "valid-cut"


def test_construct_long_path_at_dimension_64(capsys):
    code, out, _ = run(capsys, "construct", "--n", "64", "--kind", "path", "--k", "129")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "valid-cut"
    (element,) = payload["family"]["elements"]
    assert len(element["vertices"]) == 129


def _no_build(*args):
    raise AssertionError("the family was built before the request was refused")


def test_construct_refuses_k_above_cap_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_path_cut", _no_build)
    k = 1 << 40
    code, _, err = run(capsys, "construct", "--n", "64", "--kind", "path", "--k", str(k))
    assert code == 2
    assert str(k) in err and str(k * 64) in err and str(MAX_CONSTRUCT_CHARS) in err


def test_construct_refuses_large_n_before_building(capsys, monkeypatch):
    # 33,334 windows of 5 labels, each 10^5 characters: about 1.7e10 characters
    monkeypatch.setattr(cli, "build_path_cut", _no_build)
    code, _, err = run(capsys, "construct", "--n", "100000", "--kind", "path", "--k", "5")
    assert code == 2
    assert str(33334 * 5 * 100000) in err and str(MAX_CONSTRUCT_CHARS) in err


def test_construct_range_error_comes_before_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_cycle_cut", _no_build)
    code, _, err = run(capsys, "construct", "--n", "100000", "--kind", "cycle", "--k", "4")
    assert code == 2
    assert "k >= 6" in err


def test_construct_cap_is_inclusive(capsys, monkeypatch):
    # the 3-element family of 3-vertex paths at n = 5 prints 3 * 3 * 5 = 45 label characters
    monkeypatch.setattr(cli, "MAX_CONSTRUCT_CHARS", 45)
    assert run(capsys, "construct", "--n", "5", "--kind", "path", "--k", "3")[0] == 0
    assert run(capsys, "construct", "--n", "5", "--kind", "path", "--k", "4")[0] == 2
    assert run(capsys, "construct", "--n", "6", "--kind", "cycle", "--k", "6")[0] == 2
    monkeypatch.setattr(cli, "MAX_CONSTRUCT_CHARS", 72)
    assert run(capsys, "construct", "--n", "6", "--kind", "cycle", "--k", "6")[0] == 0


def test_construct_cap_admits_a_path_cut_at_n_21_with_k_2_to_the_20():
    # one element of 2^20 labels of 21 characters; building it takes seconds, so only the bound is checked
    assert 1 * (1 << 20) * 21 <= MAX_CONSTRUCT_CHARS


def test_construct_dot_refuses_large_n_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_path_cut", _no_build)
    code, _, err = run(capsys, "construct", "--n", "9", "--kind", "path", "--k", "5",
                       "--format", "dot")
    assert code == 2
    assert "n = 8" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "construct", "--n", "8", "--kind", "path", "--k", "5",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("graph Q8 {")


def test_construct_ladder_stdout_is_byte_stable(capsys):
    # n = 5..12: paths k in {3, 2n-2, 2n-1, 2n, 2^(n-1)}, cycles k in {6, 2n, 2n+2, 2^(n-2)} with 6 <= k <= 2^(n-2)
    outs = []
    for n in range(5, 13):
        specs = [("path", k) for k in (3, 2 * n - 2, 2 * n - 1, 2 * n, 1 << (n - 1))]
        specs += [("cycle", k) for k in (6, 2 * n, 2 * n + 2, 1 << (n - 2)) if 6 <= k <= 1 << (n - 2)]
        for kind, k in specs:
            code, out, _ = run(capsys, "construct", "--n", str(n), "--kind", kind, "--k", str(k))
            assert code == 0
            outs.append(out)
    assert len(outs) == 70
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == PINS["construct-ladder"]["sha256"]


def test_construct_cycle_family(capsys):
    code, out, _ = run(capsys, "construct", "--n", "6", "--kind", "cycle", "--k", "6")
    assert code == 0
    assert json.loads(out)["family"]["cardinality"] == 2


def test_construct_deterministic_output(capsys):
    _, first, _ = run(capsys, "construct", "--n", "6", "--kind", "cycle", "--k", "8")
    _, second, _ = run(capsys, "construct", "--n", "6", "--kind", "cycle", "--k", "8")
    assert first == second


def test_construct_range_error_names_precondition(capsys):
    code, _, err = run(capsys, "construct", "--n", "4", "--kind", "cycle", "--k", "6")
    assert code == 2
    assert "n >= 5" in err


@pytest.mark.parametrize("argv, bound", [
    (("--n", "100000", "--kind", "path", "--k", "2"), "2^(n-1)"),
    (("--n", "13000", "--kind", "path", "--k", "2"), "2^(n-1)"),
    (("--n", "20", "--kind", "cycle", "--k", str((1 << 18) + 2)), "2^(n-2)"),
])
def test_construct_range_error_is_short_at_large_n(capsys, argv, bound):
    code, _, err = run(capsys, "construct", *argv)
    assert code == 2
    assert bound in err and f"n = {argv[1]}" in err
    assert len(err) < 200


def test_construct_rejects_kind_without_builder(capsys):
    code, _, err = run(capsys, "construct", "--n", "4", "--kind", "star", "--k", "2")
    assert code == 2
    assert "invalid choice" in err


def test_construct_dot_output(capsys):
    code, out, _ = run(capsys, "construct", "--n", "4", "--kind", "path", "--k", "3",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("graph Q4 {")
    assert "gray80" in out


def test_construct_exits_1_on_a_family_that_is_not_a_cut_in_both_formats(capsys, monkeypatch):
    # one P3 next to vertex 0 leaves Q4 connected; the DOT graph is still printed
    not_a_cut = CutFamily(4, StructureKind("path", 3), "structure", (CubePath(4, (1, 3, 2)),))
    monkeypatch.setattr(cli, "build_path_cut", lambda n, k: not_a_cut)
    code, out, _ = run(capsys, "construct", "--n", "4", "--kind", "path", "--k", "3")
    assert code == 1
    assert json.loads(out)["verdict"] == "elements-ok-but-not-a-cut"
    code, out, _ = run(capsys, "construct", "--n", "4", "--kind", "path", "--k", "3", "--format", "dot")
    assert code == 1
    assert out.startswith("graph Q4 {")


def test_oracle_q3_c4(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3", "--kind", "cycle", "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["status"] == "exact"
    assert payload["exhaustive"] is True
    assert len(payload["witness"]["elements"]) == 2
    assert payload["orbit_statistics"]["copies"] == 6


def test_oracle_lower_bound_report(capsys):
    code, out, err = run(capsys, "oracle", "--n", "4", "--kind", "path", "--k", "6",
                         "--max-size", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "lower-bound"
    assert payload["value"] == 2
    assert payload["witness"] is None
    assert "no cut of size <= 1" in err


def test_oracle_q5_c8(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "5", "--kind", "cycle", "--k", "8",
                       "--max-size", "3")
    assert code == 0
    assert json.loads(out)["value"] == 2


def _oracle_pin_commands():
    for n in (3, 4):
        for mode in ("structure", "substructure"):
            for kind in ("vertex", "edge"):
                yield ("--n", str(n), "--kind", kind, "--mode", mode)
            for kind, ks in (("path", range(3, (1 << (n - 1)) + 1)),
                             ("cycle", range(4, (1 << (n - 1)) + 1, 2)),
                             ("star", range(2, n + 1))):
                for k in ks:
                    yield ("--n", str(n), "--kind", kind, "--k", str(k), "--mode", mode)
    yield ("--n", "5", "--kind", "cycle", "--k", "8", "--max-size", "3")
    yield ("--n", "5", "--kind", "path", "--k", "4")


def test_oracle_stdout_is_byte_stable(capsys):
    # every kind and mode at n = 3, 4 with the default family-size budget, and two n = 5 searches
    outs = []
    for argv in _oracle_pin_commands():
        code, out, _ = run(capsys, "oracle", *argv)
        assert code == 0
        outs.append(out)
    assert len(outs) == 44
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == PINS["oracle"]["sha256"]


def _refusing(message):
    def refuse(*args):
        raise AssertionError(message)

    refuse.cache_clear = lambda: None  # main clears the block cache as it starts
    return refuse


def test_oracle_refuses_c8_substructure_at_n_5_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "_COPY_CEILING", 250_000)  # a ceiling below this pool must refuse it unbuilt
    monkeypatch.setattr(cli.oracle, "pool_block", _refusing("a pool block was built before the search was refused"))
    code, out, err = run(capsys, "oracle", "--n", "5", "--kind", "cycle", "--k", "8", "--mode", "substructure")
    assert code == 3
    assert out == ""
    assert "substructure C8 pool of Q_5 holds 333872 copies, over the 250000 ceiling" in err


def test_oracle_refuses_pools_over_the_copy_ceiling_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "_COPY_CEILING", 250_000)  # a ceiling below this pool must refuse it unbuilt
    monkeypatch.setattr(cli.oracle, "pool_block", _refusing("a pool block was built before the search was refused"))
    code, out, err = run(capsys, "oracle", "--n", "5", "--kind", "path", "--k", "8", "--mode", "substructure")
    assert code == 3
    assert out == ""
    assert "substructure P8 pool of Q_5 holds 327152 copies, over the 250000 ceiling" in err


@pytest.mark.parametrize("argv", [("--k", "1000000000"), ("--k", "1000000000", "--mode", "substructure"),
                                  ("--k", "17", "--mode", "substructure")],
                         ids=["P1e9-structure", "P1e9-substructure", "P17-substructure"])
def test_oracle_refuses_paths_longer_than_the_cube_before_any_seed(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli.oracle, "_seeds", _refusing("a seed was walked before the search was refused"))
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--n", "4", "--kind", "path", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"no embedded copies of P{argv[1]} exist in Q_4" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_oracle_refuses_dimensions_below_1(capsys, monkeypatch, n):
    monkeypatch.setattr(cli.oracle, "_seeds", _refusing("a seed was walked before the search was refused"))
    code, out, err = run(capsys, "oracle", "--n", n, "--kind", "path", "--k", "3")
    assert code == 2
    assert out == ""
    assert f"dimension must be >= 1, got {n}" in err


# Q4 P8 and P11 substructure, then Q5 P16 and C16, each in under a second at the default family size
@pytest.mark.parametrize("argv", [("--n", "4", "--kind", "path", "--k", "8"),
                                  ("--n", "4", "--kind", "path", "--k", "11", "--mode", "substructure"),
                                  ("--n", "5", "--kind", "path", "--k", "16"),
                                  ("--n", "5", "--kind", "cycle", "--k", "16")])
def test_oracle_answers_1_from_the_seeds_without_building_a_block(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli.oracle, "pool_block", _refusing("a pool block was built for an answer of 1"))
    start = time.perf_counter()
    code, out, _ = run(capsys, "oracle", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["status"], len(payload["witness"]["elements"])) == (1, "exact", 1)
    assert payload["parameters"]["max_size"] == 4
    assert (payload["orbit_statistics"]["copies"], payload["orbit_statistics"]["orbits"]) == (0, 0)


@pytest.mark.parametrize("mode", ["structure", "substructure"])
@pytest.mark.parametrize("kind, k", [("vertex", "1"), ("edge", "2")])
def test_oracle_vertex_and_edge_at_n_5_report_as_their_paths(capsys, kind, k, mode):
    code, out, _ = run(capsys, "oracle", "--n", "5", "--kind", kind, "--mode", mode)
    assert code == 0
    _, path, _ = run(capsys, "oracle", "--n", "5", "--kind", "path", "--k", k, "--mode", mode)
    got, want = json.loads(out), json.loads(path)
    assert (got["value"], got["status"], got["orbit_statistics"]) == (
        want["value"], want["status"], want["orbit_statistics"])


def test_oracle_vertex_kind_rejects_k(capsys):
    code, _, err = run(capsys, "oracle", "--n", "3", "--kind", "vertex", "--k", "2")
    assert code == 2
    assert "--k" in err


def test_verify_budengs(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "budengs")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload["rows"][0]["actual"] == 0


def test_verify_paths_small(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "paths", "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    oracle_rows = [r for r in payload["rows"] if r["check"] == "oracle-vs-formula"]
    assert {(r["n"], r["k"], r["mode"]) for r in oracle_rows} == {
        (3, 3, "structure"), (3, 3, "substructure"),
        (3, 4, "structure"), (3, 4, "substructure"),
    }
    assert all(r["status"] == "pass" for r in oracle_rows)


def test_verify_nmax_below_three_exits_2(capsys):
    # 0 must not fall back to the scope's default, nor may a negative bound pass with no rows
    for scope, nmax in (("paths", "0"), ("budengs", "0"), ("paths", "-3"), ("all", "2")):
        code, out, err = run(capsys, "verify", "--scope", scope, "--nmax", nmax)
        assert code == 2
        assert out == ""
        assert f"--nmax must be at least 3, got {nmax}" in err


@pytest.mark.parametrize("scope, nmax", [("all", "5"), ("budengs", "3")])
def test_verify_nmax_below_the_budengs_floor_exits_2_before_any_row(capsys, monkeypatch, scope, nmax):
    def build_rows(nmax):
        raise AssertionError("rows built before refusing")

    for name, (_, default) in list(cli._SCOPES.items()):
        monkeypatch.setitem(cli._SCOPES, name, (build_rows, default))
    code, out, err = run(capsys, "verify", "--scope", scope, "--nmax", nmax)
    assert code == 2
    assert out == ""
    assert f"--nmax must be at least 6 for the budengs scope, got {nmax}" in err


@pytest.mark.parametrize("nmax", [str(cli.MAX_VERIFY_NMAX + 1), "100000"])
def test_verify_nmax_above_ceiling_exits_2(capsys, monkeypatch, nmax):
    def build_rows(nmax):
        raise AssertionError("rows built before refusing")

    monkeypatch.setitem(cli._SCOPES, "budengs", (build_rows, 64))
    for scope in ("budengs", "all"):
        code, out, err = run(capsys, "verify", "--scope", scope, "--nmax", nmax)
        assert code == 2
        assert out == ""
        assert f"--nmax must be at most 64, got {nmax}" in err


@pytest.mark.parametrize("jobs", ["2", "0"])
def test_verify_jobs_other_than_1_exits_2(capsys, monkeypatch, jobs):
    def construction_row(*args):
        raise AssertionError("rows built before refusing")

    monkeypatch.setattr(cli, "_construction_row", construction_row)
    code, out, err = run(capsys, "verify", "--scope", "paths", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_cli_import_loads_no_process_pool():
    # a fresh interpreter, since this one may have imported them already
    code = ("import sys, hypercut.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_builds_through_the_cli_builder_names(capsys, monkeypatch):
    # construct and verify share one dispatch, which looks the builders up on cli when called
    built = []
    for name in ("build_path_cut", "build_cycle_cut"):
        def build(n, k, original=getattr(cli, name)):
            built.append((n, k))
            return original(n, k)
        monkeypatch.setattr(cli, name, build)
    assert run(capsys, "verify", "--scope", "cycles", "--nmax", "5")[0] == 0
    assert run(capsys, "verify", "--scope", "paths", "--nmax", "3")[0] == 0
    assert run(capsys, "construct", "--n", "5", "--kind", "path", "--k", "3")[0] == 0
    assert built == [(5, 6), (5, 8), (3, 3), (3, 4), (5, 3)]


def test_verify_power_of_two_table(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "power-of-two", "--nmax", "6")
    assert code == 0
    payload = json.loads(out)
    oracle_rows = {(r["n"], r["m"]): r["actual"]
                   for r in payload["rows"] if r["check"] == "oracle-vs-formula"}
    assert oracle_rows == {(4, 2): 2, (5, 2): 3, (5, 3): 2}


def test_verify_g_extra(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "g-extra")
    assert code == 0
    payload = json.loads(out)
    values = {r["g"]: r["actual"] for r in payload["rows"]}
    assert values == {0: 4, 1: 6, 2: 6, 3: 6, 4: 6}


def test_verify_g_extra_climbs_once_in_each_command(capsys, monkeypatch):
    calls = []
    component_masks = cli.analysis.component_masks
    monkeypatch.setattr(cli.analysis, "component_masks", lambda n, mask: calls.append(mask) or component_masks(n, mask))
    counts = []
    for _ in range(2):
        assert run(capsys, "verify", "--scope", "g-extra")[0] == 0
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1] > 0


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "budengs", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("scope,check,")
    assert "budengs" in lines[1]


def test_export_dot_q3(capsys):
    code, out, _ = run(capsys, "export-dot", "--n", "3")
    assert code == 0
    node_lines = [l for l in out.splitlines() if "fillcolor" in l and "--" not in l]
    edge_lines = [l for l in out.splitlines() if " -- " in l]
    assert len(node_lines) == 8
    assert len(edge_lines) == 12


def test_export_dot_with_removal(capsys):
    # removing one face of Q_3 leaves a single connected (single-color) complement
    code, out, _ = run(capsys, "export-dot", "--n", "3",
                       "--remove", "000,100,110,010")
    assert code == 0
    colors = {l.split('fillcolor="')[1].split('"')[0]
              for l in out.splitlines() if 'fillcolor="#' in l}
    assert len(colors) == 1


def test_export_dot_rejects_large_n(capsys):
    code, _, err = run(capsys, "export-dot", "--n", "9")
    assert code == 2
    assert "n = 8" in err


def test_property_test_deterministic(capsys):
    args = ("property-test", "--suite", "cycle-bound", "--format", "csv")
    code, first, _ = run(capsys, *args)
    assert code == 0
    _, second, _ = run(capsys, *args)
    assert first == second
    # one row per k, at n = k/2 + 2: scope, check, n, k, (m, g, mode), bound, maximum, status
    assert [line.split(",")[:10] for line in first.splitlines()[1:]] == [
        ["property", "cycle-bound", str(k // 2 + 2), str(k), "", "", "", str(k - 1), str(maximum), "pass"]
        for k, maximum in ((4, 2), (6, 4), (8, 5), (10, 6))]


def _no_scan(*args):
    raise AssertionError("scanned before refusing")


def _refuses_unrecognized(capsys, monkeypatch, *argv):
    monkeypatch.setattr(cli.analysis, "scan_distance2_common_neighbors", _no_scan)
    monkeypatch.setattr(cli.oracle, "neighbor_count_maximum", _no_scan)
    code, out, err = run(capsys, "property-test", *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


# the suites sample nothing, so the parser refuses --n, --trials and --seed at every value,
# including the values the sampling limits once refused


@pytest.mark.parametrize("suite", ["path-bound", "cycle-bound", "all"])
def test_property_test_refuses_n_above_ceiling(capsys, monkeypatch, suite):
    for n in ("25", "1000000000"):
        _refuses_unrecognized(capsys, monkeypatch, "--suite", suite, "--n", n)


@pytest.mark.parametrize("n", ["3", "2", "0"])
def test_property_test_refuses_n_below_floor(capsys, monkeypatch, n):
    for suite in ("common-neighbors", "path-bound", "cycle-bound", "all"):
        _refuses_unrecognized(capsys, monkeypatch, "--suite", suite, "--n", n)


@pytest.mark.parametrize("trials", ["0", "-5", "10001", "1000000000"])
def test_property_test_refuses_trials_out_of_range(capsys, monkeypatch, trials):
    for suite in ("path-bound", "cycle-bound", "all"):
        _refuses_unrecognized(capsys, monkeypatch, "--suite", suite, "--trials", trials)


def test_property_test_refuses_seed(capsys, monkeypatch):
    _refuses_unrecognized(capsys, monkeypatch, "--seed", "1")


@pytest.mark.parametrize("nmax", ["1", "-5", str(cli.MAX_VERIFY_NMAX + 1), "100000"])
def test_property_test_refuses_nmax_out_of_range(capsys, monkeypatch, nmax):
    monkeypatch.setattr(cli.analysis, "scan_distance2_common_neighbors", _no_scan)
    for suite in ("common-neighbors", "all"):
        code, out, err = run(capsys, "property-test", "--suite", suite, "--nmax", nmax)
        assert code == 2
        assert out == ""
        assert f"--nmax must be in [2, 64], got {nmax}" in err


def test_property_test_scans_to_the_verify_cap(capsys):
    code, out, _ = run(capsys, "property-test", "--suite", "common-neighbors", "--nmax", str(cli.MAX_VERIFY_NMAX))
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["status"], row["actual"], row["detail"]) == ("pass", 0, "exhaustive n <= 64")


def test_property_test_fails_every_pair_when_the_representative_pair_fails(capsys, monkeypatch):
    common_neighbors = Cube.common_neighbors
    monkeypatch.setattr(Cube, "common_neighbors", lambda cube, u, v: set(sorted(common_neighbors(cube, u, v))[1:]))
    code, out, _ = run(capsys, "property-test", "--suite", "common-neighbors", "--nmax", "4")
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert (row["status"], row["actual"]) == ("fail", sum((1 << (n - 1)) * math.comb(n, 2) for n in range(2, 5)))


def test_property_test_scans_from_dimension_2(capsys):
    code, out, _ = run(capsys, "property-test", "--suite", "common-neighbors", "--nmax", "2")
    assert code == 0
    assert json.loads(out)["rows"][0]["detail"] == "exhaustive n <= 2"


@pytest.mark.parametrize("argv", [
    ("construct", "--n", "4", "--kind", "path", "--k", "3"),
    ("verify", "--scope", "g-extra"),
    ("oracle", "--n", "3", "--kind", "path", "--k", "3"),
    ("export-dot", "--n", "3"),
    ("property-test", "--suite", "common-neighbors", "--nmax", "2"),
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2_without_a_traceback(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "f.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ("verify", "--scope", "g-extra"),
    ("verify", "--scope", "g-extra", "--format", "csv"),
    ("oracle", "--n", "3", "--kind", "path", "--k", "3"),
    ("construct", "--n", "5", "--kind", "path", "--k", "4"),
    ("construct", "--n", "4", "--kind", "path", "--k", "3", "--format", "dot"),
    ("property-test", "--suite", "cycle-bound"),
], ids=["verify-json", "verify-csv", "oracle", "construct-json", "construct-dot", "property-test"])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "f"
    assert run(capsys, *argv, "--out", str(target))[:2] == (code, "")
    assert target.read_bytes() == out.encode()


def test_usage_error_exit_code(capsys):
    assert main(["construct", "--n", "5"]) == 2  # missing required flags
    capsys.readouterr()


def test_render_dot_components_colored():
    text = render_dot(3, frozenset({1, 2, 4}))
    # complement splits into {0} and the far 4 vertices: two distinct colors
    colors = {l.split('fillcolor="')[1].split('"')[0]
              for l in text.splitlines() if 'fillcolor="#' in l}
    assert len(colors) == 2


# the "unset" pin is named for the unset oracle ceiling it was first recorded under; perfbench/workloads.py
# holds its own copies of the "unset" and "paths-nmax-11" digests
@pytest.mark.parametrize("case", sorted(name for name, pin in PINS.items() if "argv" in pin))
def test_verify_all_stdout_is_byte_stable(capsys, case):
    code, out, _ = run(capsys, *PINS[case]["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[case]["sha256"]


def test_verify_checks_each_built_element_once(capsys, monkeypatch):
    # a long element's builder check and validate_cut's share one pass, so each built element is checked once
    from hypercut import embeddings

    checked, built = [], []
    check = embeddings._Embedded._violation
    monkeypatch.setattr(embeddings._Embedded, "_violation", lambda el, *args: checked.append(el) or check(el, *args))

    def counting(build):
        def wrapper(n, k):
            family = build(n, k)
            built.extend(family.elements)
            return family
        return wrapper

    monkeypatch.setattr(cli, "build_path_cut", counting(cli.build_path_cut))
    monkeypatch.setattr(cli, "build_cycle_cut", counting(cli.build_cycle_cut))
    code, _, _ = run(capsys, "verify", "--scope", "paths", "--nmax", "11", "--jobs", "1")
    assert code == 0
    assert len(checked) == len(built) == 1146
    assert {id(el) for el in checked} == {id(el) for el in built}
