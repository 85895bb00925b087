import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypercut import cli
from hypercut.cli import MAX_CONSTRUCT_CHARS, main, render_dot


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


# n = 5..12: paths k in {3, 2n-2, 2n-1, 2n, 2^(n-1)}, cycles k in {6, 2n, 2n+2, 2^(n-2)}
# with 6 <= k <= 2^(n-2); recorded before construction walked the Gray code by index
_CONSTRUCT_LADDER_SHA256 = "9c5daf62da00356e1a7db0f598058341e9cbe289479e845382bc8bba0996371a"


def test_construct_ladder_stdout_is_byte_stable(capsys):
    outs = []
    for n in range(5, 13):
        specs = [("path", k) for k in (3, 2 * n - 2, 2 * n - 1, 2 * n, 1 << (n - 1))]
        specs += [("cycle", k) for k in (6, 2 * n, 2 * n + 2, 1 << (n - 2)) if 6 <= k <= 1 << (n - 2)]
        for kind, k in specs:
            code, out, _ = run(capsys, "construct", "--n", str(n), "--kind", kind, "--k", str(k))
            assert code == 0
            outs.append(out)
    assert len(outs) == 70
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == _CONSTRUCT_LADDER_SHA256


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


# every kind and mode at n = 3, 4 with the default family-size budget, and two
# n = 5 searches; re-recorded when the seeded pass began cut-testing the union of
# the elements it chose, which changed witnesses and counters but no value
_ORACLE_SHA256 = "870c035c6d2cb6ba772aa3ad7687459c7b2a1d4f28f8e90fcd50ca1758b445bb"


def test_oracle_stdout_is_byte_stable(capsys):
    outs = []
    for argv in _oracle_pin_commands():
        code, out, _ = run(capsys, "oracle", *argv)
        assert code == 0
        outs.append(out)
    assert len(outs) == 44
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == _ORACLE_SHA256


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
    args = ("property-test", "--suite", "path-bound", "--n", "5",
            "--trials", "200", "--seed", "99")
    code, first, _ = run(capsys, *args)
    assert code == 0
    _, second, _ = run(capsys, *args)
    assert first == second
    assert json.loads(first)["rows"][0]["status"] == "pass"


@pytest.mark.parametrize("nmax", ["1", "-5", str(cli.MAX_SCAN_DIM + 1), "64"])
def test_property_test_refuses_nmax_out_of_range(capsys, monkeypatch, nmax):
    def scan(n):
        raise AssertionError("scanned before refusing")

    monkeypatch.setattr(cli.analysis, "scan_distance2_common_neighbors", scan)
    code, out, err = run(capsys, "property-test", "--suite", "common-neighbors", "--nmax", nmax)
    assert code == 2
    assert out == ""
    assert f"[2, {cli.MAX_SCAN_DIM}]" in err


@pytest.mark.parametrize("suite", ["path-bound", "cycle-bound", "all"])
def test_property_test_refuses_n_above_ceiling(capsys, monkeypatch, suite):
    def sample(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(cli.analysis, "run_path_bound_trials", sample)
    monkeypatch.setattr(cli.analysis, "run_cycle_bound_trials", sample)
    monkeypatch.setattr(cli.analysis, "scan_distance2_common_neighbors", sample)
    for n in (str(cli.MAX_SAMPLE_DIM + 1), "1000000000"):
        code, out, err = run(capsys, "property-test", "--suite", suite, "--n", n)
        assert code == 2
        assert out == ""
        assert f"--n must be at most {cli.MAX_SAMPLE_DIM}, got {n}" in err


def _no_sampling(*args):
    raise AssertionError("sampled or scanned before refusing")


@pytest.mark.parametrize("trials", ["0", "-5", str(cli.MAX_TRIALS + 1), "1000000000"])
def test_property_test_refuses_trials_out_of_range(capsys, monkeypatch, trials):
    monkeypatch.setattr(cli.analysis, "run_path_bound_trials", _no_sampling)
    monkeypatch.setattr(cli.analysis, "run_cycle_bound_trials", _no_sampling)
    monkeypatch.setattr(cli.analysis, "scan_distance2_common_neighbors", _no_sampling)
    for suite in ("path-bound", "cycle-bound", "all"):
        code, out, err = run(capsys, "property-test", "--suite", suite, "--trials", trials)
        assert code == 2
        assert out == ""
        assert f"--trials must be in [1, {cli.MAX_TRIALS}], got {trials}" in err


def test_property_test_samples_the_trials_cap(capsys):
    code, out, _ = run(capsys, "property-test", "--suite", "path-bound",
                       "--trials", str(cli.MAX_TRIALS))
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["status"] == "pass"
    assert row["detail"] == f"trials={cli.MAX_TRIALS} n=6"


def test_property_test_samples_at_the_ceiling(capsys):
    code, out, _ = run(capsys, "property-test", "--suite", "path-bound",
                       "--n", str(cli.MAX_SAMPLE_DIM), "--trials", "50")
    assert code == 0
    assert json.loads(out)["rows"][0]["status"] == "pass"


def test_property_test_scans_from_dimension_2(capsys):
    code, out, _ = run(capsys, "property-test", "--suite", "common-neighbors", "--nmax", "2")
    assert code == 0
    assert json.loads(out)["rows"][0]["detail"] == "exhaustive n <= 2"


def test_usage_error_exit_code(capsys):
    assert main(["construct", "--n", "5"]) == 2  # missing required flags
    capsys.readouterr()


def test_render_dot_components_colored():
    text = render_dot(3, frozenset({1, 2, 4}))
    # complement splits into {0} and the far 4 vertices: two distinct colors
    colors = {l.split('fillcolor="')[1].split('"')[0]
              for l in text.splitlines() if 'fillcolor="#' in l}
    assert len(colors) == 2


# (arguments, sha256 of stdout); the "unset" digest, named for the unset oracle
# ceiling it was first recorded under, is the one perfbench/workloads.py pins
_PINNED_STDOUT = {
    "unset": (("verify", "--scope", "all", "--jobs", "1"),
              "646e4b8e7577b7f52d7fbdba0bbf9e41e408d0e5b36fb0afb91506dfd24face3"),
    "cycles-csv": (("verify", "--scope", "cycles", "--format", "csv", "--jobs", "1"),
                   "883b5296cad3b512a2a3156a209985ac50129f3d385a9eb636910e17ec3688c4"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_STDOUT))
def test_verify_all_stdout_is_byte_stable(capsys, case):
    argv, expected = _PINNED_STDOUT[case]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected
