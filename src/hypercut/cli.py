"""Command-line front end.

Subcommands: construct (build and dump a cut family), verify (compare the
closed-form values against brute force and constructions), oracle (run a
single minimum-cut search), export-dot (draw the cube with removals and
component coloring), property-test (seeded randomized bound suites).

Exit codes: 0 success, 1 verification mismatch, 2 usage or range error,
3 budget exhausted where exactness was demanded.  Machine-readable output
is byte-stable for deterministic commands; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import analysis, cuts, formulas, oracle
from .analysis import components_after_removal, validate_cut
from .core import Cube, vertex_to_string
from .cuts import CutElement, CutFamily, StructureKind, build_cycle_cut, build_path_cut
from .oracle import MAX_SEARCH_DIM, BudgetError, SearchBudget, default_family_size, min_structure_cut

SCHEMA = "hypercut/v1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The most label characters construct prints (cardinality * k * n); at the
# cap, a path cut at n = 21 with k = 2^20 writes about 37 MB of JSON.
MAX_CONSTRUCT_CHARS = 21 << 20
# The largest n drawn as DOT: render_dot writes all 2^n vertices and n * 2^(n-1) edges.
MAX_DOT_DIM = 8
# The largest property-test --nmax: the common-neighbour scan takes 2^n * C(n, 2)
# steps, which came to 7-8 s at --nmax 14 and about 5.5 times that at 16 on 2 vCPUs.
MAX_SCAN_DIM = 14
# The largest property-test --n: cycle-bound samples cycles by closing random walks, and
# --trials 200 took 1.3 / 2.0 / 3.8 / 6.5 s at n = 20 / 24 / 28 / 32 on 2 vCPUs.
MAX_SAMPLE_DIM = 24
# The largest property-test --trials, the default: sampling is linear in it, and at --n 24
# cycle-bound took 1.7 / 8.4 s for 200 / 1,000 trials and suite all 88 s at the cap on 2 vCPUs.
MAX_TRIALS = 10_000

_PALETTE = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
    "#a6d854", "#ffd92f", "#e5c494", "#b3b3b3",
)


def _element_payload(el: CutElement, n: int) -> dict:
    payload = {"type": el.shape, "vertices": [vertex_to_string(v, n) for v in el.verts]}
    if el.shape == "star":
        payload["center"] = vertex_to_string(el.center, n)
    return payload


def _family_payload(family: CutFamily) -> dict:
    return {
        "n": family.n,
        "kind": family.kind.label(),
        "mode": family.mode,
        "cardinality": len(family),
        "elements": [_element_payload(el, family.n) for el in family.elements],
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True), out)


_CSV_COLUMNS = ["scope", "check", "n", "k", "m", "g", "mode", "expected", "actual", "status", "detail"]


@dataclass
class RunReport:
    """Result table of a verification-style run.

    Timing is kept out of the machine-readable payload so deterministic
    commands stay byte-stable; main prints it to stderr instead.
    """

    command: str
    parameters: dict
    rows: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(r["status"] == "fail" for r in self.rows)

    def summary(self) -> dict:
        return {
            "total": len(self.rows),
            "passed": sum(1 for r in self.rows if r["status"] == "pass"),
            "failed": sum(1 for r in self.rows if r["status"] == "fail"),
            "skipped": sum(1 for r in self.rows if r["status"] == "skipped"),
        }

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "command": self.command,
            "parameters": self.parameters,
            "rows": self.rows,
            "summary": self.summary(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()


def _emit_report(report: RunReport, fmt: str, out: str | None) -> None:
    _emit(report.to_csv() if fmt == "csv" else report.to_json(), out)
    summary = report.summary()
    print(
        f"[hypercut] {report.command}: {summary['passed']} passed, "
        f"{summary['failed']} failed, {summary['skipped']} skipped",
        file=sys.stderr,
    )


def render_dot(n: int, removed: frozenset[int]) -> str:
    """DOT drawing of Q_n: removed vertices boxed gray, components colored."""
    color_of: dict[int, str] = {}
    for idx, comp in enumerate(components_after_removal(n, removed)):
        for v in comp:
            color_of[v] = _PALETTE[idx % len(_PALETTE)]
    lines = [f"graph Q{n} {{"]
    lines.append('  node [shape=circle, style=filled, fontname="monospace"];')
    for v in range(1 << n):
        name = vertex_to_string(v, n)
        if v in removed:
            lines.append(f'  "{name}" [shape=box, fillcolor="gray80", style="filled,dashed"];')
        else:
            lines.append(f'  "{name}" [fillcolor="{color_of[v]}"];')
    for u, w in Cube(n).edges():
        style = ' [style=dotted]' if (u in removed or w in removed) else ""
        lines.append(f'  "{vertex_to_string(u, n)}" -- "{vertex_to_string(w, n)}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- construct ---


def _check_dot_dim(n: int) -> None:
    if n > MAX_DOT_DIM:
        raise ValueError(f"DOT export is readable up to n = {MAX_DOT_DIM}, got {n}")


def cmd_construct(args: argparse.Namespace) -> int:
    if args.format == "dot":
        _check_dot_dim(args.n)
    if args.kind == "path":
        cuts.check_path_cut(args.n, args.k)
        kappa, build = formulas.kappa_path, build_path_cut
    else:
        cuts.check_cycle_cut(args.n, args.k)
        kappa, build = formulas.kappa_cycle, build_cycle_cut
    # the family's element count is the exact kappa value, so the size is known before building
    chars = kappa(args.n, args.k).value * args.k * args.n
    if chars > MAX_CONSTRUCT_CHARS:
        raise ValueError(f"k = {args.k} at n = {args.n} prints {chars} label characters,"
                         f" over the construct cap MAX_CONSTRUCT_CHARS = {MAX_CONSTRUCT_CHARS}")
    family = build(args.n, args.k)
    if args.format == "dot":
        _emit(render_dot(args.n, family.vertex_union()), args.out)
        return EXIT_OK
    verdict = validate_cut(family)
    payload = {
        "schema": SCHEMA,
        "command": "construct",
        "parameters": {"n": args.n, "kind": args.kind, "k": args.k},
        "family": _family_payload(family),
        "isolated_vertex": vertex_to_string(0, args.n),  # every built family isolates 00..0
        "verdict": verdict.status,
    }
    _emit_json(payload, args.out)
    return EXIT_OK if verdict.ok else EXIT_MISMATCH


# --- verify ---


def _row(scope: str, check: str, status: str, detail: str = "", **params) -> dict:
    row = {"scope": scope, "check": check, "status": status, "detail": detail}
    row.update(params)
    return row


def _construction_row(shape: str, n: int, k: int) -> dict:
    """Build one family and compare it against the validator and the formula."""
    if shape == "path":
        family = build_path_cut(n, k)
        expected = formulas.kappa_path(n, k).value
    else:
        family = build_cycle_cut(n, k)
        expected = formulas.kappa_cycle(n, k, "structure").value
    verdict = validate_cut(family)
    ok = verdict.ok and len(family) == expected
    detail = "" if ok else f"verdict={verdict.status} cardinality={len(family)}"
    return _row(
        f"{shape}s", "construction-vs-formula", "pass" if ok else "fail", detail,
        n=n, k=k, mode="structure", expected=expected, actual=len(family),
    )


def _oracle_value_row(
    scope: str, n: int, kind: StructureKind, mode: str, expected: int,
    budget: SearchBudget, bound_only: bool = False,
) -> dict:
    result = min_structure_cut(n, kind, mode, budget)
    if result.status != formulas.EXACT:
        return _row(scope, "oracle-vs-formula", "skipped",
                    f"search budget exhausted at size {result.value - 1}",
                    n=n, k=kind.size, mode=mode, expected=expected, actual=None)
    if bound_only:
        ok = result.value >= expected
        check = "oracle-respects-bound"
    else:
        ok = result.value == expected
        check = "oracle-vs-formula"
    return _row(scope, check, "pass" if ok else "fail", "",
                n=n, k=kind.size, mode=mode, expected=expected, actual=result.value)


def _verify_paths(nmax: int) -> list[dict]:
    rows = [_oracle_value_row("paths", n, StructureKind("path", k), mode,
                              formulas.kappa_path(n, k).value, SearchBudget())
            for n in range(3, min(nmax, 4) + 1)
            for k in range(3, (1 << (n - 1)) + 1)
            for mode in ("structure", "substructure")]
    return rows + [_construction_row("path", n, k)
                   for n in range(3, nmax + 1)
                   for k in range(3, min(1 << (n - 1), 256) + 1)]


def _verify_cycles(nmax: int) -> list[dict]:
    rows = []
    for n in range(3, min(nmax, 4) + 1):
        for k in range(4, (1 << (n - 1)) + 1, 2):
            kind = StructureKind("cycle", k)
            sub = formulas.kappa_cycle(n, k, "substructure")
            rows.append(_oracle_value_row("cycles", n, kind, "substructure", sub.value, SearchBudget()))
            struct = formulas.kappa_cycle(n, k, "structure")
            rows.append(_oracle_value_row("cycles", n, kind, "structure", struct.value,
                                          SearchBudget(), bound_only=not struct.is_exact))
    return rows + [_construction_row("cycle", n, k)
                   for n in range(5, nmax + 1)
                   for k in range(6, min(1 << (n - 2), 256) + 1, 2)]


def _verify_power_of_two(nmax: int) -> list[dict]:
    budget = SearchBudget(max_family_size=3, max_dimension=MAX_SEARCH_DIM)
    rows = [_oracle_value_row("power-of-two", n, StructureKind("cycle", 1 << m), "structure",
                              formulas.kappa_power_of_two_cycle(n, m).value, budget) | {"m": m}
            for n, m in ((4, 2), (5, 2), (5, 3))]
    # kappa_power_of_two_cycle itself raises where the general cycle value disagrees
    for n in range(4, nmax + 1):
        for m in range(2, n - 1):
            value = formulas.kappa_power_of_two_cycle(n, m).value
            ok = n < 6 or m < 3 or value < n - m
            rows.append(_row("power-of-two", "formula-consistency",
                             "pass" if ok else "fail", "",
                             n=n, m=m, expected=value, actual=value))
    return rows


def _verify_budengs(nmax: int) -> list[dict]:
    violations = formulas.verify_budengs_inequality(nmax)
    status = "pass" if not violations else "fail"
    return [_row("budengs", "inequality-sweep", status,
                 f"violations={violations}" if violations else "",
                 n=nmax, expected=0, actual=len(violations))]


def _verify_g_extra(nmax: int) -> list[dict]:
    n = 4
    rows = []
    for g in range(0, n + 1):
        expected = formulas.kappa_g_extra_formula(n, g)
        actual = analysis.g_extra_connectivity(n, g)
        rows.append(_row("g-extra", "oracle-vs-formula", "pass" if actual == expected else "fail", "",
                         n=n, g=g, expected=expected, actual=actual))
    return rows


# verify scope -> (row builder taking nmax, default --nmax);
# "all" runs them in this order, and g-extra checks n = 4 whatever --nmax says
_SCOPES = {
    "paths": (_verify_paths, 6),
    "cycles": (_verify_cycles, 6),
    "power-of-two": (_verify_power_of_two, 20),
    "budengs": (_verify_budengs, 64),
    "g-extra": (_verify_g_extra, None),
}
# the largest --nmax, the largest scope default (budengs): scope all took 5.5 s there on 2 vCPUs
MAX_VERIFY_NMAX = max(default for _, default in _SCOPES.values() if default)


def cmd_verify(args: argparse.Namespace) -> int:
    scopes = list(_SCOPES) if args.scope == "all" else [args.scope]
    if args.nmax is not None and args.nmax < 3:
        raise ValueError(f"--nmax must be at least 3, got {args.nmax}")
    if args.nmax is not None and args.nmax > MAX_VERIFY_NMAX:
        raise ValueError(f"--nmax must be at most {MAX_VERIFY_NMAX}, got {args.nmax}")
    report = RunReport("verify", {"scope": args.scope, "nmax": args.nmax, "jobs": args.jobs})
    for scope in scopes:
        build_rows, default_nmax = _SCOPES[scope]
        report.rows.extend(build_rows(default_nmax if args.nmax is None else args.nmax))
    _emit_report(report, args.format, args.out)
    return EXIT_OK if report.passed else EXIT_MISMATCH


# --- oracle ---


def _parse_kind(kind_name: str, k: int | None) -> StructureKind:
    if kind_name in ("vertex", "edge"):
        if k is not None:
            raise ValueError(f"--k does not apply to kind {kind_name!r}")
        return StructureKind(kind_name, 1 if kind_name == "vertex" else 2)
    if k is None:
        raise ValueError(f"kind {kind_name!r} needs --k")
    return StructureKind(kind_name, k)


def cmd_oracle(args: argparse.Namespace) -> int:
    kind = _parse_kind(args.kind, args.k)
    max_size = args.max_size if args.max_size is not None else default_family_size(args.n)
    budget = SearchBudget(max_family_size=max_size, max_dimension=MAX_SEARCH_DIM)
    result = min_structure_cut(args.n, kind, args.mode, budget)
    payload = {
        "schema": SCHEMA,
        "command": "oracle",
        "parameters": {
            "n": args.n, "kind": kind.label(), "mode": args.mode, "max_size": max_size,
        },
        "value": result.value,
        "status": result.status,
        "exhaustive": result.exhaustive,
        "witness": _family_payload(result.witness) if result.witness else None,
        "orbit_statistics": dict(result.stats),
    }
    _emit_json(payload, args.out)
    if result.status == formulas.LOWER_BOUND:
        print(f"no cut of size <= {result.value - 1}; minimum is at least {result.value}",
              file=sys.stderr)
    return EXIT_OK


# --- export-dot ---


def cmd_export_dot(args: argparse.Namespace) -> int:
    _check_dot_dim(args.n)
    removed: set[int] = set()
    if args.remove:
        cube = Cube(args.n)
        for chunk in args.remove.split(","):
            removed.add(cube.from_string(chunk.strip()))
    _emit(render_dot(args.n, frozenset(removed)), args.out)
    return EXIT_OK


# --- property-test ---


def cmd_property_test(args: argparse.Namespace) -> int:
    if not 2 <= args.nmax <= MAX_SCAN_DIM:
        raise ValueError(f"--nmax must be in [2, {MAX_SCAN_DIM}], got {args.nmax}")
    if args.n > MAX_SAMPLE_DIM:
        raise ValueError(f"--n must be at most {MAX_SAMPLE_DIM}, got {args.n}")
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must be in [1, {MAX_TRIALS}], got {args.trials}")
    suites = ["common-neighbors", "path-bound", "cycle-bound"] if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    report = RunReport("property-test",
                       {"suite": args.suite, "seed": args.seed, "trials": args.trials, "n": args.n})
    for suite in suites:
        if suite == "common-neighbors":
            bad = sum(analysis.scan_distance2_common_neighbors(n) for n in range(2, args.nmax + 1))
            report.rows.append(_row("property", suite, "pass" if bad == 0 else "fail",
                                    f"exhaustive n <= {args.nmax}", expected=0, actual=bad))
        else:
            if suite == "path-bound":
                violations = analysis.run_path_bound_trials(args.n, range(3, 10), args.trials, rng)
            else:
                violations = analysis.run_cycle_bound_trials(args.n, (4, 6, 8), args.trials, rng)
            report.rows.append(_row("property", suite, "pass" if not violations else "fail",
                                    f"trials={args.trials} n={args.n}", expected=0, actual=len(violations)))
    _emit_report(report, args.format, args.out)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercut",
        description="Structure/substructure connectivity toolkit for hypercube networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an explicit cut family and dump it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["path", "cycle"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("verify", help="compare formulas against brute force and constructions")
    p.add_argument("--scope", choices=[*_SCOPES, "all"], default="all")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    # rows are built serially; perfbench passes --jobs 1 and pins the "jobs": 1 it echoes
    p.add_argument("--jobs", type=int, choices=[1], default=1)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oracle", help="run a single brute-force minimum-cut search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["path", "cycle", "star", "vertex", "edge"], required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mode", choices=["structure", "substructure"], default="structure")
    p.add_argument("--max-size", type=int, default=None, dest="max_size")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("export-dot", help="draw Q_n with removals and component coloring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--remove", default="", help="comma-separated vertex bit strings (x^0 first)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_export_dot)

    p = sub.add_parser("property-test", help="seeded randomized bound suites")
    p.add_argument("--suite", choices=["common-neighbors", "path-bound", "cycle-bound", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=20250810)
    p.add_argument("--trials", type=int, default=MAX_TRIALS)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_property_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    oracle.pool_block.cache_clear()  # each command pays for its own pools, as a fresh process would
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        code = args.handler(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (formulas.NotCoveredError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"[hypercut] {args.command} finished in {time.perf_counter() - start:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
