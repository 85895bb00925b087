"""Command-line front end.

Subcommands: construct (build and dump a cut family), verify (compare the
closed-form values against brute force and constructions), oracle (run a
single minimum-cut search), export-dot (draw the cube with removals and
component coloring), property-test (exhaustive checks of the neighbour-count
bounds and of the common-neighbour count).

Exit codes: 0 success, 1 verification mismatch, 2 usage or range error
(or an --out that cannot be written), 3 budget exhausted where exactness
was demanded.  Machine-readable output is byte-stable for deterministic
commands; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import partial
from typing import Callable

from . import analysis, cuts, formulas, oracle
from .analysis import components_after_removal, validate_cut
from .core import Cube, vertex_to_string
from .cuts import CutElement, CutFamily, StructureKind, build_cycle_cut, build_path_cut
from .oracle import BudgetError, SearchBudget, min_structure_cut

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
    """Write text, ending in a newline, to the file out, or to stdout without one."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(command: str, parameters: dict, out: str | None, **fields) -> None:
    """Write the schema-versioned envelope (schema, command, parameters) with the command's fields."""
    payload = {"schema": SCHEMA, "command": command, "parameters": parameters, **fields}
    _emit(json.dumps(payload, indent=2, sort_keys=True), out)


_CSV_COLUMNS = ["scope", "check", "n", "k", "m", "g", "mode", "expected", "actual", "status", "detail"]


def _emit_report(command: str, parameters: dict, rows: list[dict], fmt: str, out: str | None) -> int:
    """Write a verification-style table of rows and its tally; EXIT_MISMATCH if a row failed.

    Timing is kept out of the machine-readable payload so deterministic
    commands stay byte-stable; main prints it to stderr instead.
    """
    summary = {"total": len(rows)}
    for key, status in (("passed", "pass"), ("failed", "fail"), ("skipped", "skipped")):
        summary[key] = sum(1 for r in rows if r["status"] == status)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), out)
    else:
        _emit_json(command, parameters, out, rows=rows, summary=summary)
    print(
        f"[hypercut] {command}: {summary['passed']} passed, "
        f"{summary['failed']} failed, {summary['skipped']} skipped",
        file=sys.stderr,
    )
    return EXIT_MISMATCH if summary["failed"] else EXIT_OK


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


def _construction(shape: str, n: int, k: int) -> tuple[int, Callable[[int, int], CutFamily]]:
    """Range-check a path or cycle cut; return its element count (the exact kappa value) and builder.

    The builder is looked up at call time, so a wrapper on cli.build_path_cut or build_cycle_cut sees every build.
    """
    if shape == "path":
        cuts.check_path_cut(n, k)
        return formulas.kappa_path(n, k).value, build_path_cut
    cuts.check_cycle_cut(n, k)
    return formulas.kappa_cycle(n, k).value, build_cycle_cut


def cmd_construct(args: argparse.Namespace) -> int:
    if args.format == "dot":
        _check_dot_dim(args.n)
    # the element count is the exact kappa value, so the size is known before building
    cardinality, build = _construction(args.kind, args.n, args.k)
    chars = cardinality * args.k * args.n
    if chars > MAX_CONSTRUCT_CHARS:
        raise ValueError(f"k = {args.k} at n = {args.n} prints {chars} label characters,"
                         f" over the construct cap MAX_CONSTRUCT_CHARS = {MAX_CONSTRUCT_CHARS}")
    family = build(args.n, args.k)
    verdict = validate_cut(family)
    if args.format == "dot":
        _emit(render_dot(args.n, family.vertex_union()), args.out)
    else:
        _emit_json("construct", {"n": args.n, "kind": args.kind, "k": args.k}, args.out,
                   family=_family_payload(family), verdict=verdict.status,
                   isolated_vertex=vertex_to_string(0, args.n))  # every built family isolates 00..0
    return EXIT_OK if verdict.ok else EXIT_MISMATCH


# --- verify ---


def _row(scope: str, check: str, status: str, detail: str = "", **params) -> dict:
    row = {"scope": scope, "check": check, "status": status, "detail": detail}
    row.update(params)
    return row


def _construction_row(shape: str, n: int, k: int) -> dict:
    """Build one family and compare it against the validator and the formula."""
    expected, build = _construction(shape, n, k)
    family = build(n, k)
    verdict = validate_cut(family)
    ok = verdict.ok and len(family) == expected
    detail = "" if ok else f"verdict={verdict.status} cardinality={len(family)}"
    return _row(
        f"{shape}s", "construction-vs-formula", "pass" if ok else "fail", detail,
        n=n, k=k, mode="structure", expected=expected, actual=len(family),
    )


def _oracle_value_row(
    scope: str, n: int, kind: StructureKind, mode: str, expected: int,
    bound_only: bool = False,
) -> dict:
    result = min_structure_cut(n, kind, mode)
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
                              formulas.kappa_path(n, k).value)
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
            rows.append(_oracle_value_row("cycles", n, kind, "substructure", sub.value))
            struct = formulas.kappa_cycle(n, k, "structure")
            rows.append(_oracle_value_row("cycles", n, kind, "structure", struct.value,
                                          bound_only=not struct.is_exact))
    return rows + [_construction_row("cycle", n, k)
                   for n in range(5, nmax + 1)
                   for k in range(6, min(1 << (n - 2), 256) + 1, 2)]


def _verify_power_of_two(nmax: int) -> list[dict]:
    rows = [_oracle_value_row("power-of-two", n, StructureKind("cycle", 1 << m), "structure",
                              formulas.kappa_power_of_two_cycle(n, m).value) | {"m": m}
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


# verify scope -> (row builder taking nmax, default --nmax); "all" runs them in this order.  Two parts
# ignore --nmax: g-extra checks n = 4, and power-of-two always runs its oracle rows Q4 C4, Q5 C4 and Q5 C8
_SCOPES = {
    "paths": (_verify_paths, 6),
    "cycles": (_verify_cycles, 6),
    "power-of-two": (_verify_power_of_two, 20),
    "budengs": (_verify_budengs, 64),
    "g-extra": (_verify_g_extra, None),
}
# the largest verify and property-test --nmax, the largest scope default (budengs):
# verify --scope all --nmax 64 took 1.7 s there on 2 vCPUs (median of 5 fresh processes, Python 3.11)
MAX_VERIFY_NMAX = max(default for _, default in _SCOPES.values() if default)


def cmd_verify(args: argparse.Namespace) -> int:
    scopes = list(_SCOPES) if args.scope == "all" else [args.scope]
    if args.nmax is not None and args.nmax < 3:
        raise ValueError(f"--nmax must be at least 3, got {args.nmax}")
    if args.nmax is not None and args.nmax > MAX_VERIFY_NMAX:
        raise ValueError(f"--nmax must be at most {MAX_VERIFY_NMAX}, got {args.nmax}")
    if args.nmax is not None and args.nmax < formulas.BUDENGS_MIN_N and "budengs" in scopes:
        raise ValueError(f"--nmax must be at least {formulas.BUDENGS_MIN_N} for the budengs scope, got {args.nmax}")
    rows = []
    for scope in scopes:
        build_rows, default_nmax = _SCOPES[scope]
        rows.extend(build_rows(default_nmax if args.nmax is None else args.nmax))
    parameters = {"scope": args.scope, "nmax": args.nmax, "jobs": args.jobs}
    return _emit_report("verify", parameters, rows, args.format, args.out)


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
    result = min_structure_cut(args.n, kind, args.mode, SearchBudget(max_family_size=args.max_size))
    parameters = {"n": args.n, "kind": kind.label(), "mode": args.mode, "max_size": args.max_size}
    witness = _family_payload(result.witness) if result.witness else None
    _emit_json("oracle", parameters, args.out, value=result.value, status=result.status,
               exhaustive=result.exhaustive, witness=witness, orbit_statistics=dict(result.stats))
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


def _common_neighbor_checks(nmax: int) -> list[dict]:
    bad = sum(analysis.scan_distance2_common_neighbors(n) for n in range(2, nmax + 1))
    return [{"detail": f"exhaustive n <= {nmax}", "expected": 0, "actual": bad}]


def _bound_checks(shape: str, ks: range, bound: Callable[[int], int], d_max: Callable[[int], int],
                  nmax: int) -> list[dict]:
    """One check per k: the exhaustive maximum of the neighbour count against bound(k).

    d_max(k) is the most coordinates a copy crosses; the maximum is the same
    at every n from d_max(k) + 2 on, and no larger below, so nmax is not read.
    """
    return [{"detail": "exhaustive; the maximum over every n", "n": d_max(k) + 2, "k": k,
             "expected": bound(k), "actual": oracle.neighbor_count_maximum(d_max(k) + 2, shape, k)}
            for k in ks]


# property-test suite -> check builder taking nmax; "all" runs them in this order.
# A check passes when actual <= expected: a count of failing pairs against 0, or a maximum against its bound.
_SUITES = {
    "common-neighbors": _common_neighbor_checks,
    "path-bound": partial(_bound_checks, "path", range(3, 11), analysis.path_neighbor_bound, lambda k: k - 1),
    "cycle-bound": partial(_bound_checks, "cycle", range(4, 11, 2), lambda k: k - 1, lambda k: k // 2),
}


def cmd_property_test(args: argparse.Namespace) -> int:
    if not 2 <= args.nmax <= MAX_VERIFY_NMAX:
        raise ValueError(f"--nmax must be in [2, {MAX_VERIFY_NMAX}], got {args.nmax}")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    rows = [_row("property", suite, "pass" if check["actual"] <= check["expected"] else "fail", **check)
            for suite in suites for check in _SUITES[suite](args.nmax)]
    parameters = {"suite": args.suite, "nmax": args.nmax}
    return _emit_report("property-test", parameters, rows, args.format, args.out)


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
    p.add_argument("--max-size", type=int, default=SearchBudget.max_family_size, dest="max_size")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("export-dot", help="draw Q_n with removals and component coloring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--remove", default="", help="comma-separated vertex bit strings (x^0 first)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_export_dot)

    # no abbreviations, so the retired sampler flag --n is refused, not read as --nmax
    p = sub.add_parser("property-test", help="exhaustive neighbour-count and common-neighbour checks",
                       allow_abbrev=False)
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_property_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    oracle.pool_block.cache_clear()  # each command pays for its own pools and g-extra climb, as a fresh process would
    analysis._g_extra_climb.cache_clear()
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
    except (formulas.NotCoveredError, ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"[hypercut] {args.command} finished in {time.perf_counter() - start:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
