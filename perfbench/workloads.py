"""The benchmark's workloads: what one pass runs, and how each verdict is checked.

Every workload is closed-loop: one interpreter, one operation at a time,
and no search or construction repeats inside one interpreter, because a
user pays for each search once per command.  The seed fixes the order of
the operations and, for ``construct``, the drawn ``k`` values; every pass
of one run repeats the same operations.

Why these three:

verify
    The north-star end-to-end target, ``hypercut verify --scope all`` and
    ``verify --scope paths --nmax 11`` through ``hypercut.cli.main``.  Its
    oracle searches are pool-heavy and their seeded pass hits; about half
    its time is construction and validation.  It is the only workload that
    exercises ``cli`` and ``formulas``.
oracle-sweep
    Small-pool searches (at most 1,792 copies) whose seeded pass misses, so
    the exhaustive sweep runs.  Time goes to the cut-test BFS at n = 4, 5
    and to the combination loop: a BFS or sweep change shows here, a pool
    change does not.
construct
    Path and cycle cut constructions over a ladder of n, in the O(n)
    window regime and in the extended-path / long-cycle regime that builds
    a full Gray cycle.  It calls no oracle code, so an oracle change must
    predict no change here, and it carries the largest memory.  The BFS
    runs here on a few 2^n-bit masks with n up to 17, against many tiny
    n <= 5 masks in ``oracle-sweep``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from certificate import certify
from hypercut import analysis, cli, core, cuts, oracle
from hypercut.embeddings import CubeCycle

# sha256 of the byte-stable JSON each verify command prints (parent commit 66591a2)
VERIFY_COMMANDS = {
    "all": (
        ["verify", "--scope", "all", "--jobs", "1"],
        "646e4b8e7577b7f52d7fbdba0bbf9e41e408d0e5b36fb0afb91506dfd24face3",
    ),
    "paths-11": (
        ["verify", "--scope", "paths", "--nmax", "11", "--jobs", "1"],
        "f6ae5f6a8d29ef16b445ce69809696db98d23b35655db55f7d6abd42714a9b5e",
    ),
}

# Known values from the closed forms, never from the oracle under test:
# vertex n, edge n - 1, P_k ceil(2n/(k+1)) for odd k and ceil(2n/k) for even
# k >= 3, C4 n - 2 (structure) and ceil(n/2) (substructure), K1,3
# substructure ceil(n/2).  At a family-size cap of 3 a value of 4 can only
# come back as the lower bound 4.
_Q5 = (3, 5)
_Q4 = (4, 4)
ORACLE_CASES = (
    # (n, kind, size, mode, SearchBudget args, value, status)
    (5, "path", 1, "structure", _Q5, 4, "lower-bound"),
    (5, "path", 1, "substructure", _Q5, 4, "lower-bound"),
    (5, "path", 2, "structure", _Q5, 4, "lower-bound"),
    (5, "path", 2, "substructure", _Q5, 4, "lower-bound"),
    (5, "path", 3, "structure", _Q5, 3, "exact"),
    (5, "path", 3, "substructure", _Q5, 3, "exact"),
    (5, "path", 4, "structure", _Q5, 3, "exact"),
    (5, "path", 4, "substructure", _Q5, 3, "exact"),
    (5, "cycle", 4, "structure", _Q5, 3, "exact"),
    (5, "cycle", 4, "substructure", _Q5, 3, "exact"),
    (4, "vertex", 1, "structure", _Q4, 4, "exact"),
    (4, "vertex", 1, "substructure", _Q4, 4, "exact"),
    (4, "edge", 2, "structure", _Q4, 3, "exact"),
    (4, "edge", 2, "substructure", _Q4, 3, "exact"),
    (4, "star", 3, "substructure", _Q4, 2, "exact"),
)

# construct: every family of these dimensions is validated; the last
# dimension is built only, which keeps one pass near four seconds
CONSTRUCT_VALIDATED = range(12, 18)
CONSTRUCT_BUILD_ONLY = (18,)


def _is_cut(n: int, removed: set[int]) -> bool:
    """Plain BFS: is Q_n minus removed disconnected or at most one vertex?"""
    rest = set(range(1 << n)) - removed
    if len(rest) <= 1:
        return True
    start = next(iter(rest))
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for i in range(n):
            w = v ^ (1 << i)
            if w in rest and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) != len(rest)


class Workload:
    def stdout_bytes(self, result) -> int:
        """Bytes the operation printed to stdout; only verify prints."""
        return 0


class Verify(Workload):
    def warm(self) -> None:
        for n in (3, 4, 5):
            core.automorphism_vertex_tables(n)
        for n in range(3, 12):
            analysis.coordinate_shift_masks(n)

    def operations(self, seed: int) -> list[str]:
        ops = sorted(VERIFY_COMMANDS)
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, op: str) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(VERIFY_COMMANDS[op][0]))
        return code, out.getvalue()

    def check(self, op: str, result: tuple[int, str]) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        failed = json.loads(text)["summary"]["failed"]
        if failed:
            return f"{failed} rows failed"
        if hashlib.sha256(text.encode()).hexdigest() != VERIFY_COMMANDS[op][1]:
            return "stdout differs from the recorded sha256"
        return None

    def stdout_bytes(self, result: tuple[int, str]) -> int:
        return len(result[1].encode())


class OracleSweep(Workload):
    def warm(self) -> None:
        for n in (4, 5):
            core.automorphism_vertex_tables(n)
            analysis.coordinate_shift_masks(n)

    def operations(self, seed: int) -> list[tuple]:
        ops = list(ORACLE_CASES)
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, op: tuple) -> oracle.OracleResult:
        n, name, size, mode, budget, _, _ = op
        return oracle.min_structure_cut(
            n, cuts.StructureKind(name, size), mode, oracle.SearchBudget(*budget)
        )

    def check(self, op: tuple, result: oracle.OracleResult) -> str | None:
        n, _, _, _, _, value, status = op
        if (result.value, result.status) != (value, status):
            return f"got {result.value} {result.status}, known {value} {status}"
        if status == "exact":
            removed = {v for el in result.witness.elements for v in el.verts}
            if len(result.witness) != value or not _is_cut(n, removed):
                return "witness is not a cut of the reported size"
        return None


class Construct(Workload):
    def warm(self) -> None:
        for n in CONSTRUCT_VALIDATED:
            analysis.coordinate_shift_masks(n)

    def operations(self, seed: int) -> list[tuple[str, int, int, bool]]:
        """Four families per n: path and cycle, each in both regimes, k drawn from the seed."""
        rng = random.Random(seed)
        ops = []
        for n in (*CONSTRUCT_VALIDATED, *CONSTRUCT_BUILD_ONLY):
            validate = n in CONSTRUCT_VALIDATED
            ops += [
                ("path", n, rng.randint(3, 2 * n - 2), validate),
                ("path", n, rng.randint(2 * n - 1, 1 << (n - 1)), validate),
                ("cycle", n, 2 * rng.randint(3, n), validate),
                ("cycle", n, 2 * rng.randint(n + 1, 1 << (n - 3)), validate),
            ]
        rng.shuffle(ops)
        return ops

    def run(self, op: tuple[str, int, int, bool]):
        shape, n, k, validate = op
        build = cuts.build_path_cut if shape == "path" else cuts.build_cycle_cut
        family = build(n, k)
        return family, analysis.validate_cut(family) if validate else None

    def check(self, op: tuple[str, int, int, bool], result) -> str | None:
        shape, n, k, _ = op
        family, verdict = result
        if verdict is not None and not verdict.ok:
            return f"validate_cut says {verdict.status}"
        for el in family.elements:
            reason = el.violation()
            if reason:
                return reason
        elements = [(isinstance(el, CubeCycle), el.verts) for el in family.elements]
        return certify(n, shape, k, elements)


WORKLOADS = {"verify": Verify(), "oracle-sweep": OracleSweep(), "construct": Construct()}
