"""Spans around hypercut's module boundaries, recorded from outside the library.

The tracer replaces each function at the name its caller looks up (for
example ``hypercut.oracle.is_disconnecting_mask``, which is what the oracle
calls) with a wrapper that records a span: name, start, end, parent span
and run id.  Spans stay in memory and are returned with the pass report.
The cut-test BFS runs tens of thousands of times per pass, so its calls are
aggregated per dimension (count and total time) instead of kept one by one;
their time still counts as child time of the enclosing span.

A span's self time is its duration minus the time of its direct children.
A layer's inclusive time sums its spans that are not nested inside a span
of the same layer.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("core", "embeddings", "cuts", "analysis", "oracle", "formulas", "cli")

# (module, attribute the caller looks up, span name)
WRAPPED = (
    ("hypercut.cli", "cmd_verify", "cli.verify"),
    ("hypercut.cli", "min_structure_cut", "oracle.search"),
    ("hypercut.oracle", "min_structure_cut", "oracle.search"),
    ("hypercut.core", "automorphism_vertex_tables", "core.aut_tables"),
    ("hypercut.oracle", "automorphism_vertex_tables", "core.aut_tables"),
    ("hypercut.cli", "build_path_cut", "cuts.build"),
    ("hypercut.cli", "build_cycle_cut", "cuts.build"),
    ("hypercut.cuts", "build_path_cut", "cuts.build"),
    ("hypercut.cuts", "build_cycle_cut", "cuts.build"),
    ("hypercut.cuts", "hamiltonian_through_edge", "embeddings.hamiltonian_through_edge"),
    ("hypercut.cuts", "odd_path_between_adjacent", "embeddings.odd_path_between_adjacent"),
    ("hypercut.cuts", "restrict_to_subcube", "embeddings.restrict_to_subcube"),
    ("hypercut.cli", "validate_cut", "analysis.validate"),
    ("hypercut.analysis", "validate_cut", "analysis.validate"),
    ("hypercut.analysis", "components_after_removal", "analysis.components"),
    ("hypercut.analysis", "g_extra_connectivity", "analysis.g_extra"),
    ("hypercut.formulas", "kappa_path", "formulas.kappa_path"),
    ("hypercut.formulas", "kappa_cycle", "formulas.kappa_cycle"),
    ("hypercut.formulas", "kappa_power_of_two_cycle", "formulas.kappa_power_of_two_cycle"),
    ("hypercut.formulas", "kappa_g_extra_formula", "formulas.kappa_g_extra_formula"),
    ("hypercut.formulas", "verify_budengs_inequality", "formulas.verify_budengs_inequality"),
)
BFS = ("hypercut.oracle", "is_disconnecting_mask")

# span fields: name, start, end, parent id, work (vertices or copies), child time
NAME, START, END, PARENT, WORK, CHILD = range(6)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.bfs: dict[int, list] = {}  # n -> [calls, seconds]
        self.counts: Counter = Counter()
        self.searches: list[tuple] = []  # (n, kind, mode) of every oracle search
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._span(name, original))
        module = importlib.import_module(BFS[0])
        original = getattr(module, BFS[1])
        self._undo.append((module, BFS[1], original))
        setattr(module, BFS[1], self._bfs_leaf(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _span(self, name: str, original):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_result = self._hook(name, original)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, 0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[START], span[END] = start, end
                if parent is not None:
                    spans[parent][CHILD] += end - start
            if on_result is not None:
                span[WORK] = on_result(args, kwargs, result)
            return result

        return wrapper

    def _bfs_leaf(self, original):
        spans, stack, bfs, clock = self.spans, self.stack, self.bfs, time.perf_counter

        def wrapper(n, removed_mask):
            start = clock()
            result = original(n, removed_mask)
            elapsed = clock() - start
            agg = bfs.get(n)
            if agg is None:
                agg = bfs[n] = [0, 0.0]
            agg[0] += 1
            agg[1] += elapsed
            if stack:
                spans[stack[-1]][CHILD] += elapsed
            return result

        return wrapper

    def _hook(self, name: str, original):
        """What a span counts as its work, read from the call's result."""
        if name == "oracle.search":
            signature = inspect.signature(original)

            def search(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.searches.append((bound.arguments["n"], bound.arguments["kind"], bound.arguments["mode"]))
                self.counts.update(result.stats)
                return result.stats["copies"]

            return search
        if name == "core.aut_tables":
            cached = original  # the lru_cache object, whatever name it is reached by

            def tables(args, kwargs, result):
                misses = cached.cache_info().misses
                built = len(result) if misses > self.counts["aut_misses"] else 0
                self.counts["aut_misses"] = misses
                self.counts["aut_tables"] += built
                return built

            return tables
        if name == "cuts.build":
            return lambda args, kwargs, family: sum(len(el.verts) for el in family.elements)
        if name.startswith("embeddings."):
            return lambda args, kwargs, built: len(built.verts)
        return None

    def probe_enumerate(self, enumerate_copies) -> None:
        """Time the public copy enumeration once per search the pass made (traced runs only)."""
        run = self._span("oracle.enumerate", enumerate_copies)
        for n, kind, mode in self.searches:
            run(n, kind, mode)

    # --- reading the spans ---

    def _top(self, i: int, group) -> bool:
        """Span i is not nested inside another span of the same group."""
        parent = self.spans[i][PARENT]
        while parent is not None:
            if group(self.spans[parent][NAME]):
                return False
            parent = self.spans[parent][PARENT]
        return True

    def _select(self, group) -> list[int]:
        return [i for i, s in enumerate(self.spans) if group(s[NAME])]

    def inclusive(self, group) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in self._select(group) if self._top(i, group))

    def self_time(self, group) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] - self.spans[i][CHILD] for i in self._select(group))

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer, set-up warm-up included, the enumerate probe left out."""
        out = {
            layer: self.self_time(lambda name, layer=layer: _layer(name) == layer and name != "oracle.enumerate")
            for layer in LAYERS
        }
        out["analysis"] += sum(seconds for _, seconds in self.bfs.values())
        return out

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        def named(prefix):
            return lambda name: name == prefix or name.startswith(prefix + ".")

        def count(prefix):
            return len(self._select(named(prefix)))

        def ratio(a, b):
            return a / b if b else 0.0

        def bfs_us(n):
            calls, seconds = self.bfs.get(n, (0, 0.0))
            return ratio(seconds * 1e6, calls)

        c = self.counts
        embedding_spans = self._select(named("embeddings"))
        built = sum(self.spans[i][WORK] for i in embedding_spans)
        # the wasted-work ratio: family vertices kept from the builds that called embeddings
        callers = {self.spans[i][PARENT] for i in embedding_spans}
        kept = sum(self.spans[i][WORK] for i in callers if i is not None and self.spans[i][NAME] == "cuts.build")
        return {
            "oracle.search_s": self.inclusive(named("oracle.search")),
            "oracle.self_s": self.self_time(named("oracle.search")),
            "oracle.searches": count("oracle.search"),
            "oracle.enumerate_s": self.inclusive(named("oracle.enumerate")),
            "oracle.copies": c["copies"],
            "oracle.orbits": c["orbits"],
            "oracle.orbit_ratio": ratio(c["orbits"], c["copies"]),
            "oracle.cut_tests": c["cut_tests"],
            "oracle.memo_hits": c["memo_hits"],
            "oracle.memo_hit_ratio": ratio(c["memo_hits"], c["memo_hits"] + c["cut_tests"]),
            "analysis.bfs_calls": sum(calls for calls, _ in self.bfs.values()),
            "analysis.bfs_s": sum(seconds for _, seconds in self.bfs.values()),
            "analysis.bfs_us.n4": bfs_us(4),
            "analysis.bfs_us.n5": bfs_us(5),
            "analysis.validate_s": self.inclusive(named("analysis.validate")),
            "analysis.components_s": self.inclusive(named("analysis.components")),
            "analysis.validate_calls": count("analysis.validate"),
            "analysis.g_extra_s": self.inclusive(named("analysis.g_extra")),
            "embeddings.s": self.inclusive(named("embeddings")),
            "embeddings.calls": count("embeddings"),
            "embeddings.vertices_built": built,
            "cuts.build_s": self.inclusive(named("cuts.build")),
            "cuts.self_s": self.self_time(named("cuts")),
            "cuts.families": count("cuts.build"),
            "cuts.kept_ratio": ratio(kept, built),
            "core.aut_tables_s": self.inclusive(named("core.aut_tables")),
            "core.aut_tables": c["aut_tables"],
            "formulas.s": self.inclusive(named("formulas")),
            "formulas.calls": count("formulas"),
            "cli.verify_s": self.inclusive(named("cli.verify")),
            "cli.self_s": self.self_time(named("cli")),
            "cli.stdout_bytes": stdout_bytes,
        }

    def export(self) -> list[dict]:
        """Spans and the aggregated BFS calls as JSON-ready records."""
        out = [
            {"run": self.run_id, "id": i, "name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "work": s[WORK]}
            for i, s in enumerate(self.spans)
        ]
        out += [
            {"run": self.run_id, "name": "analysis.bfs", "n": n, "calls": calls, "seconds": seconds}
            for n, (calls, seconds) in sorted(self.bfs.items())
        ]
        return out
