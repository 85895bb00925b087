"""The benchmark's tracer wraps hypercut functions by the name their callers
look up.  It resolves those names only when a traced run installs it, so a
cleanup that drops an import breaks ``perfbench/run.py --trace 1`` with an
AttributeError.  This guard reads the names from ``perfbench/tracing.py``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = _load_tracing()
    names = [(module, attr) for module, attr, _ in tracing.WRAPPED] + [tracing.BFS]
    assert len(names) > 1
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_the_aut_tables_hook_reads_the_tables_cache():
    # the tracer counts core.aut_tables from the cache's misses, so dropping the lru_cache breaks a traced run
    core = importlib.import_module("hypercut.core")
    assert callable(getattr(core.automorphism_vertex_tables, "cache_info", None))
