import ast
from pathlib import Path

import hypercut


def test_every_exported_name_resolves():
    assert len(hypercut.__all__) == len(set(hypercut.__all__))
    for name in hypercut.__all__:
        assert getattr(hypercut, name, None) is not None, name


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from hypercut import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(hypercut.__all__)


def test_the_root_exports_exactly_what_the_readme_quick_start_imports_and_the_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "hypercut" for alias in node.names}
    exec(compile(block, "README.md", "exec"), {})
    assert set(hypercut.__all__) == imported
