"""The runtime depends on the standard library and click only: every import
in the `gamesight` package must name one of those or the package itself."""

import ast
import sys
from pathlib import Path

import gamesight

ALLOWED = {"gamesight", "click"}


def _top_level_imports(source: str) -> set[str]:
    """First dotted component of every absolute import, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _foreign(names: set[str]) -> set[str]:
    return {n for n in names if n not in ALLOWED and n not in sys.stdlib_module_names}


def test_runtime_imports_only_stdlib_and_click():
    modules = sorted(Path(gamesight.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    foreign = {str(m.name): _foreign(_top_level_imports(m.read_text())) for m in modules}
    assert {name: deps for name, deps in foreign.items() if deps} == {}


def test_guard_sees_imports_inside_functions():
    source = "from . import pcap\nimport json, click.core\n\ndef f():\n    import numpy.linalg as la\n"
    assert _top_level_imports(source) == {"json", "click", "numpy"}
    assert _foreign(_top_level_imports(source)) == {"numpy"}
