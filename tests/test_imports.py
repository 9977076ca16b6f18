"""The runtime depends on the standard library and click only: every import
in the `gamesight` package must name one of those or the package itself."""

import ast
import os
import subprocess
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


def test_every_exported_name_resolves():
    missing = [name for name in gamesight.__all__ if not hasattr(gamesight, name)]
    assert missing == []


def test_analyze_does_not_import_the_generator():
    """`analyze` never compiles the capture generator; the package still
    exports the generator's names and loads them on first use."""
    code = (
        "import sys; from gamesight import cli; assert 'gamesight.synth' not in sys.modules; "
        "from gamesight import SessionProfile; assert 'gamesight.synth' in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gamesight.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_the_pipeline_takes_no_codebook_matching():
    """Only the detector matches against codebooks: of `codebook`, the
    pipeline imports the codebook type and the shipped codebooks, and
    nothing else."""
    tree = ast.parse((Path(gamesight.__file__).parent / "pipeline.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("gamesight." if node.level else "") + (node.module or "gamesight")
            names = [alias.name for alias in node.names]
            if module == "gamesight.codebook":
                imported.update(names)
            elif module == "gamesight" and "codebook" in names:
                imported.add("the codebook module")
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("gamesight.codebook"))
    assert imported == {"ServiceCodebook", "default_codebooks"}
