"""The package's import layering, read from its source with ``ast``.

``metric_core`` is the bottom layer: it holds the one cell budget every
blocked loop reads, so it imports no other module of the package, and no
module reaches a lower layer through an import inside a function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "frechet_means"
SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(tree) -> set:
    """The package modules a module imports (``__init__`` for the package itself)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("frechet_means")):
            module = (node.module or "").removeprefix("frechet_means").lstrip(".").split(".")[0]
            names = [alias.name for alias in node.names]
            found.update([module] if module else [n if n in SOURCES else "__init__" for n in names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "frechet_means":
                    found.add(alias.name.split(".")[1] if "." in alias.name else "__init__")
    return found


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_function_body_imports(name):
    nested = [
        f"{name}.py:{node.lineno}"
        for function in ast.walk(SOURCES[name])
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested


def test_metric_core_imports_no_other_package_module():
    assert _package_imports(SOURCES["metric_core"]) == set()


def test_set_limits_does_not_import_the_solver():
    assert "frechet_solver" not in _package_imports(SOURCES["set_limits"])


def test_the_import_reader_sees_every_form():
    source = "from . import metric_core, __version__\nfrom .graph_space import Graph\nimport frechet_means.cli\n"
    tree = ast.parse(source + "from frechet_means import set_limits\nimport numpy")
    assert _package_imports(tree) == {"metric_core", "__init__", "graph_space", "cli", "set_limits"}
