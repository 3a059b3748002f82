"""numpy is the package's only dependency: every module under src/rayspace
imports nothing but the standard library, numpy and rayspace itself."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rayspace"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "rayspace"}


def imported_roots(source):
    """The top-level names of the absolute imports in a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_scanner_sees_every_import_form():
    source = "import scipy.linalg\nfrom numpy import linalg\nfrom . import lines\nimport os, re\n"
    assert set(imported_roots(source)) == {"scipy", "numpy", "os", "re"}


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        extra = set(imported_roots(path.read_text(encoding="utf-8"))) - ALLOWED
        assert not extra, f"{path.name} imports {sorted(extra)}"
