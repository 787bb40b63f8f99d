"""The runtime depends on numpy alone: every import in src/bilex is relative, of the standard library, or numpy."""

import ast
import sys
from pathlib import Path

import bilex

PACKAGE = Path(bilex.__file__).resolve().parent


def imported_modules(path: Path) -> list[str]:
    """The top-level names of the absolute imports of one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in imported_modules(path)
        if name != "numpy" and name not in sys.stdlib_module_names
    }
    assert not outside
