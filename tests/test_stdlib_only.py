"""The package runs on the Python standard library alone."""

import ast
import sys
from pathlib import Path

import brauercensus

SOURCES = sorted(Path(brauercensus.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """The top-level module names of the absolute imports in one file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 1
    found = {name for path in SOURCES for name in absolute_imports(path)}
    assert found <= sys.stdlib_module_names, sorted(found - sys.stdlib_module_names)
