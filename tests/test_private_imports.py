"""No package module imports another module's private names: a name
that two modules share is public, and lives where both can import it."""

import ast
from pathlib import Path

import brauercensus

SOURCES = sorted(Path(brauercensus.__file__).parent.glob("*.py"))


def private_imports(source):
    """``(module, name)`` for each underscore-prefixed name that a source
    imports from a package module, by a relative or a ``brauercensus``
    import."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level or module.split(".")[0] == "brauercensus":
            yield from (
                ("." * node.level + module, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
            )


def test_the_scan_finds_private_names_of_package_modules():
    source = (
        "from __future__ import annotations\n"
        "from math import _private_but_stdlib\n"
        "from .cli import _check, public\n"
        "from . import _module\n"
        "from brauercensus.census import _classify\n"
    )
    assert list(private_imports(source)) == [
        (".cli", "_check"),
        (".", "_module"),
        ("brauercensus.census", "_classify"),
    ]


def test_no_module_imports_a_private_name_of_another():
    assert len(SOURCES) > 1
    found = {path.stem: list(private_imports(path.read_text())) for path in SOURCES}
    assert {stem: names for stem, names in found.items() if names} == {}
