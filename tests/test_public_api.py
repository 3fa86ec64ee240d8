"""Every public name of the package is used by the package itself: no
function, class, method or property exists only for the tests."""

import ast
from collections import Counter
from pathlib import Path

import brauercensus

PACKAGE = Path(brauercensus.__file__).parent

# Public names that nothing in the package uses, each with its reason.
# Both leave the package with the tracer-only API (ROADMAP item 4).
ALLOWED_ORPHANS = {
    "affine.affine_point": "read by finish_counters in perfbench/tracer.py",
    "rootdata.RootDatum.alcove_vertices": "read by finish_counters in perfbench/tracer.py",
}

# The census path, the modules that a census process compiles, and its
# public names that no census-path module uses: perfbench/tracer.py reads
# or wraps each, until the tracer-only API leaves (ROADMAP item 4).
CENSUS_PATH = ("affine", "brauer", "census", "cli", "errors", "linalg", "rootdata")
CENSUS_PATH_ORPHANS = {
    "affine.affine_point",
    "rootdata.RootDatum.alcove_vertices",
    "brauer.enumerate_subalcoves",
}


def definitions(body, prefix):
    """``(qualified name, node)`` for each public function and class of a
    module body, and for each public method and property of its classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            name = f"{prefix}.{node.name}"
            yield name, node
            if isinstance(node, ast.ClassDef):
                yield from definitions(node.body, name)


def used_names(tree):
    """The names and attributes that a syntax tree reads, with their
    multiplicities."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def orphans(sources):
    """The public names of ``{module: source}`` that occur nowhere in the
    sources outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = sum(map(used_names, trees.values()), Counter())
    return {
        name
        for module, tree in trees.items()
        for name, node in definitions(tree.body, module)
        if uses[node.name] == used_names(node)[node.name]
    }


def test_the_scan_finds_unused_functions_classes_methods_and_properties():
    # a use inside the definition itself, here a recursion, is no use
    source = (
        "def recursive():\n    return recursive()\n"
        "def helper():\n    return 0\n"
        "class C:\n"
        "    @property\n    def p(self):\n        return self.m()\n"
        "    def m(self):\n        return helper()\n"
        "    def _private(self):\n        return 0\n"
    )
    assert orphans({"m": source}) == {"m.recursive", "m.C", "m.C.p"}
    assert orphans({"m": source, "n": "C().p\nrecursive()"}) == set()


def test_public_names_are_used_by_the_package():
    # __init__.py only re-exports, so its names are no use.
    sources = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    found = orphans(sources)
    assert found - set(ALLOWED_ORPHANS) == set(), "public names that nothing uses"
    assert set(ALLOWED_ORPHANS) - found == set(), "allowed names that are now used"


def test_census_path_modules_carry_only_what_a_census_runs():
    # What only the verify suites or the tests call lives with them, so
    # that a census process never compiles it.
    found = orphans({m: (PACKAGE / f"{m}.py").read_text() for m in CENSUS_PATH})
    assert found == CENSUS_PATH_ORPHANS
