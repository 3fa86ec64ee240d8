"""The check ledger: every ``InvariantViolation`` that the package
constructs has a tier-1 test that fires it."""

import ast
from pathlib import Path

import brauercensus

PACKAGE = Path(brauercensus.__file__).parent
TESTS = Path(__file__).resolve().parent

# Each construction site, as (module, enclosing function, ordinal within
# the function in source order), and the test, as ``file::function``,
# that makes the package construct it.  The two Burnside sums over the
# F-fixed nodes and node pairs fire inside exec'd edits of
# ``enumerate_classes``; ``cli._report``'s site re-raises a ``ValueError``
# of a valid type or configuration.
LEDGER = {
    ("affine", "fundamental_group", 1):
        "test_affine.py::test_fundamental_group_violation_names_the_type",
    ("affine", "fundamental_group", 2):
        "test_affine.py::test_fundamental_group_law_check_fires",
    ("affine", "fold_coords", 1): "test_affine.py::test_fold_cap_counts_reflections",
    ("brauer", "walk_subalcoves", 1):
        "test_brauer.py::test_violations_name_the_whole_configuration",
    ("brauer", "walk_subalcoves", 2):
        "test_brauer.py::test_violations_name_the_whole_configuration",
    ("brauer", "walk_subalcoves", 3):
        "test_brauer.py::test_stabilizer_image_check_runs_in_every_walk",
    ("brauer", "fixed_point", 1):
        "test_brauer.py::test_violations_name_the_whole_configuration",
    ("census", "_classify", 1):
        "test_cli.py::test_component_action_fault_is_an_invariant_violation",
    ("census", "enumerate_classes", 1): "test_census.py::test_unstable_orbit_raises",
    ("census", "enumerate_classes", 2): "test_brauer.py::test_theta_missing_orbit_raises",
    ("census", "enumerate_classes", 3):
        "test_census.py::test_pair_action_mutants_break_the_burnside_identity",
    ("census", "enumerate_classes", 4):
        "test_census.py::test_burnside_mutant_counting_every_node_raises",
    ("census", "enumerate_classes", 5):
        "test_census.py::test_strata_mutant_dropping_a_component_node_raises",
    ("census", "enumerate_classes", 6):
        "test_census.py::test_node_pair_mutant_counting_m_b_raises",
    ("cli", "_report", 1): "test_cli.py::test_internal_value_errors_are_invariant_violations",
    ("oracle", "FiniteField.primitive_element", 1):
        "test_oracle.py::test_field_without_a_primitive_element_is_an_invariant_violation",
    ("oracle", "_build_group", 1):
        "test_oracle.py::test_dropped_generator_fails_the_order_check",
    ("oracle", "conjugacy_classes", 1):
        "test_oracle.py::test_wrong_search_tree_fails_the_identity_check",
    ("oracle", "conjugacy_classes", 2):
        "test_oracle.py::test_wrong_right_table_fails_the_partition_check",
    ("rootdata", "RootDatum._generate_roots", 1):
        "test_rootdata.py::test_root_count_check_fires",
    ("rootdata", "_component_type", 1):
        "test_rootdata.py::test_full_extended_diagram_is_not_of_finite_type",
    ("verify", "_table3", 1): "test_census.py::test_disconnected_check_families",
}


def construction_sites(module, source):
    """``(module, function, ordinal)`` for each ``InvariantViolation(...)``
    call in a source: its innermost enclosing function, qualified by its
    classes and outer functions (``<module>`` outside any), and its place
    among that function's calls in source order."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and "InvariantViolation" in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                calls.append((child.lineno, child.col_offset, scope or "<module>"))
            visit(child, scope)

    visit(ast.parse(source), "")
    ordinals = {}
    sites = []
    for _, _, function in sorted(calls):
        ordinals[function] = ordinals.get(function, 0) + 1
        sites.append((module, function, ordinals[function]))
    return sites


def package_sites():
    return [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        for site in construction_sites(path.stem, path.read_text())
    ]


def test_the_scan_keys_sites_by_module_function_and_ordinal():
    source = (
        "def f(x):\n"
        "    if x:\n        raise InvariantViolation('a')\n"
        "    def g():\n        return InvariantViolation('b')\n"
        "    raise InvariantViolation('c')\n"
        "class C:\n"
        "    def m(self):\n        raise errors.InvariantViolation('d')\n"
        "    def n(self):\n        raise ValueError('not a violation')\n"
        "ERROR = InvariantViolation('e')\n"
    )
    assert construction_sites("m", source) == [
        ("m", "f", 1),
        ("m", "f.g", 1),
        ("m", "f", 2),
        ("m", "C.m", 1),
        ("m", "<module>", 1),
    ]


def test_every_construction_site_has_a_firing_test():
    sites = package_sites()
    assert set(sites) - set(LEDGER) == set(), "sites with no ledger entry"
    assert set(LEDGER) - set(sites) == set(), "ledger entries with no site"
    assert len(sites) == len(LEDGER) == 22


def test_every_ledger_test_is_defined():
    defined = {
        f"{path.name}::{node.name}"
        for path in sorted(TESTS.glob("test_*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
    assert set(LEDGER.values()) - defined == set(), "ledger tests not defined under tests/"
