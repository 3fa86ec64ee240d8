"""The ``verify`` suites: case tables from the paper's Tables 1-3 and
the census identities, and the checks each case yields.

A suite is a case table and a generator of checks; calling it runs the
selected cases and returns their ``Check`` lines, which ``cli.main``
prints.  Only the ``verify`` command imports this module, through
``cli.SUITES``, so that a ``census`` or ``info`` process never compiles
it.
"""

from __future__ import annotations

from typing import Optional

from .affine import fundamental_group, invariant_space, minuscule_nodes
from .brauer import enumerate_subalcoves, m_alpha, stable_cell_count, theta
from .census import (
    classical_invariant_dimension,
    counts,
    d_odd_comparison,
    disconnected_census_check,
    enumerate_classes,
    make_group_config,
)
from .cli import DEFAULT_SUBALCOVE_CAP, UsageError, _check_subalcove_cap
from .errors import InvariantViolation
from .rootdata import TypeLabel, build_root_system, subdiagram_type

# Case tables of the verification suites.  Every case starts with
# (type, q or None); the rest is what the suite's checks need.  q runs
# over prime powers.
SUBALCOVE_GRID = (
    ("A1", (2, 3, 4, 5, 7, 8, 9)),
    ("A2", (2, 3, 4, 5, 7)),
    ("B3", (2, 3, 4, 5)),
    ("C3", (2, 3, 4, 5)),
    ("D4", (2, 3)),
    ("G2", (2, 3)),
    ("F4", (2, 3)),
    ("E6", (2, 3)),
    ("E7", (2, 3)),
    ("E8", (2,)),
)

TABLE1_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5", "D6", "D7",
    "E6", "E7", "E8", "F4", "G2",
)

TABLE2_WITNESSES = (
    # (type, no q, numerator, denominator, coweight node, expected
    # centralizer); component multisets are written in the canonical
    # sorted order.
    ("B4", None, 1, 2, 2, "A1xA1xB2"),
    ("C4", None, 1, 2, 2, "C2xC2"),
    ("D6", None, 1, 2, 3, "D3xD3"),
    ("E6", None, 1, 3, 4, "A2xA2xA2"),
    ("E7", None, 1, 2, 2, "A7"),
)

TABLE3_CONFIGS = (
    ("A2", 5, False, 1),
    ("B3", 5, False, 25),
    ("C4", 3, False, 9),
    ("E6", 2, False, 4),
    ("E6", 2, True, 4),
    ("E7", 3, False, 81),
)

SUBALCOVE_CASES = tuple((label, q) for label, qs in SUBALCOVE_GRID for q in qs)

# Every adjoint configuration of the grid and of table 3, once each.
STEINBERG_CASES = tuple(
    dict.fromkeys(
        [(label, q, False) for label, q in SUBALCOVE_CASES]
        + [(label, q, twisted) for label, q, twisted, _ in TABLE3_CONFIGS]
    )
)

E6E7_CASES = (
    # (type, q, twisted, check name, rational total, disconnected classes,
    # note printed in place of the disconnected count)
    ("E6", 2, True, "E6-ad-q2-twisted", 72, 4, None),
    ("E6", 2, False, "E6-ad-q2-split", 64, 4, "central action nontrivial at q=2"),
    ("E7", 3, False, "E7-ad-q3", 2268, 81, None),
)

THETA_CASES = (
    ("A2", 7, False),
    ("A2", 5, True),
    ("E6", 2, True),
)

D_ODD_CASE = ("D5", 5)

ORACLE_CASES = (("A1", 3), ("A1", 5), ("A1", 7))


class Check:
    """One line of a suite's report.  ``ok`` is None for an INFO line,
    which records a value without asserting it: it is never a pass."""

    def __init__(self, name: str, ok: Optional[bool], detail: str):
        self.name = name
        self.ok = ok
        self.detail = detail

    @property
    def status(self) -> str:
        if self.ok is None:
            return "INFO"
        return "PASS" if self.ok else "FAIL"


def _case_name(suite: str, case: tuple) -> str:
    """``<suite>/<type>[/q<q>][/split|twisted]``: a case's third entry,
    when it is a bool, is its twist."""
    label, q, *rest = case
    parts = [suite, label]
    if q is not None:
        parts.append(f"q{q}")
    if rest and isinstance(rest[0], bool):
        parts.append("twisted" if rest[0] else "split")
    return "/".join(parts)


class Suite:
    """A verification suite: a case table and a generator that yields the
    checks of one case, called as ``checks(name, *case)`` with the case's
    name from ``_case_name``.

    Calling the suite runs the cases that ``types`` and ``max_q`` select
    and returns their checks.  The filters and the cap are checked before
    any case runs: a type that no case has, or ``max_q`` on a suite whose
    cases have no q, is a usage error, and a selected case with more
    sub-alcoves than ``cap`` raises ``ResourceCapExceeded``.  A case whose
    checks raise ``InvariantViolation`` becomes one ``FAIL`` line under
    the case's name, and the suite goes on with its other cases.
    """

    def __init__(self, name: str, cases: tuple, checks):
        self.name = name
        self.cases = cases
        self.checks = checks

    def __call__(self, max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP) -> list:
        unknown = sorted(set(types or ()) - {case[0] for case in self.cases})
        if unknown:
            raise UsageError(
                f"the --types entries {unknown} select no check of suite {self.name!r}"
            )
        if max_q is not None and all(case[1] is None for case in self.cases):
            raise UsageError(f"suite {self.name!r} has no q to filter by --max-q")
        selected = [
            case
            for case in self.cases
            if (types is None or case[0] in types)
            and (max_q is None or case[1] <= max_q)
        ]
        for label, q, *_ in selected:
            if q is not None:
                _check_subalcove_cap(TypeLabel.parse(label), q, cap)
        checks = []
        for case in selected:
            name = _case_name(self.name, case)
            try:
                # list() first: a case that fails midway leaves no lines
                checks.extend(list(self.checks(name, *case)))
            except InvariantViolation as exc:
                checks.append(Check(name, False, str(exc)))
        return checks


def _table1(name, label, q):
    datum = build_root_system(label)
    group = fundamental_group(datum)
    for a in minuscule_nodes(datum):
        want = classical_invariant_dimension(datum.label, a)
        got = invariant_space(datum, group.subgroup([a])).dimension
        yield Check(f"{name}/node{a}", got == want, f"dim={got} expected={want}")


suite_table1 = Suite("table1", tuple((label, None) for label in TABLE1_TYPES), _table1)


def _table2(name, label, q, num, den, node, expected):
    # num/den times the coweight of node, as affine numerators over den
    datum = build_root_system(label)
    x = datum.marks[node] * num
    affine = (den - x,) + tuple(x if b == node else 0 for b in datum.nodes)
    group = fundamental_group(datum)
    fixed_by = [a for a in group.elements[1:] if group.act[a](affine) == affine]
    zeros = [a for a in datum.extended_nodes if affine[a] == 0]
    centralizer = "x".join(str(t) for t in subdiagram_type(datum, zeros))
    yield Check(
        name,
        bool(fixed_by) and centralizer == expected,
        f"centralizer={centralizer} expected={expected} fixed_by={fixed_by}",
    )


suite_table2 = Suite("table2", TABLE2_WITNESSES, _table2)


def _table3(name, label, q, twisted, expected):
    config = make_group_config(label, "ad", q, twisted=twisted)
    actual = disconnected_census_check(config)
    yield Check(name, actual == expected, f"n_disconnected={actual} expected={expected}")


def _steinberg(name, label, q, twisted):
    # counts asserts the q^rank classes that c1 + c2 partition.
    config = make_group_config(label, "ad", q, twisted=twisted)
    c = counts(config)
    connected = c.geometric_total - c.n_disconnected
    yield Check(
        name, True, f"c1={connected} c2={c.n_disconnected} q^rank={q**config.rank}"
    )


def _alovefixe(name, label, q):
    # The walk asserts the q^rank cells and their stabilizer images, and
    # m_alpha that a node's stable cells number q^dim of its fixed space,
    # or zero when a wall of the q-refined arrangement contains that
    # space.  The cells depend on neither the isogeny nor the twist.
    config = make_group_config(label, "ad", q)
    cells = enumerate_subalcoves(config)
    yield Check(f"subalcoves/{label}/q{q}", True, f"|E_q|={len(cells)}")
    group = fundamental_group(config.datum)
    for a in minuscule_nodes(config.datum):
        subgroup = group.subgroup([a])
        count = len(m_alpha(config, subgroup, cells))
        expected = stable_cell_count(config.datum, subgroup, q)
        detail = f"count={count} expected={expected}"
        yield Check(f"alcove-fixed/{label}/q{q}/node{a}", True, detail)


def _e6e7(name, label, q, twisted, title, rational, disconnected, note):
    c = counts(make_group_config(label, "ad", q, twisted=twisted))
    ok = c.rational_total == rational and c.n_disconnected == disconnected
    shown = f"({note})" if note else f"n_disconnected={c.n_disconnected}"
    yield Check(f"e6e7/{title}", ok, f"rational={c.rational_total} {shown}")


def _theta(name, label, q, twisted):
    config = make_group_config(label, "ad", q, twisted=twisted)
    # The census asserts that its classes, theta's orbits, number q^rank.
    records = enumerate_classes(config)
    strata = theta(config, records)
    group = fundamental_group(config.datum)
    ok = config.congruence_holds()
    for a in sorted(config.a_g):
        want = q ** invariant_space(config.datum, group.subgroup([a])).dimension
        ok = ok and strata[a] == want
    yield Check(name, ok, f"orbits={len(records)} strata={strata}")


def _d_odd(name, label, q):
    prefix = f"d-odd/{label}-q{q}"
    config = make_group_config(label, "ad", q)
    # The census asserts that its classes, theta's orbits, number q^rank.
    records = enumerate_classes(config)
    c = counts(config, records)
    yield Check(f"{prefix}/partition", True, f"geometric={c.geometric_total}")
    strata = theta(config, records)
    yield Check(f"{prefix}/orbits", True, f"orbits={len(records)} strata={strata}")
    group = fundamental_group(config.datum)
    for a in sorted(config.a_g):
        want = q ** invariant_space(config.datum, group.subgroup([a])).dimension
        yield Check(
            f"{prefix}/stratum-node{a}",
            config.congruence_holds() and strata[a] == want,
            f"orbit_stratum={strata[a]} q^dim={want}",
        )
    d = d_odd_comparison(config, c)
    yield Check(
        f"{prefix}/closed-form",
        None,
        f"rational_total={d.rational_total} closed_form={d.closed_form} "
        f"agree={d.agree} q_mod_4={d.q_mod_4}",
    )


def _oracle(name, label, q):
    from . import oracle as oracle_mod

    for iso, kind in (("sc", "SL2"), ("ad", "PGL2")):
        c = counts(make_group_config(label, iso, q))
        want = oracle_mod.semisimple_class_count(oracle_mod.SmallGroupSpec(kind, q))
        yield Check(
            f"oracle/classes/{label}-{iso}-q{q}",
            c.rational_total == want,
            f"census={c.rational_total} brute_force={want} ({kind})",
        )
        dual = "PGL2" if kind == "SL2" else "SL2"
        want = oracle_mod.pprime_character_count(oracle_mod.SmallGroupSpec(dual, q))
        yield Check(
            f"oracle/characters/{label}-{iso}-q{q}",
            c.pprime_char_total == want,
            f"census={c.pprime_char_total} table={want} ({dual})",
        )


SUITES = {
    "table1": suite_table1,
    "table2": suite_table2,
    "table3": Suite("table3", TABLE3_CONFIGS, _table3),
    "steinberg": Suite("steinberg", STEINBERG_CASES, _steinberg),
    "alovefixe": Suite("alovefixe", SUBALCOVE_CASES, _alovefixe),
    "e6e7": Suite("e6e7", E6E7_CASES, _e6e7),
    "theta": Suite("theta", THETA_CASES, _theta),
    "d-odd": Suite("d-odd", (D_ODD_CASE,), _d_odd),
    "oracle": Suite("oracle", ORACLE_CASES, _oracle),
}
