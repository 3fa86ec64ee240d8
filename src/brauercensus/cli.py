"""Command-line surface: diagram info, class census, verification suites.

All payload output is deterministic: JSON is emitted with sorted keys
and exact rationals as strings, TSV with a fixed column order, and no
timestamps appear anywhere.  A census is written only after every one
of its assertions has run.  Exit codes: 0 success, 1 usage error,
2 invariant violation, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd
from typing import Iterator, Optional

from .affine import fundamental_group, invariant_space, minuscule_nodes
from .brauer import enumerate_subalcoves, m_alpha, stable_cell_count, theta
from .census import (
    ClassRecord,
    GroupConfig,
    classical_invariant_dimension,
    counts,
    d_odd_comparison,
    disconnected_census_check,
    enumerate_classes,
    has_d_odd_comparison,
    make_group_config,
)
from .errors import InvariantViolation, ResourceCapExceeded
from .rootdata import RootDatum, TypeLabel, build_root_system, subdiagram_type

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_RESOURCE = 3

DEFAULT_SUBALCOVE_CAP = 10**6

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


# ---------------------------------------------------------------------------
# serialization helpers


def _ratio(num: int, den: int) -> str:
    """``num/den`` in lowest terms, or the integer when it divides, as
    ``str(Fraction(num, den))`` writes it for a nonnegative num."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _json_list(items, indent: str) -> str:
    """A list of already encoded items, laid out as ``json.dumps`` with
    ``indent=2`` lays it out at the given indentation."""
    if not items:
        return "[]"
    pad = "\n" + indent + "  "
    return "[" + pad + ("," + pad).join(items) + "\n" + indent + "]"


def _json_strings(items, indent: str) -> str:
    """``_json_list`` of strings that need no escaping."""
    return _json_list([f'"{x}"' for x in items], indent)


def _record_json(datum: RootDatum, record: ClassRecord, profiles: dict) -> str:
    """One class of the ``classes`` list, with sorted keys, as
    ``json.dumps(indent=2, sort_keys=True)`` writes it: affine coordinate
    i is ``key[i] / sum(key)``, coweight coordinate i that over its
    node's mark.  The lines before ``rep_affine`` depend only on the
    fields after the key, and ``profiles`` keeps them once per census."""
    key, profile = record.key, record[1:]
    if profile not in profiles:
        pairs = [_json_list([str(a), str(b)], " " * 10) for a, b in record.f_action]
        profiles[profile] = f"""    {{
      "centralizer": {{
        "components": {_json_strings(record.centralizer_components, " " * 8)},
        "name": "{record.centralizer_name()}",
        "torus_rank": {record.torus_rank}
      }},
      "component_group": {{
        "frobenius_action": {_json_list(pairs, " " * 8)},
        "nodes": {_json_list([str(a) for a in record.comp_group], " " * 8)},
        "order": {record.comp_group_order}
      }},
      "fixed_count": {record.fixed_count},
      "h1_count": {record.h1_count},
      "i_lambda": {_json_list([str(a) for a in record.i_lambda], " " * 6)},
"""
    marks, level = datum.marks, sum(key)
    affine = [_ratio(x, level) for x in key]
    coords = [_ratio(key[i], marks[i] * level) for i in datum.nodes]
    return (
        profiles[profile]
        + f"""      "rep_affine": {_json_strings(affine, " " * 6)},
      "rep_coords": {_json_strings(coords, " " * 6)}
    }}"""
    )


def _check_subalcove_cap(label: TypeLabel, q: int, cap: int) -> None:
    """The Brauer complex of a type and q has exactly ``q**rank``
    sub-alcoves, so the cap is checked before any work."""
    if q**label.rank > cap:
        raise ResourceCapExceeded(
            f"{label}, q={q}: {q**label.rank} sub-alcoves exceed the cap {cap}"
        )


def census_report(config: GroupConfig) -> dict:
    """The census payload: every key of the JSON report, with
    ``classes`` holding the ``ClassRecord``s themselves, which
    ``census_json`` and ``census_tsv`` format.  Every assertion of the
    census has run when it returns."""
    records = enumerate_classes(config)
    c = counts(config, records)
    payload = {
        "type": str(config.datum.label),
        "rank": config.rank,
        "isogeny": config.isogeny_name(),
        "isogeny_nodes": sorted(config.a_g),
        "isogeny_order": len(config.a_g),
        "q": config.q,
        "p": config.p,
        "twisted": not config.is_split,
        "twist_order": config.rho.order,
        "hypotheses": {
            "congruence_holds": config.congruence_holds(),
            "p_divides_isogeny_order": config.p_divides_isogeny_order,
        },
        "classes": records,
        "counts": {
            "geometric_total": c.geometric_total,
            "n_disconnected": c.n_disconnected,
            "rational_total": c.rational_total,
            "pprime_char_total": c.pprime_char_total,
            "by_component_order": {str(k): v for k, v in c.by_component_order},
        },
        "warnings": list(c.warnings),
    }
    if has_d_odd_comparison(config):
        payload["d_odd_comparison"] = d_odd_comparison(config, c)._asdict()
    return payload


def census_json(datum: RootDatum, report: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2, sort_keys=True)`` of the report,
    and a newline, in pieces: the opening, one piece per record, then the
    header, every key but ``classes``, through ``json.dumps``.
    ``classes`` is the first key in sorted order and never empty (a
    census has q**rank classes), so the records come before the header."""
    yield '{\n  "classes": [\n'
    profiles: dict = {}
    for i, record in enumerate(report["classes"]):
        yield (",\n" if i else "") + _record_json(datum, record, profiles)
    header = json.dumps(
        {k: v for k, v in report.items() if k != "classes"}, indent=2, sort_keys=True
    )
    yield "\n  ],\n" + header[2:] + "\n"


def census_tsv(report: dict) -> Iterator[str]:
    cols = (
        "rep_affine",
        "i_lambda",
        "centralizer",
        "component_group_order",
        "fixed_count",
        "h1_count",
    )
    yield "\t".join(cols) + "\n"
    for rec in report["classes"]:
        level = sum(rec.key)
        yield "\t".join(
            (
                ",".join(_ratio(x, level) for x in rec.key),
                ",".join(str(i) for i in rec.i_lambda),
                rec.centralizer_name(),
                str(rec.comp_group_order),
                str(rec.fixed_count),
                str(rec.h1_count),
            )
        ) + "\n"


def info_report(label: str) -> dict:
    datum = build_root_system(label)
    group = fundamental_group(datum)
    return {
        "type": str(datum.label),
        "rank": datum.rank,
        "roots": len(datum.roots),
        "positive_roots": len(datum.positive_roots),
        "marks": {str(a): datum.marks[a] for a in datum.extended_nodes},
        "minuscule_nodes": list(minuscule_nodes(datum)),
        "fundamental_group": {
            "order": group.order,
            "element_orders": {str(a): group.order_of(a) for a in group.elements},
            "multiplication": {
                f"{a},{b}": group.mult[(a, b)]
                for a in group.elements
                for b in group.elements
            },
        },
        "invariant_dimensions": {
            str(a): invariant_space(datum, group.subgroup([a])).dimension
            for a in group.elements
        },
    }


# ---------------------------------------------------------------------------
# verification suites


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


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="brauercensus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="diagram and fundamental-group report")
    p_info.add_argument("--type", required=True)
    p_info.add_argument("--format", choices=("json",), default="json")

    p_census = sub.add_parser("census", help="census of F-stable semisimple classes")
    p_census.add_argument("--type", required=True)
    p_census.add_argument("--isogeny", default="ad")
    p_census.add_argument("--q", type=int, required=True)
    p_census.add_argument("--twisted", action="store_true")
    p_census.add_argument("--triality", action="store_true")
    p_census.add_argument("--format", choices=("json", "tsv"), default="json")
    p_census.add_argument("--max-subalcoves", type=int, default=DEFAULT_SUBALCOVE_CAP)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--max-q", type=int, default=None)
    p_verify.add_argument("--types", default=None)
    p_verify.add_argument("--max-subalcoves", type=int, default=DEFAULT_SUBALCOVE_CAP)
    return parser


def _parse_isogeny(text: str):
    if text in ("sc", "ad"):
        return text
    if text.startswith("sub:"):
        nodes = []
        for token in text[4:].split(","):
            token = token.strip()
            if token.startswith("alpha"):
                token = token[5:]
            if not token.isdigit():
                raise UsageError(f"cannot parse isogeny node {token!r}")
            nodes.append(int(token))
        return nodes
    raise UsageError(f"isogeny must be sc, ad or sub:<nodes>, got {text!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "info" and args.max_subalcoves < 1:
            raise UsageError(
                f"--max-subalcoves must be at least 1, got {args.max_subalcoves}"
            )
        if args.command == "info":
            report = info_report(args.type)
            print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "census":
            isogeny = _parse_isogeny(args.isogeny)
            # The cap needs only the type and q, so it comes before the
            # configuration is built; a q < 2 is left to the prime-power
            # test's usage error.
            if args.q >= 2:
                label = TypeLabel.parse(args.type)
                _check_subalcove_cap(label, args.q, args.max_subalcoves)
            config = make_group_config(
                args.type, isogeny, args.q, twisted=args.twisted, triality=args.triality
            )
            report = census_report(config)
            if args.format == "tsv":
                sys.stdout.writelines(census_tsv(report))
            else:
                sys.stdout.writelines(census_json(config.datum, report))
            return EXIT_OK
        # The parser requires a command, so the last one is "verify".
        runner = SUITES.get(args.suite)
        if runner is None:
            raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
        types = None if args.types is None else tuple(args.types.split(","))
        checks = runner(max_q=args.max_q, types=types, cap=args.max_subalcoves)
        if not checks:
            raise UsageError(f"the filters select no check of suite {args.suite!r}")
        for check in checks:
            print(f"{check.status}\t{check.name}\t{check.detail}")
        return EXIT_INVARIANT if any(c.ok is False for c in checks) else EXIT_OK
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
