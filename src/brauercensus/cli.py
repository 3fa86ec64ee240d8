"""Command-line surface: diagram info, class census, verification suites.

All payload output is deterministic: JSON is emitted with sorted keys
and exact rationals as strings, TSV with a fixed column order, and no
timestamps appear anywhere.  Exit codes: 0 success, 1 usage error,
2 invariant violation, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import oracle as oracle_mod
from .affine import fundamental_group, invariant_space, minuscule_nodes
from .brauer import (
    DEFAULT_SUBALCOVE_CAP,
    FrobeniusConfig,
    enumerate_subalcoves,
    hyperplane_containment,
    m_alpha,
    prime_power,
    theta,
)
from .census import (
    GroupConfig,
    counts,
    d_odd_comparison,
    disconnected_census_check,
    enumerate_classes,
    make_group_config,
)
from .errors import InvariantViolation, ResourceCapExceeded
from .rootdata import TypeLabel, build_root_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_RESOURCE = 3

# Type/q grids driven by the verification suites; q runs over prime powers.
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
    # (type, numerator, denominator, coweight node, expected centralizer);
    # component multisets are written in the canonical sorted order.
    ("B4", 1, 2, 2, "A1xA1xB2"),
    ("C4", 1, 2, 2, "C2xC2"),
    ("D6", 1, 2, 3, "D3xD3"),
    ("E6", 1, 3, 4, "A2xA2xA2"),
    ("E7", 1, 2, 2, "A7"),
)

TABLE3_CONFIGS = (
    ("A2", 5, False, 1),
    ("B3", 5, False, 25),
    ("C4", 3, False, 9),
    ("E6", 2, False, 4),
    ("E6", 2, True, 4),
    ("E7", 3, False, 81),
)

E6E7_CASES = (
    # (check name, type, q, twisted, rational total, disconnected classes,
    # note printed in place of the disconnected count)
    ("E6-ad-q2-twisted", "E6", 2, True, 72, 4, None),
    ("E6-ad-q2-split", "E6", 2, False, 64, 4, "central action nontrivial at q=2"),
    ("E7-ad-q3", "E7", 3, False, 2268, 81, None),
)

THETA_CASES = (
    ("A2", 7, False),
    ("A2", 5, True),
    ("E6", 2, True),
)

D_ODD_CASE = ("D5", 5)


def classical_invariant_dimension(label: TypeLabel, node: int) -> int:
    """Closed-form fixed-space dimensions per family and minuscule node.

    For odd-rank D the two spin nodes are the order-4 generators; their
    dimension is (rank-3)/2, matching the orbit count of the induced
    node permutation.
    """
    from math import gcd

    n = label.rank
    if node == 0:
        return n
    fam = label.family
    if fam == "A":
        return gcd(node, n + 1) - 1
    if fam == "B":
        return n - 1
    if fam == "C":
        return n // 2
    if fam == "D":
        if node == 1:
            return n - 2
        return n // 2 if n % 2 == 0 else (n - 3) // 2
    if fam == "E" and n == 6:
        return 2
    if fam == "E" and n == 7:
        return 4
    raise ValueError(f"{label} has no nontrivial minuscule node {node}")


# ---------------------------------------------------------------------------
# serialization helpers


def _rat(x) -> str:
    return str(Fraction(x))


def _record_payload(record) -> dict:
    return {
        "rep_affine": [_rat(x) for x in record.rep.affine],
        "rep_coords": [_rat(x) for x in record.rep.coords],
        "i_lambda": list(record.i_lambda),
        "centralizer": {
            "components": [str(t) for t in record.centralizer_components],
            "torus_rank": record.torus_rank,
            "name": record.centralizer_name(),
        },
        "component_group": {
            "nodes": list(record.comp_group),
            "order": record.comp_group_order,
            "frobenius_action": [list(pair) for pair in record.f_action],
        },
        "fixed_count": record.fixed_count,
        "h1_count": record.h1_count,
    }


def census_report(config: GroupConfig, cap: int = DEFAULT_SUBALCOVE_CAP) -> dict:
    records = enumerate_classes(config, cap)
    c = counts(config, records)
    order = len(config.a_g)
    payload = {
        "type": str(config.datum.label),
        "rank": config.rank,
        "isogeny": config.isogeny_name(),
        "isogeny_nodes": sorted(config.a_g),
        "isogeny_order": order,
        "q": config.q,
        "p": config.p,
        "twisted": not config.frob.is_split,
        "twist_order": config.frob.rho.order,
        "hypotheses": {
            "congruence_holds": config.frob.congruence_holds(order),
            "p_divides_isogeny_order": order % config.p == 0,
        },
        "classes": [_record_payload(r) for r in records],
        "counts": {
            "geometric_total": c.geometric_total,
            "n_disconnected": c.n_disconnected,
            "rational_total": c.rational_total,
            "pprime_char_total": c.pprime_char_total,
            "by_component_order": {str(k): v for k, v in c.by_component_order},
        },
        "warnings": list(c.warnings),
    }
    if (
        config.datum.label.family == "D"
        and config.rank % 2 == 1
        and order == fundamental_group(config.datum).order
    ):
        d = d_odd_comparison(config, c)
        payload["d_odd_comparison"] = {
            "rational_total": d.rational_total,
            "closed_form": d.closed_form,
            "agree": d.agree,
            "q_mod_4": d.q_mod_4,
        }
    return payload


def census_tsv(report: dict) -> str:
    cols = (
        "rep_affine",
        "i_lambda",
        "centralizer",
        "component_group_order",
        "fixed_count",
        "h1_count",
    )
    lines = ["\t".join(cols)]
    for rec in report["classes"]:
        lines.append(
            "\t".join(
                (
                    ",".join(rec["rep_affine"]),
                    ",".join(str(i) for i in rec["i_lambda"]),
                    rec["centralizer"]["name"],
                    str(rec["component_group"]["order"]),
                    str(rec["fixed_count"]),
                    str(rec["h1_count"]),
                )
            )
        )
    return "\n".join(lines) + "\n"


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
            str(a): invariant_space(datum, a).dimension for a in group.elements
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


def _selected(label, q, max_q, types) -> bool:
    return (types is None or label in types) and (max_q is None or q <= max_q)


def _reject_max_q(suite, max_q) -> None:
    """``--max-q`` is a filter that a suite without q cannot honour."""
    if max_q is not None:
        raise UsageError(f"suite {suite!r} has no q to filter by --max-q")


def _grid(max_q=None, types=None):
    for label, qs in SUBALCOVE_GRID:
        for q in qs:
            if _selected(label, q, max_q, types):
                yield label, q


def suite_table1(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    _reject_max_q("table1", max_q)
    checks = []
    for label in TABLE1_TYPES:
        if types is not None and label not in types:
            continue
        datum = build_root_system(label)
        for a in minuscule_nodes(datum):
            want = classical_invariant_dimension(datum.label, a)
            got = invariant_space(datum, a).dimension
            checks.append(
                Check(f"table1/{label}/node{a}", got == want, f"dim={got} expected={want}")
            )
    return checks


def suite_table2(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    from .affine import affine_point
    from .rootdata import subdiagram_type

    _reject_max_q("table2", max_q)
    checks = []
    for label, num, den, node, expected in TABLE2_WITNESSES:
        if types is not None and label not in types:
            continue
        datum = build_root_system(label)
        coords = tuple(
            Fraction(num, den) if j == node - 1 else Fraction(0)
            for j in range(datum.rank)
        )
        pt = affine_point(datum, coords)
        group = fundamental_group(datum)
        fixed_by = [
            a
            for a in group.elements
            if a != 0 and group.apply_to_affine(a, pt.affine) == pt.affine
        ]
        zeros = [a for a in datum.extended_nodes if pt.affine[a] == 0]
        name = "x".join(str(t) for t in subdiagram_type(datum, zeros))
        ok = bool(fixed_by) and name == expected
        checks.append(
            Check(
                f"table2/{label}",
                ok,
                f"centralizer={name} expected={expected} fixed_by={fixed_by}",
            )
        )
    return checks


def suite_table3(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    checks = []
    for label, q, twisted, expected in TABLE3_CONFIGS:
        if not _selected(label, q, max_q, types):
            continue
        config = make_group_config(label, "ad", q, twisted=twisted)
        try:
            actual = disconnected_census_check(config, cap)
            ok = actual == expected
            detail = f"n_disconnected={actual} expected={expected}"
        except InvariantViolation as exc:
            ok, detail = False, str(exc)
        twist = "twisted" if twisted else "split"
        checks.append(Check(f"table3/{label}/q{q}/{twist}", ok, detail))
    return checks


def suite_steinberg(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    checks = []
    seen = set()
    configs = [(label, q, False) for label, q in _grid(max_q, types)]
    for label, q, twisted, _ in TABLE3_CONFIGS:
        if _selected(label, q, max_q, types):
            configs.append((label, q, twisted))
    for label, q, twisted in configs:
        if (label, q, twisted) in seen:
            continue
        seen.add((label, q, twisted))
        config = make_group_config(label, "ad", q, twisted=twisted)
        c = counts(config, cap=cap)
        total = c.geometric_total
        connected = total - c.n_disconnected
        ok = connected + c.n_disconnected == q**config.rank
        twist = "twisted" if twisted else "split"
        checks.append(
            Check(
                f"steinberg/{label}/q{q}/{twist}",
                ok,
                f"c1={connected} c2={c.n_disconnected} q^rank={q**config.rank}",
            )
        )
    return checks


def suite_alovefixe(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    from .affine import standard_symmetry

    checks = []
    for label, q in _grid(max_q, types):
        datum = build_root_system(label)
        config = FrobeniusConfig(q, standard_symmetry(datum, "split"))
        count = len(enumerate_subalcoves(datum, config, cap))
        checks.append(
            Check(f"subalcoves/{label}/q{q}", count == q**datum.rank, f"|E_q|={count}")
        )
        for a in minuscule_nodes(datum):
            stable = m_alpha(datum, config, a, cap)
            contained = hyperplane_containment(datum, a, q)
            want = 0 if contained else q ** invariant_space(datum, a).dimension
            checks.append(
                Check(
                    f"alcove-fixed/{label}/q{q}/node{a}",
                    len(stable) == want,
                    f"count={len(stable)} expected={want}",
                )
            )
    return checks


def suite_e6e7(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    checks = []
    for name, label, q, twisted, rational, disconnected, note in E6E7_CASES:
        if not _selected(label, q, max_q, types):
            continue
        c = counts(make_group_config(label, "ad", q, twisted=twisted), cap=cap)
        ok = c.rational_total == rational and c.n_disconnected == disconnected
        shown = f"({note})" if note else f"n_disconnected={c.n_disconnected}"
        checks.append(Check(f"e6e7/{name}", ok, f"rational={c.rational_total} {shown}"))
    return checks


def suite_theta(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    checks = []
    for label, q, twisted in THETA_CASES:
        if not _selected(label, q, max_q, types):
            continue
        config = make_group_config(label, "ad", q, twisted=twisted)
        report = theta(config.datum, config.frob, config.a_g, cap)
        ok = report.hypotheses_hold and report.orbit_count == q**config.rank
        detail = f"orbits={report.orbit_count} strata={report.strata}"
        for a in sorted(config.a_g):
            want = q ** invariant_space(config.datum, a).dimension
            ok = ok and report.strata[a] == want
        twist = "twisted" if twisted else "split"
        checks.append(Check(f"theta/{label}/q{q}/{twist}", ok, detail))
    return checks


def suite_d_odd(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    label, q = D_ODD_CASE
    if not _selected(label, q, max_q, types):
        return []
    name = f"d-odd/{label}-q{q}"
    config = make_group_config(label, "ad", q)
    total = q**config.rank
    c = counts(config, cap=cap)
    detail = f"geometric={c.geometric_total}"
    checks = [Check(f"{name}/partition", c.geometric_total == total, detail)]
    report = theta(config.datum, config.frob, config.a_g, cap)
    detail = f"orbits={report.orbit_count} strata={report.strata}"
    checks.append(Check(f"{name}/orbits", report.orbit_count == total, detail))
    for a in sorted(config.a_g):
        want = q ** invariant_space(config.datum, a).dimension
        checks.append(
            Check(
                f"{name}/stratum-node{a}",
                report.hypotheses_hold and report.strata[a] == want,
                f"orbit_stratum={report.strata[a]} q^dim={want}",
            )
        )
    d = d_odd_comparison(config, c)
    checks.append(
        Check(
            f"{name}/closed-form",
            None,
            f"rational_total={d.rational_total} closed_form={d.closed_form} "
            f"agree={d.agree} q_mod_4={d.q_mod_4}",
        )
    )
    return checks


def suite_oracle(max_q=None, types=None, cap=DEFAULT_SUBALCOVE_CAP):
    checks = []
    for q in (3, 5, 7):
        if not _selected("A1", q, max_q, types):
            continue
        for iso, kind in (("sc", "SL2"), ("ad", "PGL2")):
            config = make_group_config("A1", iso, q)
            c = counts(config, cap=cap)
            spec = oracle_mod.SmallGroupSpec(kind, q)
            want = oracle_mod.semisimple_class_count(spec)
            checks.append(
                Check(
                    f"oracle/classes/A1-{iso}-q{q}",
                    c.rational_total == want,
                    f"census={c.rational_total} brute_force={want} ({kind})",
                )
            )
            dual = "PGL2" if kind == "SL2" else "SL2"
            want = oracle_mod.pprime_character_count(oracle_mod.SmallGroupSpec(dual, q))
            checks.append(
                Check(
                    f"oracle/characters/A1-{iso}-q{q}",
                    c.pprime_char_total == want,
                    f"census={c.pprime_char_total} table={want} ({dual})",
                )
            )
    return checks


SUITES = {
    "table1": suite_table1,
    "table2": suite_table2,
    "table3": suite_table3,
    "steinberg": suite_steinberg,
    "alovefixe": suite_alovefixe,
    "e6e7": suite_e6e7,
    "theta": suite_theta,
    "d-odd": suite_d_odd,
    "oracle": suite_oracle,
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
            if prime_power(args.q) is None:
                raise UsageError(f"q = {args.q} is not a prime power >= 2")
            config = make_group_config(
                args.type,
                _parse_isogeny(args.isogeny),
                args.q,
                twisted=args.twisted,
                triality=args.triality,
            )
            report = census_report(config, cap=args.max_subalcoves)
            if args.format == "tsv":
                sys.stdout.write(census_tsv(report))
            else:
                print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "verify":
            runner = SUITES.get(args.suite)
            if runner is None:
                raise UsageError(
                    f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
                )
            types = None if args.types is None else tuple(args.types.split(","))
            checks = runner(max_q=args.max_q, types=types, cap=args.max_subalcoves)
            if not checks:
                raise UsageError(f"the filters select no check of suite {args.suite!r}")
            for check in checks:
                print(f"{check.status}\t{check.name}\t{check.detail}")
            return EXIT_INVARIANT if any(c.ok is False for c in checks) else EXIT_OK
        raise UsageError("no command given")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
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
