"""Command-line surface: diagram info, class census, verification suites.

All payload output is deterministic: JSON is emitted with sorted keys
and exact rationals as strings, TSV with a fixed column order, and no
timestamps appear anywhere.  A census is written only after every one
of its assertions has run.  Exit codes: 0 success, 1 usage error,
2 invariant violation, 3 resource cap exceeded.

Every process compiles this module, so it holds only what ``census``
and ``info`` run.  The ``verify`` suites live in ``verify``, which
``SUITES`` imports when a suite runs, and ``argparse`` is imported when
``main`` builds its parser.
"""

from __future__ import annotations

import json
import sys
from math import gcd
from typing import Iterator

from .affine import fundamental_group, invariant_space, minuscule_nodes
from .census import (
    ClassRecord,
    GroupConfig,
    counts,
    d_odd_comparison,
    enumerate_classes,
    has_d_odd_comparison,
    make_group_config,
)
from .errors import InvariantViolation, ResourceCapExceeded
from .rootdata import RootDatum, TypeLabel, build_root_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_RESOURCE = 3

DEFAULT_SUBALCOVE_CAP = 10**6

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


def _suite(name: str):
    """Runs ``verify.SUITES[name]``, importing ``verify`` on the first call."""

    def run(**filters) -> list:
        from . import verify

        return verify.SUITES[name](**filters)

    return run


# The names of ``verify.SUITES``, in its order, so that listing them
# imports nothing; ``perfbench/tracer.py`` wraps each value.
SUITES = {
    name: _suite(name)
    for name in (
        "table1", "table2", "table3", "steinberg", "alovefixe", "e6e7", "theta", "d-odd",
        "oracle",
    )
}


# ---------------------------------------------------------------------------
# argument handling


class UsageError(Exception):
    pass


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

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
