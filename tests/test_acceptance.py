"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts exact equality (all
tolerances in this package are exact), and prints a PASS line so the
module doubles as a human-readable report under ``pytest -v -s``.
"""

import time

from brauercensus import cli, verify
from brauercensus.affine import (
    fundamental_group,
    hyperplane_containment,
    invariant_space,
    minuscule_nodes,
)
from brauercensus.brauer import (
    enumerate_subalcoves,
    m_alpha,
    theta,
)
from brauercensus.census import (
    counts,
    d_odd_comparison,
    enumerate_classes,
    make_group_config,
)
from brauercensus.verify import (
    SUBALCOVE_GRID,
    TABLE1_TYPES,
    TABLE2_WITNESSES,
    TABLE3_CONFIGS,
    THETA_CASES,
)
from brauercensus.oracle import (
    SmallGroupSpec,
    pprime_character_count,
    semisimple_class_count,
)
from brauercensus.rootdata import build_root_system


def _passline(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _split_config(label, q):
    config = make_group_config(label, "ad", q)
    return config.datum, config


def test_c01_invariant_dimension_table():
    start = time.monotonic()
    checks = verify.suite_table1()
    assert {check.name.split("/")[1] for check in checks} == set(TABLE1_TYPES)
    for check in checks:
        assert check.ok is True, f"{check.name}: {check.detail}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passline(
        1, f"{len(checks)} invariant dimensions over {len(TABLE1_TYPES)} types, {elapsed:.2f}s"
    )


def _suite_checks(suite, prefix=""):
    """The checks of one ``verify`` suite whose names start with
    ``prefix``, each asserted to pass."""
    checks = [check for check in cli.SUITES[suite]() if check.name.startswith(prefix)]
    for check in checks:
        assert check.ok is True, f"{check.name}: {check.detail}"
    return checks


def test_c02_subalcove_counts():
    checks = _suite_checks("alovefixe", "subalcoves/")
    assert {check.name for check in checks} == {
        f"subalcoves/{label}/q{q}" for label, qs in SUBALCOVE_GRID for q in qs
    }
    for check in checks:
        _, label, q = check.name.split("/")
        rank = build_root_system(label).rank
        assert check.detail == f"|E_q|={int(q[1:]) ** rank}", check.name
    _passline(2, f"|E_q| = q^rank on {len(checks)} (type, q) pairs up to E7 q=3 and E8 q=2")


def test_c03_stable_subalcove_counts():
    checks = _suite_checks("alovefixe", "alcove-fixed/")
    want_names = set()
    for label, qs in SUBALCOVE_GRID:
        datum = build_root_system(label)
        for q in qs:
            for node in minuscule_nodes(datum):
                want_names.add(f"alcove-fixed/{label}/q{q}/node{node}")
    assert {check.name for check in checks} == want_names
    for check in checks:
        _, label, q, node = check.name.split("/")
        datum, q, node = build_root_system(label), int(q[1:]), int(node[4:])
        subgroup = fundamental_group(datum).subgroup([node])
        contained = hyperplane_containment(datum, subgroup, q)
        want = (
            0
            if contained is not None
            else q ** invariant_space(datum, subgroup).dimension
        )
        assert check.detail == f"count={want} expected={want}"
    # the named zero and nonzero branches
    datum, config = _split_config("A2", 3)
    cells = enumerate_subalcoves(config)
    assert m_alpha(config, frozenset({0, 1, 2}), cells) == ()
    datum, config = _split_config("B3", 5)
    cells = enumerate_subalcoves(config)
    assert len(m_alpha(config, frozenset({0, 1}), cells)) == 25
    _passline(3, f"stable sub-alcove law on {len(checks)} (type, q, node) triples")


def test_c04_disconnected_class_counts():
    checks = _suite_checks("table3")
    assert [check.name for check in checks] == [
        f"table3/{label}/q{q}/{'twisted' if twisted else 'split'}"
        for label, q, twisted, _ in TABLE3_CONFIGS
    ]
    for check, (_, _, _, expected) in zip(checks, TABLE3_CONFIGS):
        assert check.detail == f"n_disconnected={expected} expected={expected}"
    _passline(4, "disconnected counts 1, 25, 9, 4, 4, 81 for the six listed configs")


def test_c05_rational_totals_e6_e7():
    c = counts(make_group_config("E6", "ad", 2, twisted=True))
    assert c.rational_total == 72
    start = time.monotonic()
    c = counts(make_group_config("E7", "ad", 3))
    elapsed = time.monotonic() - start
    assert c.rational_total == 2268
    assert elapsed < 180.0
    _passline(5, f"rational totals 72 (twisted E6, q=2) and 2268 (E7, q=3), E7 in {elapsed:.1f}s")


def test_c06_steinberg_partition():
    checks = _suite_checks("steinberg")
    configs = {(label, q, False) for label, qs in SUBALCOVE_GRID for q in qs}
    configs |= {(label, q, twisted) for label, q, twisted, _ in TABLE3_CONFIGS}
    configs |= {("E6", 2, True), ("E7", 3, False)}
    assert {check.name for check in checks} == {
        f"steinberg/{label}/q{q}/{'twisted' if twisted else 'split'}"
        for label, q, twisted in configs
    }
    for check in checks:
        _, label, q, _ = check.name.split("/")
        c1, c2, _ = (int(field.split("=")[1]) for field in check.detail.split())
        assert c1 + c2 == int(q[1:]) ** build_root_system(label).rank
    _passline(6, f"connected + disconnected = q^rank on {len(checks)} adjoint configs")


def test_c07_oracle_equivalence():
    class_expectations = {("sc", 3): 3, ("sc", 5): 5, ("sc", 7): 7,
                          ("ad", 3): 4, ("ad", 5): 6, ("ad", 7): 8}
    for (iso, q), expected in class_expectations.items():
        config = make_group_config("A1", iso, q)
        c = counts(config)
        kind = "SL2" if iso == "sc" else "PGL2"
        brute = semisimple_class_count(SmallGroupSpec(kind, q))
        assert c.rational_total == brute == expected
        # semisimple characters live in the dual group
        dual = "PGL2" if kind == "SL2" else "SL2"
        chars = pprime_character_count(SmallGroupSpec(dual, q))
        assert c.pprime_char_total == chars
        if (iso, q) == ("ad", 3):
            assert c.pprime_char_total == 6
    _passline(7, "census = brute force for A1 sc/ad at q = 3, 5, 7, incl. the 6-character anchor")


def test_c08_invariant_witness_points():
    # each check holds when its witness point is fixed by some stabilizer
    # and its centralizer type is the expected one
    checks = verify.suite_table2()
    assert len(checks) == len(TABLE2_WITNESSES)
    for check in checks:
        assert check.ok is True, f"{check.name}: {check.detail}"
    _passline(8, "all five invariant witness points give the expected centralizer types")


def test_c09_theta_orbit_counts_and_strata():
    checks = _suite_checks("theta")
    assert len(checks) == len(THETA_CASES)
    for check, (label, q, twisted) in zip(checks, THETA_CASES):
        assert check.name == f"theta/{label}/q{q}/{'twisted' if twisted else 'split'}"
        config = make_group_config(label, "ad", q, twisted=twisted)
        # ok is the hypothesis, the orbit count and every stratum at once
        group = fundamental_group(config.datum)
        strata = {
            node: q ** invariant_space(config.datum, group.subgroup([node])).dimension
            for node in sorted(config.a_g)
        }
        assert check.detail == f"orbits={q**config.rank} strata={strata}"
    _passline(9, "orbit counts 49, 25, 64 with strata q^dim for the three listed configs")


def test_c10_d_odd_report():
    start = time.monotonic()
    config = make_group_config("D5", "ad", 5)
    records = enumerate_classes(config)
    c = counts(config, records)
    assert c.geometric_total == 5**5
    assert config.congruence_holds()
    assert len(records) == 5**5
    assert theta(config, records) == {0: 5**5, 1: 5**3, 4: 5, 5: 5}
    comparison = d_odd_comparison(config, c)
    elapsed = time.monotonic() - start
    assert elapsed < 90.0
    status = "agrees" if comparison.agree else "disagrees"
    _passline(
        10,
        f"D5 adjoint q=5: partition and orbit identities hold; rational total "
        f"{comparison.rational_total} {status} with the closed form "
        f"{comparison.closed_form} (recorded), {elapsed:.1f}s",
    )
