import pytest

from brauercensus import oracle
from brauercensus.errors import InvariantViolation, ResourceCapExceeded
from brauercensus.oracle import (
    FiniteField,
    SmallGroupSpec,
    character_degrees,
    conjugacy_classes,
    pprime_character_count,
    semisimple_class_count,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustively(q):
    f = FiniteField(q)
    for a in range(q):
        assert f.add[a][0] == a
        assert f.mul[a][f.one] == a
        assert f.add[a][f.neg[a]] == 0
        if a:
            assert f.mul[a][f.inv[a]] == f.one
        for b in range(q):
            assert f.add[a][b] == f.add[b][a]
            assert f.mul[a][b] == f.mul[b][a]
            for c in range(q):
                assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]


def test_spec_validation():
    with pytest.raises(ValueError):
        SmallGroupSpec("GL2", 3)
    with pytest.raises(ValueError):
        SmallGroupSpec("SL2", 6)
    with pytest.raises(ValueError, match="^field of order 16 not supported$"):
        SmallGroupSpec("SL2", 16)
    assert SmallGroupSpec("SL2", 3).order == 24
    assert SmallGroupSpec("PGL2", 3).order == 24
    assert SmallGroupSpec("SL3", 2).order == 168


def test_order_cap():
    with pytest.raises(ResourceCapExceeded):
        semisimple_class_count(SmallGroupSpec("SL3", 9))


@pytest.mark.parametrize(
    "kind,q,expected",
    [
        ("SL2", 3, 3),
        ("PGL2", 3, 4),
        ("SL2", 5, 5),
        ("PGL2", 5, 6),
        ("SL2", 7, 7),
        ("SL2", 4, 4),
        ("SL2", 9, 9),
        ("SL3", 2, 4),
    ],
)
def test_semisimple_class_counts(kind, q, expected):
    assert semisimple_class_count(SmallGroupSpec(kind, q)) == expected


def _classical_class_number(kind, q):
    if kind == "SL2":
        return q + 4 if q % 2 else q + 1
    if kind == "PGL2":
        return q + 2 if q % 2 else q + 1
    extra = 0 if (q - 1) % 3 else 8 if kind == "SL3" else 2
    return q * q + q + extra


CLASS_NUMBER_CASES = [
    (kind, q)
    for kind in ("SL2", "PGL2", "SL3", "PGL3")
    for q in (2, 3, 4, 5, 7, 8, 9)
    if SmallGroupSpec(kind, q).order <= 60480
]


@pytest.mark.parametrize(
    "kind,q", CLASS_NUMBER_CASES, ids=[f"{kind}-q{q}" for kind, q in CLASS_NUMBER_CASES]
)
def test_class_numbers_match_classical_formulas(kind, q):
    # k(SL2) = q+4 or q+1, k(PGL2) = q+2 or q+1 (q odd or even);
    # k(SL3) = q²+q+8 and k(PGL3) = q²+q+2 when 3 | q-1, else q²+q
    assert len(conjugacy_classes(SmallGroupSpec(kind, q))) == _classical_class_number(kind, q)


def test_dropped_generator_fails_the_order_check(monkeypatch):
    # without diag(ω, 1, 1) the closure is PSL3(4), of index 3 in PGL3(4)
    generators = oracle._generators

    def without_last(spec, field):
        identity, gens = generators(spec, field)
        return identity, gens[:-1]

    monkeypatch.setattr(oracle, "_generators", without_last)
    oracle._build_group.cache_clear()
    oracle.conjugacy_classes.cache_clear()
    try:
        with pytest.raises(InvariantViolation) as raised:
            conjugacy_classes(SmallGroupSpec("PGL3", 4))
        assert "generated 20160 elements of PGL3(4), expected 60480" in str(raised.value)
    finally:
        oracle._build_group.cache_clear()
        oracle.conjugacy_classes.cache_clear()


def test_wrong_search_tree_fails_the_identity_check(monkeypatch):
    # rotate every element's generator label by one: the left tables then
    # follow the wrong search tree, and a conjugation moves the identity
    build = oracle._build_group

    def rotated(spec):
        elements, parent, via, right = build(spec)
        via = [0] + [(s + 1) % len(right) for s in via[1:]]
        return elements, parent, via, right

    monkeypatch.setattr(oracle, "_build_group", rotated)
    oracle.conjugacy_classes.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match=r"SL3\(2\) moves the identity"):
            conjugacy_classes(SmallGroupSpec("SL3", 2))
    finally:
        oracle.conjugacy_classes.cache_clear()


def test_field_without_a_primitive_element_is_an_invariant_violation():
    # with every product forced to 1, each element other than 1 has
    # order 2, so none has order q - 1 = 4
    field = FiniteField(5)
    field.mul = [[field.one] * 5 for _ in range(5)]
    with pytest.raises(InvariantViolation, match=r"^GF\(5\): no primitive element found$"):
        field.primitive_element()


def test_wrong_right_table_fails_the_partition_check(monkeypatch):
    # exchange two entries of one right-multiplication table of SL2(2):
    # the tables no longer conjugate, and their orbits have sizes 1 and 5
    build = oracle._build_group

    def swapped(spec):
        elements, parent, via, right = build(spec)
        table = list(right[0])
        table[1], table[3] = table[3], table[1]
        return elements, parent, via, [table, *right[1:]]

    monkeypatch.setattr(oracle, "_build_group", swapped)
    oracle.conjugacy_classes.cache_clear()
    try:
        with pytest.raises(InvariantViolation) as raised:
            conjugacy_classes(SmallGroupSpec("SL2", 2))
        assert str(raised.value) == (
            "conjugacy classes of SL2(2) do not partition the group "
            "into divisors of 6: sizes [1, 5]"
        )
    finally:
        oracle.conjugacy_classes.cache_clear()


def test_classes_partition_the_group():
    for kind, q in [("SL2", 5), ("PGL2", 4), ("SL3", 2)]:
        spec = SmallGroupSpec(kind, q)
        classes = conjugacy_classes(spec)
        assert sum(size for _, size in classes) == spec.order


def test_character_degrees_match_class_counts():
    for kind, q in [("SL2", 3), ("SL2", 5), ("PGL2", 3), ("PGL2", 5), ("SL2", 4)]:
        spec = SmallGroupSpec(kind, q)
        assert len(character_degrees(spec)) == len(conjugacy_classes(spec))


@pytest.mark.parametrize("kind", ["SL2", "PGL2"])
def test_character_degree_squares_sum_to_the_group_order(kind):
    # an identity in q on each branch, proved in character_degrees'
    # docstring; here checked at every supported q up to 13
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        spec = SmallGroupSpec(kind, q)
        assert sum(d * d for d in character_degrees(spec)) == spec.order == q**3 - q


def test_character_degree_values():
    assert character_degrees(SmallGroupSpec("SL2", 3)) == (1, 1, 1, 2, 2, 2, 3)
    assert character_degrees(SmallGroupSpec("PGL2", 3)) == (1, 1, 2, 3, 3)


@pytest.mark.parametrize(
    "kind,q,expected",
    [("SL2", 3, 6), ("PGL2", 3, 3), ("SL2", 5, 8), ("PGL2", 5, 5), ("SL2", 4, 4)],
)
def test_pprime_character_counts(kind, q, expected):
    assert pprime_character_count(SmallGroupSpec(kind, q)) == expected


def test_characters_unsupported_kind_rejected():
    with pytest.raises(ValueError):
        pprime_character_count(SmallGroupSpec("SL3", 2))


def test_census_cross_checks():
    # rank-2 anchors: the census and the brute force must agree where
    # both are computable
    from brauercensus.census import counts, make_group_config

    assert (
        counts(make_group_config("A2", "sc", 2)).rational_total
        == semisimple_class_count(SmallGroupSpec("SL3", 2))
    )
    assert (
        counts(make_group_config("A2", "ad", 2)).rational_total
        == semisimple_class_count(SmallGroupSpec("PGL3", 2))
    )
    assert (
        counts(make_group_config("A2", "ad", 3)).rational_total
        == semisimple_class_count(SmallGroupSpec("PGL3", 3))
    )
    # q = 4 is the first anchor with 3 | q-1, where the adjoint census
    # has a disconnected class
    sc, ad = (counts(make_group_config("A2", iso, 4)) for iso in ("sc", "ad"))
    assert ad.n_disconnected == 1
    assert sc.rational_total == semisimple_class_count(SmallGroupSpec("SL3", 4)) == 16
    assert ad.rational_total == semisimple_class_count(SmallGroupSpec("PGL3", 4)) == 18
