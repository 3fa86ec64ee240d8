import copy
import inspect
import textwrap
import tracemalloc
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauercensus import brauer
from brauercensus.affine import FundamentalGroup, affine_point, fold_coords, fundamental_group
from brauercensus.brauer import (
    cell_fixed_points,
    frobenius_image,
)
from brauercensus.census import (
    GroupConfig,
    counts,
    d_odd_comparison,
    enumerate_classes,
    f_stable,
    make_group_config,
    orbit_equal,
    orbit_key,
)
from brauercensus import census, cli, verify
from brauercensus.errors import InvariantViolation
from brauercensus.rootdata import TypeLabel, build_root_system, subdiagram_type
from brauercensus.verify import expected_disconnected_count

import fraction_reference as reference


def point(config, *coords):
    return affine_point(config.datum, tuple(Fraction(c) for c in coords))


def test_make_group_config_validation():
    cfg = make_group_config("D4", "ad", 3)
    assert len(cfg.a_g) == 4
    # a twist moving the subgroup is rejected: the half-spin kernel of D4
    # is not stable under the spin-node swap
    with pytest.raises(ValueError):
        make_group_config("D4", [3], 2, twisted=True)
    with pytest.raises(ValueError):
        make_group_config("A2", "ad", 3, triality=True)
    with pytest.raises(ValueError):
        make_group_config("B3", [2], 3)  # node 2 is not minuscule


def test_group_config_stores_rho_as_a_tuple():
    # stored as a list, the identity twist would compare unequal to the
    # identity tuple and would not hash
    datum = build_root_system("A2")
    cfg = GroupConfig(datum, [0, 1, 2], 4, [0, 1, 2])
    assert type(cfg.rho) is tuple and cfg.rho == (0, 1, 2)
    assert cfg.twist_order == 1 and cfg.is_split
    assert hash(cfg) == hash(make_group_config("A2", "ad", 4))
    assert copy.copy(cfg) == cfg
    twisted = GroupConfig(datum, [0, 1, 2], 4, [0, 2, 1])
    assert twisted.rho == (0, 2, 1) and twisted.twist_order == 2


@pytest.mark.parametrize(
    "label,twisted,triality,order,name",
    [
        ("D4", False, False, 1, "D4 ad q=5"),
        ("D4", True, False, 2, "D4 ad q=5 twisted"),
        ("D4", True, True, 3, "D4 ad q=5 triality"),
        ("E6", True, False, 2, "E6 ad q=5 twisted"),
    ],
)
def test_twist_order_is_the_order_of_rho(label, twisted, triality, order, name):
    cfg = make_group_config(label, "ad", 5, twisted=twisted, triality=triality)
    assert cfg.twist_order == order
    assert cfg.is_split == (order == 1)
    assert str(cfg) == name
    assert cli.census_report(cfg)["twist_order"] == order


def test_isogeny_subgroup_closure():
    cfg = make_group_config("D5", [4], 3)
    assert cfg.a_g == frozenset({0, 1, 4, 5})  # a spin node generates all
    cfg = make_group_config("D5", [1], 3)
    assert cfg.a_g == frozenset({0, 1})
    assert cfg.isogeny_name() == "sub:1"


def test_cocharacter_lattice_indices(monkeypatch):
    # the reference's lattice, against which the census's exact-image
    # orbit relation is checked
    for label, iso, index in [("A3", "sc", 4), ("A3", "ad", 1), ("D4", [1], 2)]:
        cfg = make_group_config(label, iso, 3)
        basis = reference.cocharacter_lattice(cfg)
        assert prod(row[i] for i, row in enumerate(basis)) == index
    # with the lifts of nodes 1 and 2 zeroed, the adjoint A2 lattice is
    # only the coroot lattice, of index 3 instead of 1
    cfg = make_group_config("A2", "ad", 3)
    lift = reference.coweight_lift
    monkeypatch.setattr(
        reference,
        "coweight_lift",
        lambda datum, node: (0, 0) if node in (1, 2) else lift(datum, node),
    )
    with pytest.raises(
        InvariantViolation, match=r"^A2 ad q=3: cocharacter lattice has index 3, expected 1$"
    ):
        reference.cocharacter_lattice.__wrapped__(cfg)


def test_orbit_equal_basics():
    ad = make_group_config("A1", "ad", 3)
    sc = make_group_config("A1", "sc", 3)
    # coweight coordinates 0 and 1 as affine numerators over 1
    zero, one = (1, 0), (0, 1)
    assert orbit_equal(ad, zero, zero) == 0
    assert orbit_equal(ad, zero, one) is not None
    assert orbit_equal(sc, zero, one) is None
    with pytest.raises(ValueError):
        orbit_equal(ad, (-1, 2), zero)  # coweight coordinate 2
    with pytest.raises(ValueError):
        orbit_equal(ad, zero, (2, 0))  # the same point over another denominator
    assert reference.orbit_equal(ad, point(ad, 0), point(ad, 0)) == 0
    assert reference.orbit_equal(ad, point(ad, 0), point(ad, 1)) is not None
    assert reference.orbit_equal(sc, point(sc, 0), point(sc, 1)) is None
    with pytest.raises(ValueError):
        reference.orbit_equal(ad, point(ad, 2), point(ad, 0))


def test_orbit_equal_witness_is_valid():
    cfg = make_group_config("A1", "ad", 3)
    lam, mu = (3, 1), (1, 3)  # coweight coordinates 1/4 and 3/4
    z = orbit_equal(cfg, lam, mu)
    assert z is not None
    group = fundamental_group(cfg.datum)
    assert group.act[z](lam) == mu
    quarters = point(cfg, Fraction(1, 4)), point(cfg, Fraction(3, 4))
    assert reference.orbit_equal(cfg, *quarters) == z


def test_f_stable_cases():
    ad = make_group_config("A1", "ad", 3)
    sc = make_group_config("A1", "sc", 3)
    assert f_stable(ad, (1, 0)) == 0
    assert f_stable(ad, (3, 1)) is not None
    assert f_stable(sc, (3, 1)) is None
    assert f_stable(sc, (1, 1)) is not None
    assert reference.f_stable(ad, point(ad, 0)) == 0
    assert reference.f_stable(ad, point(ad, Fraction(1, 4))) is not None
    assert reference.f_stable(sc, point(sc, Fraction(1, 4))) is None
    assert reference.f_stable(sc, point(sc, Fraction(1, 2))) is not None


# Every candidate of these configurations is checked against the rational
# reference: p divides a mark in B3 and E8 at q = 2.
REFERENCE_GRID = [
    *((label, iso, q, kind) for label in ("A1", "A2", "A3", "B2", "G2")
      for q in (2, 3, 4) for iso in ("sc", "ad") for kind in ("split",)),
    *((label, iso, 2, "split") for label in ("B3", "E8") for iso in ("sc", "ad")),
    *(("D4", iso, 2, "triality") for iso in ("sc", "ad")),
    *((label, iso, 2, "twisted") for label in ("A2", "E6") for iso in ("sc", "ad")),
    ("D4", [1], 3, "split"),
]


def _grid_config(label, iso, q, kind):
    return make_group_config(
        label, iso, q, twisted=kind != "split", triality=kind == "triality"
    )


def _grid_id(case):
    label, iso, q, kind = case
    iso = iso if isinstance(iso, str) else "sub:" + ",".join(map(str, iso))
    return f"{label}-{iso}-q{q}-{kind}"


@pytest.mark.parametrize(
    "label,iso,q,kind", REFERENCE_GRID, ids=map(_grid_id, REFERENCE_GRID)
)
def test_integer_stability_matches_the_rational_reference(label, iso, q, kind):
    config = _grid_config(label, iso, q, kind)
    datum, group = config.datum, fundamental_group(config.datum)
    candidates = reference.all_pairs_fixed_points(config)
    vertices = tuple(
        reference.numerators(datum, v, reference.common_denominator(v))
        for v in datum.alcove_vertices
    )
    for aff in candidates + vertices:
        lam = reference.point(datum, aff)
        den = sum(aff)
        fimage = reference.frobenius_map(config).apply(lam.coords)
        assert frobenius_image(config, aff) == reference.numerators(datum, fimage, den)
        folded = fold_coords(datum, frobenius_image(config, aff))
        assert folded == reference.numerators(datum, reference.fold(datum, fimage), den)
        # the two relations agree on None-ness; the lattice may find an
        # earlier witness, but the census's maps the point exactly
        z = f_stable(config, aff)
        assert (z is None) == (reference.f_stable(config, lam) is None)
        assert z is None or group.act[z](aff) == folded
    for aff in candidates:
        assert f_stable(config, aff) is not None


FOLD_GRID = [("D5", "ad", 3, "split"), ("E6", "ad", 2, "twisted"), ("D4", "ad", 3, "triality")]


@pytest.mark.parametrize("case", FOLD_GRID, ids=map(_grid_id, FOLD_GRID))
def test_fold_of_every_class_key_matches_the_rational_reference(case):
    # The worklist fold of F(key) lands where the rational sweep does.
    config = _grid_config(*case)
    datum = config.datum
    frobenius = reference.frobenius_map(config)
    for record in enumerate_classes(config):
        key = record.key
        fimage = frobenius.apply(reference.point(datum, key).coords)
        expected = reference.numerators(datum, reference.fold(datum, fimage), sum(key))
        assert fold_coords(datum, frobenius_image(config, key)) == expected


# sc, ad and sub:, split, twisted and triality: 2,572 census keys.
LATTICE_GRID = [
    ("A2", "ad", 7, "split"),
    ("A3", "sc", 5, "split"),
    ("A3", [2], 5, "twisted"),
    ("A4", "ad", 4, "twisted"),
    ("A5", [2], 3, "split"),
    ("B3", "ad", 5, "split"),
    ("C3", "ad", 4, "split"),
    ("D4", "ad", 3, "split"),
    ("D4", "ad", 3, "triality"),
    ("D4", "sc", 2, "triality"),
    ("D5", [1], 3, "split"),
    ("D5", "ad", 3, "twisted"),
    ("E6", "ad", 2, "twisted"),
    ("E6", "sc", 3, "split"),
    ("E7", "ad", 2, "split"),
]


@pytest.mark.parametrize("case", LATTICE_GRID, ids=map(_grid_id, LATTICE_GRID))
def test_census_keys_pass_the_lattice_orbit_relation(case):
    # The reference's cocharacter-lattice relation accepts every key's
    # folded Frobenius image, and it and the census's exact-image relation
    # reject the next key, a different class, alike; the census's relation
    # takes the two keys over their common denominator.
    config = _grid_config(*case)
    datum = config.datum
    keys = [r.key for r in enumerate_classes(config)]
    for key, other in zip(keys, keys[1:] + keys[:1]):
        folded = fold_coords(datum, frobenius_image(config, key))
        lam = reference.point(datum, key)
        assert reference.orbit_equal(config, lam, reference.point(datum, folded)) is not None
        assert orbit_equal(config, key, folded) is not None
        assert reference.orbit_equal(config, lam, reference.point(datum, other)) is None
        level = lcm(sum(key), sum(other))
        lifted = [tuple(x * (level // sum(k)) for x in k) for k in (key, other)]
        assert orbit_equal(config, *lifted) is None


# Split, twisted and triality; sc, ad and sub:; p dividing the isogeny
# group order (A1 q=4, A2 q=3, A3 q=2, C3 q=2, D4 q=2, E7 q=2, A5 sub:2
# q=3) and not.
PAIR_ORBIT_GRID = [
    ("A1", "ad", 3, "split"),
    ("A1", "ad", 4, "split"),
    ("A2", "ad", 7, "split"),
    ("A2", "ad", 5, "split"),
    ("A2", "ad", 3, "split"),
    ("A2", "ad", 5, "twisted"),
    ("A2", "ad", 3, "twisted"),
    ("A3", "sc", 3, "split"),
    ("A3", "ad", 5, "split"),
    ("A3", "ad", 2, "split"),
    ("A3", "ad", 3, "twisted"),
    ("A3", [2], 3, "split"),
    ("A5", [2], 3, "split"),
    ("B2", "ad", 3, "split"),
    ("C3", "ad", 2, "split"),
    ("D4", "ad", 3, "split"),
    ("D4", "ad", 2, "triality"),
    ("D4", [1], 3, "split"),
    ("D5", "ad", 3, "split"),
    ("D5", [1], 3, "split"),
    ("E6", "ad", 2, "split"),
    ("E6", "ad", 2, "twisted"),
    ("E7", "ad", 2, "split"),
    ("G2", "sc", 3, "split"),
]


@pytest.mark.parametrize(
    "label,iso,q,kind", PAIR_ORBIT_GRID, ids=map(_grid_id, PAIR_ORBIT_GRID)
)
def test_pair_orbits_match_the_all_pairs_table(label, iso, q, kind):
    # One solve per orbit of (cell, node) pairs gives every orbit key of
    # the table that solves every pair, the subgroup images of the solved
    # points are that table, and the pair orbits count the rational classes.
    config = _grid_config(label, iso, q, kind)
    datum = config.datum
    solved = list(cell_fixed_points(config))
    every = reference.all_pairs_fixed_points(config)
    assert {orbit_key(config, aff) for aff in solved} == {
        orbit_key(config, aff) for aff in every
    }
    assert reference.pair_images(datum, config.a_g, solved) == every
    records = enumerate_classes(config)
    assert len(records) == q**datum.rank
    assert len(solved) == counts(config, records).rational_total
    assert len(solved) <= q**datum.rank * len(config.a_g)


@pytest.mark.parametrize("drop", ["F(b)", "b^-1"])
@pytest.mark.parametrize("label,q", [("A2", 7), ("D5", 3)])
def test_pair_action_mutants_break_the_burnside_identity(monkeypatch, drop, label, q):
    # The node of the image pair is a F(b) b^-1; with either factor
    # dropped, the solved pairs no longer count the rational classes.
    if drop == "F(b)":
        monkeypatch.setattr(brauer, "central_frobenius_action", lambda *args: 0)
    else:
        monkeypatch.setattr(FundamentalGroup, "inverse", lambda self, a: 0)
    with pytest.raises(
        InvariantViolation,
        match=rf"{label} ad q={q}: \d+ \(cell, node\) pair orbits, "
        r"but the fixed counts sum to \d+",
    ):
        enumerate_classes(make_group_config(label, "ad", q))


@pytest.mark.parametrize("label,q", [("D5", 3), ("A2", 5)])
def test_burnside_mutant_counting_every_node_raises(label, q):
    # enumerate_classes with the F(b) = b condition cut out of its
    # fixed-space sum: the stable cells of every b no longer count the
    # rational classes.
    source = textwrap.dedent(inspect.getsource(census.enumerate_classes))
    condition = "if central_frobenius_action(config, b) == b"
    assert source.count(condition) == 1
    namespace = dict(vars(census))
    exec(source.replace(condition, ""), namespace)
    with pytest.raises(
        InvariantViolation,
        match=rf"{label} ad q={q}: the stable cells of the F-fixed nodes sum to "
        r"\d+, but the fixed counts sum to \d+",
    ):
        namespace["enumerate_classes"](make_group_config(label, "ad", q))
    # the unmutated census passes the same identity
    enumerate_classes(make_group_config(label, "ad", q))


KLEIN_FOUR_GRID = [
    ("D4", "ad", 3, "split"),
    ("D4", "ad", 5, "split"),
    ("D4", "ad", 7, "split"),
    ("D4", "ad", 3, "twisted"),
    ("D6", "ad", 3, "split"),
]


@pytest.mark.parametrize("case", KLEIN_FOUR_GRID, ids=map(_grid_id, KLEIN_FOUR_GRID))
def test_node_pair_cells_count_the_pprime_characters(case):
    # On Klein-four isogeny groups <b, c> is not always cyclic: N(<b, c>)
    # must equal a direct count of the cells that all of <b, c> fixes, and
    # the N(<b, c>) over F-fixed b and c sum to the squared fixed counts,
    # which the census asserts.
    config = _grid_config(*case)
    datum, group = config.datum, fundamental_group(config.datum)
    fixed = [
        b
        for b in sorted(config.a_g)
        if brauer.central_frobenius_action(config, b) == b
    ]
    every = brauer.enumerate_subalcoves(config)
    pairs = 0
    for b in fixed:
        for c in fixed:
            subgroup = group.subgroup([b, c])
            cells = brauer.stable_cell_count(datum, subgroup, config.q)
            assert len(reference.stable_cells(config, subgroup, every)) == cells
            pairs += cells
    assert pairs == counts(config).pprime_char_total
    if case == ("D4", "ad", 3, "split"):
        assert pairs == 180


def test_node_pair_table_counts_each_subgroup_once(monkeypatch):
    # The 16 ordered pairs of F-fixed nodes of D4 ad generate 5 distinct
    # subgroups: the trivial one, three of order 2 and the whole group.
    calls = []

    def counted(datum, subgroup, q):
        calls.append(subgroup)
        return brauer.stable_cell_count(datum, subgroup, q)

    monkeypatch.setattr(census, "stable_cell_count", counted)
    enumerate_classes(make_group_config("D4", "ad", 3))
    assert len(calls) == len(set(calls)) == 5


def test_node_pair_mutant_counting_m_b_raises():
    # enumerate_classes with N(<b, c>) replaced by m_b: on D4 ad q=3 every
    # node is F-fixed, so the table sums to 4 * 108 = 432, not 180.
    source = textwrap.dedent(inspect.getsource(census.enumerate_classes))
    pair = "group.subgroup((b, c))"
    assert source.count(pair) == 1
    namespace = dict(vars(census))
    exec(source.replace(pair, "group.subgroup((b,))"), namespace)
    with pytest.raises(
        InvariantViolation,
        match=r"^D4 ad q=3: the stable cells of the F-fixed node pairs sum to 432, "
        r"but the squared fixed counts sum to 180$",
    ):
        namespace["enumerate_classes"](make_group_config("D4", "ad", 3))


def test_strata_mutant_dropping_a_component_node_raises(monkeypatch):
    # A record that loses node 2 from its component group but keeps its
    # fixed count leaves the fixed counts, and so both sums, as they were;
    # only the per-node strata see it.  On A2 ad q=7 one class holds node
    # 2, and N(<2>) = 1.
    real = census._classify
    dropped = []

    def dropping(config, key, types, components):
        record = real(config, key, types, components)
        if not dropped and 2 in record.comp_group:
            dropped.append(record)
            return record._replace(comp_group=record.comp_group[:-1])
        return record

    monkeypatch.setattr(census, "_classify", dropping)
    with pytest.raises(
        InvariantViolation,
        match=r"^A2 ad q=7: 0 classes have node 2 in their component group, "
        r"but N\(<2>\) = 1$",
    ):
        enumerate_classes(make_group_config("A2", "ad", 7))
    assert [r.comp_group for r in dropped] == [(0, 1, 2)]


@pytest.mark.parametrize(
    "field,message",
    [
        ("rational_total", r"51 \(cell, node\) pair orbits, but the fixed counts sum to 52"),
        (
            "pprime_char_total",
            r"the stable cells of the F-fixed node pairs sum to 57, "
            r"but the squared fixed counts sum to 58",
        ),
    ],
    ids=["rational_total", "pprime_char_total"],
)
def test_census_asserts_the_counts_it_reports(monkeypatch, field, message):
    # The census checks the counts block that the report prints: a
    # counts that over-reports a total by one fails the census itself.
    true_counts = census.counts

    def over_reporting(config, records=None):
        c = true_counts(config, records)
        return c._replace(**{field: getattr(c, field) + 1})

    monkeypatch.setattr(census, "counts", over_reporting)
    with pytest.raises(InvariantViolation, match=rf"^A2 ad q=7: {message}$"):
        enumerate_classes(make_group_config("A2", "ad", 7))


def test_census_asserts_the_theta_strata(monkeypatch):
    # The per-node check reads theta's strata, the ones that the verify
    # suites print.  On A2 ad q=7, N(<2>) = 1.
    true_theta = census.theta

    def lowered(config, records):
        strata = true_theta(config, records)
        return {**strata, 2: strata[2] - 1}

    monkeypatch.setattr(census, "theta", lowered)
    with pytest.raises(
        InvariantViolation,
        match=r"^A2 ad q=7: 0 classes have node 2 in their component group, "
        r"but N\(<2>\) = 1$",
    ):
        enumerate_classes(make_group_config("A2", "ad", 7))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_GRID), st.data())
def test_integer_orbit_tests_match_the_rational_reference(case, data):
    # random alcove points, walls and vertices included, and pairs of
    # them at a common denominator
    config = _grid_config(*case)
    datum = config.datum
    draw_weights = st.lists(
        st.one_of(st.just(0), st.integers(0, 4)),
        min_size=datum.rank + 1,
        max_size=datum.rank + 1,
    ).filter(any)
    lam_w, mu_w = data.draw(draw_weights), data.draw(draw_weights)
    if data.draw(st.booleans()):
        z = data.draw(st.sampled_from(sorted(config.a_g)))
        mu_w = fundamental_group(datum).act[z](lam_w)
    points = []
    for w in (lam_w, mu_w):
        total = sum(w)
        points.append(tuple(Fraction(w[i], datum.marks[i] * total) for i in datum.nodes))
    den = reference.common_denominator(points[0] + points[1])
    lam, mu = (reference.numerators(datum, c, den) for c in points)
    act = fundamental_group(datum).act
    z = f_stable(config, lam)
    assert (z is None) == (reference.f_stable(config, reference.point(datum, lam)) is None)
    assert z is None or act[z](lam) == fold_coords(datum, frobenius_image(config, lam))
    z = orbit_equal(config, lam, mu)
    witness = reference.orbit_equal(
        config, reference.point(datum, lam), reference.point(datum, mu)
    )
    assert (z is None) == (witness is None)
    assert z is None or act[z](lam) == mu


def test_enumerate_classes_a1():
    sc = make_group_config("A1", "sc", 3)
    recs = enumerate_classes(sc)
    assert len(recs) == 3
    assert all(len(r.comp_group) == 1 for r in recs)
    ad = make_group_config("A1", "ad", 3)
    recs = enumerate_classes(ad)
    assert len(recs) == 3
    # keys are affine numerators over their own least denominators
    by_key = {r.key: r for r in recs}
    central = by_key[(0, 1)]  # canonical rep of the 0 ~ 1 orbit
    assert len(central.comp_group) == 1
    assert str(central.centralizer_components[0]) == "A1"
    half = by_key[(1, 1)]
    assert half.comp_group == (0, 1)
    assert half.fixed_count == 2
    # the canonical representative of the {1/4, 3/4} orbit is the point
    # with the lexicographically smaller affine coordinates, (1/4, 3/4)
    quarter = by_key[(1, 3)]
    assert len(quarter.comp_group) == 1
    assert quarter.torus_rank == 1


def test_value_types_are_immutable_and_labels_still_validate_and_sort():
    config = make_group_config("A2", "ad", 7)
    record = enumerate_classes(config)[0]
    for value, field in (
        (config.datum.label, "rank"),
        (config, "q"),
        (config, "a_g"),
        (record, "fixed_count"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    assert copy.copy(config) == config
    with pytest.raises(ValueError, match="invalid rank 9 for family E"):
        TypeLabel("E", 9)
    labels = [TypeLabel("G", 2), TypeLabel("A", 7), TypeLabel("E", 6), TypeLabel("A", 2)]
    assert [str(t) for t in sorted(labels)] == ["A2", "A7", "E6", "G2"]
    assert TypeLabel("B", 3) < TypeLabel("C", 2) < TypeLabel("C", 3)


def _leaves(value):
    # records and type labels are named tuples
    if isinstance(value, tuple):
        for x in value:
            yield from _leaves(x)
    else:
        yield value


@pytest.mark.parametrize(
    "label,q,twisted", [("A1", 3, False), ("D5", 3, False), ("E6", 2, True)]
)
def test_class_records_hold_no_rationals(label, q, twisted):
    # the records stay integer, each key over the least denominator of
    # its coweight coordinates; only the serializer writes ratios
    config = make_group_config(label, "ad", q, twisted=twisted)
    datum = config.datum
    records = enumerate_classes(config)
    assert {type(x) for r in records for x in _leaves(r)} <= {int, str}
    for key in (r.key for r in records):
        assert all(key[i] % datum.marks[i] == 0 for i in datum.nodes)
        assert gcd(sum(key), *(key[i] // datum.marks[i] for i in datum.nodes)) == 1
    assert all(orbit_key(config, r.key) == r.key for r in records)


def test_census_peak_memory_stays_near_its_records():
    # The orbit keys are filed by denominator and merged, so no table of
    # points and no list of big-integer sort keys outlives its use: the
    # traced peak stays within 1.4 times the records returned.  Building
    # one rescaled sort key per class at once would peak near 1.6 times.
    config = make_group_config("E6", "ad", 3)
    enumerate_classes(config)  # the per-datum tables are cached before tracing
    tracemalloc.start()
    try:
        records = enumerate_classes(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 3**6
    assert peak <= 1.4 * held, (peak, held)


def _record_of(config, comp_group):
    """The F-action and fixed count of the records of ``config`` whose
    component group is ``comp_group``, which must agree."""
    found = {
        (r.f_action, r.fixed_count) for r in enumerate_classes(config) if r.comp_group == comp_group
    }
    assert len(found) == 1
    return found.pop()


def test_component_f_action_split_and_twisted():
    # split: q = 2 squares the order-3 nodes, so F swaps 1 and 6
    split = make_group_config("E6", "ad", 2)
    assert _record_of(split, (0, 1, 6)) == (((0, 0), (1, 6), (6, 1)), 1)
    # twisted: the graph twist undoes the squaring
    tw = make_group_config("E6", "ad", 2, twisted=True)
    assert _record_of(tw, (0, 1, 6)) == (((0, 0), (1, 1), (6, 6)), 3)
    # q = 1 mod 3: trivial action
    q7 = make_group_config("A2", "ad", 7)
    assert _record_of(q7, (0, 1, 2))[1] == 3


def test_counts_a1_ad():
    cfg = make_group_config("A1", "ad", 3)
    c = counts(cfg)
    assert c.geometric_total == 3
    assert c.rational_total == 4
    assert c.pprime_char_total == 6
    assert c.n_disconnected == 1
    assert c.by_component_order == {"1": 2, "2": 1}
    assert cli.census_report(cfg)["warnings"] == []


def test_counts_warns_when_p_divides_order():
    cfg = make_group_config("A2", "ad", 3)
    c = counts(cfg)
    assert c.n_disconnected == 0
    assert c.rational_total == 9
    assert any("divides" in w for w in cli.census_report(cfg)["warnings"])


def test_simply_connected_always_connected():
    for label, q, twisted in [("A2", 4, False), ("B3", 3, False), ("A2", 3, True)]:
        cfg = make_group_config(label, "sc", q, twisted=twisted)
        c = counts(cfg)
        assert c.n_disconnected == 0
        assert c.rational_total == q**cfg.rank
        assert c.pprime_char_total == q**cfg.rank


def test_isogeny_monotonicity():
    # enlarging the isogeny subgroup never shrinks the disconnected count
    # and never changes the geometric total
    for label, q in [("A3", 3), ("D4", 3)]:
        chain = ["sc", [1], "ad"] if label == "D4" else ["sc", [2], "ad"]
        prev = -1
        for iso in chain:
            cfg = make_group_config(label, iso, q)
            c = counts(cfg)
            assert c.geometric_total == q**cfg.rank
            assert c.n_disconnected >= prev
            prev = c.n_disconnected


def test_twisted_census_small():
    cfg = make_group_config("A2", "ad", 2, twisted=True)
    c = counts(cfg)
    assert c.geometric_total == 4
    # q = -1 mod 3 twisted: the central action is trivial
    assert c.rational_total == 3 + 3


def test_d4_triality_census():
    cfg = make_group_config("D4", "ad", 2, twisted=True, triality=True)
    c = counts(cfg)
    assert c.geometric_total == 16


def test_disconnected_check_families(monkeypatch):
    table3 = verify.SUITES["table3"]
    assert [(c.status, c.detail) for c in table3(types=("A2", "C4", "E6"))] == [
        ("PASS", "n_disconnected=1 expected=1"),
        ("PASS", "n_disconnected=9 expected=9"),
        ("PASS", "n_disconnected=4 expected=4"),
        ("PASS", "n_disconnected=4 expected=4"),
    ]
    # a census that counts one disconnected class too many is named
    true_counts = verify.counts

    def one_too_many(config, records=None):
        c = true_counts(config, records)
        return c._replace(n_disconnected=c.n_disconnected + 1)

    monkeypatch.setattr(verify, "counts", one_too_many)
    (check,) = table3(types=("A2",))
    assert (check.status, check.name, check.detail) == (
        "FAIL", "table3/A2/q5/split", "A2 ad q=5: 2 disconnected classes, expected 1"
    )


def test_disconnected_check_preconditions():
    with pytest.raises(ValueError, match="requires p not dividing"):
        expected_disconnected_count(make_group_config("A2", "ad", 3))  # p = |A_G|
    with pytest.raises(ValueError, match="requires an isogeny group of prime order"):
        expected_disconnected_count(make_group_config("D4", "ad", 3))  # order 4
    with pytest.raises(ValueError, match="requires an isogeny group of prime order"):
        expected_disconnected_count(make_group_config("A1", "sc", 3))  # trivial
    with pytest.raises(ValueError, match="requires the adjoint isogeny type"):
        expected_disconnected_count(make_group_config("D4", [1], 3))  # order 2 of 4


def test_unstable_orbit_raises(monkeypatch):
    # Stability is asserted, not filtered on: an orbit that fails the
    # test stops the census and names the configuration.
    monkeypatch.setattr(census, "f_stable", lambda config, rep: None)
    with pytest.raises(
        InvariantViolation,
        match=r"A2 sc q=3: orbit \(\d+, \d+, \d+\) over \d+ is not F-stable",
    ):
        enumerate_classes(make_group_config("A2", "sc", 3))


def test_classification_is_memoized_per_census(monkeypatch):
    # subdiagram_type runs once per distinct zero set of a census, and a
    # second census sees a function patched after the first one: no memo
    # outlives its census.
    config = make_group_config("D5", "ad", 3)
    calls = []

    def counted(datum, zeros):
        calls.append(zeros)
        return subdiagram_type(datum, zeros)

    monkeypatch.setattr(census, "subdiagram_type", counted)
    records = enumerate_classes(config)
    assert len(records) == 243
    assert sorted(calls) == sorted({r.i_lambda for r in records})
    assert len(calls) == 21
    monkeypatch.setattr(census, "subdiagram_type", lambda datum, zeros: ("patched",))
    assert {r.centralizer_components for r in enumerate_classes(config)} == {("patched",)}


def test_orbit_relation_mismatch_names_the_configuration(monkeypatch):
    # an orbit relation that rejects every pair fails the first key's
    # stability assertion, which names the configuration
    monkeypatch.setattr(census, "orbit_equal", lambda *args: None)
    with pytest.raises(
        InvariantViolation,
        match=r"^D4 ad q=3: orbit \(\d+(, \d+){4}\) over \d+ is not F-stable$",
    ):
        enumerate_classes(make_group_config("D4", "ad", 3))


def test_d_odd_comparison_shape():
    cfg = make_group_config("D3", "ad", 3)
    c = counts(cfg)
    rep = d_odd_comparison(cfg, c)
    assert rep.closed_form == 3**3 + 3 + 2 * 3
    assert rep.rational_total == c.rational_total
    d4 = make_group_config("D4", "ad", 3)
    with pytest.raises(ValueError):
        d_odd_comparison(d4, counts(d4))


@pytest.mark.parametrize("q,total", [(3, 276), (5, 3250)])
def test_twisted_d5_adjoint_rational_total(q, total):
    # Σ_{F(b)=b} m_b under the graph twist: q^5 + [q odd]·q^3 + 2q·[q ≡ 3
    # mod 4]; d_odd_comparison still reports the split closed form
    config = make_group_config("D5", "ad", q, twisted=True)
    c = counts(config)
    assert c.rational_total == total
    assert d_odd_comparison(config, c).closed_form == q**5 + q**3 + 2 * q**2


def test_component_groups_are_subgroups():
    # component groups always sit inside the isogeny subgroup, and for a
    # prime-order subgroup every disconnected class carries all of it
    for label, q in [("A2", 4), ("B3", 3), ("E6", 2)]:
        cfg = make_group_config(label, "ad", q)
        group = fundamental_group(cfg.datum)
        for rec in enumerate_classes(cfg):
            nodes = frozenset(rec.comp_group)
            assert nodes <= cfg.a_g
            assert group.is_subgroup(nodes)
            if len(rec.comp_group) > 1 and len(cfg.a_g) in (2, 3):
                assert nodes == cfg.a_g


def test_d3_census_matches_a3():
    # D3 and A3 are the same root system in different labellings
    ca = counts(make_group_config("A3", "ad", 3))
    cd = counts(make_group_config("D3", "ad", 3))
    assert ca.rational_total == cd.rational_total
    assert ca.by_component_order == cd.by_component_order


def _phi(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


PGL_CASES = [
    (n, q)
    for n in range(2, 7)
    for q in (2, 3, 4, 5, 7, 8, 9)
    if q ** (n - 1) <= 1024
]


@pytest.mark.parametrize("n,q", PGL_CASES, ids=[f"PGL{n}-q{q}" for n, q in PGL_CASES])
def test_pgl_rational_total(n, q):
    # an independent anchor: the adjoint A(n-1) census counts the
    # semisimple classes of PGL_n(q), sum over d | gcd(n, q-1) of
    # phi(d) q^(n/d - 1)
    g = gcd(n, q - 1)
    expected = sum(_phi(d) * q ** (n // d - 1) for d in range(1, g + 1) if g % d == 0)
    assert counts(make_group_config(f"A{n - 1}", "ad", q)).rational_total == expected
