from fractions import Fraction
import re
import sys
from math import factorial, gcd
from operator import itemgetter

import pytest

from brauercensus import brauer, census, cli, oracle, verify  # noqa: F401 (oracle: cache guard)
from brauercensus.affine import (
    fundamental_group,
    minuscule_nodes,
    standard_symmetry,
)
from brauercensus.brauer import (
    cell_fixed_points,
    enumerate_subalcoves,
    fixed_point,
    frobenius_image,
    scale,
    stable_cell_count,
    theta,
)
from brauercensus.census import (
    GroupConfig,
    enumerate_classes,
    make_group_config,
    orbit_key,
)
from brauercensus.errors import InvariantViolation
from brauercensus.linalg import prime_power
from brauercensus.rootdata import build_root_system

import fraction_reference as reference


def split(label, q):
    """The split adjoint configuration: its isogeny subgroup holds every
    minuscule node."""
    config = make_group_config(label, "ad", q)
    return config.datum, config


def coweight_vertices(datum, sub):
    """The vertices of a sub-alcove in S-scaled coweight coordinates: the
    affine numerator of each simple node over its mark."""
    return tuple(
        tuple(v[i] // datum.marks[i] for i in datum.nodes) for v in sub.vertices
    )


def base_subalcove(datum, q, subalcoves):
    """The small alcove itself: vertex j is alcove vertex j scaled by 1/q."""
    s = scale(datum, q)
    vertices = tuple(tuple(s * x / q for x in v) for v in datum.alcove_vertices)
    return next(
        sub for sub in subalcoves if coweight_vertices(datum, sub) == vertices
    )


def subalcove_map(datum, q, sub):
    """The affine map carrying the small alcove onto ``sub``, rebuilt from
    its vertex images in unscaled coweight coordinates: the origin goes
    to vertex 0, and the small-alcove vertex on coweight i to vertex i."""
    s = scale(datum, q)
    vertices = coweight_vertices(datum, sub)
    origin = vertices[0]
    linear = tuple(
        tuple(
            Fraction((vertices[i][k] - origin[k]) * q * datum.marks[i], s)
            for i in datum.nodes
        )
        for k in range(datum.rank)
    )
    return reference.AffineMap(linear, tuple(Fraction(x, s) for x in origin))


def reference_fixed_point(config, sub, node):
    """Coweight coordinates of the fixed point of the sub-alcove map after
    Frobenius-inverse after the stabilizer, by map composition and a
    linear solve."""
    datum, q = config.datum, config.q
    perm = reference.coweight_permutation_matrix(datum, config.rho)
    f_inverse = reference.AffineMap(
        tuple(tuple(Fraction(x, q) for x in row) for row in perm), (0,) * datum.rank
    )
    composite = subalcove_map(datum, q, sub).compose(
        f_inverse.compose(reference.f_map(datum, node))
    )
    point, basis = reference.fixed_space([composite])
    assert basis == ()
    return point


def coords(datum, point):
    """Coweight coordinates of a cell fixed point."""
    return reference.point(datum, point.affine).coords


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert prime_power(2**31) == (2, 31)
    assert prime_power(3 * 2**20) is None


def test_frobenius_config_rejects_bad_q():
    datum = build_root_system("A2")
    with pytest.raises(ValueError, match="q = 6 is not a prime power"):
        GroupConfig(datum, frozenset({0}), 6, standard_symmetry(datum, "split"))


def test_subalcoves_one_dimensional():
    datum, config = split("A1", 3)
    subs = enumerate_subalcoves(config)
    assert scale(datum, 3) == 3
    intervals = sorted(
        tuple(sorted(v[0] for v in coweight_vertices(datum, s))) for s in subs
    )
    assert intervals == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("label,q", [("A2", 2), ("A2", 3), ("B2", 3), ("G2", 2), ("E6", 2)])
def test_subalcove_count(label, q):
    datum, config = split(label, q)
    assert len(enumerate_subalcoves(config)) == q**datum.rank


def _simplex_volume(vertices):
    rows = [[x - y for x, y in zip(v, vertices[0])] for v in vertices[1:]]
    n = len(rows)
    # exact determinant by fraction-free expansion on small matrices
    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j in range(len(m)):
            if m[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return abs(det([list(r) for r in rows])) / factorial(n)


@pytest.mark.parametrize("label,q", [("A2", 2), ("B2", 3), ("G2", 2)])
def test_subalcoves_tile_the_alcove(label, q):
    datum, config = split(label, q)
    subs = enumerate_subalcoves(config)
    keys = {s.key for s in subs}
    assert len(keys) == len(subs)
    assert all(s.key == tuple(map(sum, zip(*s.vertices))) for s in subs)
    assert all(isinstance(x, int) for s in subs for v in s.vertices for x in v)
    total = sum(_simplex_volume(coweight_vertices(datum, s)) for s in subs)
    alcove = tuple(tuple(scale(datum, q) * x for x in v) for v in datum.alcove_vertices)
    assert total == _simplex_volume(alcove)


def test_subalcove_maps_are_exact():
    datum, config = split("B2", 3)
    subs = enumerate_subalcoves(config)
    s = scale(datum, 3)
    base = base_subalcove(datum, 3, subs)
    for sub in subs:
        image = subalcove_map(datum, 3, sub)
        for u, v in zip(coweight_vertices(datum, base), coweight_vertices(datum, sub)):
            assert image.apply(tuple(Fraction(x, s) for x in u)) == tuple(
                Fraction(x, s) for x in v
            )
        # a q-refined affine Weyl group element: an integral linear part of
        # determinant +-1 and a translation in the coweight lattice over q
        assert all(x.denominator == 1 for row in image.linear for x in row)
        det = (
            image.linear[0][0] * image.linear[1][1]
            - image.linear[0][1] * image.linear[1][0]
        )
        assert det in (1, -1)
        assert all((3 * t).denominator == 1 for t in image.translation)


@pytest.mark.parametrize(
    "label,q", [("A2", 4), ("B2", 5), ("G2", 4), ("C3", 3), ("F4", 2), ("E6", 2)]
)
def test_subalcoves_are_closed_under_facet_exchange(label, q):
    datum, config = split(label, q)
    s = scale(datum, q)
    marks = datum.marks
    subs = enumerate_subalcoves(config)
    by_key = {sub.key: sub for sub in subs}
    for sub in subs:
        for v in sub.vertices:
            assert len(v) == datum.rank + 1
            assert all(type(x) is int and x >= 0 for x in v)
            assert sum(v) == s
        assert sub.key == tuple(map(sum, zip(*sub.vertices)))
        # the reflection of vertex j in the facet through the others is
        # v_j - sum_i n_i <a_i, a_j^vee> v_i / n_j; the neighbour it gives
        # leaves the alcove exactly when the facet lies in an alcove wall,
        # where the other vertices share a zero numerator, and is a cell,
        # with vertex j exchanged, otherwise
        for j, apex in enumerate(sub.vertices):
            step = [
                sum(marks[i] * datum.extended_cartan[i][j] * v[k]
                    for i, v in enumerate(sub.vertices))
                for k in datum.extended_nodes
            ]
            assert all(d % marks[j] == 0 for d in step)
            new = tuple(x - d // marks[j] for x, d in zip(apex, step))
            others = sub.vertices[:j] + sub.vertices[j + 1 :]
            in_wall = any(all(v[m] == 0 for v in others) for m in datum.extended_nodes)
            assert (min(new) < 0) == in_wall
            if in_wall:
                continue
            vertices = sub.vertices[:j] + (new,) + sub.vertices[j + 1 :]
            key = tuple(map(sum, zip(*vertices)))
            assert key in by_key and by_key[key].vertices == vertices


def test_fixed_point_base_cases():
    datum, config = split("A1", 3)
    subs = enumerate_subalcoves(config)
    base = base_subalcove(datum, 3, subs)
    assert coweight_vertices(datum, base) == ((0,), (1,))
    assert fixed_point(config, base, 0).affine == (1, 0)
    by_key = {s.key: s for s in subs}
    middle = by_key[(3, 3)]
    third = by_key[(1, 5)]
    assert coweight_vertices(datum, middle) == ((2,), (1,))
    assert fixed_point(config, middle, 0).affine == (1, 1)
    assert fixed_point(config, third, 0).affine == (0, 1)
    assert coords(datum, fixed_point(config, base, 0)) == (0,)
    assert coords(datum, fixed_point(config, middle, 0)) == (Fraction(1, 2),)
    assert coords(datum, fixed_point(config, third, 0)) == (Fraction(1),)
    datum, config = split("B2", 3)
    with pytest.raises(ValueError):
        fixed_point(config, enumerate_subalcoves(config)[0], 2)


REFERENCE_GRID = [
    ("A1", 2, "split"),
    ("A1", 3, "split"),
    ("A2", 2, "split"),
    ("A2", 3, "split"),
    ("A3", 2, "split"),
    ("A3", 3, "split"),
    ("B2", 2, "split"),
    ("B2", 3, "split"),
    ("G2", 2, "split"),
    ("G2", 3, "split"),
    ("D5", 2, "split"),
    ("E7", 2, "split"),
    ("D4", 2, "triality"),
    ("A2", 2, "twisted"),
    ("E6", 2, "twisted"),
]


@pytest.mark.parametrize("label,q,kind", REFERENCE_GRID)
def test_fixed_point_matches_map_composition(label, q, kind):
    config = make_group_config(
        label, "ad", q, twisted=kind != "split", triality=kind == "triality"
    )
    datum = config.datum
    for sub in enumerate_subalcoves(config):
        for a in minuscule_nodes(datum):
            point = fixed_point(config, sub, a)
            expected = reference_fixed_point(config, sub, a)
            assert coords(datum, point) == expected
            # the numerators are over the least common denominator
            assert sum(point.affine) == reference.common_denominator(expected)


@pytest.mark.parametrize("label,q", [("A2", 3), ("B2", 4), ("C3", 2)])
def test_fixed_points_have_pprime_denominators_and_stay_inside(label, q):
    datum, config = split(label, q)
    p = config.p
    for sub in enumerate_subalcoves(config):
        for a in minuscule_nodes(datum):
            pt = reference.point(datum, fixed_point(config, sub, a).affine)
            assert reference.in_alcove(pt)
            for x in pt.coords:
                assert Fraction(x).denominator % p != 0
            # the fixed point lies inside its own sub-alcove: its barycentric
            # coordinates with respect to the simplex are nonnegative
            s = scale(datum, q)
            rows = list(zip(*[v + (s,) for v in coweight_vertices(datum, sub)]))
            bary = reference.solve_linear(
                tuple(rows), tuple(s * x for x in pt.coords) + (s,)
            )
            assert all(b >= 0 for b in bary)


# Split, twisted, adjoint and simply connected; the common denominator of
# the solved points has 26 bits on D5 ad q=3 and 48 on E7 sc q=2.
OWN_DENOMINATOR_GRID = [
    ("B2", "ad", 5, False),
    ("D5", "ad", 3, False),
    ("E6", "ad", 2, True),
    ("E7", "sc", 2, False),
]


@pytest.mark.parametrize(
    "label,iso,q,twisted",
    OWN_DENOMINATOR_GRID,
    ids=[f"{c[0]}-{c[1]}-q{c[2]}" + "-twisted" * c[3] for c in OWN_DENOMINATOR_GRID],
)
def test_cell_fixed_points_keep_their_own_denominators(label, iso, q, twisted):
    config = make_group_config(label, iso, q, twisted=twisted)
    datum, nodes = config.datum, config.a_g
    solved = list(cell_fixed_points(config))
    points = {
        fixed_point(config, sub, a).affine
        for sub in enumerate_subalcoves(config)
        for a in nodes
    }
    # the yielded points are solved points, as the solve gives them; one
    # solve per pair orbit, and every other pair's point is an image
    assert set(solved) <= points
    pairs = len(nodes) * q**datum.rank
    assert len(solved) == pairs if len(nodes) == 1 else len(solved) < pairs
    group = fundamental_group(datum)
    assert {group.act[b](aff) for aff in solved for b in nodes} == points
    # each record key is over the least denominator of its coweight
    # coordinates, and the records are in the order of their rational
    # affine coordinates
    keys = [r.key for r in enumerate_classes(config)]
    for key in keys:
        assert gcd(sum(key), *(key[i] // datum.marks[i] for i in datum.nodes)) == 1
    assert keys == sorted(keys, key=lambda key: reference.point(datum, key).affine)


def corrupt_stabilizer(monkeypatch, datum):
    """Make ``f_1`` repeat coordinate 0 in place of coordinate 1, which
    maps a cell key of A2 onto a tuple with another sum, so no cell key."""
    assert datum.label.family == "A" and datum.rank == 2
    monkeypatch.setitem(fundamental_group(datum).act, 1, itemgetter(0, 0, 2))


def test_pair_image_outside_the_cells_raises(monkeypatch):
    datum, config = split("A2", 7)
    corrupt_stabilizer(monkeypatch, datum)
    with pytest.raises(InvariantViolation, match="onto no sub-alcove"):
        list(cell_fixed_points(config))


def test_stabilizer_image_check_runs_in_every_walk(monkeypatch, capsys):
    # The walk checks the stabilizer images after its last cell, so the
    # cells tuple of verify and the tests is checked as the census is.
    datum, config = split("A2", 2)
    corrupt_stabilizer(monkeypatch, datum)
    message = "A2 ad q=2: an alcove stabilizer maps the sub-alcove (4, 1, 1) onto"
    with pytest.raises(InvariantViolation, match="^" + re.escape(message)):
        enumerate_subalcoves(config)
    argv = ["verify", "--suite", "alovefixe", "--types", "A2", "--max-q", "2"]
    assert cli.main(argv) == cli.EXIT_INVARIANT
    # the case's one line is the failure, under the case's name
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL\talovefixe/A2/q2\t{message} no sub-alcove")
    assert out.count("\n") == 1


def test_walk_yields_the_cells_in_order():
    for label, q in [("A2", 7), ("B3", 3), ("G2", 4), ("D4", 2)]:
        datum, config = split(label, q)
        walk = brauer.walk_subalcoves(config)
        cells = enumerate_subalcoves(config)
        # the first cell is yielded before the search goes on
        assert next(walk) == cells[0] == base_subalcove(datum, q, cells)
        assert (cells[0],) + tuple(walk) == cells
        assert len({sub.key for sub in cells}) == q**datum.rank


@pytest.mark.parametrize(
    "label,isogeny,q,twisted,triality",
    [
        ("A2", "ad", 7, False, False),
        ("A3", "ad", 3, True, False),
        ("D4", "ad", 2, True, True),
        ("D4", [1], 3, False, False),
    ],
)
def test_census_builds_no_cells_tuple(monkeypatch, label, isogeny, q, twisted, triality):
    # The census consumes the walk cell by cell; only verify and the tests
    # take the whole tuple.
    def refused(*args):
        raise AssertionError("the census built the cells tuple")

    config = make_group_config(label, isogeny, q, twisted=twisted, triality=triality)
    monkeypatch.setattr(brauer, "enumerate_subalcoves", refused)
    assert len(enumerate_classes(config)) == q**config.rank


def test_m_alpha_identity_node_is_everything():
    datum, config = split("A2", 2)
    cells = enumerate_subalcoves(config)
    assert reference.stable_cells(config, {0}, cells) == cells
    assert stable_cell_count(datum, frozenset({0}), 2) == 4


def test_m_alpha_nonzero_and_zero_branches():
    # m_alpha, the stable cells of <alpha>, enumerated against N(<alpha>)
    datum, config = split("B3", 5)
    cells = enumerate_subalcoves(config)
    assert len(reference.stable_cells(config, {0, 1}, cells)) == 25
    assert stable_cell_count(datum, frozenset({0, 1}), 5) == 25
    datum, config = split("A2", 3)
    cells = enumerate_subalcoves(config)
    assert reference.stable_cells(config, {0, 1, 2}, cells) == ()
    assert stable_cell_count(datum, frozenset({0, 1, 2}), 3) == 0


def census_theta(label, isogeny, q, twist=False):
    """The configuration, its census records and theta's strata."""
    config = make_group_config(label, isogeny, q, twisted=twist)
    records = enumerate_classes(config)
    return config, records, theta(config, records)


def test_theta_trivial_subgroup():
    config, records, strata = census_theta("A2", "sc", 3)
    assert len(records) == 9
    assert strata == {0: 9}
    # the identity alone: each of the 9 points is its own orbit
    solved = cell_fixed_points(config)
    assert len(reference.pair_images(config.datum, config.a_g, solved)) == 9


def test_theta_orbits_full_group():
    config, records, strata = census_theta("A2", "ad", 7)
    assert config.congruence_holds()
    assert len(records) == 49
    assert strata == {0: 49, 1: 1, 2: 1}


def test_theta_twisted():
    config, records, _ = census_theta("A2", "ad", 5, twist=True)
    assert config.congruence_holds()
    assert len(records) == 25
    config, records, strata = census_theta("E6", "ad", 2, twist=True)
    assert config.a_g == frozenset({0, 1, 6})
    assert len(records) == 64
    assert strata[1] == 4


def counted_calls(monkeypatch, module, name, *holders):
    """Count the calls of ``module.name``, also through ``holders`` that
    imported it by name."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for holder in (module,) + holders:
        monkeypatch.setattr(holder, name, counted)
    return calls


def test_verify_computes_nothing_twice(monkeypatch, capsys):
    # One walk of the cells per case: the two A2
    # theta cases solve one pair per orbit of (cell, node) pairs, which
    # count the rational classes, 51 for PGL3(7) and 27 for PGU3(5),
    # against 3 * (49 + 25) pairs.
    walks = counted_calls(monkeypatch, brauer, "walk_subalcoves")
    solves = counted_calls(monkeypatch, brauer, "fixed_point")
    assert cli.main(["verify", "--suite", "theta", "--types", "A2"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert (len(walks), len(solves)) == (2, 51 + 27)
    walks.clear()
    # and one closed-form count per node, beside the count on the cells
    closed_forms = counted_calls(monkeypatch, verify, "stable_cell_count")
    argv = ["verify", "--suite", "alovefixe", "--types", "A2", "--max-q", "3"]
    assert cli.main(argv) == 0
    assert (len(walks), len(closed_forms)) == (2, 3 + 3)


def test_only_per_datum_tables_are_cached():
    # A process-lifetime cache of cells or fixed points would outlive its
    # census; only the tables of a root datum, its fundamental group and
    # the oracle's small groups may be cached.  Methods count too: a
    # cache on a method keeps ``self`` in its key.
    namespaces = [
        vars(obj)
        for name, module in sys.modules.items()
        if name.startswith("brauercensus")
        for obj in (module, *vars(module).values())
        if obj is module
        or (isinstance(obj, type) and obj.__module__.startswith("brauercensus"))
    ]
    cached = {
        f"{obj.__module__}.{obj.__qualname__}"
        for namespace in namespaces
        for obj in namespace.values()
        if hasattr(obj, "cache_info")
    }
    assert cached == {
        "brauercensus.rootdata._build",
        "brauercensus.affine.fundamental_group",
        "brauercensus.affine.wall_neighbours",
        "brauercensus.affine.invariant_space",
        "brauercensus.oracle._field",
        "brauercensus.oracle._canonical",
        "brauercensus.oracle._build_group",
        "brauercensus.oracle.conjugacy_classes",
    }


def union_find_orbits(datum, subgroup, points):
    """Orbits and strata of ``points`` by union-find over the subgroup's
    images, skipping images that are not points."""
    group = fundamental_group(datum)
    index = {aff: i for i, aff in enumerate(points)}
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    fixed_by = {a: [] for a in sorted(subgroup)}
    for i, aff in enumerate(points):
        for z in subgroup:
            image = group.act[z](aff)
            if image == aff:
                fixed_by[z].append(i)
            elif image in index:
                parent[find(i)] = find(index[image])
    groups = {}
    for i, aff in enumerate(points):
        groups.setdefault(find(i), []).append(aff)
    orbits = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    strata = {a: len({find(i) for i in fixed}) for a, fixed in fixed_by.items()}
    return orbits, strata


@pytest.mark.parametrize(
    "label,isogeny,q,twist",
    [
        ("A2", "ad", 7, False),
        ("A2", "ad", 5, True),
        ("E6", "ad", 2, True),
        ("A3", "ad", 5, False),
        ("A3", [2], 3, False),
        # the congruence hypothesis fails: theta still asserts q^rank
        # orbits, and only the strata lose their meaning
        ("A2", "ad", 3, False),
        ("A2", "ad", 4, True),
        ("A5", "ad", 2, False),
        ("A3", "ad", 3, False),
        ("D4", "ad", 3, False),
        ("D5", "ad", 3, False),
    ],
)
def test_theta_matches_union_find(label, isogeny, q, twist):
    # theta reads the census records; union-find runs on the subgroup
    # images of the census's integer solved points
    config, records, strata = census_theta(label, isogeny, q, twist)
    points = reference.pair_images(config.datum, config.a_g, cell_fixed_points(config))
    assert all(type(x) is int for aff in points for x in aff)
    orbits, want = union_find_orbits(config.datum, config.a_g, points)
    assert len(records) == len(orbits)
    assert list(strata.items()) == list(want.items())


def test_theta_missing_orbit_raises(monkeypatch):
    # theta's orbits are the census records, whose q^rank count the census
    # asserts.  D5 ad q=3 fails the congruence hypothesis; a solve stream
    # that lacks the points of one orbit still raises.
    config = make_group_config("D5", "ad", 3)
    assert not config.congruence_holds()
    solved = list(cell_fixed_points(config))
    dropped = orbit_key(config, solved[0])
    kept = tuple(aff for aff in solved if orbit_key(config, aff) != dropped)
    monkeypatch.setattr(census, "cell_fixed_points", lambda *args: iter(kept))
    with pytest.raises(
        InvariantViolation, match="D5 ad q=3: 242 stable classes, expected 243"
    ):
        enumerate_classes(config)


def test_theta_rejects_non_subgroup():
    # theta's node set is the configuration's isogeny subgroup, which is
    # the subgroup that the given nodes generate: z_2 generates all of Z/5
    assert make_group_config("A4", [2], 2).a_g == frozenset(range(5))
    # triality moves node 1, so it does not stabilize the subgroup {0, 1},
    # and F(b) leaves it, so the pairs over it are not closed under it
    with pytest.raises(ValueError, match="does not stabilize"):
        make_group_config("D4", [1], 3, twisted=True, triality=True)
    # a configuration built directly is checked the same way, so that
    # cell_fixed_points never sees such a node set, nor one that is not a
    # subgroup
    datum = build_root_system("D4")
    with pytest.raises(ValueError, match="does not stabilize"):
        GroupConfig(datum, {0, 1}, 3, standard_symmetry(datum, "triality"))
    with pytest.raises(ValueError, match=r"nodes \[0, 1, 3\] are not a subgroup"):
        GroupConfig(datum, {0, 1, 3}, 3, standard_symmetry(datum, "split"))
    # the rotation of the extended A2 triangle preserves the diagram, but
    # a Frobenius twist must fix the affine node
    rotation = (1, 2, 0)
    with pytest.raises(ValueError, match="a graph twist must fix the affine node"):
        GroupConfig(build_root_system("A2"), {0, 1, 2}, 5, rotation)


def test_frobenius_map_twisted_action():
    config = make_group_config("E6", "ad", 2, twisted=True)
    f = reference.frobenius_map(config)
    # F sends the coweight of node 1 to q times the coweight of node 6
    image = f.apply((1, 0, 0, 0, 0, 0))
    assert image == (0, 0, 0, 0, 0, 2)
    # the same on affine numerators over 1, node 0 taking the rest
    assert frobenius_image(config, (0, 1, 0, 0, 0, 0, 0)) == (-1, 0, 0, 0, 0, 0, 2)


def _onto_no_subalcove(monkeypatch, config):
    corrupt_stabilizer(monkeypatch, config.datum)
    list(cell_fixed_points(config))


def _unstable_orbit(monkeypatch, config):
    monkeypatch.setattr(census, "f_stable", lambda *args: None)
    enumerate_classes(config)


def _walk_leaves_the_alcove(monkeypatch, config):
    # exchanging wall facets too, the walk steps out of the alcove
    monkeypatch.setattr(brauer, "eq", lambda a, b: False)
    enumerate_subalcoves(config)


def _walk_stops_short(monkeypatch, config):
    # exchanging across facets 0 and 1 only, the walk reaches 3 cells
    rows = brauer.wall_neighbours(config.datum)[:2]
    monkeypatch.setattr(brauer, "wall_neighbours", lambda datum: rows)
    enumerate_subalcoves(config)


def _p_in_denominator(monkeypatch, config):
    solve = brauer.bareiss

    def bareiss(rows):
        nums, pivot = solve(rows)
        return nums, pivot * config.p

    monkeypatch.setattr(brauer, "bareiss", bareiss)
    list(cell_fixed_points(config))


@pytest.mark.parametrize(
    "check,label,q,kind,name,detail",
    [
        (_onto_no_subalcove, "A2", 5, "twisted", "A2 ad q=5 twisted", "an alcove"),
        (_unstable_orbit, "E6", 2, "twisted", "E6 ad q=2 twisted", "orbit ("),
        (_walk_leaves_the_alcove, "A2", 5, "twisted", "A2 ad q=5 twisted",
         "found more than 25 sub-alcoves"),
        (_walk_stops_short, "A2", 5, "twisted", "A2 ad q=5 twisted",
         "found 3 sub-alcoves, expected 25"),
        (_p_in_denominator, "A2", 5, "twisted", "A2 ad q=5 twisted",
         "the fixed point of sub-alcove"),
    ],
)
def test_violations_name_the_whole_configuration(
    monkeypatch, check, label, q, kind, name, detail
):
    # The brauer checks see the whole configuration, so their messages
    # start with it as the census's own do, the twist included.
    config = make_group_config(label, "ad", q, twisted=True, triality=kind == "triality")
    assert str(config) == name
    assert str(make_group_config(label, "ad", q)) == f"{label} ad q={q}"
    with pytest.raises(
        InvariantViolation, match=f"^{re.escape(str(config))}: {re.escape(detail)}"
    ):
        check(monkeypatch, config)
