import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauercensus.affine import (
    affine_point,
    fold_coords,
    fundamental_group,
    hyperplane_containment,
    invariant_space,
    minuscule_nodes,
    standard_symmetry,
    validate_symmetry,
)
from brauercensus import affine, verify
from brauercensus.census import GroupConfig, make_group_config
from brauercensus.errors import InvariantViolation
from brauercensus.linalg import mat_identity, mat_mul
from brauercensus.rootdata import build_root_system, longest_element

import fraction_reference as reference

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def wall_reflections(datum):
    """Reflections in the alcove walls, keyed by the node of the wall: the
    simple reflections, and for node 0 the affine reflection in
    ``<a_0, x> = 1``, as reference maps."""
    n = datum.rank
    gens = {
        i: reference.AffineMap(longest_element(datum, [i]), (0,) * n) for i in datum.nodes
    }
    hr = datum.highest_root
    hrv = datum.coroot_coweight(datum.highest_root)
    linear = tuple(
        tuple((1 if k == j else 0) - hrv[k] * hr[j] for j in range(n)) for k in range(n)
    )
    gens[0] = reference.AffineMap(linear, tuple(hrv))
    return gens


def z_element(datum, node):
    group = fundamental_group(datum)
    return group.weyl[node], group.perm[node]


def test_marks_examples():
    a4 = build_root_system("A4")
    assert all(v == 1 for v in a4.marks.values())
    assert len(minuscule_nodes(a4)) == 5
    e7 = build_root_system("E7")
    assert minuscule_nodes(e7) == (0, 7)
    e8 = build_root_system("E8")
    assert minuscule_nodes(e8) == (0,)
    assert e8.marks[4] == e8.highest_root[3] == 6


def test_affine_coordinates_sum_to_one():
    g2 = build_root_system("G2")
    pt = affine_point(g2, (Fraction(1, 5), Fraction(1, 7)))
    assert sum(pt.affine) == 1
    assert pt.affine[1] == 3 * Fraction(1, 5)


def test_alcove_membership():
    a2 = build_root_system("A2")
    assert reference.in_alcove(affine_point(a2, (Fraction(1, 3), Fraction(1, 3))))
    assert not reference.in_alcove(affine_point(a2, (Fraction(2, 3), Fraction(2, 3))))
    assert not reference.in_alcove(affine_point(a2, (Fraction(-1, 3), Fraction(1, 3))))


def test_z_element_identity_node():
    a2 = build_root_system("A2")
    zmap, zperm = z_element(a2, 0)
    assert zmap == mat_identity(2) and zperm == (0, 1, 2)


def test_z_element_cycle_in_type_a():
    a4 = build_root_system("A4")
    _, perm = z_element(a4, 1)
    assert perm[0] == 1
    assert fundamental_group(a4).order_of(1) == 5


def test_z_element_e6_order():
    e6 = build_root_system("E6")
    assert fundamental_group(e6).order_of(1) == 3


def test_z_element_rejects_non_minuscule():
    e6 = build_root_system("E6")
    group = fundamental_group(e6)
    assert 2 not in group.weyl and 2 not in group.perm
    with pytest.raises(ValueError):
        invariant_space(e6, frozenset({0, 2}))
    # nor is a node set that is not closed under the group law
    with pytest.raises(ValueError):
        invariant_space(e6, frozenset({0, 1}))


@pytest.mark.parametrize(
    "label,order", [("A1", 2), ("A4", 5), ("B4", 2), ("C5", 2), ("D4", 4), ("D7", 4), ("E6", 3), ("E7", 2), ("E8", 1)]
)
def test_fundamental_group_order(label, order):
    assert fundamental_group(build_root_system(label)).order == order


@pytest.mark.parametrize("label", verify.TABLE1_TYPES + ("A8", "D8", "D9"))
def test_fundamental_group_matches_its_reference(label):
    # z_a = w_a w_0, and perm[a] is the permutation that z_a and the
    # coweight lift induce on the scaled vertices, mapped one by one.
    datum = build_root_system(label)
    group = fundamental_group(datum)
    w0 = longest_element(datum, datum.nodes)
    for a in group.elements:
        weyl = mat_mul(longest_element(datum, set(datum.nodes) - {a}), w0)
        assert group.weyl[a] == weyl
        lift = reference.coweight_lift(datum, a)
        assert group.perm[a] == reference.vertex_permutation(datum, weyl, lift)


def test_d4_group_is_klein_four():
    g = fundamental_group(build_root_system("D4"))
    assert sorted(g.order_of(a) for a in g.elements) == [1, 2, 2, 2]


def test_d5_group_is_cyclic_four():
    g = fundamental_group(build_root_system("D5"))
    assert sorted(g.order_of(a) for a in g.elements) == [1, 2, 4, 4]


def test_fundamental_group_lift_law():
    # the coweight lift of a product differs from the sum of lifts by a coroot
    for label in ("A3", "D4", "D5", "E6", "E7"):
        config = make_group_config(label, "sc", 2)
        basis = reference.cocharacter_lattice(config)
        g = fundamental_group(config.datum)
        lift = {a: reference.coweight_lift(config.datum, a) for a in g.elements}
        for a in g.elements:
            for b in g.elements:
                c = g.perm[a][b]
                diff = tuple(x + y - z for x, y, z in zip(lift[a], lift[b], lift[c]))
                assert reference.lattice_contains(basis, diff)


def test_f_map_basics():
    a1 = build_root_system("A1")
    assert reference.f_map(a1, 0) == reference.AffineMap.identity(1)
    f = reference.f_map(a1, 1)
    assert f.apply((Fraction(0),)) == (1,)
    assert f.apply((Fraction(1, 4),)) == (Fraction(3, 4),)


def test_f_map_fixes_zero_to_coweight():
    e6 = build_root_system("E6")
    assert reference.f_map(e6, 1).apply((0,) * 6) == (1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("label", ["A2", "B3", "C4", "D4", "D5", "E6", "G2"])
def test_stabilizer_permutes_alcove_vertices(label):
    datum = build_root_system(label)
    vertices = set(datum.alcove_vertices)
    for a in minuscule_nodes(datum):
        f = reference.f_map(datum, a)
        for v in datum.alcove_vertices:
            assert f.apply(v) in vertices


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B3", "C3", "D4", "E6"]), st.data())
def test_coordinate_permutation_law(label, data):
    # matrix application of the stabilizer equals the inverse node
    # permutation on affine coordinates, on alcove points
    datum = build_root_system(label)
    group = fundamental_group(datum)
    weights = data.draw(
        st.lists(
            st.integers(0, 6),
            min_size=datum.rank + 1,
            max_size=datum.rank + 1,
        ).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    affine = tuple(Fraction(w, total) for w in weights)
    pt = affine_point(datum, reference.coords_from_affine(datum, affine))
    assert reference.in_alcove(pt)
    for a in group.elements:
        image = reference.f_map(datum, a).apply(pt.coords)
        assert affine_point(datum, image).affine == group.act[a](affine)


def test_fold_one_dimensional_cases():
    a1 = build_root_system("A1")
    # coweight coordinate 3/2, -1/4 and 1/3 as affine numerators over 2, 4, 3
    assert fold_coords(a1, (-1, 3)) == (1, 1)
    assert fold_coords(a1, (5, -1)) == (3, 1)
    assert fold_coords(a1, (2, 1)) == (2, 1)
    assert reference.fold(a1, (Fraction(3, 2),)) == (Fraction(1, 2),)
    assert reference.fold(a1, (Fraction(-1, 4),)) == (Fraction(1, 4),)
    assert reference.fold(a1, (Fraction(1, 3),)) == (Fraction(1, 3),)
    # a numerator off its mark's multiples is not a point over the sum
    with pytest.raises(ValueError):
        fold_coords(build_root_system("B2"), (1, 1, 1))


@pytest.mark.parametrize(
    "label,point,folded,reflections",
    [
        # walls 0 and 1 in turn
        ("A1", (-9, 11), (1, 1), 5),
        # the sweep that rescans every coordinate takes as many
        ("E8", (-20, 2, 3, 4, 6, 5, 4, 3, 2), (1, 0, 0, 0, 6, 0, 0, 0, 2), 77),
    ],
)
def test_fold_cap_counts_reflections(monkeypatch, label, point, folded, reflections):
    # The worklist fold stops at the cap, which counts reflections: a
    # point needing the cap's number of them raises.
    datum = build_root_system(label)
    monkeypatch.setattr(affine, "FOLD_ITERATION_CAP", reflections + 1)
    assert fold_coords(datum, point) == folded
    monkeypatch.setattr(affine, "FOLD_ITERATION_CAP", reflections)
    with pytest.raises(InvariantViolation, match=f"{label}: folding did not terminate"):
        fold_coords(datum, point)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "C3"]), st.data())
def test_fold_idempotent_and_weyl_invariant(label, data):
    datum = build_root_system(label)
    coords = tuple(data.draw(rationals) for _ in range(datum.rank))
    den = reference.common_denominator(coords)
    folded = fold_coords(datum, reference.numerators(datum, coords, den))
    assert fold_coords(datum, folded) == folded
    assert min(folded) >= 0 and sum(folded) == den
    # the integer fold lands on the rational reference's point
    assert folded == reference.numerators(datum, reference.fold(datum, coords), den)
    # applying any word of wall reflections does not change the fold
    gens = wall_reflections(datum)
    word = data.draw(st.lists(st.sampled_from(sorted(gens)), max_size=5))
    moved = coords
    for i in word:
        moved = gens[i].apply(moved)
    assert fold_coords(datum, reference.numerators(datum, moved, den)) == folded
    assert reference.fold(datum, moved) == reference.fold(datum, coords)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A1", "A3", "B3", "C2", "D4", "E6", "F4", "G2"]), st.data())
def test_fold_matches_the_rational_reference_on_walls_and_vertices(label, data):
    # alcove points with many zero affine coordinates (walls, vertices),
    # moved off the alcove by a multiple of q and a coweight shift
    datum = build_root_system(label)
    weights = data.draw(
        st.lists(
            st.one_of(st.just(0), st.integers(0, 5)),
            min_size=datum.rank + 1,
            max_size=datum.rank + 1,
        ).filter(any)
    )
    total = sum(weights)
    coords = tuple(Fraction(weights[i], datum.marks[i] * total) for i in datum.nodes)
    q = data.draw(st.sampled_from([1, 2, 3, 5]))
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=datum.rank, max_size=datum.rank))
    moved = tuple(q * c + s for c, s in zip(coords, shift))
    den = reference.common_denominator(coords)
    folded = fold_coords(datum, reference.numerators(datum, moved, den))
    assert folded == reference.numerators(datum, reference.fold(datum, moved), den)


@pytest.mark.parametrize(
    "label,node,dim",
    [("E6", 1, 2), ("B4", 1, 3), ("C5", 5, 2), ("D5", 4, 1), ("D5", 1, 3), ("A7", 2, 1)],
)
def test_invariant_space_dimensions(label, node, dim):
    datum = build_root_system(label)
    subgroup = fundamental_group(datum).subgroup([node])
    assert invariant_space(datum, subgroup).dimension == dim


def orbit_barycenters(datum, space):
    """The barycenter of each orbit's alcove vertices, in coweight
    coordinates: affine coordinate 1/|O| on the orbit O, 0 elsewhere."""
    return [
        reference.coords_from_affine(
            datum, [Fraction(int(b in orbit), len(orbit)) for b in datum.extended_nodes]
        )
        for orbit in space.orbits
    ]


def test_invariant_space_points_are_fixed():
    e6 = build_root_system("E6")
    space = invariant_space(e6, frozenset({0, 1, 6}))
    assert space.orbits == ((0, 1, 6), (2, 3, 5), (4,))
    for point in orbit_barycenters(e6, space):
        for a in (1, 6):
            assert reference.f_map(e6, a).apply(point) == point


def subgroup_cases(labels):
    """(label, generators) for every subgroup of each type's fundamental
    group: the cyclic one of each minuscule node, then each subgroup that
    no single node generates (the Klein fours of even-rank D)."""
    cases = []
    for label in labels:
        group = fundamental_group(build_root_system(label))
        seen = {group.subgroup([a]) for a in group.elements}
        cases += [(label, (a,)) for a in group.elements]
        for a in group.elements:
            for b in group.elements:
                if a < b and group.subgroup([a, b]) not in seen:
                    seen.add(group.subgroup([a, b]))
                    cases.append((label, (a, b)))
    return [
        pytest.param(label, gens, id="-".join(map(str, (label, *gens))))
        for label, gens in cases
    ]


RANK_8_SUBGROUPS = subgroup_cases(
    [f"A{n}" for n in range(1, 9)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label,generators", RANK_8_SUBGROUPS)
def test_invariant_space_matches_the_rational_reference(label, generators):
    # the orbit fixed space of a node subgroup against Gauss-Jordan
    # elimination on its stacked maps z_a + coweight(a): same dimension,
    # orbit barycenters fixed, and the same hyperplane (b, k) or None for
    # every q
    datum = build_root_system(label)
    subgroup = fundamental_group(datum).subgroup(generators)
    space = invariant_space(datum, subgroup)
    maps = [reference.f_map(datum, h) for h in sorted(subgroup)]
    _, kernel = reference.fixed_space(maps)
    assert space.dimension == len(space.orbits) - 1 == len(kernel)
    for point in orbit_barycenters(datum, space):
        assert all(f.apply(point) == point for f in maps)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        want = reference.hyperplane_containment(datum, subgroup, q)
        assert hyperplane_containment(datum, subgroup, q) == want


def test_invariant_space_dimension_check_fires(monkeypatch):
    # node permutations that disagree with z_a: with every permutation of
    # A2 the identity, its whole group has 3 orbits, but z_1 and z_2 fix
    # only the origin
    a2 = build_root_system("A2")
    group = fundamental_group(a2)
    identity = (0, 1, 2)
    corrupted = group._replace(perm={a: identity for a in group.perm})
    monkeypatch.setattr(affine, "fundamental_group", lambda datum: corrupted)
    with pytest.raises(InvariantViolation, match="vertex orbits"):
        invariant_space.__wrapped__(a2, frozenset({0, 1, 2}))
    # and matrices that disagree with the permutations: with every z_a
    # the identity, the rows z_h - I have rank 0, so the kernel is all
    # of V while the group has one orbit
    corrupted = group._replace(weyl={a: mat_identity(2) for a in group.weyl})
    monkeypatch.setattr(affine, "fundamental_group", lambda datum: corrupted)
    message = (
        "A2: the nodes [0, 1, 2] have 1 vertex orbits but the kernel of the "
        "rows z_h - I has dimension 2"
    )
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        invariant_space.__wrapped__(a2, frozenset({0, 1, 2}))


def test_fundamental_group_violation_names_the_type(monkeypatch):
    # with every longest element the identity, z_a is the identity and
    # f_a translates the alcove by the coweight of a, off its vertices
    a2 = build_root_system("A2")
    monkeypatch.setattr(affine, "longest_element", lambda datum, nodes: mat_identity(2))
    with pytest.raises(InvariantViolation, match=r"^A2: f_1 does not permute"):
        fundamental_group.__wrapped__(a2)


def test_hyperplane_containment_cases():
    a2 = build_root_system("A2")
    found = hyperplane_containment(a2, frozenset({0, 1, 2}), 3)
    assert found is not None
    beta, k = found
    assert k % 3 != 0  # not a wall
    assert hyperplane_containment(build_root_system("B3"), frozenset({0, 1}), 5) is None
    # the trivial subgroup fixes all of V, which no hyperplane contains
    assert hyperplane_containment(a2, frozenset({0}), 4) is None
    # characteristic divides the stabilizer order: containment appears
    a1 = build_root_system("A1")
    assert hyperplane_containment(a1, frozenset({0, 1}), 4) is not None
    assert hyperplane_containment(a1, frozenset({0, 1}), 3) is None
    # the Klein four of D4 fixes a line, on which a_2 + a_3 + a_4 is 1/2
    d4 = build_root_system("D4")
    klein = frozenset({0, 1, 3, 4})
    assert invariant_space(d4, klein).orbits == ((0, 1, 3, 4), (2,))
    assert hyperplane_containment(d4, klein, 4) == ((0, 1, 1, 1), 2)
    assert hyperplane_containment(d4, klein, 3) is None
    with pytest.raises(ValueError, match="^q must be at least 2$"):
        hyperplane_containment(a2, frozenset({0}), 1)


def test_fundamental_group_law_check_fires(monkeypatch):
    # z_1 = ((-1, -1), (0, 1)) is not in W, yet it sends the A2 alcove
    # vertices through the permutation (1, 0, 2), a diagram symmetry, so
    # only the node law can reject it: perm[1] after perm[2] is (2, 1, 0),
    # while perm[1][2] = 2 and perm[2] = (2, 0, 1)
    a2 = build_root_system("A2")
    products = []

    def first_product_mutated(x, y):
        products.append(mat_mul(x, y))
        return ((-1, -1), (0, 1)) if len(products) == 1 else products[-1]

    monkeypatch.setattr(affine, "mat_mul", first_product_mutated)
    with pytest.raises(InvariantViolation, match="^A2: fundamental group law violated"):
        fundamental_group.__wrapped__(a2)
    assert len(products) == 2


def test_standard_symmetries():
    e6 = build_root_system("E6")
    rho = standard_symmetry(e6, "twisted")
    assert rho == (0, 6, 2, 5, 4, 3, 1)
    assert GroupConfig(e6, {0}, 2, rho).twist_order == 2
    d4 = build_root_system("D4")
    tri = standard_symmetry(d4, "triality")
    assert tri == (0, 3, 2, 4, 1)
    assert GroupConfig(d4, {0}, 2, tri).twist_order == 3
    with pytest.raises(ValueError):
        standard_symmetry(build_root_system("A1"), "twisted")
    with pytest.raises(ValueError):
        standard_symmetry(build_root_system("B3"), "twisted")
    with pytest.raises(ValueError):
        standard_symmetry(e6, "triality")


def test_validate_symmetry_rejects_bad_permutation():
    a3 = build_root_system("A3")
    with pytest.raises(ValueError):
        validate_symmetry(a3, (0, 2, 1, 3))
