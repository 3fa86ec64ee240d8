import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauercensus import rootdata
from brauercensus.errors import InvariantViolation
from brauercensus.linalg import mat_identity, mat_mul, vec_dot
from brauercensus.rootdata import (
    RootDatum,
    TypeLabel,
    build_root_system,
    cartan_matrix,
    longest_element,
    subdiagram_type,
)

from fraction_reference import (
    mat_transpose,
    mat_vec,
    root_system,
    classify_component,
    solve_linear,
)


def simple_reflection(datum, i):
    """The simple reflection ``s_i`` on coweight coordinates, built from
    the i-th simple coroot: ``x -> x - x_i * a_i^vee``, as its matrix."""
    n = datum.rank
    col = datum.coroot_coords[i - 1]
    return tuple(
        tuple((1 if k == j else 0) - (col[k] if j == i - 1 else 0) for j in range(n))
        for k in range(n)
    )


def root_action(datum, w, root):
    """Image of a root under a Weyl element acting on V: the inverse
    transpose of its matrix, which must send roots to roots."""
    image = solve_linear(mat_transpose(w), tuple(root))
    assert all(Fraction(x).denominator == 1 for x in image)
    image = tuple(int(x) for x in image)
    assert image in datum.roots
    return image


def reflect_root(datum, root, mirror):
    k = vec_dot(root, datum.coroot_coweight(mirror))
    return tuple(r - k * m for r, m in zip(root, mirror))

ALL_TYPES = [
    "A1", "A2", "A5", "B2", "B4", "C3", "C5", "D4", "D5", "D7",
    "E6", "E7", "E8", "F4", "G2",
]


@pytest.mark.parametrize(
    "label,count",
    [("A1", 2), ("G2", 12), ("E8", 240), ("B3", 18), ("C4", 32), ("D5", 40), ("E6", 72)],
)
def test_root_counts(label, count):
    assert len(build_root_system(label).roots) == count


REFERENCE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{family}{n}" for family in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", REFERENCE_TYPES)
def test_root_data_match_the_full_closure(label):
    # The positive closure with O(n) pairing updates gives what the
    # closure of all roots under every simple reflection gives, in order.
    datum = RootDatum(TypeLabel.parse(label))
    reference = root_system(datum.cartan)
    assert datum.roots == reference.roots
    assert datum.positive_roots == reference.positive_roots
    assert {r: datum.coroot_coweight(r) for r in datum.roots} == reference.coroot_coweight
    assert datum.highest_root == reference.highest_root
    assert datum.marks == reference.marks


def test_root_count_check_fires(monkeypatch):
    # D4 built on the A4 Cartan matrix closes to the 20 roots of A4.
    a4 = cartan_matrix(TypeLabel("A", 4))
    monkeypatch.setattr(rootdata, "cartan_matrix", lambda label: a4)
    with pytest.raises(InvariantViolation, match="^D4: generated 20 roots, expected 24$"):
        RootDatum(TypeLabel("D", 4))


@pytest.mark.parametrize("bad", ["B1", "C1", "D2", "E5", "E9", "F3", "G3", "H4", "A0"])
def test_invalid_labels_rejected(bad):
    with pytest.raises(ValueError):
        build_root_system(bad)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_reflection_closure_and_halving(label):
    datum = build_root_system(label)
    assert 2 * len(datum.positive_roots) == len(datum.roots)
    for beta in datum.roots:
        for i in datum.nodes:
            image = reflect_root(datum, beta, datum.node_root(i))
            assert image in datum.roots


@pytest.mark.parametrize("label", ALL_TYPES)
def test_pairing_integrality(label):
    datum = build_root_system(label)
    for beta in datum.positive_roots:
        for gamma in datum.positive_roots:
            assert isinstance(vec_dot(beta, datum.coroot_coweight(gamma)), int)


def test_cartan_spot_checks():
    assert build_root_system("A2").cartan == ((2, -1), (-1, 2))
    b2 = build_root_system("B2").cartan
    assert b2 == ((2, -2), (-1, 2))
    g2 = build_root_system("G2").cartan
    assert g2 == ((2, -1), (-3, 2))


def test_coroot_coords_are_cartan_columns():
    datum = build_root_system("F4")
    for j in range(4):
        assert datum.coroot_coords[j] == tuple(datum.cartan[i][j] for i in range(4))


def test_simple_reflection_involution_and_a2_example():
    a2 = build_root_system("A2")
    s1 = simple_reflection(a2, 1)
    assert mat_mul(s1, s1) == mat_identity(2)
    # s_1 applied to the coroot of node 2 adds the coroot of node 1
    coroot2 = a2.coroot_coweight((0, 1))
    expected = tuple(
        x + y for x, y in zip(a2.coroot_coweight((1, 0)), coroot2)
    )
    assert mat_vec(s1, coroot2) == expected


def test_simple_reflection_a1():
    a1 = build_root_system("A1")
    s1 = simple_reflection(a1, 1)
    assert mat_vec(s1, (1,)) == (-1,)


def test_longest_element_cases():
    a2 = build_root_system("A2")
    assert longest_element(a2, []) == mat_identity(2)
    w0 = longest_element(a2, [1, 2])
    assert mat_mul(w0, w0) == mat_identity(2)
    # w0 of A2 is minus the diagram flip
    assert root_action(a2, w0, (1, 0)) == (0, -1)
    with pytest.raises(ValueError, match="^node 5 out of range for A2$"):
        longest_element(a2, [5])


@pytest.mark.parametrize("label", ALL_TYPES)
def test_longest_element_negates_positives(label):
    datum = build_root_system(label)
    w0 = longest_element(datum, datum.nodes)
    assert mat_mul(w0, w0) == mat_identity(datum.rank)
    for i in datum.nodes:
        image = root_action(datum, w0, datum.node_root(i))
        assert all(c <= 0 for c in image)


@pytest.mark.parametrize("label", ["B3", "C4", "D4", "D6", "E7", "E8", "F4", "G2"])
def test_minus_one_types_send_simples_to_negatives(label):
    # in these types the longest element acts as minus the identity on V
    datum = build_root_system(label)
    w0 = longest_element(datum, datum.nodes)
    neg = tuple(tuple(-(i == j) for j in range(datum.rank)) for i in range(datum.rank))
    assert w0 == neg


def test_parabolic_longest_element():
    a2 = build_root_system("A2")
    assert longest_element(a2, [1]) == simple_reflection(a2, 1)


def test_subdiagram_examples():
    e6 = build_root_system("E6")
    assert subdiagram_type(e6, []) == ()
    assert [str(t) for t in subdiagram_type(e6, [0, 1, 2, 3, 5, 6])] == ["A2", "A2", "A2"]
    e7 = build_root_system("E7")
    assert [str(t) for t in subdiagram_type(e7, [0, 1, 3, 4, 5, 6, 7])] == ["A7"]


def test_subdiagram_ambient_conventions():
    b4 = build_root_system("B4")
    assert [str(t) for t in subdiagram_type(b4, [0, 1, 3, 4])] == ["A1", "A1", "B2"]
    c4 = build_root_system("C4")
    assert [str(t) for t in subdiagram_type(c4, [0, 1, 3, 4])] == ["C2", "C2"]
    d6 = build_root_system("D6")
    assert [str(t) for t in subdiagram_type(d6, [0, 1, 2, 4, 5, 6])] == ["D3", "D3"]
    f4 = build_root_system("F4")
    assert [str(t) for t in subdiagram_type(f4, [1, 2, 3])] == ["B3"]
    assert [str(t) for t in subdiagram_type(f4, [2, 3, 4])] == ["C3"]


def test_subdiagram_rejects_bad_nodes():
    with pytest.raises(ValueError):
        subdiagram_type(build_root_system("A2"), [5])


EXTENDED_TYPES = (
    [f"A{n}" for n in range(1, 10)]
    + [f"{family}{n}" for family in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", EXTENDED_TYPES)
def test_full_extended_diagram_is_not_of_finite_type(label):
    # The extended Cartan matrix has corank 1, so the whole affine
    # diagram is the one subdiagram without full rank.
    datum = build_root_system(label)
    nodes = list(datum.extended_nodes)
    message = f"{label}: the subdiagram on nodes {nodes} is not of finite type"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        subdiagram_type(datum, nodes)


def subdiagram_outcome(classify, datum, nodes):
    """The types, or the ``{label}: the subdiagram on nodes [...]`` prefix
    of the ``InvariantViolation`` raised."""
    try:
        return classify(datum, nodes)
    except InvariantViolation as exc:
        prefix = re.match(r"[A-G]\d: the subdiagram on nodes \[[\d, ]*\] ", str(exc))
        assert prefix, str(exc)
        return prefix.group()


def test_subdiagram_type_matches_the_tree_walk_reference(monkeypatch):
    # every subset of the extended nodes of every type, empty and whole
    # included; only the 35 whole diagrams raise.  The reference side runs
    # the same component search with the tree walk classifying components.
    def tree_walk(datum, nodes):
        with monkeypatch.context() as patch:
            patch.setattr(rootdata, "_component_type", classify_component)
            return subdiagram_type(datum, nodes)

    subsets = raised = 0
    for label in EXTENDED_TYPES:
        datum = build_root_system(label)
        for size in range(datum.rank + 2):
            for nodes in combinations(datum.extended_nodes, size):
                got = subdiagram_outcome(subdiagram_type, datum, nodes)
                want = subdiagram_outcome(tree_walk, datum, nodes)
                assert got == want, (label, nodes)
                subsets += 1
                raised += isinstance(got, str)
    assert (subsets, raised) == (7044, len(EXTENDED_TYPES))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A3", "B3", "C3", "D4", "G2"]), st.data())
def test_root_action_preserves_system(label, data):
    datum = build_root_system(label)
    word = data.draw(st.lists(st.sampled_from(list(datum.nodes)), max_size=6))
    w = longest_element(datum, [])
    for i in word:
        w = mat_mul(simple_reflection(datum, i), w)
    beta = data.draw(st.sampled_from(list(datum.roots)))
    assert root_action(datum, w, beta) in datum.roots
