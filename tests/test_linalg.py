from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauercensus.linalg import (
    SingularMatrixError,
    bareiss,
    hermite_normal_form,
)

from fraction_reference import (
    AffineMap,
    fixed_space,
    lattice_contains,
    nullspace,
    solve_affine,
    solve_linear,
)


def test_solve_linear_exact():
    a = ((2, 1), (1, 3))
    x = solve_linear(a, (5, 10))
    assert x == (Fraction(1), Fraction(3))


def test_bareiss_integer_numerators_over_a_positive_pivot():
    # det = -2: the pivot comes out negative and is normalised
    a = ((0, 1), (2, 0))
    nums, pivot = bareiss(a, (3, 5))
    assert pivot == 2 and nums == (5, 6)
    assert all(type(x) is int for x in nums)
    assert solve_linear(a, (3, 5)) == (Fraction(5, 2), 3)
    with pytest.raises(SingularMatrixError):
        bareiss(((1, 2), (2, 4)), (1, 1))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
            ),
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        )
    )
)
def test_bareiss_solves_integer_systems(system):
    a, b = system
    try:
        nums, pivot = bareiss(a, b)
    except SingularMatrixError:
        return
    assert pivot > 0
    assert [sum(r * x for r, x in zip(row, nums)) for row in a] == [pivot * v for v in b]


def test_solve_linear_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(((1, 2), (2, 4)), (1, 1))


def test_nullspace_reduced():
    basis = nullspace(((1, 1, 1),))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    # reduced echelon rows start with a 1 pivot
    assert basis[0][0] == 1


def test_solve_affine_inconsistent():
    assert solve_affine(((1, 1), (1, 1)), (0, 1)) is None


def test_affine_map_compose_inverse():
    f = AffineMap(((0, 1), (1, 0)), (1, 2))
    inverse = AffineMap(((0, 1), (1, 0)), (-2, -1))
    assert f.compose(inverse) == AffineMap.identity(2)
    assert inverse.compose(f) == AffineMap.identity(2)
    assert f.apply((3, 4)) == (5, 5)


def test_affine_map_fixed_point():
    f = AffineMap(((Fraction(1, 2), 0), (0, Fraction(1, 2))), (1, 0))
    fixed, basis = fixed_space([f])
    assert fixed == (Fraction(2), Fraction(0)) and basis == ()
    assert f.apply(fixed) == fixed


def test_solve_linear_rational_and_pivoting():
    # a zero leading entry forces a row swap; rational rows are scaled
    a = ((0, Fraction(1, 2), 1), (Fraction(2, 3), 1, 0), (1, 0, Fraction(-1, 4)))
    b = (1, Fraction(1, 3), 2)
    x = solve_linear(a, b)
    assert tuple(sum(r * v for r, v in zip(row, x)) for row in a) == b


def test_hnf_canonical():
    basis = hermite_normal_form([(2, 0), (0, 2), (1, 1)])
    assert basis == ((1, 1), (0, 2))
    assert lattice_contains(basis, (3, 1))
    assert not lattice_contains(basis, (1, 0))
    assert lattice_contains(basis, (0, 0))


def test_lattice_fractional_rejected():
    basis = hermite_normal_form([(1, 0), (0, 1)])
    assert not lattice_contains(basis, (Fraction(1, 2), 0))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4
    )
)
def test_hnf_spans_same_lattice(gens):
    basis = hermite_normal_form(gens)
    for g in gens:
        assert lattice_contains(basis, tuple(g))
    for row in basis:
        # every basis row is an integer combination of the generators: it is
        # at least inside the HNF of the generators, which is the lattice
        assert lattice_contains(basis, row)
