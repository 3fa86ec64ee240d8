from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauercensus.affine import fundamental_group
from brauercensus.linalg import (
    PRIME_POWER_BOUND,
    SingularMatrixError,
    bareiss,
    prime_power,
    rank_det,
)
from brauercensus.rootdata import build_root_system, cartan_matrix

from fraction_reference import (
    AffineMap,
    fixed_space,
    hermite_normal_form,
    lattice_contains,
    nullspace,
    solve_affine,
    solve_linear,
)


def trial_division_prime_power(q):
    """The earlier test: the least divisor up to isqrt(q), or q itself,
    and its multiplicity."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    f, rest = 0, q
    while rest % p == 0:
        rest //= p
        f += 1
    return (p, f) if rest == 1 else None


def test_prime_power_agrees_with_trial_division():
    for q in range(-2, 20000):
        assert prime_power(q) == trial_division_prime_power(q), q


def test_prime_power_is_exact_up_to_its_bound():
    # 2^61 - 1 is prime; 43^14 and 2^81 are prime powers with a base
    # above and among the witnesses; a semiprime of two primes near 10^9
    # and 47 times the square of 2^31 - 1 are no prime powers.
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power(43**14) == (43, 14)
    assert prime_power(2**81) == (2, 81)
    assert prime_power(1000000007**2) == (1000000007, 2)
    assert prime_power(1000000007 * 1000000009) is None
    assert prime_power(47 * (2**31 - 1) ** 2) is None
    # The least strong pseudoprime to the first 12 prime bases, which
    # the 13th base, 41, exposes; the bound is the least one to all 13.
    assert prime_power(318665857834031151167461) is None
    with pytest.raises(ValueError, match="too large for the exact prime-power test"):
        prime_power(PRIME_POWER_BOUND)


def test_solve_linear_exact():
    a = ((2, 1), (1, 3))
    x = solve_linear(a, (5, 10))
    assert x == (Fraction(1), Fraction(3))


def test_bareiss_integer_numerators_over_a_positive_pivot():
    # det = -2: the pivot comes out negative and is normalised
    a = ((0, 1), (2, 0))
    nums, pivot = bareiss(((0, 1, 3), (2, 0, 5)))
    assert pivot == 2 and nums == (5, 6)
    assert all(type(x) is int for x in nums)
    assert solve_linear(a, (3, 5)) == (Fraction(5, 2), 3)
    with pytest.raises(SingularMatrixError):
        bareiss(((1, 2, 1), (2, 4, 1)))


def test_singular_system_never_pivots_in_the_right_hand_side():
    # Eliminating column 0 leaves the second row (0, 1) in the first
    # system and (0, 0) in the second: column 1 has no pivot, and the
    # inconsistent system would otherwise take its pivot in the
    # right-hand side.
    for rows in ([[1, 2, 1], [2, 4, 3]], [[1, 2, 1], [2, 4, 2]]):
        with pytest.raises(SingularMatrixError, match="singular coefficient matrix"):
            bareiss(rows)


def square_systems(n):
    """An n x n integer matrix with entries in [-5, 5], some of its rows
    replaced by zero rows or by copies of other rows, and a right-hand
    side."""
    entries = st.integers(-5, 5)
    rows = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    edits = st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1)), max_size=2)

    def edit(matrix, changes):
        for i, j in changes:
            matrix[i] = [0] * n if j < 0 else list(matrix[j])
        return matrix

    rhs = st.lists(entries, min_size=n, max_size=n)
    return st.tuples(st.builds(edit, rows, edits), rhs)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(square_systems))
def test_bareiss_solves_integer_systems(system):
    # The two entry points run one elimination: the solve fails exactly
    # when the rank falls short, and otherwise its pivot is the
    # determinant up to sign.
    a, b = system
    n = len(a)
    rank, det = rank_det(a)
    try:
        nums, pivot = bareiss([(*row, v) for row, v in zip(a, b)])
    except SingularMatrixError:
        assert rank < n
        return
    assert rank == n and pivot == abs(det)
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


RANK_TYPES = (
    [f"A{n}" for n in range(1, 10)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", RANK_TYPES)
def test_cartan_determinant_is_the_fundamental_group_order(label):
    # |det A| = |P^vee / Q^vee|, the order of the fundamental group, and
    # the extended Cartan matrix has corank 1
    datum = build_root_system(label)
    found, det = rank_det(cartan_matrix(datum.label))
    assert found == datum.rank
    assert abs(det) == fundamental_group(datum).order
    assert rank_det(datum.extended_cartan)[0] == datum.rank


def test_rank_matches_the_reference_hnf():
    # the stacked rows z_h - I of every subgroup of every fundamental
    # group, which is what invariant_space ranks
    cases = 0
    for label in RANK_TYPES:
        group = fundamental_group(build_root_system(label))
        subgroups = {
            group.subgroup([a, b]) for a in group.elements for b in group.elements
        }
        for subgroup in subgroups:
            rows = [
                [x - (i == j) for j, x in enumerate(row)]
                for h in sorted(subgroup)
                for i, row in enumerate(group.weyl[h])
            ]
            assert rank_det(rows)[0] == len(hermite_normal_form(rows)), (label, subgroup)
            cases += 1
    assert cases > len(RANK_TYPES)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=1, max_size=7
        )
    ),
    st.data(),
)
def test_rank_matches_the_hnf_on_integer_matrices(rows, data):
    # zero rows and repeated rows lower the rank below the row count
    n = len(rows[0])
    pool = st.sampled_from([[0] * n, *rows])
    rows = rows + data.draw(st.lists(pool, max_size=7 - len(rows)), label="extra rows")
    assert rank_det(rows)[0] == len(hermite_normal_form(rows))
    assert rank_det([]) == (0, 1)
