"""Rational references for the integer census core.

The census keeps every point as integer affine numerators over one
common denominator.  These are the earlier rational versions of the
Frobenius map, the fold into the alcove, the orbit test and the
stability test, on exact coweight coordinates, kept so that the tests
can check the integer versions against them; plus the conversions
between the two descriptions of a point.
"""

from fractions import Fraction
from math import lcm

from brauercensus.affine import (
    FOLD_ITERATION_CAP,
    affine_point,
    coords_from_affine,
    fundamental_group,
)
from brauercensus.census import cocharacter_lattice
from brauercensus.errors import InvariantViolation
from brauercensus.linalg import AffineMap, vec_dot


def coweight_permutation_matrix(datum, sym):
    """Matrix sending the coweight of node a to the coweight of sym(a)."""
    n = datum.rank
    return tuple(
        tuple(1 if sym(j + 1) == k + 1 else 0 for j in range(n)) for k in range(n)
    )


def frobenius_map(datum, config):
    """F = q * (coweight permutation of rho inverse), as a linear map."""
    mat = coweight_permutation_matrix(datum, config.rho.inverse())
    return AffineMap(
        tuple(tuple(config.q * x for x in row) for row in mat), (0,) * datum.rank
    )


def fold(datum, coords):
    """Move a point into the closed alcove by wall reflections, on rational
    coweight coordinates: simple walls first, then the affine wall."""
    n = datum.rank
    cur = list(coords)
    hr = datum.highest_root
    hrv = datum.highest_coroot_coweight
    cols = datum.coroot_coords
    for _ in range(FOLD_ITERATION_CAP):
        i = next((i for i in range(n) if cur[i] < 0), None)
        if i is not None:
            c = cur[i]
            col = cols[i]
            for k in range(n):
                if col[k]:
                    cur[k] -= c * col[k]
            continue
        excess = vec_dot(hr, cur) - 1
        if excess <= 0:
            return tuple(cur)
        for k in range(n):
            cur[k] -= excess * hrv[k]
    raise InvariantViolation("folding did not terminate within the iteration cap")


def orbit_equal(config, lam, mu):
    """The first subgroup element carrying alcove point ``lam`` onto ``mu``
    modulo the cocharacter lattice, or None (``AffinePoint`` inputs)."""
    if not lam.in_alcove or not mu.in_alcove:
        raise ValueError("orbit comparison requires points of the closed alcove")
    group = fundamental_group(config.datum)
    lattice = cocharacter_lattice(config)
    for z in sorted(config.a_g):
        image = group.apply_to_affine(z, lam.affine)
        diff = tuple(
            a - b for a, b in zip(coords_from_affine(config.datum, image), mu.coords)
        )
        if all(Fraction(x).denominator == 1 for x in diff) and lattice.contains(diff):
            return z
    return None


def f_stable(config, lam):
    """Stability witness of an ``AffinePoint``: fold its Frobenius
    translate back into the alcove and compare up to the subgroup."""
    fimage = frobenius_map(config.datum, config.frob).apply(lam.coords)
    folded = affine_point(config.datum, fold(config.datum, fimage))
    return orbit_equal(config, lam, folded)


def common_denominator(coords):
    """The least common denominator of rational coweight coordinates."""
    return lcm(*(Fraction(c).denominator for c in coords))


def numerators(datum, coords, denominator):
    """Integer affine numerators of a point over ``denominator``, which
    must be a multiple of every coweight coordinate's denominator."""
    affine = affine_point(datum, tuple(coords)).affine
    scaled = tuple(x * denominator for x in affine)
    assert all(Fraction(x).denominator == 1 for x in scaled)
    return tuple(int(x) for x in scaled)


def point(datum, affine):
    """The ``AffinePoint`` of integer affine numerators (their sum is the
    denominator)."""
    level = sum(affine)
    coords = tuple(Fraction(affine[i], datum.marks[i] * level) for i in datum.nodes)
    return affine_point(datum, coords)
