"""Exact integer linear algebra for small dense systems.

Vectors are tuples and matrices are tuples of row tuples, with entries
that are Python ints or exact rationals.  Nothing in this package ever
touches floating point; the two kinds of entries compare and hash
consistently, so mixed tuples are safe as dict keys.  A linear map is
its matrix, composed with ``mat_mul``.

One fraction-free (Bareiss) elimination serves three ends: the solve of
a square system, as integer numerators over a positive pivot, the rank
of a matrix and, for a square one of full rank, its determinant.  Next
to it is the prime-power test for field sizes, exact below a fixed
bound.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

Vec = tuple
Mat = tuple


class SingularMatrixError(ValueError):
    """A linear solve met a singular system."""


# Miller-Rabin with the first 13 primes as bases decides primality
# exactly below this bound (Sorenson and Webster, Math. Comp. 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_POWER_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an n below ``PRIME_POWER_BOUND``
    with no prime factor among the witnesses."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q: int, f: int) -> int:
    """The floor of the f-th root of q >= 1, by integer Newton steps from
    a power of two above it."""
    x = 1 << -(-q.bit_length() // f)
    while True:
        y = ((f - 1) * x + q // x ** (f - 1)) // f
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, f) with q = p**f, or None if q is not a prime power >= 2.
    A q with a prime factor among the witnesses is divided out; otherwise
    each exponent f that a prime above 41 allows takes the exact f-th
    root of q and tests it for primality.  A q at or beyond
    ``PRIME_POWER_BOUND``, where that test is no longer exact, raises
    ``ValueError``."""
    if q < 2:
        return None
    if q >= PRIME_POWER_BOUND:
        raise ValueError(
            f"q = {q} is too large for the exact prime-power test (q < {PRIME_POWER_BOUND})"
        )
    for w in _WITNESSES:
        if q % w == 0:
            f, rest = 0, q
            while rest % w == 0:
                rest //= w
                f += 1
            return (w, f) if rest == 1 else None
    # Every prime factor now exceeds 41, so q = p**f has 43**f <= q.
    for f in range(1, q.bit_length() // 5 + 1):
        p = _integer_root(q, f)
        if p**f == q and _is_prime(p):
            return p, f
    return None


def vec_dot(u: Vec, v: Vec):
    return sum(a * b for a, b in zip(u, v))


def unit_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def mat_identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def _eliminate(rows: Iterable[Sequence[int]]) -> Iterator[Optional[list]]:
    """Fraction-free (Bareiss) elimination of the rows of an integer
    matrix, yielding per column its pivot row or None if it has none.
    The first row with a nonzero lead is the pivot row, yielded as its
    pivot and its later entries; the other rows drop the column, and each
    update divides exactly by the previous pivot."""
    rows = list(rows)
    prev = 1
    while rows and rows[0]:
        for k, row in enumerate(rows):
            if row[0]:
                break
        else:
            rows = [row[1:] for row in rows]
            yield None
            continue
        head = rows.pop(k)
        p, tail = head[0], head[1:]
        # a zero lead only rescales the row: the same update, without zero products
        rows = [
            [(p * x - a * y) // prev for x, y in zip(row[1:], tail)]
            if (a := row[0])
            else [p * x // prev for x in row[1:]]
            for row in rows
        ]
        prev = p
        yield head


def bareiss(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Solve an integer square system with a unique solution, given by
    its augmented rows (the coefficients, then the right-hand side): the
    integer numerators of the solution over a positive pivot, the
    determinant up to sign.  A coefficient column with no pivot raises
    ``SingularMatrixError``; the right-hand side is never a pivot."""
    echelon, prev = [], 1
    for head in _eliminate(rows):
        if head is None:
            raise SingularMatrixError("singular coefficient matrix")
        echelon.append(head)
        prev = head[0]
    # Pivot row c holds its pivot, the coefficients of the unknowns after
    # c and the right-hand side; nums collects the unknowns from the last.
    nums = []
    for head in reversed(echelon):
        s = prev * head[-1] - sum(map(mul, head[1:-1], reversed(nums)))
        nums.append(s // head[0])
    nums.reverse()
    if prev < 0:
        return tuple(-x for x in nums), -prev
    return tuple(nums), prev


def rank_det(rows: Iterable[Sequence[int]]) -> tuple[int, int]:
    """The rank of an integer matrix given by its rows, and the last pivot
    of its fraction-free elimination: for a square matrix of full rank,
    the determinant up to sign."""
    rank, prev = 0, 1
    for head in _eliminate(rows):
        if head is not None:
            rank, prev = rank + 1, head[0]
    return rank, prev
