"""Exact linear algebra for small dense systems.

Vectors are tuples and matrices are tuples of row tuples, with entries
that are Python ints or :class:`fractions.Fraction`.  Nothing in this
package ever touches floating point; the two kinds of entries compare
and hash consistently, so mixed tuples are safe as dict keys.

The census path stays in integers: :func:`bareiss` is the one square
solver, returning integer numerators over a positive pivot, and
:func:`solve_linear` is its rational view.  Lattice membership is an
integer test against a Hermite normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

Vec = tuple
Mat = tuple


class SingularMatrixError(ValueError):
    """A linear solve met a singular (or inconsistent) system."""


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def vec_dot(u: Vec, v: Vec):
    return sum(a * b for a, b in zip(u, v))


def zero_vec(n: int) -> Vec:
    return (0,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def mat_identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def rref(matrix: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns the reduced rows (zero rows dropped) and the pivot columns.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def bareiss(matrix: Mat, rhs: Vec) -> tuple[tuple[int, ...], int]:
    """Solve an integer square system with a unique solution by
    fraction-free (Bareiss) elimination: each step divides exactly by the
    previous pivot, and the solution is the returned integer numerators
    over the returned positive pivot (the determinant up to sign)."""
    n = len(rhs)
    aug = [[*row, b] for row, b in zip(matrix, rhs)]
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular coefficient matrix")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        prow = aug[c]
        p = prow[c]
        for i in range(c + 1, n):
            f = aug[i][c]
            aug[i] = [(p * x - f * y) // prev for x, y in zip(aug[i], prow)]
        prev = p
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        s = prev * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = s // row[i]
    if prev < 0:
        return tuple(-x for x in nums), -prev
    return tuple(nums), prev


def solve_linear(matrix: Mat, rhs: Vec) -> Vec:
    """Solve a rational square system with a unique solution exactly: the
    equations are scaled to integers and solved by :func:`bareiss`."""
    rows, values = [], []
    for row, b in zip(matrix, rhs):
        den = lcm(*(x.denominator for x in (*row, b)))
        rows.append([int(x * den) for x in row])
        values.append(int(b * den))
    nums, pivot = bareiss(rows, values)
    return tuple(Fraction(x, pivot) for x in nums)


def nullspace(matrix: Mat) -> tuple[Vec, ...]:
    """Basis of the kernel, as reduced-echelon rows over the rationals."""
    rows, pivots = rref(matrix)
    ncols = len(matrix[0]) if matrix else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    reduced, _ = rref(basis) if basis else ([], [])
    return tuple(tuple(row) for row in reduced)


def solve_affine(matrix: Mat, rhs: Vec) -> Optional[tuple[Vec, tuple[Vec, ...]]]:
    """All solutions of ``matrix @ x = rhs`` as (particular, kernel basis).

    Returns None when the system is inconsistent.
    """
    n = len(matrix[0]) if matrix else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug)
    if n in pivots:
        return None
    particular = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        particular[p] = rows[r][n]
    return tuple(particular), nullspace(matrix)


@dataclass(frozen=True)
class AffineMap:
    """An exact affine transformation ``x -> linear @ x + translation``."""

    linear: Mat
    translation: Vec

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(mat_identity(n), zero_vec(n))

    @property
    def dim(self) -> int:
        return len(self.translation)

    def apply(self, v: Vec) -> Vec:
        return vec_add(mat_vec(self.linear, v), self.translation)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: ``x -> self(other(x))``."""
        return AffineMap(
            mat_mul(self.linear, other.linear),
            vec_add(mat_vec(self.linear, other.translation), self.translation),
        )

    def fixed_points(self) -> Optional[tuple[Vec, tuple[Vec, ...]]]:
        """The affine subspace of fixed points, or None if there is none."""
        m = mat_sub(self.linear, mat_identity(self.dim))
        return solve_affine(m, vec_scale(-1, self.translation))


def hermite_normal_form(generators: Iterable[Sequence[int]]) -> tuple[Vec, ...]:
    """Row-style Hermite normal form of an integer generating set.

    The result rows have positive pivots in strictly increasing columns,
    with the entries above each pivot reduced into ``[0, pivot)``; they are
    a canonical basis of the generated lattice.
    """
    work = [list(int(x) for x in row) for row in generators]
    work = [r for r in work if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    basis: list[list[int]] = []
    r = 0
    for c in range(ncols):
        idx = [i for i in range(r, len(work)) if work[i][c] != 0]
        if not idx:
            continue
        # Euclidean elimination in column c among the remaining rows.
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(work[i][c]))
            base = work[idx[0]]
            for i in idx[1:]:
                f = work[i][c] // base[c]
                work[i] = [x - f * y for x, y in zip(work[i], base)]
            idx = [i for i in idx if work[i][c] != 0]
        i = idx[0]
        work[r], work[i] = work[i], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        basis.append(work[r])
        r += 1
        if r == len(work):
            break
    # Reduce entries above every pivot.
    pivcols = [next(j for j, x in enumerate(row) if x) for row in basis]
    for k in range(len(basis) - 1, -1, -1):
        p = pivcols[k]
        for i in range(k):
            f = basis[i][p] // basis[k][p]
            if f:
                basis[i] = [x - f * y for x, y in zip(basis[i], basis[k])]
    return tuple(tuple(row) for row in basis)


def lattice_contains(basis: Sequence[Vec], vec: Vec) -> bool:
    """Membership in the lattice spanned by HNF rows, by exact division
    (a vector with a non-integral entry is never a member)."""
    v = list(vec)
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        if v[p] == 0:
            continue
        c, r = divmod(v[p], row[p])
        if r:
            return False
        v = [x - c * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)
