"""Brute-force ground truth on small matrix groups.

Builds SL2/PGL2/SL3/PGL3 over tiny fields as index tables by closing a
small generating set, partitions the group into conjugacy classes by
table lookups alone, and counts the classes of elements whose order is
prime to the field characteristic.
The results share no logic with the census machinery beyond integer
arithmetic, so they anchor its outputs independently.

Character counts are not brute-forced: the degree multisets of SL2 and
PGL2 are classical one-parameter families, encoded directly; the tests
check them against the brute-forced class counts and the group order.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import InvariantViolation, ResourceCapExceeded
from .linalg import prime_power

GROUP_ORDER_CAP = 10**6

# Irreducible polynomials x^f + ... used for the non-prime fields,
# stored as low-degree coefficient tuples of x^f = -(...).
_REDUCTIONS = {
    (2, 2): (1, 1),  # x^2 = x + 1
    (2, 3): (1, 1, 0),  # x^3 = x + 1
    (3, 2): (2, 0),  # x^2 = -1
}


class FiniteField:
    """A finite field of any prime order, or of order 4, 8 or 9 through
    ``_REDUCTIONS``, with table-based arithmetic.

    Elements 0..q-1 are coefficient tuples in base p, constant term first;
    0 and `one` = p^(f-1) are the identities for + and ×.
    """

    def __init__(self, q: int):
        p, f = _factor_prime_power(q)
        self.q, self.p, self.f = q, p, f
        polys = list(product(range(p), repeat=f))
        index = {poly: i for i, poly in enumerate(polys)}
        assert index[(0,) * f] == 0
        one = (1,) + (0,) * (f - 1)

        def mul_poly(a, b):
            prod = [0] * (2 * f - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % p
            for k in range(2 * f - 2, f - 1, -1):
                c = prod[k]
                if c:
                    prod[k] = 0
                    red = _REDUCTIONS[(p, f)] if f > 1 else ()
                    for j, r in enumerate(red):
                        prod[k - f + j] = (prod[k - f + j] + c * r) % p
            return tuple(prod[:f])

        self.add = [
            [index[tuple((x + y) % p for x, y in zip(a, b))] for b in polys]
            for a in polys
        ]
        self.mul = [[index[mul_poly(a, b)] for b in polys] for a in polys]
        self.neg = [index[tuple((-x) % p for x in a)] for a in polys]
        self.one = index[one]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if self.mul[a][b] == self.one)
        self.inv = inv

    def primitive_element(self) -> int:
        for a in range(1, self.q):
            k, cur = 1, a
            while cur != self.one:
                cur = self.mul[cur][a]
                k += 1
            if k == self.q - 1:
                return a
        raise InvariantViolation(f"GF({self.q}): no primitive element found")


def _factor_prime_power(q: int) -> tuple[int, int]:
    factors = prime_power(q)
    if factors is None:
        raise ValueError(f"{q} is not a prime power")
    if factors[1] > 1 and factors not in _REDUCTIONS:
        raise ValueError(f"field of order {q} not supported")
    return factors


@lru_cache(maxsize=None)
def _field(q: int) -> FiniteField:
    return FiniteField(q)


_KINDS = {"SL2": 2, "PGL2": 2, "SL3": 3, "PGL3": 3}


class SmallGroupSpec(namedtuple("SmallGroupSpec", "kind q")):
    """A small matrix group: kind in SL2/PGL2/SL3/PGL3, q a prime power."""

    __slots__ = ()

    def __new__(cls, kind: str, q: int):
        if kind not in _KINDS:
            raise ValueError(f"unsupported kind {kind!r}")
        _factor_prime_power(q)
        return super().__new__(cls, kind, q)

    @property
    def n(self) -> int:
        return _KINDS[self.kind]

    @property
    def projective(self) -> bool:
        return self.kind.startswith("PGL")

    @property
    def order(self) -> int:
        q, n = self.q, self.n
        gl = 1
        for i in range(n):
            gl *= q**n - q**i
        return gl // (q - 1)


def _matrix(n: int, entries) -> tuple:
    """The n×n matrix, as a tuple of rows, with the given {(i, j): entry}, else 0."""
    return tuple(tuple(entries.get((i, j), 0) for j in range(n)) for i in range(n))


def _row_table(field: FiniteField, mat) -> dict:
    """Right multiplication by mat on row vectors: row ↦ row·mat.  A group
    element is the tuple of its rows, so x·mat is one lookup per row."""
    add, mul, n = field.add, field.mul, len(mat)
    table = {}
    for row in product(range(field.q), repeat=n):
        out = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul[row[k]][mat[k][j]]]
            out.append(acc)
        table[row] = tuple(out)
    return table


@lru_cache(maxsize=None)
def _canonical(spec: SmallGroupSpec):
    """Canonical forms of elements: for PGL, the scalar multiple whose
    first nonzero entry, which lies in the first row, is 1."""
    if not spec.projective:
        return lambda x: x
    field, n = _field(spec.q), spec.n
    scaled = [_row_table(field, _matrix(n, {(i, i): c for i in range(n)})) for c in range(spec.q)]
    normal = {row: scaled[field.inv[next((x for x in row if x), 0)]] for row in scaled[0]}
    return lambda x: tuple(map(normal[x[0]].__getitem__, x))


def _generators(spec: SmallGroupSpec, field: FiniteField):
    """The identity and a generating set: x12(t) for t over an F_p-basis
    of F_q, the n-cycle signed to determinant 1, and diag(ω, 1, …) for
    PGL.  The root subgroups these reach already generate SL_n(q); the
    closure's order check proves that they do."""
    n, one = spec.n, field.one
    diag = {(i, i): one for i in range(n)}
    gens = [_matrix(n, {**diag, (0, 1): field.p**k}) for k in range(field.f)]
    cycle = {(i, i + 1): one for i in range(n - 1)}
    cycle[n - 1, 0] = one if n % 2 else field.neg[one]
    gens.append(_matrix(n, cycle))
    if spec.projective and field.q > 2:
        gens.append(_matrix(n, {**diag, (0, 0): field.primitive_element()}))
    return _matrix(n, diag), gens


@lru_cache(maxsize=None)
def _build_group(spec: SmallGroupSpec):
    """The group as integer indices, by breadth-first closure.

    Returns the elements (canonical, identity first), each one's
    search-tree parent and generator, so that element x is element
    parent[x] times generator via[x], and for each generator s its
    right-multiplication table: right[s][x] is the index of x·s.
    """
    if spec.order > GROUP_ORDER_CAP:
        raise ResourceCapExceeded(
            f"{spec.kind}({spec.q}) has order {spec.order}, over the cap {GROUP_ORDER_CAP}"
        )
    field, canon = _field(spec.q), _canonical(spec)
    identity, gens = _generators(spec, field)
    elements, index, parent, via = [identity], {identity: 0}, [0], [0]
    times = [_row_table(field, g).__getitem__ for g in gens]
    right = [[] for _ in gens]
    for x, rows in enumerate(elements):
        for s, times_s in enumerate(times):
            y = canon(tuple(map(times_s, rows)))
            j = index.setdefault(y, len(elements))
            if j == len(elements):
                elements.append(y)
                parent.append(x)
                via.append(s)
            right[s].append(j)
    if len(elements) != spec.order:
        raise InvariantViolation(
            f"generated {len(elements)} elements of {spec.kind}({spec.q}), "
            f"expected {spec.order}"
        )
    return elements, parent, via, right


@lru_cache(maxsize=None)
def conjugacy_classes(spec: SmallGroupSpec) -> tuple[tuple, ...]:
    """Class representatives, each the least flat matrix of its class, with
    the class sizes, in increasing order; every conjugation must fix the
    identity, and the sizes must divide the group order.  They sum to it
    unchecked: each of ``_build_group``'s ``spec.order`` elements is marked once.
    No matrix is multiplied: left multiplication by s⁻¹ follows the
    search tree, s⁻¹·x = (s⁻¹·parent[x])·via[x], and conjugation
    x ↦ s⁻¹·x·s is that table after right[s]."""
    elements, parent, via, right = _build_group(spec)
    conj = []
    for r in right:
        left = [r.index(0)]
        for x in range(1, len(elements)):
            left.append(right[via[x]][left[parent[x]]])
        conj.append([left[y] for y in r])
    if any(c[0] for c in conj):
        raise InvariantViolation(
            f"a conjugation table of {spec.kind}({spec.q}) moves the identity"
        )
    seen = bytearray(len(elements))
    classes = []
    for start in range(len(elements)):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for x in orbit:
            for c in conj:
                y = c[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        classes.append((min(map(elements.__getitem__, orbit)), len(orbit)))
    sizes = [size for _, size in classes]
    if any(spec.order % size for size in sizes):
        raise InvariantViolation(
            f"conjugacy classes of {spec.kind}({spec.q}) do not partition the group "
            f"into divisors of {spec.order}: sizes {sorted(sizes)}"
        )
    return tuple((sum(rep, ()), size) for rep, size in sorted(classes))


def _element_order(spec: SmallGroupSpec, mat) -> int:
    n, canon = spec.n, _canonical(spec)
    rows = tuple(mat[i : i + n] for i in range(0, n * n, n))
    times = _row_table(_field(spec.q), rows).__getitem__
    identity = _build_group(spec)[0][0]
    k, x = 1, rows
    while x != identity:
        x = canon(tuple(map(times, x)))
        k += 1
    return k


def semisimple_class_count(spec: SmallGroupSpec) -> int:
    """Number of conjugacy classes of elements of order prime to p."""
    p = _field(spec.q).p
    return sum(
        1 for rep, _ in conjugacy_classes(spec) if _element_order(spec, rep) % p != 0
    )


def character_degrees(spec: SmallGroupSpec) -> tuple[int, ...]:
    """Irreducible character degrees of SL2(q) or PGL2(q).

    These are the classical one-parameter families; the list length
    matches the class count (a test checks it) and the squares sum to the
    group order, q^3 - q for SL2 and PGL2 alike.  The sum is an identity
    in q on each branch, so it is not checked at run time: for even q,
    1 + q^2 + (q/2)(q-1)^2 + ((q-2)/2)(q+1)^2 = q^3 - q; for odd q,
    SL2 gives 1 + q^2 + 2((q+1)/2)^2 + 2((q-1)/2)^2
    + ((q-3)/2)(q+1)^2 + ((q-1)/2)(q-1)^2 = q^3 - q, and PGL2 gives
    2 + 2q^2 + ((q-3)/2)(q+1)^2 + ((q-1)/2)(q-1)^2 = q^3 - q.
    """
    if spec.kind not in ("SL2", "PGL2"):
        raise ValueError(f"character degrees not encoded for {spec.kind}")
    q = spec.q
    if q % 2 == 0:
        degrees = [1, q] + [q - 1] * (q // 2) + [q + 1] * ((q - 2) // 2)
    elif spec.kind == "SL2":
        degrees = (
            [1, q]
            + [(q + 1) // 2] * 2
            + [(q - 1) // 2] * 2
            + [q + 1] * ((q - 3) // 2)
            + [q - 1] * ((q - 1) // 2)
        )
    else:
        degrees = (
            [1, 1, q, q] + [q + 1] * ((q - 3) // 2) + [q - 1] * ((q - 1) // 2)
        )
    return tuple(sorted(degrees))


def pprime_character_count(spec: SmallGroupSpec) -> int:
    """Number of irreducible characters of degree prime to p."""
    p = _field(spec.q).p
    return sum(1 for d in character_degrees(spec) if gcd(d, p) == 1)
