"""Alcove geometry: extended diagram, fundamental group, folding.

The fundamental alcove is the simplex cut out by ``<a_i, x> >= 0`` and
``<a_0, x> <= 1`` (a_0 the highest root).  A point is described either
by its coweight coordinates or by its affine coordinates, the tuple
``(x_0, ..., x_n)`` indexed by extended node with ``x_i = n_i * coord_i``
for a simple node of mark ``n_i`` and ``x_0 = 1 - <a_0, x>``; the affine
coordinates always sum to 1, and the point lies in the closed alcove
exactly when they are all nonnegative.

For every node ``a`` of mark 1 (the minuscule nodes, node 0 included)
there is a linear Weyl element ``z_a`` inducing an automorphism of the
extended diagram, and the affine map ``f_a = z_a + w_a^vee`` stabilizes
the alcove, acting on affine coordinates by the inverse node
permutation.  Together these maps realize the stabilizer of the alcove
in the extended affine Weyl group; composition corresponds to the node
law ``z_a z_b = z_{z_a(b)}``.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .errors import InvariantViolation
from .linalg import Vec, mat_mul, unit_vec
from .rootdata import RootDatum, longest_element

FOLD_ITERATION_CAP = 100_000


# ---------------------------------------------------------------------------
# points and coordinates


def affine_coords(datum: RootDatum, coords: Vec) -> tuple:
    """Affine coordinates indexed by extended node (node 0 first)."""
    simple = tuple(datum.marks[i] * coords[i - 1] for i in datum.nodes)
    return (1 - sum(simple),) + simple


class AffinePoint(NamedTuple):
    """A point of V with both coordinate descriptions precomputed."""

    coords: Vec
    affine: tuple


def affine_point(datum: RootDatum, coords: Vec) -> AffinePoint:
    return AffinePoint(tuple(coords), affine_coords(datum, coords))


# ---------------------------------------------------------------------------
# diagram symmetries


def validate_symmetry(datum: RootDatum, perm: tuple[int, ...]) -> None:
    """Reject node permutations that do not preserve the extended diagram."""
    if len(perm) != datum.rank + 1 or sorted(perm) != list(datum.extended_nodes):
        raise ValueError("permutation does not cover the extended node set")
    cartan = datum.extended_cartan
    for a in datum.extended_nodes:
        if datum.marks[perm[a]] != datum.marks[a]:
            raise ValueError("permutation does not preserve marks")
        for b in datum.extended_nodes:
            if cartan[perm[a]][perm[b]] != cartan[a][b]:
                raise ValueError("permutation does not preserve the extended diagram")


def standard_symmetry(datum: RootDatum, kind: str) -> tuple[int, ...]:
    """The conventional diagram symmetry of a given kind: its node images.

    ``"split"`` is the identity; ``"twisted"`` the order-2 symmetry of
    A_n (n>=2), D_n and E6; ``"triality"`` the order-3 symmetry of D4.
    ``census.GroupConfig`` validates it against the diagram.
    """
    n = datum.rank
    fam = datum.label.family
    perm = list(range(n + 1))
    if kind == "twisted":
        if fam == "A" and n >= 2:
            for i in datum.nodes:
                perm[i] = n + 1 - i
        elif fam == "D":
            perm[n - 1], perm[n] = n, n - 1
        elif fam == "E" and n == 6:
            perm[1], perm[6] = 6, 1
            perm[3], perm[5] = 5, 3
        else:
            raise ValueError(f"{datum.label} has no order-2 diagram symmetry")
    elif kind == "triality":
        if fam == "D" and n == 4:
            perm[1], perm[3], perm[4] = 3, 4, 1
        else:
            raise ValueError("triality only exists for D4")
    elif kind != "split":
        raise ValueError(f"unknown symmetry kind {kind!r}")
    return tuple(perm)


# ---------------------------------------------------------------------------
# minuscule nodes, fundamental group


def minuscule_nodes(datum: RootDatum) -> tuple[int, ...]:
    """Extended nodes of mark 1, node 0 first."""
    return tuple(a for a in datum.extended_nodes if datum.marks[a] == 1)


class FundamentalGroup(NamedTuple):
    """The stabilizer of the alcove, indexed by minuscule nodes.

    ``elements`` lists the minuscule nodes with node 0 as the identity.
    ``perm[a]`` is the node permutation of ``z_a``, the tuple of node
    images, and the group law in node terms is ``a b = perm[a][b]``.
    ``act[a]`` applies ``f_a`` to affine coordinates: an ``itemgetter``
    of the inverse node permutation.
    """

    elements: tuple[int, ...]
    perm: dict
    act: dict

    @property
    def order(self) -> int:
        return len(self.elements)

    def order_of(self, a: int) -> int:
        k, cur = 1, a
        while cur != 0:
            cur = self.perm[cur][a]
            k += 1
        return k

    def power(self, a: int, k: int) -> int:
        k %= self.order_of(a)
        cur = 0
        for _ in range(k):
            cur = self.perm[cur][a]
        return cur

    def inverse(self, a: int) -> int:
        return self.perm[a].index(0)

    def subgroup(self, generators: Iterable[int]) -> frozenset[int]:
        """The generated subgroup, which is <g_1> <g_2> ... as A is abelian."""
        closed = frozenset({0})
        for g in generators:
            while not closed.issuperset(grown := {self.perm[a][g] for a in closed}):
                closed |= grown
        return closed

    def is_subgroup(self, nodes: frozenset[int]) -> bool:
        return nodes.issubset(self.elements) and self.subgroup(nodes) == nodes


@lru_cache(maxsize=None)
def fundamental_group(datum: RootDatum) -> FundamentalGroup:
    """The alcove stabilizers f_a, found on the alcove vertices scaled by
    ``L = lcm(marks)`` so that everything stays integral: vertex b is
    ``(L / n_b) e_b`` (the origin for node 0).  Node a has mark 1, so f_a
    sends vertex 0 to L times the coweight of a, which is scaled vertex
    a, and vertex b to column b of z_a scaled by ``L / n_b`` plus that
    shift, which must be a scaled vertex again."""
    n = datum.rank
    mins = minuscule_nodes(datum)
    marks = datum.marks
    scale = lcm(*marks.values())
    steps = [scale // marks[i] for i in datum.nodes]
    vertices = [(0,) * n] + [
        tuple(step * x for x in unit_vec(n, b)) for b, step in enumerate(steps)
    ]
    vertex_of = {v: b for b, v in enumerate(vertices)}
    perm = {0: tuple(range(n + 1))}
    # E8, F4 and G2 have no minuscule node but node 0, and need no w0.
    w0 = longest_element(datum, datum.nodes) if len(mins) > 1 else None
    for a in mins[1:]:
        wa = longest_element(datum, [i for i in datum.nodes if i != a])
        z = mat_mul(wa, w0)
        shift = vertices[a]
        # Scaled vertex b is step_b e_b, so its image is step_b times
        # column b of z_a, plus the shift; vertex 0 goes to the shift.
        images = (a,) + tuple(
            vertex_of.get(tuple(step * x + y for x, y in zip(column, shift)))
            for step, column in zip(steps, zip(*z))
        )
        if None in images:
            raise InvariantViolation(
                f"{datum.label}: f_{a} does not permute the alcove vertices"
            )
        validate_symmetry(datum, images)
        perm[a] = images
    # The node law must agree with composition.  Each f_c maps the alcove
    # vertices by perm[c] (checked above), and an affine map is fixed by its
    # values on rank+1 affinely independent points, so equal permutations
    # give f_a f_b = f_{ab}, and the matrix law z_a z_b = z_{ab} follows.
    for a in mins:
        for b in mins:
            if tuple(perm[a][x] for x in perm[b]) != perm[perm[a][b]]:
                raise InvariantViolation(
                    f"{datum.label}: fundamental group law violated on matrices"
                )
    return FundamentalGroup(
        elements=mins,
        perm=perm,
        act={a: itemgetter(*map(perm[a].index, datum.extended_nodes)) for a in mins},
    )


# ---------------------------------------------------------------------------
# folding into the fundamental alcove


@lru_cache(maxsize=None)
def wall_neighbours(datum: RootDatum) -> tuple[tuple[int, tuple], ...]:
    """Per extended node i: its mark n_i and its neighbours
    ``(j, n_j * |<a_j, a_i^vee>|)``, all positive.  Since the marks span
    the kernel of the extended Cartan matrix, the coefficients of row i
    sum to ``2 n_i``.  Row i serves twice: the reflection in wall i
    negates affine coordinate x_i and raises coordinate j of a point by
    the coefficient times ``x_i / n_i`` (``fold_coords``), and it moves
    vertex i of an alcove to ``sum_j(coefficient * v_j) / n_i - v_i``,
    the vertex exchange of ``brauer.enumerate_subalcoves``."""
    marks, cartan = datum.marks, datum.extended_cartan
    return tuple(
        (
            marks[i],
            tuple(
                (j, -marks[j] * cartan[j][i])
                for j in datum.extended_nodes
                if j != i and cartan[j][i]
            ),
        )
        for i in datum.extended_nodes
    )


def fold_coords(datum: RootDatum, affine: tuple[int, ...]) -> tuple[int, ...]:
    """Move a point into the closed alcove by wall reflections.

    The point is given by integer affine numerators over a denominator D
    (their sum), each divisible by its node's mark, so that the coweight
    coordinates ``x_i / (n_i D)`` are over D too.  While some numerator
    x_i is negative, the point is reflected in wall i: this is the
    numbers game on the extended diagram, which keeps the numerators
    integral and divisible by the marks, and preserves D.  It is
    homogeneous, so one code path serves every denominator.

    A worklist holds the negative numerators.  Reflecting in wall i makes
    x_i positive and lowers only the numerators of i's neighbours, so a
    numerator joins the list when it turns negative and stays negative
    until it is reflected.  The game ends on the unique alcove point of
    the orbit after the same number of reflections in any order; a point
    that needs ``FOLD_ITERATION_CAP`` reflections or more raises.
    """
    neighbours = wall_neighbours(datum)
    cur = list(affine)
    if any(x % mark for x, (mark, _) in zip(cur, neighbours)):
        raise ValueError("an affine numerator is not divisible by its mark")
    negative = [i for i, x in enumerate(cur) if x < 0]
    for _ in range(FOLD_ITERATION_CAP):
        if not negative:
            return tuple(cur)
        i = negative.pop()
        x = cur[i]
        mark, row = neighbours[i]
        cur[i] = -x
        steps = x // mark
        for j, c in row:
            y = cur[j]
            cur[j] = z = y + c * steps
            if z < 0 <= y:
                negative.append(j)
    raise InvariantViolation(
        f"{datum.label}: folding did not terminate within the iteration cap"
    )


# ---------------------------------------------------------------------------
# invariant subspaces and their hyperplane containments


class InvariantSpace(NamedTuple):
    """The affine fixed space of a subgroup H of alcove stabilizers: its
    dimension and the sorted H-orbits on the extended nodes, node 0's first."""

    dimension: int
    orbits: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def invariant_space(datum: RootDatum, subgroup: frozenset[int]) -> InvariantSpace:
    """Fixed space of a node subgroup H (a single node a is its cyclic
    subgroup ``group.subgroup([a])``).

    Each ``f_h`` permutes the alcove vertices by ``perm[h]``, so a point
    is fixed by H exactly when its affine coordinates are constant on each
    H-orbit of nodes, and the dimension is the orbit count minus one.
    """
    group = fundamental_group(datum)
    nodes = sorted(subgroup)
    if not group.is_subgroup(subgroup):
        raise ValueError(f"{nodes} is not a node subgroup of {datum.label}")
    orbits = sorted(
        {tuple(sorted({group.perm[h][a] for h in nodes})) for a in datum.extended_nodes}
    )
    return InvariantSpace(len(orbits) - 1, tuple(orbits))


def hyperplane_containment(
    datum: RootDatum, subgroup: frozenset[int], q: int
) -> Optional[tuple[Vec, int]]:
    """The first positive root b, in root order, constant on the fixed
    space of the node subgroup H with value k/q there, as ``(b, k)``, or None.

    A fixed point has affine coordinate t_O on each orbit O, with
    ``sum(|O| t_O) = 1``, so ``<b, x> = sum(t_O C_O) / L`` with L =
    lcm(marks) and ``C_O = sum(b_i L / n_i)`` over the simple nodes i of O.
    It is constant exactly when all ``C_O / |O|`` are equal, with value
    ``C_O0 / (L |O0|)`` for node 0's orbit O0.  No such root is an alcove
    wall.  Every f_h permutes the alcove vertices, so H fixes the
    barycenter x, whose affine coordinates are all ``1/(rank+1)``.  There
    ``0 < <b, x> <= 1 - x_0 < 1`` for every positive root b, as b's
    coefficients are at most the marks, so a root constant on the fixed
    space takes a value strictly between 0 and 1, and ``C_O0`` is neither
    0 nor ``L |O0|``.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    unit = lcm(*datum.marks.values())
    weights = [unit // datum.marks[i] for i in datum.extended_nodes]
    orbits = invariant_space(datum, subgroup).orbits
    origin, others = orbits[0], orbits[1:]
    den = unit * len(origin)
    for beta in datum.positive_roots:
        c0, *cs = (sum(beta[i - 1] * weights[i] for i in o if i) for o in orbits)
        if any(c * len(origin) != c0 * len(orbit) for c, orbit in zip(cs, others)):
            continue
        if q * c0 % den:
            continue
        return beta, q * c0 // den
    return None
