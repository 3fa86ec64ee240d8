"""The Brauer complex: sub-alcoves of the alcove under the q-refined
affine Weyl group, their fixed points, and stabilizer bookkeeping.

Every function here that needs the Frobenius takes the whole census
configuration, a ``census.GroupConfig``, checked when it was built: its
Frobenius acts on V as q times the coweight permutation induced by the
graph twist rho inverse, so its inverse contracts V by 1/q and sends
alcove vertex b to vertex rho(b) of the small alcove, and its isogeny
subgroup A_G is the node subgroup of the (cell, node) pairs.  The
small alcove tiles the alcove in exactly ``q**rank`` translates under
the q-refined affine Weyl group, which this module enumerates by
exchanging one vertex at a time across the facets inside the alcove.
Everything is kept in one coordinate system: integer affine numerators,
with the sub-alcove vertices over ``S = q * lcm(marks)``.  Each
translate carries a unique point fixed by "translate after
Frobenius-inverse after alcove stabilizer", solved from the images of
the alcove vertices for one (translate, stabilizer) pair per orbit of
the stabilizers' action on those pairs, and kept as integer affine
numerators over the point's own least denominator, their sum.  A
census solves each cell as the one walk of the cells yields it and
takes each point as it is solved; the walk keeps only the cells' keys,
and nothing here caches a cell or a point.  Theta's strata, the orbits
meeting each node's fixed space, are read off the records.
"""

from __future__ import annotations

from collections import deque
from math import gcd, lcm
from operator import eq
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .affine import (
    fundamental_group,
    hyperplane_containment,
    invariant_space,
    wall_neighbours,
)
from .errors import InvariantViolation, ResourceCapExceeded
from .linalg import bareiss
from .rootdata import RootDatum, TypeLabel

if TYPE_CHECKING:
    from .census import ClassRecord, GroupConfig


def frobenius_image(config: GroupConfig, affine: tuple[int, ...]) -> tuple[int, ...]:
    """F of ``config`` on integer affine numerators over their sum: F is
    q times the coweight permutation of rho inverse, so simple numerator
    b becomes ``q * affine[rho[b]]`` (rho preserves the marks), and node
    0 takes the rest of the unchanged denominator."""
    q, rho = config.q, config.rho
    simple = tuple(q * affine[rho[b]] for b in range(1, len(affine)))
    return (sum(affine) - sum(simple),) + simple


DEFAULT_SUBALCOVE_CAP = 10**6


def check_subalcove_cap(label: TypeLabel, q: int, cap: int) -> None:
    """A type and q have exactly ``q**rank`` sub-alcoves, as
    ``walk_subalcoves`` asserts, so the cap is checked before any work."""
    if q**label.rank > cap:
        raise ResourceCapExceeded(
            f"{label}, q={q}: {q**label.rank} sub-alcoves exceed the cap {cap}"
        )


def scale(datum: RootDatum, q: int) -> int:
    """The unit ``S = q * lcm(marks)`` in which the complex is integral."""
    return q * lcm(*datum.marks.values())


class SubAlcove(NamedTuple):
    """One translate of the small alcove inside the fundamental alcove,
    as integer affine numerators over ``S = scale(datum, q)``.

    ``vertices[j]`` is the image of the j-th small-alcove vertex (vertex
    0 is the image of the origin), a nonnegative integer vector indexed
    by extended node that sums to S, and ``key`` the vertex sum, which
    identifies the simplex uniquely.
    """

    vertices: tuple[tuple[int, ...], ...]
    key: tuple[int, ...]


def walk_subalcoves(config: GroupConfig) -> Iterator[SubAlcove]:
    """The ``q**rank`` sub-alcoves of the datum and q of ``config``, found
    breadth-first across facets and yielded as they are dequeued; they do
    not depend on the twist or the isogeny.

    The neighbour across the facet opposite vertex j keeps the other
    vertices and replaces v_j with ``sum_i(k_ji * v_i) / n_j - v_j``, over
    the neighbours i of node j with ``k_ji = n_i |<a_i, a_j^vee>|`` (row j
    of ``wall_neighbours``): that is the reflection of the small alcove's
    vertex j in its wall j.  Since the marks span the kernel of the
    extended Cartan matrix, the k_ji sum to ``2 n_j``, so the rule is an
    affine combination and holds on every translate, with an exact
    division.  Two kinds of facet are not exchanged: one in an alcove
    wall, where some numerator of the key comes from vertex j alone, and
    one that leads back to a cell already seen.  Any other facet has its
    relative interior in the open alcove, so the neighbour across it is
    a cell: its new vertex has no negative numerator (numerator 0 is ``S
    - <theta, x>``), and needs no test.  The exact count is enforced: a
    search that finds one cell too many, as one that left the alcove
    would, stops there, and one that finds too few fails after its last
    cell, where every alcove stabilizer must map the keys onto keys.
    """
    datum, q = config.datum, config.q
    expected = q**datum.rank
    s = scale(datum, q)
    # Neighbour i of node j is listed k_ji times, so that the weighted sum
    # of the vertices is a plain sum down each coordinate.
    exchange = [
        (j, mark, tuple(i for i, k in row for _ in range(k)))
        for j, (mark, row) in enumerate(wall_neighbours(datum))
    ]

    # Small-alcove vertex j is alcove vertex j over q: 1/q of the way from
    # vertex 0 to vertex j in barycentric terms.
    small = s // q
    base_vertices = ((s,) + (0,) * datum.rank,) + tuple(
        (s - small,) + tuple(small if i == j else 0 for i in datum.nodes)
        for j in datum.nodes
    )
    base = SubAlcove(base_vertices, tuple(map(sum, zip(*base_vertices))))

    # Per key seen, a bit mask of the facets j that lead to a cell already
    # seen: the cell reached across facet j of another has the same
    # vertices but vertex j, so its facet j leads back.
    crossed = {base.key: 0}
    queue = deque([base])
    while queue:
        vertices, key = sub = queue.popleft()
        yield sub
        done = crossed[key]
        for j, mark, spread in exchange:
            apex = vertices[j]
            # When key[m] == apex[m], the other vertices have numerator m
            # zero, so facet j lies in wall m and the new vertex would have
            # numerator m equal to -apex[m] < 0.
            if done >> j & 1 or any(map(eq, key, apex)):
                continue
            new_apex = tuple(
                sum(column) // mark - x
                for x, column in zip(apex, zip(*[vertices[i] for i in spread]))
            )
            new_key = tuple(k - x + y for k, x, y in zip(key, apex, new_apex))
            if new_key in crossed:
                crossed[new_key] |= 1 << j
                continue
            if len(crossed) == expected:
                raise InvariantViolation(
                    f"{config}: found more than {expected} sub-alcoves"
                )
            crossed[new_key] = 1 << j
            queue.append(SubAlcove(vertices[:j] + (new_apex,) + vertices[j + 1 :], new_key))
    if len(crossed) != expected:
        raise InvariantViolation(
            f"{config}: found {len(crossed)} sub-alcoves, expected {expected}"
        )
    for act in fundamental_group(datum).act.values():
        for key in crossed:
            if act(key) not in crossed:
                raise InvariantViolation(
                    f"{config}: an alcove stabilizer maps the sub-alcove {key} "
                    "onto no sub-alcove"
                )


def enumerate_subalcoves(config: GroupConfig) -> tuple[SubAlcove, ...]:
    """Every cell of ``walk_subalcoves``, in its order."""
    return tuple(walk_subalcoves(config))


class CellPoint(NamedTuple):
    """A cell fixed point: integer affine numerators over the least common
    denominator of its coweight coordinates, which is their sum, so the
    numerators alone identify the point."""

    affine: tuple[int, ...]


def fixed_point(config: GroupConfig, sub: SubAlcove, node: int) -> CellPoint:
    """The unique fixed point of ``sub`` after the Frobenius-inverse of
    ``config`` after the stabilizer of ``node``; it always lies inside the
    sub-alcove.

    The map sends alcove vertex b to ``sub.vertices[rho[perm[b]]]``, so
    in affine coordinates (barycentric for the alcove vertices) it is the
    matrix N whose column b is that vertex: an integer matrix with column
    sums S.  The fixed point solves ``(N - S*I) x = 0`` with ``sum(x) =
    1``; the first equation follows from the rest, and x_0 = 1 - x_1 -
    ... - x_n is eliminated by hand, which leaves the rank-by-rank system
    ``sum_i (N[t][i] - N[t][0] - S*[t = i]) x_i = -N[t][0]`` for t, i =
    1..rank, whose augmented rows are built in one pass over the
    vertices.  The map contracts by 1/q, so the system is never singular,
    and the denominators are coprime to p.  Coweight coordinate i is
    ``y_i / P`` with ``P = pivot * lcm(marks)`` and ``y_i = nums[i - 1] *
    lcm(marks) / mark_i``, so the point's least denominator is ``P //
    gcd(P, *y)``.
    """
    datum = config.datum
    group = fundamental_group(datum)
    if node not in group.perm:
        raise ValueError(f"node {node} is not minuscule in {datum.label}")
    s = scale(datum, config.q)
    rho = config.rho
    first, *rest = (sub.vertices[rho[b]] for b in group.perm[node])
    rows = [[v[t] - y for v in rest] + [-y] for t, y in enumerate(first[1:], 1)]
    for t, row in enumerate(rows):
        row[t] -= s
    nums, pivot = bareiss(rows)
    marks, lcm_marks = datum.marks, s // config.q
    big = pivot * lcm_marks  # P above
    den = big // gcd(big, *(x * (lcm_marks // marks[i]) for i, x in enumerate(nums, 1)))
    if den % config.p == 0:
        raise InvariantViolation(
            f"{config}: the fixed point of sub-alcove {sub.key} over node {node} "
            "has a denominator divisible by p"
        )
    simple = tuple(x * den // pivot for x in nums)
    return CellPoint((den - sum(simple),) + simple)


def central_frobenius_action(config: GroupConfig, z: int) -> int:
    """The Frobenius of ``config`` on the fundamental group: relabel by
    the twist inverse, then raise to the q-th power.  This is the element
    F(z) with ``F f_z F^-1 = f_F(z)`` modulo the affine Weyl group."""
    group = fundamental_group(config.datum)
    return group.power(config.rho.index(z), config.q)


def cell_fixed_points(config: GroupConfig) -> Iterator[tuple[int, ...]]:
    """The fixed points of the (cell, node) pairs of ``config``, over the
    nodes of its isogeny subgroup, one pair per orbit, each yielded as it
    is solved; the census's records, which ``theta`` reads, are their orbits.

    The isogeny subgroup acts on the pairs by ``b.(w, a) = (f_b(w),
    a F(b) b^-1)``: since ``F f_b F^-1 = f_F(b)`` modulo the affine Weyl
    group, ``f_b`` carries the fixed point of (w, a) to the fixed point
    of the image pair, which has the same affine numerators permuted and
    so the same orbit key.  It permutes the vertex-sum key of w the same
    way into that of ``f_b(w)``, and a pair is solved only when it is the
    least of its images, ordered by (key, node).  The image node lies in
    the subgroup because ``GroupConfig`` checks that rho stabilizes it.
    Each point is yielded as ``fixed_point`` gives it, over its own least
    denominator, once per pair solved, so they number the pair orbits.
    """
    group = fundamental_group(config.datum)
    perm = group.perm
    order = sorted(config.a_g)
    image_node = {}
    for b in order:
        fb = central_frobenius_action(config, b)
        for a in order:
            image_node[a, b] = perm[perm[a][fb]][group.inverse(b)]

    actions = [group.act[b] for b in order]
    # The nodes a solved with a cell, per stabilizer of the cell.
    least: dict[tuple, list] = {}
    for sub in walk_subalcoves(config):
        key = sub.key
        images = [act(key) for act in actions]
        if min(images) < key:
            continue
        stabilizer = tuple(b for b, image in zip(order, images) if image == key)
        if stabilizer not in least:
            least[stabilizer] = [
                a for a in order if all(a <= image_node[a, b] for b in stabilizer)
            ]
        for a in least[stabilizer]:
            yield fixed_point(config, sub, a).affine


def stable_cell_count(datum: RootDatum, subgroup: frozenset[int], q: int) -> int:
    """N(H), the number of sub-alcoves that every ``f_h``, h in the node
    subgroup H, maps to themselves (m_b for H = <b>): ``q**dim`` of the
    fixed space of H when it lies in no hyperplane of the q-refined
    arrangement, and zero otherwise.  It takes no enumeration."""
    if hyperplane_containment(datum, subgroup, q) is not None:
        return 0
    return q ** invariant_space(datum, subgroup).dimension


def theta(config: GroupConfig, records: Sequence[ClassRecord]) -> dict[int, int]:
    """Theta read from the census records of ``config``: its strata,
    ``{a: count}`` in node order, where count is the number of orbits of
    the isogeny subgroup on the fixed points of all its (cell, node)
    pairs that meet the fixed space of node a.

    Each record is one orbit, keyed by its least subgroup image, and its
    component group holds the nodes that fix that key.  The group is
    abelian, so a node fixing one point of an orbit fixes all of them:
    the orbit meets the fixed space of node a exactly when a is in the
    record's component group.  The census asserts that the orbits, the
    records, number ``q**rank`` whatever the hypothesis, and that the
    stratum of each F-fixed node b is N(<b>), the number of cells that b
    fixes.  So the strata are the paper's counts where F fixes every node
    (README), and ``config.congruence_holds()`` decides that for a prime
    order only: twisted D4 ad q=3 reads true, yet F swaps the spin nodes,
    whose strata are 3 against q^dim = 9.
    """
    return {a: sum(1 for r in records if a in r.comp_group) for a in sorted(config.a_g)}
