"""Census of F-stable semisimple conjugacy classes for one isogeny type.

An isogeny type is a subgroup A_G of the fundamental group, whose
elements a act on the closed alcove as the stabilizers f_a.  The closed
alcove meets each orbit of the affine Weyl group exactly once, so two
alcove points parametrize the same class exactly when some f_a carries
one onto the other, and a class is F-stable when the folded image of its
Frobenius translate is such an image of its point.  Every stable class
is classified by the zero set of its affine coordinates (a basis of the
connected-centralizer root system), its component group inside the
isogeny subgroup, and the Frobenius action on that component group,
from which the rational class and semisimple character counts follow.

Each point is integer affine numerators over its own least denominator,
their sum, from the fixed-point solve to the class records, whose keys
only the serializer turns into rationals; only the merge of the keys'
runs, one per denominator, brings each run's head to a common one.

The one closed form of the paper kept here is the odd-rank D rational
total, which the report prints beside the census's own; the ``verify``
suites hold the Table 1 and Table 3 forms.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from heapq import merge
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .affine import (
    fold_coords,
    fundamental_group,
    standard_symmetry,
    validate_symmetry,
)
from .brauer import (
    cell_fixed_points,
    central_frobenius_action,
    frobenius_image,
    stable_cell_count,
    theta,
)
from .errors import InvariantViolation
from .linalg import prime_power
from .rootdata import RootDatum, TypeLabel, build_root_system, subdiagram_type


class GroupConfig(namedtuple("GroupConfig", "datum a_g q rho p")):
    """One census configuration (G, F): a root datum, the isogeny subgroup
    A_G of its fundamental group as minuscule nodes, which fixes the
    cocharacter lattice, and the Frobenius F, q times the coweight
    permutation of the graph twist rho inverse; p is the characteristic.
    Every check runs on construction, so every function that takes a
    configuration can rely on it: q is a prime power, rho, the tuple of
    node images, is a diagram symmetry fixing the affine node, A_G is a
    subgroup and rho stabilizes it, so F(b) = rho^-1(b)^q lies in A_G for
    every b in A_G.  Each fact about the configuration that more than one
    caller reads (adjoint, p dividing |A_G|, the congruence) is decided
    here once."""

    __slots__ = ()

    def __new__(
        cls, datum: RootDatum, a_g: frozenset[int], q: int, rho: tuple[int, ...]
    ):
        pf = prime_power(q)
        if pf is None:
            raise ValueError(f"q = {q} is not a prime power >= 2")
        rho = tuple(rho)
        validate_symmetry(datum, rho)
        if rho[0] != 0:
            raise ValueError("a graph twist must fix the affine node")
        a_g = frozenset(a_g)
        if frozenset(rho[a] for a in a_g) != a_g:
            raise ValueError("the graph twist does not stabilize the isogeny subgroup")
        if not fundamental_group(datum).is_subgroup(a_g):
            raise ValueError(f"nodes {sorted(a_g)} are not a subgroup in {datum.label}")
        return super().__new__(cls, datum, a_g, q, rho, pf[0])

    def __getnewargs__(self):
        """The constructor's arguments, without p, so that a copy is
        built, and checked, the same way."""
        return tuple(self[:4])

    def __str__(self) -> str:
        """``<type> <isogeny> q=<q>``, then ``twisted`` or ``triality``
        when rho is not the identity: the prefix of every invariant
        violation on the census path."""
        text = f"{self.datum.label} {self.isogeny_name()} q={self.q}"
        if self.is_split:
            return text
        return text + (" triality" if self.twist_order == 3 else " twisted")

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def twist_order(self) -> int:
        """The order of rho: 1 split, 2 twisted, 3 triality."""
        k, cur = 1, self.rho
        while cur != tuple(range(len(cur))):
            cur, k = tuple(self.rho[i] for i in cur), k + 1
        return k

    @property
    def is_split(self) -> bool:
        return self.twist_order == 1

    @property
    def is_adjoint(self) -> bool:
        """A_G is the whole fundamental group."""
        return len(self.a_g) == fundamental_group(self.datum).order

    @property
    def p_divides_isogeny_order(self) -> bool:
        return len(self.a_g) % self.p == 0

    def congruence_holds(self) -> bool:
        """The congruence hypothesis for A_G: q = 1 mod |A_G| when split,
        q = -1 mod |A_G| when twisted."""
        sign = 1 if self.is_split else -1
        return (self.q - sign) % len(self.a_g) == 0

    def isogeny_name(self) -> str:
        """``sc`` is tested first, so E8, F4 and G2 read ``sc`` as adjoint."""
        if len(self.a_g) == 1:
            return "sc"
        if self.is_adjoint:
            return "ad"
        return "sub:" + ",".join(str(a) for a in sorted(self.a_g - {0}))


def make_group_config(
    label,
    isogeny,
    q: int,
    twisted: bool = False,
    triality: bool = False,
) -> GroupConfig:
    """Build a census configuration from a type and flags.

    ``isogeny`` is "sc", "ad", or an iterable of minuscule nodes
    generating the subgroup.  The graph twist must preserve the subgroup,
    otherwise the cocharacter lattice would not be Frobenius-stable;
    ``GroupConfig`` checks that and the rest.
    """
    datum = build_root_system(label)
    group = fundamental_group(datum)
    if isogeny == "sc":
        nodes = frozenset({0})
    elif isogeny == "ad":
        nodes = frozenset(group.elements)
    else:
        gens = set(isogeny)
        bad = gens - set(group.elements)
        if bad:
            raise ValueError(f"nodes {sorted(bad)} are not minuscule in {datum.label}")
        nodes = group.subgroup(gens)
    if triality and not twisted:
        raise ValueError("triality requires the twisted flag")
    kind = "triality" if triality else "twisted" if twisted else "split"
    return GroupConfig(datum, nodes, q, standard_symmetry(datum, kind))


def orbit_equal(config: GroupConfig, lam: tuple, mu: tuple) -> Optional[int]:
    """The first subgroup element a, in increasing node order (the
    identity, node 0, first), with f_a(lam) == mu, or None.

    Both points are integer affine numerators over one denominator,
    their sum, and must lie in the closed alcove.  W ⋉ Y, Y the
    cocharacter lattice, is the affine Weyl group extended by the f_a
    with a in A_G, and the closed alcove meets each affine Weyl group
    orbit once, so two alcove points lie in one class exactly when some
    f_a carries one onto the other.
    """
    if min(lam) < 0 or min(mu) < 0:
        raise ValueError("orbit comparison requires points of the closed alcove")
    if sum(mu) != sum(lam):
        raise ValueError("orbit comparison requires one common denominator")
    act = fundamental_group(config.datum).act
    return next((z for z in sorted(config.a_g) if act[z](lam) == mu), None)


def f_stable(config: GroupConfig, lam: tuple) -> Optional[int]:
    """Witness that the class of an alcove point is Frobenius-stable.

    The point is integer affine numerators over a denominator of its
    coweight coordinates, such as its least one.  Its Frobenius
    translate, over the same denominator, is folded back into the alcove
    and compared against the point up to the isogeny subgroup; valid for
    every point of the closed alcove, vertices included.
    """
    folded = fold_coords(config.datum, frobenius_image(config, lam))
    return orbit_equal(config, lam, folded)


def orbit_key(config: GroupConfig, affine: tuple) -> tuple:
    """Canonical orbit representative: lexicographically minimal affine
    coordinates over the subgroup's stabilizer images."""
    act = fundamental_group(config.datum).act
    return min(act[z](affine) for z in config.a_g)


class ClassRecord(NamedTuple):
    """One F-stable semisimple class of the configured group, keyed by
    the integer affine numerators of its canonical representative over
    its own least denominator, their sum.  ``fixed_count`` is the number
    of Frobenius-fixed elements of the component group, which for a
    finite abelian group is also the size of its first cohomology: the
    report writes it as ``h1_count`` too."""

    key: tuple[int, ...]
    i_lambda: tuple[int, ...]
    centralizer_components: tuple[TypeLabel, ...]
    torus_rank: int
    comp_group: tuple[int, ...]
    f_action: tuple[tuple[int, int], ...]
    fixed_count: int

    def centralizer_name(self) -> str:
        if not self.centralizer_components:
            return f"T{self.torus_rank}"
        name = "x".join(str(t) for t in self.centralizer_components)
        return name if self.torus_rank == 0 else f"{name}xT{self.torus_rank}"


def _classify(
    config: GroupConfig, key: tuple, types: dict, components: dict
) -> ClassRecord:
    """Classify the orbit with integer affine numerators ``key``.

    Apart from the key, a record depends only on the zero set, whose
    centralizer type ``types`` holds, and on the component group, the
    nodes that fix the key, whose Frobenius action and fixed count
    ``components`` holds; the census passes one pair of dicts, so each
    is computed once per census.
    """
    datum = config.datum
    group = fundamental_group(datum)
    zeros = tuple(a for a, x in enumerate(key) if x == 0)
    if zeros not in types:
        types[zeros] = subdiagram_type(datum, zeros)
    comp_group = tuple(z for z in sorted(config.a_g) if group.act[z](key) == key)
    if comp_group not in components:
        # A_G's nodes fixing the key form a subgroup (fundamental_group asserts
        # the node law); only its F-stability rests on central_frobenius_action.
        f_action = tuple((z, central_frobenius_action(config, z)) for z in comp_group)
        if tuple(sorted(w for _, w in f_action)) != comp_group:
            raise InvariantViolation(f"{config}: subgroup is not Frobenius-stable")
        components[comp_group] = (f_action, sum(z == w for z, w in f_action))
    f_action, fixed = components[comp_group]
    return ClassRecord(
        key=key,
        i_lambda=zeros,
        centralizer_components=types[zeros],
        torus_rank=datum.rank - len(zeros),
        comp_group=comp_group,
        f_action=f_action,
        fixed_count=fixed,
    )


def enumerate_classes(config: GroupConfig) -> tuple[ClassRecord, ...]:
    """All F-stable semisimple classes, exactly ``q**rank`` of them.

    Candidates are the stabilizer fixed points of one (cell, node) pair
    per orbit of the isogeny subgroup, taken as each is solved; the
    other pairs' points are their subgroup images, with the same orbit
    keys.  The keys are filed by denominator, and every orbit, in the
    order of its key's rational affine coordinates (a merge of the
    sorted runs), is asserted to be Frobenius-stable and classified.
    The Burnside identities are then asserted on ``counts`` and
    ``theta`` of the records, the numbers that the report shows.
    """
    datum = config.datum
    q = config.q
    expected = q**datum.rank
    runs: dict[int, dict] = {}  # per denominator, tuple order is rational order
    solves = 0
    for affine in cell_fixed_points(config):
        solves += 1
        key = orbit_key(config, affine)
        runs.setdefault(sum(key), {})[key] = None
    common = lcm(*runs)  # over it, keys order as rational coordinates across runs
    records = []
    types: dict = {}
    components: dict = {}
    sorted_runs = map(sorted, runs.values())
    for key in merge(*sorted_runs, key=lambda k: tuple(map((common // sum(k)).__mul__, k))):
        # Stable by construction.  A candidate solves x = w(F^-1(f_a(x)))
        # with w in the q-refined affine Weyl group and a in the isogeny
        # subgroup, so F(x) = (F w F^-1)(f_a(x)) with F w F^-1 in W_aff:
        # F(x) folds onto f_a(x), a point of the orbit of x.  Stability
        # is a property of the orbit, so its key is stable too.
        if f_stable(config, key) is None:
            raise InvariantViolation(
                f"{config}: orbit {key} over {sum(key)} is not F-stable"
            )
        records.append(_classify(config, key, types, components))
    if len(records) != expected:
        raise InvariantViolation(
            f"{config}: {len(records)} stable classes, expected {expected}"
        )
    # Burnside: b fixes the pair (w, a) exactly when f_b fixes the cell
    # and F(b) = b, so a class s is the image of |C_A(s)^F| pair orbits,
    # and the pair orbits count the rational classes.
    c = counts(config, records)
    strata = theta(config, records)
    if solves != c.rational_total:
        raise InvariantViolation(
            f"{config}: {solves} (cell, node) pair orbits, but the fixed counts "
            f"sum to {c.rational_total}"
        )
    # Per b, an F-fixed b fixes its m_b = N(<b>) cells with every node; per
    # (b, c), both fix a pair when both are F-fixed and <b, c> fixes its
    # cell, and the squared fixed counts follow (README).  Each distinct
    # subgroup <b, c> is counted once.
    group = fundamental_group(datum)
    fixed_nodes = [b for b in config.a_g if central_frobenius_action(config, b) == b]
    pairs = {(b, c): group.subgroup((b, c)) for b in fixed_nodes for c in fixed_nodes}
    cells = {h: stable_cell_count(datum, h, q) for h in dict.fromkeys(pairs.values())}
    fixed_cells = sum(cells[pairs[b, 0]] for b in fixed_nodes)
    if fixed_cells != c.rational_total:
        raise InvariantViolation(
            f"{config}: the stable cells of the F-fixed nodes sum to {fixed_cells}, "
            f"but the fixed counts sum to {c.rational_total}"
        )
    # The same identity node by node: over a class whose component group
    # holds an F-fixed b, b fixes all |A| pairs, and over any other class
    # none, so those classes number m_b (README).
    for b in fixed_nodes:
        if strata[b] != cells[pairs[b, 0]]:
            raise InvariantViolation(
                f"{config}: {strata[b]} classes have node {b} in their component "
                f"group, but N(<{b}>) = {cells[pairs[b, 0]]}"
            )
    pair_cells = sum(cells[h] for h in pairs.values())
    if pair_cells != c.pprime_char_total:
        raise InvariantViolation(
            f"{config}: the stable cells of the F-fixed node pairs sum to "
            f"{pair_cells}, but the squared fixed counts sum to {c.pprime_char_total}"
        )
    return tuple(records)


class CensusCounts(NamedTuple):
    """Aggregated class counts for one configuration: the ``counts``
    block of the JSON report, field for field."""

    geometric_total: int
    n_disconnected: int
    rational_total: int
    pprime_char_total: int
    by_component_order: dict[str, int]


def counts(
    config: GroupConfig, records: Optional[Sequence[ClassRecord]] = None
) -> CensusCounts:
    """Counting identities over the census records.

    The rational total sums the Frobenius-fixed component-group sizes
    (one rational class per cohomology class, which for abelian groups
    is one per fixed element); the character total sums their squares,
    counting the semisimple characters of the group dual to the
    configured one.
    """
    if records is None:
        records = enumerate_classes(config)
    by_order = Counter(len(r.comp_group) for r in records)
    return CensusCounts(
        geometric_total=len(records),
        n_disconnected=len(records) - by_order[1],
        rational_total=sum(r.fixed_count for r in records),
        pprime_char_total=sum(r.fixed_count**2 for r in records),
        by_component_order={str(k): v for k, v in sorted(by_order.items())},
    )


class DOddComparison(NamedTuple):
    """Rational-class total of an odd-rank adjoint D census against the
    closed form ``q^(2n+1) + q^(2n-1) + 2 q^n``, with the strata that
    feed it reported alongside."""

    rational_total: int
    closed_form: int
    agree: bool
    q_mod_4: int


def has_d_odd_comparison(config: GroupConfig) -> bool:
    """Whether the census of ``config`` carries the ``d_odd_comparison``
    block: an adjoint D type of odd rank, split or twisted."""
    return config.datum.label.family == "D" and config.rank % 2 == 1 and config.is_adjoint


def d_odd_comparison(config: GroupConfig, census_counts: CensusCounts) -> DOddComparison:
    """Compare the counts of this configuration's census with the split closed
    form, which it reports on a twisted census too."""
    if not has_d_odd_comparison(config):
        raise ValueError("requires an odd-rank adjoint D type")
    q, n = config.q, (config.rank - 1) // 2
    closed = q ** (2 * n + 1) + q ** (2 * n - 1) + 2 * q**n
    return DOddComparison(
        rational_total=census_counts.rational_total,
        closed_form=closed,
        agree=census_counts.rational_total == closed,
        q_mod_4=q % 4,
    )
