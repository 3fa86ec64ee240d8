"""Irreducible root systems in Bourbaki numbering.

The ambient rational vector space V is always carried in the basis of
fundamental coweights, so that the pairing of a root ``b = sum c_i a_i``
(stored as its integer coefficient vector in the simple-root basis) with
a point ``x`` of V is the plain dot product ``sum c_i x_i``.  Simple
coroots then have the columns of the Cartan matrix as coordinate
vectors, and every object in the package is exact.

The positive roots are the closure of the simple roots under the simple
reflections that keep them positive, each reflection one O(n) update of
the root's pairings with the simple coroots and of its coroot's pairings
with the simple roots, which are the coroot's coweight coordinates; the
negative roots are their negations.

Subdiagrams of the extended diagram are typed by the rank and the
determinant of their Cartan submatrices (``subdiagram_type``).

Node conventions: simple roots are numbered 1..rank as in the Bourbaki
plates; node 0 denotes the extra node of the extended Dynkin diagram
(the negative of the highest root).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable

from .errors import InvariantViolation
from .linalg import Mat, Vec, mat_identity, rank_det, unit_vec, vec_dot

FAMILIES = "ABCDEFG"

_RANK_RANGES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# Number of roots of each irreducible type, used as a generation check.
_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


class TypeLabel(namedtuple("TypeLabel", "family rank")):
    """An irreducible Cartan type, e.g. ``TypeLabel("E", 6)``; labels
    sort by (family, rank)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in _RANK_RANGES:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = _RANK_RANGES[family]
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"invalid rank {rank} for family {family}")
        return super().__new__(cls, family, rank)

    @classmethod
    def parse(cls, text: str) -> "TypeLabel":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in FAMILIES or not text[1:].isdigit():
            raise ValueError(f"cannot parse type label {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _bonds(label: TypeLabel) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram as 1-based node pairs (single bonds)."""
    n = label.rank
    if label.family in "ABCFG":
        return [(i, i + 1) for i in range(1, n)]
    if label.family == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    # E types: chain 1-3-4-...-n with node 2 hanging off node 4.
    return [(1, 3)] + [(i, i + 1) for i in range(3, n)] + [(2, 4)]


def cartan_matrix(label: TypeLabel) -> Mat:
    """The Cartan matrix ``A[i][j] = <a_i, a_j^vee>`` in Bourbaki numbering."""
    n = label.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j in _bonds(label):
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    if label.family == "B":
        a[n - 2][n - 1] = -2  # <a_{n-1}, a_n^vee>, node n short
    elif label.family == "C":
        a[n - 1][n - 2] = -2  # <a_n, a_{n-1}^vee>, node n long
    elif label.family == "F":
        a[1][2] = -2  # <a_2, a_3^vee>
    elif label.family == "G":
        a[1][0] = -3  # <a_2, a_1^vee>, node 1 short
    return tuple(tuple(row) for row in a)


class RootDatum:
    """An irreducible root system with exact Weyl-group machinery.

    The positive roots are generated as the closure of the simple roots
    under the simple reflections that keep them positive, with O(n)
    pairing updates per reflection; the negative roots are their
    negations.  Each root keeps its coroot in coweight coordinates, the
    closure's pairing column, so that pairings of arbitrary roots and
    coroots stay integer dot products.
    """

    def __init__(self, label: TypeLabel):
        self.label = label
        self.rank = label.rank
        self.cartan: Mat = cartan_matrix(label)
        # coroot_coords[j] = coordinates of the simple coroot a_{j+1}^vee in
        # the coweight basis = column j of the Cartan matrix.
        self.coroot_coords: tuple[Vec, ...] = tuple(zip(*self.cartan))
        self._generate_roots()

    def __repr__(self) -> str:
        return f"RootDatum({self.label})"

    def _generate_roots(self):
        """Close the simple roots under the simple reflections that keep
        them positive.  Every positive root of height above 1 pairs
        positively with some simple coroot a_i^vee, and s_i sends it to a
        positive root of lower height (Bourbaki, ch. VI, 1.6), so this
        closure is all of the positive roots.  Each frontier entry carries
        its root with its pairing row ``<root, a_j^vee>`` and its pairing
        column ``<a_j, coroot>``, which is the coroot in coweight
        coordinates, so that s_i costs one O(n) update of each: row i of
        the Cartan matrix for the row, column i for the column.  s_i sends
        a positive root to a negative one only when it is a_i (where
        ``root[i] < <root, a_i^vee>``), and that image is skipped, so no
        admitted root has a negative coefficient; the negative roots and
        their coroots are the negations of the positive ones."""
        n = self.rank
        rows = self.cartan
        cols = self.coroot_coords
        coroots = {}
        frontier = []
        for i in range(n):
            simple = unit_vec(n, i)
            coroots[simple] = cols[i]
            frontier.append((simple, rows[i], cols[i]))
        while frontier:
            root, row, col = frontier.pop()
            for i, pr in enumerate(row):
                if not pr or root[i] < pr:
                    continue
                new_root = (*root[:i], root[i] - pr, *root[i + 1 :])
                if new_root in coroots:
                    continue
                pc = col[i]
                new_col = tuple([x - pc * y for x, y in zip(col, cols[i])])
                coroots[new_root] = new_col
                frontier.append(
                    (new_root, tuple([x - pr * y for x, y in zip(row, rows[i])]), new_col)
                )
        expected = _ROOT_COUNTS[self.label.family](n)
        if 2 * len(coroots) != expected:
            raise InvariantViolation(
                f"{self.label}: generated {2 * len(coroots)} roots, expected {expected}"
            )
        positive = sorted(coroots, key=lambda r: (sum(r), r))
        negative = tuple(tuple(-c for c in r) for r in positive)
        for r, neg in zip(positive, negative):
            coroots[neg] = tuple(-c for c in coroots[r])
        self.positive_roots: tuple[Vec, ...] = tuple(positive)
        self.roots: tuple[Vec, ...] = self.positive_roots + negative
        self._coroots = coroots

    # -- basic queries -------------------------------------------------

    def coroot_coweight(self, root: Vec) -> Vec:
        """Coordinates of the coroot of ``root`` in the coweight basis."""
        return self._coroots[root]

    # -- highest root, marks, extended diagram -------------------------

    @cached_property
    def highest_root(self) -> Vec:
        top = max(self.positive_roots, key=lambda r: (sum(r), r))
        for r in self.positive_roots:
            if any(c > t for c, t in zip(r, top)):
                raise InvariantViolation(f"{self.label}: no dominating root")
        return top

    @cached_property
    def marks(self) -> dict[int, int]:
        """Coefficients of the highest root per node, with node 0 -> 1."""
        m = {0: 1}
        for i, c in enumerate(self.highest_root, start=1):
            m[i] = c
        return m

    @property
    def nodes(self) -> range:
        """Simple-root nodes, 1-based."""
        return range(1, self.rank + 1)

    @property
    def extended_nodes(self) -> range:
        """Nodes of the extended diagram: 0 (= -highest root) and 1..rank."""
        return range(0, self.rank + 1)

    def node_root(self, node: int) -> Vec:
        if node == 0:
            return tuple(-c for c in self.highest_root)
        return tuple(1 if j == node - 1 else 0 for j in range(self.rank))

    @cached_property
    def extended_cartan(self) -> Mat:
        """The extended Cartan matrix: row a, column b is
        ``<root(a), coroot(b)>`` over the extended nodes, node 0 first."""
        roots = [self.node_root(a) for a in self.extended_nodes]
        coroots = [self.coroot_coweight(r) for r in roots]
        return tuple(tuple(vec_dot(r, c) for c in coroots) for r in roots)

    @cached_property
    def alcove_vertices(self) -> tuple[Vec, ...]:
        """Vertices of the fundamental alcove, indexed by extended node.
        The census works in integer affine numerators and never reads
        them, so ``fractions`` is imported here, off the import path."""
        from fractions import Fraction

        verts = [tuple(Fraction(0) for _ in range(self.rank))]
        for i in self.nodes:
            verts.append(
                tuple(
                    Fraction(1, self.marks[i]) if j == i - 1 else Fraction(0)
                    for j in range(self.rank)
                )
            )
        return tuple(verts)


@lru_cache(maxsize=None)
def _build(label: TypeLabel) -> RootDatum:
    return RootDatum(label)


def build_root_system(label: str) -> RootDatum:
    """Construct (and cache) the root system for a type label such as "E6"."""
    return _build(TypeLabel.parse(label))


def longest_element(datum: RootDatum, subset: Iterable[int]) -> Mat:
    """Longest element of the parabolic Weyl subgroup on the given nodes,
    as its integer matrix on coweight coordinates.

    Computed by the descent walk: push a vector that is strictly dominant
    for the subset down until it is antidominant, accumulating the applied
    reflections.  The resulting element sends every positive root of the
    sub-system to a negative one.
    """
    nodes = sorted(set(subset))
    for i in nodes:
        if i not in datum.nodes:
            raise ValueError(f"node {i} out of range for {datum.label}")
    n = datum.rank
    mat = [list(row) for row in mat_identity(n)]
    v = [1 if (j + 1) in nodes else 0 for j in range(n)]
    while True:
        i = next((i for i in nodes if v[i - 1] > 0), None)
        if i is None:
            break
        col = datum.coroot_coords[i - 1]
        c = v[i - 1]
        for k in range(n):
            v[k] -= c * col[k]
        row_i = mat[i - 1][:]
        for k in range(n):
            ck = col[k]
            if ck:
                mat[k] = [x - ck * y for x, y in zip(mat[k], row_i)]
    return tuple(tuple(r) for r in mat)


def _component_type(datum: RootDatum, comp: list[int]) -> TypeLabel:
    """The type of one connected induced subdiagram; see ``subdiagram_type``."""
    cartan = datum.extended_cartan
    m, ambient = len(comp), datum.label.family
    if m == 1:
        return TypeLabel("A", 1)
    pick = itemgetter(*comp)
    sub = [pick(cartan[x]) for x in comp]
    found, det = rank_det(sub)
    if found < m:
        raise InvariantViolation(
            f"{datum.label}: the subdiagram on nodes {comp} is not of finite type"
        )
    det, bond = abs(det), min(map(min, sub))
    if bond == -3:
        return TypeLabel("G", 2)
    if bond == -1:
        if det == m + 1:
            return TypeLabel("D" if m == 3 and ambient == "D" else "A", m)
        return TypeLabel("D" if det == 4 else "E", m)
    if det == 1:
        return TypeLabel("F", 4)
    if m == 2 and ambient in "BC":
        return TypeLabel(ambient, 2)
    # <a_x, a_y^vee> = -2 marks y as the short node; an end's row has two nonzeros
    short = next(j for row in sub for j, a in enumerate(row) if a == -2)
    return TypeLabel("B" if sum(map(bool, sub[short])) == 2 else "C", m)


def subdiagram_type(datum: RootDatum, nodes: Iterable[int]) -> tuple[TypeLabel, ...]:
    """Types of the connected components induced on extended-diagram nodes,
    sorted by (family, rank) so equal inputs give identical output.

    One elimination of a component's Cartan submatrix gives its rank m
    and determinant, which fix a connected Dynkin type up to B/C
    (Bourbaki, ch. VI, Plates I-IX): a triple bond is G2; a double bond
    is F4 at determinant 1, else B_m if its short node is an end and C_m
    if not; a simply laced component is A_m, D_m or E_m at determinant
    m+1, 4 or 9-m.  The ambient family decides A3/D3 and B2/C2.  Only the
    whole extended diagram lacks full rank: it is not of finite type.
    """
    node_list = sorted(set(nodes))
    for x in node_list:
        if x not in datum.extended_nodes:
            raise ValueError(f"node {x} is not an extended node of {datum.label}")
    cartan = datum.extended_cartan
    # A node leaves ``remaining`` when its component reaches it; each
    # popped node's neighbours are the nonzero entries of its Cartan row.
    remaining = set(node_list)
    comps = []
    for seed in node_list:
        if seed not in remaining:
            continue
        remaining.remove(seed)
        comp = [seed]
        frontier = [seed]
        while frontier:
            row = cartan[frontier.pop()]
            for y, a in enumerate(row):
                if a and y in remaining:
                    remaining.remove(y)
                    comp.append(y)
                    frontier.append(y)
        comps.append(sorted(comp))
    return tuple(sorted(_component_type(datum, c) for c in comps))
