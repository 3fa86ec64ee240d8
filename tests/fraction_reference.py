"""Rational references for the integer census core.

The census keeps every point as integer affine numerators over its own
least denominator, and reads fixed spaces off node-permutation orbits.
These are the earlier rational versions of the Frobenius map, the fold
into the alcove, the orbit test, the stability test and the fixed space
of a subgroup of alcove stabilizers (Gauss-Jordan elimination on the
stacked maps ``z_a + coweight(a)``), on exact coweight coordinates,
kept so that the tests can check the integer versions against them; plus the conversions
between the two descriptions of a point and a rational square solver;
plus the earlier all-pairs cell fixed-point table, which solves every
(cell, node) pair instead of one per orbit of the node subgroup; plus
the earlier census serializer, which built one ``Fraction`` per printed
coordinate into a payload dict for ``json.dumps``, and its TSV; plus
``AffineMap``, the exact affine maps with a translation that only this
reference builds; plus the cocharacter lattice as its Hermite normal
form basis and membership in it, the independent orbit relation that
the census's exact-image relation is checked against; plus the earlier
closure of all the roots under every simple reflection, with each
pairing an n-term sum, and the earlier vertex permutation of an alcove
stabilizer, mapped through its matrix; plus the earlier classifier of
extended-diagram subdiagrams, which walks each component's tree (bond
weights, branch node, arm lengths) where the package reads its rank and
determinant; plus the enumeration of the cells that a node subgroup
fixes, which the package counts in closed form.  The integer helpers
that only these references use live here too: the Hermite normal form of a
generating set, ``mat_vec``, ``vec_add`` and ``mat_transpose``, and
``coweight_lift``, the translation part ``w_a^vee`` of the alcove
stabilizer f_a, which the package reads off the alcove vertices instead,
and ``z_matrix``, its linear part ``z_a = w_a w_0``, which the package
keeps only as the node permutation it induces.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import NamedTuple

from brauercensus.affine import (
    FOLD_ITERATION_CAP,
    affine_point,
    fundamental_group,
)
from brauercensus.brauer import enumerate_subalcoves, fixed_point
from brauercensus.errors import InvariantViolation
from brauercensus.linalg import bareiss, mat_identity, mat_mul, unit_vec, vec_dot
from brauercensus.rootdata import TypeLabel, longest_element


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def mat_transpose(m):
    return tuple(zip(*m))


def hermite_normal_form(generators):
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
    basis = []
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


def coweight_lift(datum, node):
    """The fundamental coweight of a node (zero vector for node 0)."""
    if node == 0:
        return (0,) * datum.rank
    return unit_vec(datum.rank, node - 1)


class AffineMap(NamedTuple):
    """An exact affine transformation ``x -> linear @ x + translation``:
    the rational maps of this reference, f_a = z_a + w_a^vee, the
    Frobenius and the affine wall reflection."""

    linear: tuple
    translation: tuple

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(mat_identity(n), (0,) * n)

    def apply(self, v):
        return vec_add(mat_vec(self.linear, v), self.translation)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: ``x -> self(other(x))``."""
        return AffineMap(
            mat_mul(self.linear, other.linear),
            vec_add(mat_vec(self.linear, other.translation), self.translation),
        )


def in_alcove(pt):
    """Whether an ``AffinePoint`` lies in the closed fundamental alcove."""
    return all(x >= 0 for x in pt.affine)


def solve_linear(matrix, rhs):
    """Solve a rational square system with a unique solution exactly: the
    equations are scaled to integers and solved by ``bareiss``."""
    rows = []
    for row, b in zip(matrix, rhs):
        den = lcm(*(Fraction(x).denominator for x in (*row, b)))
        rows.append([int(x * den) for x in (*row, b)])
    nums, pivot = bareiss(rows)
    return tuple(Fraction(x, pivot) for x in nums)


def rref(matrix):
    """Reduced row echelon form over the rationals: the reduced rows (zero
    rows dropped) and the pivot columns."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
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


def nullspace(matrix):
    """Basis of the kernel, as reduced-echelon rows over the rationals."""
    rows, pivots = rref(matrix)
    ncols = len(matrix[0]) if matrix else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    reduced, _ = rref(basis) if basis else ([], [])
    return tuple(tuple(row) for row in reduced)


def solve_affine(matrix, rhs):
    """All solutions of ``matrix @ x = rhs`` as (particular, kernel basis),
    or None when the system is inconsistent."""
    n = len(matrix[0]) if matrix else 0
    rows, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if n in pivots:
        return None
    particular = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        particular[p] = rows[r][n]
    return tuple(particular), nullspace(matrix)


def fixed_space(maps):
    """The common fixed points of ``AffineMap``s, from their stacked
    equations ``(A - I) x = -t``, as (point, basis), or None."""
    rows, rhs = [], []
    for f in maps:
        for i, row in enumerate(f.linear):
            rows.append(tuple(x - (i == j) for j, x in enumerate(row)))
            rhs.append(-f.translation[i])
    return solve_affine(rows, rhs)


def z_matrix(datum, node):
    """The linear part ``z_a = w_a w_0`` of the alcove stabilizer of a
    minuscule node a, from the longest elements of the whole diagram and
    of the diagram without a (the identity for node 0)."""
    if node == 0:
        return mat_identity(datum.rank)
    nodes = set(datum.nodes)
    return mat_mul(longest_element(datum, nodes - {node}), longest_element(datum, nodes))


def f_map(datum, node):
    """The alcove-stabilizing affine map ``z_node + coweight(node)``."""
    return AffineMap(z_matrix(datum, node), coweight_lift(datum, node))


def hyperplane_containment(datum, subgroup, q):
    """The first positive root b, in root order, constant on the fixed
    space of the node subgroup with value k/q there, as ``(b, k)``, or
    None."""
    point, basis = fixed_space(f_map(datum, h) for h in sorted(subgroup))
    for beta in datum.positive_roots:
        if any(vec_dot(beta, d) != 0 for d in basis):
            continue
        scaled = Fraction(vec_dot(beta, point)) * q
        if scaled.denominator == 1:
            return beta, int(scaled)
    return None


def coweight_permutation_matrix(datum, sym):
    """Matrix sending the coweight of node a to the coweight of sym[a]."""
    n = datum.rank
    return tuple(
        tuple(1 if sym[j + 1] == k + 1 else 0 for j in range(n)) for k in range(n)
    )


def frobenius_map(config):
    """F = q * (coweight permutation of rho inverse), as a linear map."""
    rho_inverse = tuple(map(config.rho.index, range(len(config.rho))))
    mat = coweight_permutation_matrix(config.datum, rho_inverse)
    return AffineMap(
        tuple(tuple(config.q * x for x in row) for row in mat), (0,) * config.rank
    )


def fold(datum, coords):
    """Move a point into the closed alcove by wall reflections, on rational
    coweight coordinates: simple walls first, then the affine wall."""
    n = datum.rank
    cur = list(coords)
    hr = datum.highest_root
    hrv = datum.coroot_coweight(datum.highest_root)
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


def lattice_contains(basis, vec):
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


@lru_cache(maxsize=None)
def cocharacter_lattice(config):
    """The lattice spanned by the coroots and the subgroup's coweights,
    between the coroot and coweight lattices, as its Hermite normal form
    basis; its index in the coweights is the product of the pivots."""
    gens = list(config.datum.coroot_coords)
    group = fundamental_group(config.datum)
    for a in sorted(config.a_g):
        gens.append(coweight_lift(config.datum, a))
    basis = hermite_normal_form(gens)
    index = prod(row[i] for i, row in enumerate(basis))
    expected = group.order // len(config.a_g)
    if index != expected:
        raise InvariantViolation(
            f"{config}: cocharacter lattice has index {index}, expected {expected}"
        )
    return basis


def orbit_equal(config, lam, mu):
    """The first subgroup element carrying alcove point ``lam`` onto ``mu``
    modulo the cocharacter lattice, or None (``AffinePoint`` inputs)."""
    if not in_alcove(lam) or not in_alcove(mu):
        raise ValueError("orbit comparison requires points of the closed alcove")
    group = fundamental_group(config.datum)
    basis = cocharacter_lattice(config)
    for z in sorted(config.a_g):
        image = group.act[z](lam.affine)
        diff = tuple(
            a - b for a, b in zip(coords_from_affine(config.datum, image), mu.coords)
        )
        integral = all(Fraction(x).denominator == 1 for x in diff)
        if integral and lattice_contains(basis, diff):
            return z
    return None


def f_stable(config, lam):
    """Stability witness of an ``AffinePoint``: fold its Frobenius
    translate back into the alcove and compare up to the subgroup."""
    fimage = frobenius_map(config).apply(lam.coords)
    folded = affine_point(config.datum, fold(config.datum, fimage))
    return orbit_equal(config, lam, folded)


def coords_from_affine(datum, affine):
    """Coweight coordinates of rational affine coordinates."""
    return tuple(Fraction(affine[i], datum.marks[i]) for i in datum.nodes)


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


def pair_images(datum, nodes, points):
    """The subgroup images of ``points``, sorted: applied to the
    ``cell_fixed_points`` representatives, the fixed points of every
    (cell, node) pair."""
    group = fundamental_group(datum)
    return tuple(sorted({group.act[b](aff) for aff in points for b in nodes}))


def stable_cells(config, subgroup, cells):
    """The cells, the whole walk of ``config`` from
    ``enumerate_subalcoves``, that every f_h, h in the node subgroup,
    maps to themselves: ``brauer.stable_cell_count`` of them."""
    act = fundamental_group(config.datum).act
    return tuple(sub for sub in cells if all(act[h](sub.key) == sub.key for h in subgroup))


def all_pairs_fixed_points(config):
    """The distinct fixed points of every sub-alcove over every node of
    the isogeny subgroup, each as integer affine numerators over its own
    least denominator, sorted."""
    return tuple(
        sorted(
            {
                fixed_point(config, sub, a).affine
                for sub in enumerate_subalcoves(config)
                for a in sorted(config.a_g)
            }
        )
    )


def record_payload(datum, record):
    """A record with its integer key written as exact rationals: affine
    coordinate i is ``key[i] / sum(key)``, coweight coordinate i that
    over its node's mark."""
    key, marks = record.key, datum.marks
    level = sum(key)
    return {
        "rep_affine": [str(Fraction(x, level)) for x in key],
        "rep_coords": [str(Fraction(key[i], marks[i] * level)) for i in datum.nodes],
        "i_lambda": list(record.i_lambda),
        "centralizer": {
            "components": [str(t) for t in record.centralizer_components],
            "torus_rank": record.torus_rank,
            "name": record.centralizer_name(),
        },
        "component_group": {
            "nodes": list(record.comp_group),
            "order": len(record.comp_group),
            "frobenius_action": [list(pair) for pair in record.f_action],
        },
        "fixed_count": record.fixed_count,
        "h1_count": record.fixed_count,
    }


def report_payload(datum, report):
    """The census report with every record as its payload dict."""
    return {**report, "classes": [record_payload(datum, r) for r in report["classes"]]}


def payload_tsv(payload):
    """The TSV of a census payload, one line per class."""
    cols = (
        "rep_affine",
        "i_lambda",
        "centralizer",
        "component_group_order",
        "fixed_count",
        "h1_count",
    )
    lines = ["\t".join(cols)]
    for rec in payload["classes"]:
        lines.append(
            "\t".join(
                (
                    ",".join(rec["rep_affine"]),
                    ",".join(str(i) for i in rec["i_lambda"]),
                    rec["centralizer"]["name"],
                    str(rec["component_group"]["order"]),
                    str(rec["fixed_count"]),
                    str(rec["h1_count"]),
                )
            )
        )
    return "\n".join(lines) + "\n"


class RootSystem(NamedTuple):
    """The root data that ``RootDatum`` derives from its Cartan matrix."""

    roots: tuple
    positive_roots: tuple
    coroot_coweight: dict
    highest_root: tuple
    marks: dict


def root_system(cartan):
    """Every root and its coroot, as the closure of the simple roots under
    all simple reflections, negative roots included; each pairing is an
    n-term sum over the Cartan matrix.  The positive roots are the ones
    with no negative coefficient, sorted by (height, coefficients), and
    the highest root is the one that dominates them all, coefficient by
    coefficient."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    coroot_of = {simple[i]: simple[i] for i in range(n)}
    frontier = list(simple)
    while frontier:
        root = frontier.pop()
        dual = coroot_of[root]
        for i in range(n):
            pr = sum(root[j] * cartan[j][i] for j in range(n))
            new_root = tuple(root[j] - pr if j == i else root[j] for j in range(n))
            if new_root not in coroot_of:
                pc = sum(cartan[i][j] * dual[j] for j in range(n))
                coroot_of[new_root] = tuple(
                    dual[j] - pc if j == i else dual[j] for j in range(n)
                )
                frontier.append(new_root)
    positive = sorted(
        (r for r in coroot_of if all(c >= 0 for c in r)), key=lambda r: (sum(r), r)
    )
    assert 2 * len(positive) == len(coroot_of)
    roots = tuple(positive) + tuple(tuple(-c for c in r) for r in positive)
    coweight = {
        r: tuple(sum(cartan[i][j] * d[j] for j in range(n)) for i in range(n))
        for r, d in coroot_of.items()
    }
    (top,) = [t for t in positive if all(c <= x for r in positive for c, x in zip(r, t))]
    return RootSystem(
        roots, tuple(positive), coweight, top, {0: 1, **dict(enumerate(top, start=1))}
    )


def vertex_permutation(datum, linear, lift):
    """The images of the alcove vertices, scaled by L = lcm(marks), under
    ``x -> linear x + L lift``: each vertex through ``mat_vec`` and
    ``vec_add``, as the extended node it lands on."""
    n = datum.rank
    scale = lcm(*datum.marks.values())
    vertices = [(0,) * n] + [
        tuple(scale // datum.marks[i] if j == i - 1 else 0 for j in range(n))
        for i in datum.nodes
    ]
    shift = tuple(scale * x for x in lift)
    return tuple(vertices.index(vec_add(mat_vec(linear, v), shift)) for v in vertices)


def classify_component(datum, comp):
    """Classify one connected induced subdiagram by walking its tree: its
    bond weights, its branch node and the lengths of its arms.

    Matching is up to node relabelling; when a Cartan matrix fits several
    catalogue entries (B2/C2, A3/D3) the ambient family decides, falling
    back to the alphabetically first name.
    """
    m = len(comp)
    ambient = datum.label.family
    where = f"{datum.label}: the subdiagram on nodes {comp}"
    if m == 1:
        return TypeLabel("A", 1)
    cartan = datum.extended_cartan
    pair = {}
    adj = {c: [] for c in comp}
    for x in comp:
        for y in comp:
            if x < y:
                axy = cartan[x][y]
                ayx = cartan[y][x]
                if axy:
                    pair[(x, y)] = (axy, ayx)
                    adj[x].append(y)
                    adj[y].append(x)
    weights = {e: a * b for e, (a, b) in pair.items()}
    # A finite-type diagram is a tree with bonds of weight at most 3; the
    # affine diagrams fail here with a bond of weight 4 (A1) or a cycle.
    if max(weights.values()) > 3 or len(weights) != m - 1:
        raise InvariantViolation(f"{where} is not of finite type")
    if any(w == 3 for w in weights.values()):
        if m == 2:
            return TypeLabel("G", 2)
        raise InvariantViolation(f"{where} has a triple bond in rank > 2")
    degrees = {x: len(adj[x]) for x in comp}
    doubles = [e for e, w in weights.items() if w == 2]
    if not doubles:
        branch = [x for x in comp if degrees[x] >= 3]
        if not branch:
            if m == 3 and ambient == "D":
                return TypeLabel("D", 3)
            return TypeLabel("A", m)
        if len(branch) > 1 or degrees[branch[0]] > 3:
            raise InvariantViolation(f"{where} is not of finite type")
        arms = sorted(_arm_lengths(adj, branch[0], where))
        if arms[0] == 1 and arms[1] == 1:
            return TypeLabel("D", m)
        if arms == [1, 2, 2]:
            return TypeLabel("E", 6)
        if arms == [1, 2, 3]:
            return TypeLabel("E", 7)
        if arms == [1, 2, 4]:
            return TypeLabel("E", 8)
        raise InvariantViolation(f"{where} is not of finite type")
    if len(doubles) > 1 or any(degrees[x] >= 3 for x in comp):
        raise InvariantViolation(f"{where} is not of finite type")
    if m == 2:
        return TypeLabel(ambient if ambient in "BC" else "B", 2)
    (x, y) = doubles[0]
    end = x if degrees[x] == 1 else y if degrees[y] == 1 else None
    if end is None:
        if m == 4:
            return TypeLabel("F", 4)
        raise InvariantViolation(f"{where} has an interior double bond in rank != 4")
    other = y if end == x else x
    axy = cartan[other][end]
    return TypeLabel("B" if axy == -2 else "C", m)


def _arm_lengths(adj, branch, where):
    lengths = []
    for start in adj[branch]:
        length = 1
        prev, cur = branch, start
        while True:
            nxt = [z for z in adj[cur] if z != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise InvariantViolation(f"{where} is not of finite type")
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths

