from fractions import Fraction
from math import factorial

import pytest

from brauercensus.affine import minuscule_nodes, standard_symmetry
from brauercensus.brauer import (
    FrobeniusConfig,
    enumerate_subalcoves,
    fixed_point,
    frobenius_map,
    m_alpha,
    prime_power,
    theta,
)
from brauercensus.errors import ResourceCapExceeded
from brauercensus.linalg import vec_sub
from brauercensus.rootdata import build_root_system


def split(label, q):
    datum = build_root_system(label)
    return datum, FrobeniusConfig(q, standard_symmetry(datum, "split"))


def twisted(label, q):
    datum = build_root_system(label)
    return datum, FrobeniusConfig(q, standard_symmetry(datum, "twisted"))


def base_subalcove(subalcoves):
    """The translate whose map is the identity (the small alcove itself)."""
    return next(s for s in subalcoves if s.map.is_identity)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(6) is None
    assert prime_power(1) is None


def test_frobenius_config_rejects_bad_q():
    datum = build_root_system("A2")
    with pytest.raises(ValueError):
        FrobeniusConfig(6, standard_symmetry(datum, "split"))


def test_subalcoves_one_dimensional():
    datum, config = split("A1", 3)
    subs = enumerate_subalcoves(datum, config)
    intervals = sorted(tuple(sorted(v[0] for v in s.vertices)) for s in subs)
    assert intervals == [
        (Fraction(0), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1)),
    ]


@pytest.mark.parametrize("label,q", [("A2", 2), ("A2", 3), ("B2", 3), ("G2", 2), ("E6", 2)])
def test_subalcove_count(label, q):
    datum, config = split(label, q)
    assert len(enumerate_subalcoves(datum, config)) == q**datum.rank


def test_subalcove_cap():
    datum, config = split("E6", 3)
    with pytest.raises(ResourceCapExceeded):
        enumerate_subalcoves(datum, config, cap=100)


def _simplex_volume(vertices):
    rows = [vec_sub(v, vertices[0]) for v in vertices[1:]]
    n = len(rows)
    # exact determinant by fraction-free expansion on small matrices
    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j in range(len(m)):
            if m[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return abs(det([list(r) for r in rows])) / factorial(n)


@pytest.mark.parametrize("label,q", [("A2", 2), ("B2", 3), ("G2", 2)])
def test_subalcoves_tile_the_alcove(label, q):
    datum, config = split(label, q)
    subs = enumerate_subalcoves(datum, config)
    keys = {s.key for s in subs}
    assert len(keys) == len(subs)
    total = sum(_simplex_volume(s.vertices) for s in subs)
    assert total == _simplex_volume(tuple(datum.alcove_vertices))


def test_subalcove_maps_are_exact():
    datum, config = split("B2", 3)
    subs = enumerate_subalcoves(datum, config)
    base = base_subalcove(subs)
    for sub in subs:
        for u, v in zip(base.vertices, sub.vertices):
            assert sub.map.apply(u) == v
        det = (
            sub.map.linear[0][0] * sub.map.linear[1][1]
            - sub.map.linear[0][1] * sub.map.linear[1][0]
        )
        assert det in (1, -1)


def test_fixed_point_base_cases():
    datum, config = split("A1", 3)
    subs = enumerate_subalcoves(datum, config)
    base = base_subalcove(subs)
    assert fixed_point(datum, config, base, 0).coords == (0,)
    by_key = {s.key: s for s in subs}
    middle = by_key[(Fraction(1, 2),)]
    third = by_key[(Fraction(5, 6),)]
    assert fixed_point(datum, config, middle, 0).coords == (Fraction(1, 2),)
    assert fixed_point(datum, config, third, 0).coords == (Fraction(1),)


@pytest.mark.parametrize("label,q", [("A2", 3), ("B2", 4), ("C3", 2)])
def test_fixed_points_have_pprime_denominators_and_stay_inside(label, q):
    datum, config = split(label, q)
    p = config.p
    for sub in enumerate_subalcoves(datum, config):
        for a in minuscule_nodes(datum):
            pt = fixed_point(datum, config, sub, a)
            assert pt.in_alcove
            for x in pt.coords:
                assert Fraction(x).denominator % p != 0
            # the fixed point lies inside its own sub-alcove: its barycentric
            # coordinates with respect to the simplex are nonnegative
            rows = list(zip(*[tuple(v) + (1,) for v in sub.vertices]))
            from brauercensus.linalg import solve_linear

            bary = solve_linear(tuple(rows), tuple(pt.coords) + (1,))
            assert all(b >= 0 for b in bary)


def test_m_alpha_identity_node_is_everything():
    datum, config = split("A2", 2)
    assert len(m_alpha(datum, config, 0)) == 4


def test_m_alpha_nonzero_and_zero_branches():
    datum, config = split("B3", 5)
    assert len(m_alpha(datum, config, 1)) == 25
    datum, config = split("A2", 3)
    assert m_alpha(datum, config, 1) == ()


def test_theta_trivial_subgroup():
    datum, config = split("A2", 3)
    report = theta(datum, config, frozenset({0}))
    assert report.orbit_count == 9
    assert all(len(o) == 1 for o in report.orbits)


def test_theta_orbits_full_group():
    datum, config = split("A2", 7)
    report = theta(datum, config, frozenset({0, 1, 2}))
    assert report.hypotheses_hold
    assert report.orbit_count == 49
    assert report.strata == {0: 49, 1: 1, 2: 1}


def test_theta_twisted():
    datum, config = twisted("A2", 5)
    report = theta(datum, config, frozenset({0, 1, 2}))
    assert report.hypotheses_hold
    assert report.orbit_count == 25
    datum, config = twisted("E6", 2)
    report = theta(datum, config, frozenset({0, 1, 6}))
    assert report.orbit_count == 64
    assert report.strata[1] == 4


def test_theta_rejects_non_subgroup():
    datum, config = split("A4", 2)
    with pytest.raises(ValueError):
        theta(datum, config, frozenset({0, 2}))  # z_2 generates more


def test_frobenius_map_twisted_action():
    datum = build_root_system("E6")
    config = FrobeniusConfig(2, standard_symmetry(datum, "twisted"))
    f = frobenius_map(datum, config)
    # F sends the coweight of node 1 to q times the coweight of node 6
    image = f.apply((1, 0, 0, 0, 0, 0))
    assert image == (0, 0, 0, 0, 0, 2)
