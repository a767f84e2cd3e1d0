import random
from fractions import Fraction

import pytest

from canoninv import linalg
from canoninv.groups import (
    ReflectionGroup,
    antiinvariant,
    build_root_system,
    classical_degrees,
    expected_order,
    expected_positive_count,
    group_action,
    reflection_matrix,
    reynolds,
    reynolds_linear_power,
)
from canoninv.polys import Polynomial, linear_form
from canoninv.scalars import FLOAT, QQ, QSQRT5

from conftest import get_group, random_polynomial

ALL_TYPES = [
    ("A", 1, None), ("A", 2, None), ("A", 3, None),
    ("B", 1, None), ("B", 2, None), ("B", 3, None), ("B", 4, None),
    ("D", 3, None), ("D", 4, None), ("D", 5, None),
    ("I2", 2, 3), ("I2", 2, 4), ("I2", 2, 5), ("I2", 2, 6), ("I2", 2, 10),
    ("H3", 3, None), ("F4", 4, None),
]


@pytest.mark.parametrize("type_label,rank,m", ALL_TYPES)
def test_positive_root_counts(type_label, rank, m):
    rs = get_group(type_label, rank, m).root_system
    assert len(rs.positive_roots) == expected_positive_count(type_label, rank, m)


def test_specific_counts():
    assert len(get_group("A", 2).root_system.positive_roots) == 3
    b2 = get_group("B", 2).root_system
    roots = {tuple(r) for r in b2.positive_roots}
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    diff = (Fraction(1), Fraction(-1))
    total = (Fraction(1), Fraction(1))
    normalized = set()
    for r in roots:
        normalized.add(r if next(c for c in r if c != 0) > 0 else tuple(-c for c in r))
    assert normalized == {e1, e2, diff, total}
    assert len(get_group("H3").root_system.positive_roots) == 15


@pytest.mark.parametrize("type_label,rank,m,order", [
    ("A", 2, None, 6), ("B", 3, None, 48), ("D", 4, None, 192),
    ("H3", 3, None, 120), ("F4", 4, None, 1152), ("I2", 2, 6, 12), ("I2", 2, 10, 20),
])
def test_group_orders(type_label, rank, m, order):
    assert len(get_group(type_label, rank, m).enumerate()) == order


def test_positive_roots_are_nonnegative_combinations():
    for type_label, rank, m in ALL_TYPES:
        rs = get_group(type_label, rank, m).root_system
        cols = [
            [rs.simple_roots[j][i] for j in range(len(rs.simple_roots))]
            for i in range(rs.num_vars)
        ]
        for root in rs.positive_roots:
            coords = linalg.solve(cols, list(root), rs.field)
            assert coords is not None
            assert all(c >= rs.field.zero for c in coords)


def test_roots_closed_under_simple_reflections():
    for type_label, rank, m in [("B", 3, None), ("H3", 3, None), ("I2", 2, 5)]:
        rs = get_group(type_label, rank, m).root_system
        full = {tuple(r) for r in rs.positive_roots} | {
            tuple(-c for c in r) for r in rs.positive_roots
        }
        for alpha in rs.simple_roots:
            s = reflection_matrix(alpha, rs.field)
            for r in full:
                assert tuple(linalg.mat_vec(s, r)) in full


def test_reflection_matrix_examples():
    m = reflection_matrix((Fraction(1), Fraction(0)), QQ)
    assert m == ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
    m = reflection_matrix((Fraction(1), Fraction(-1)), QQ)
    assert m == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_reflections_are_involutive_orthogonal():
    rs = get_group("B", 3).root_system
    ident = linalg.identity(3, QQ)
    for root in rs.positive_roots:
        s = reflection_matrix(root, QQ)
        assert linalg.mat_mul(s, s) == ident
        assert linalg.mat_mul(s, linalg.transpose(s)) == ident


def test_generators_are_reflections():
    for type_label, rank, m in [("A", 3, None), ("H3", 3, None), ("F4", 4, None)]:
        group = get_group(type_label, rank, m)
        ident = linalg.identity(group.num_vars, group.field)
        for g in group.generators:
            assert linalg.mat_mul(g, g) == ident


def test_enumeration_tracks_determinants():
    group = get_group("B", 2)
    for w, d in group.enumerate():
        # det of a 2x2
        det = w[0][0] * w[1][1] - w[0][1] * w[1][0]
        assert det == d


def test_antiinvariant_rank_one():
    rs = get_group("B", 1).root_system
    assert antiinvariant(rs) == Polynomial.variable(0, 1, QQ)


def test_antiinvariant_d_type_is_vandermonde_in_squares():
    rs = get_group("D", 4).root_system
    delta = antiinvariant(rs)
    x = [Polynomial.variable(i, 4, QQ) for i in range(4)]
    expected = Polynomial.constant(1, 4, QQ)
    for i in range(4):
        for j in range(i + 1, 4):
            expected = expected * (x[i] ** 2 - x[j] ** 2)
    lead = delta.sorted_terms()[0][1]
    lead_e = expected.sorted_terms()[0][1]
    assert delta.scale(lead_e) == expected.scale(lead)


def test_antiinvariant_b2():
    rs = get_group("B", 2).root_system
    delta = antiinvariant(rs)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    expected = x * y * (x - y) * (x + y)
    lead = delta.sorted_terms()[0][1]
    lead_e = expected.sorted_terms()[0][1]
    assert delta.scale(lead_e) == expected.scale(lead)


@pytest.mark.parametrize("type_label,rank,m", [
    ("A", 2, None), ("A", 3, None), ("B", 2, None), ("B", 4, None),
    ("D", 4, None), ("I2", 2, 5), ("I2", 2, 6), ("H3", 3, None), ("F4", 4, None),
])
def test_antiinvariance_of_delta(type_label, rank, m):
    group = get_group(type_label, rank, m)
    rs = group.root_system
    delta = antiinvariant(rs)
    assert delta.homogeneous_degree() == len(rs.positive_roots)
    rng = random.Random(71)
    elements = group.enumerate()
    sample = [elements[rng.randrange(len(elements))] for _ in range(10)]
    factors = [linear_form(r, rs.field) for r in sorted(rs.positive_roots)]
    for w, d in sample:
        if delta.homogeneous_degree() > 16:
            # acting on the factored form is equivalent (the action is an
            # algebra homomorphism, checked elsewhere) and much cheaper
            moved = Polynomial.constant(1, rs.num_vars, rs.field)
            for factor in factors:
                moved = moved * group_action(w, factor)
        else:
            moved = group_action(w, delta)
        assert moved == delta.scale(d)


def test_degree_of_delta_matches_degree_table():
    for type_label, rank, m in ALL_TYPES:
        degs = classical_degrees(type_label, rank, m)
        assert sum(d - 1 for d in degs) == expected_positive_count(type_label, rank, m)
        prod = 1
        for d in degs:
            prod *= d
        assert prod == expected_order(type_label, rank, m)


def test_reynolds_rank_one():
    group = get_group("B", 1)
    x = Polynomial.variable(0, 1, QQ)
    assert reynolds(x, group).is_zero()
    assert reynolds(x**2, group) == x**2


def test_reynolds_b2_average():
    group = get_group("B", 2)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    assert reynolds(x**4, group) == (x**4 + y**4).scale(Fraction(1, 2))


def test_reynolds_idempotent_and_invariant():
    rng = random.Random(13)
    for type_label, rank, m in [("B", 2, None), ("A", 2, None), ("I2", 2, 5)]:
        group = get_group(type_label, rank, m)
        nv, field = group.num_vars, group.field
        for _ in range(10):
            f = random_polynomial(rng, nv, field, rng.randint(1, 4), homogeneous=False)
            avg = reynolds(f, group)
            assert reynolds(avg, group) == avg
            for g in group.generators:
                assert group_action(g, avg) == avg


def test_reynolds_linear_power_matches_generic():
    group = get_group("B", 3)
    coeffs = (Fraction(1), Fraction(0), Fraction(0))
    fast = reynolds_linear_power(coeffs, 4, group)
    slow = reynolds(linear_form(coeffs, QQ) ** 4, group)
    assert fast == slow


def test_float_dihedral_model():
    rs = build_root_system("I2", 2, m=7)
    assert rs.field is FLOAT
    assert len(rs.positive_roots) == 7
    group = ReflectionGroup(rs)
    assert group.order == 14
    # products of float matrices never close, so the float model is not enumerated
    with pytest.raises(ValueError, match="I2\\(7\\)"):
        group.enumerate()


def test_field_selection_rules():
    # the model of the type alone fixes the field
    for type_label, rank, m, field in [
        ("A", 3, None, QQ), ("B", 2, None, QQ), ("D", 4, None, QQ), ("F4", 4, None, QQ),
        ("E", 6, None, QQ), ("H3", 3, None, QSQRT5), ("H4", 4, None, QSQRT5),
        ("I2", 2, 3, QQ), ("I2", 2, 4, QQ), ("I2", 2, 6, QQ),
        ("I2", 2, 5, QSQRT5), ("I2", 2, 10, QSQRT5),
        ("I2", 2, 7, FLOAT), ("I2", 2, 8, FLOAT), ("I2", 2, 12, FLOAT),
    ]:
        assert build_root_system(type_label, rank, m=m, allow_large=True).field is field


@pytest.mark.parametrize("type_label,rank,m", [
    ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 4, None), ("A", 5, None),
    ("I2", 2, 3), ("I2", 2, 5), ("I2", 2, 6), ("I2", 2, 10), ("E", 6, None),
])
def test_complement_basis_is_orthogonal(type_label, rank, m):
    rs = build_root_system(type_label, rank, m=m, allow_large=True)
    comp = rs.complement_basis
    assert len(comp) == rs.num_vars - rs.rank
    for k, u in enumerate(comp):
        assert all(rs.field.is_zero(linalg.dot(u, a)) for a in rs.simple_roots)
        assert all(rs.field.is_zero(linalg.dot(u, v)) for v in comp[k + 1:])
    proj = rs.projection
    assert linalg.mat_mul(proj, proj) == proj


def test_e7_e8_rejected_cleanly():
    with pytest.raises(ValueError, match="out of scope"):
        build_root_system("E", 8)
    with pytest.raises(ValueError, match="out of scope"):
        build_root_system("E", 7)


def test_h4_e6_need_opt_in():
    with pytest.raises(ValueError, match="allow_large"):
        build_root_system("H4", 4)
    with pytest.raises(ValueError, match="allow_large"):
        build_root_system("E", 6)
    rs = build_root_system("H4", 4, allow_large=True)
    assert len(rs.positive_roots) == 60
    rs = build_root_system("E", 6, allow_large=True)
    assert len(rs.positive_roots) == 36
    assert rs.num_vars == 8 and rs.rank == 6


def test_unsupported_types_rejected():
    with pytest.raises(ValueError):
        build_root_system("Z", 3)
    with pytest.raises(ValueError):
        build_root_system("D", 2)
    with pytest.raises(ValueError):
        build_root_system("I2", 2, m=2)


def test_root_system_json():
    rs = get_group("B", 2).root_system
    data = rs.to_json()
    assert data["type"] == "B" and data["rank"] == 2 and data["field"] == "Q"
    assert len(data["positive_roots"]) == 4


def test_projection_fixes_root_span():
    for type_label, rank, m in [("A", 2, None), ("I2", 2, 5), ("I2", 2, 6)]:
        rs = get_group(type_label, rank, m).root_system
        proj = rs.projection
        for root in rs.positive_roots:
            assert linalg.mat_vec(proj, root) == tuple(root)
        for u in rs.complement_basis:
            image = linalg.mat_vec(proj, u)
            assert all(rs.field.is_zero(c) for c in image)
