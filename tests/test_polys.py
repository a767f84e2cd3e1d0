import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoninv.polys import (
    OneForm,
    Polynomial,
    apolar_inner,
    apply_diff,
    differential,
    linear_form,
    oneform_inner,
    substitute_linear,
)
from canoninv.scalars import QQ, QSQRT5, QuadExt, is_positive

from conftest import get_group, random_polynomial


def xy(field=QQ):
    return Polynomial.variable(0, 2, field), Polynomial.variable(1, 2, field)


def test_product_difference_of_squares():
    x, y = xy()
    assert (x + y) * (x - y) == x**2 - y**2


def test_scale():
    x, y = xy()
    assert (x**2 + y**2).scale(Fraction(1, 2)) == x**2 / 2 + y**2 / 2


def test_multiply_by_zero_gives_empty_term_map():
    x, y = xy()
    z = (x + y) * Polynomial.zero(2, QQ)
    assert z.is_zero() and len(z) == 0


def test_homogeneous_product_degrees():
    rng = random.Random(1)
    for _ in range(50):
        f = random_polynomial(rng, 3, QQ, rng.randint(1, 4))
        g = random_polynomial(rng, 3, QQ, rng.randint(1, 4))
        prod = f * g
        if not prod.is_zero():
            assert prod.homogeneous_degree() == f.homogeneous_degree() + g.homogeneous_degree()


def test_mismatched_contexts_raise():
    x, _ = xy()
    other = Polynomial.variable(0, 3, QQ)
    with pytest.raises(ValueError):
        x + other
    with pytest.raises(ValueError):
        x * Polynomial.variable(0, 2, QSQRT5)


def test_partials():
    x, y = xy()
    assert (x**2 * y).partial(0) == 2 * (x * y)
    assert (x**2).partial(1).is_zero()
    assert (x**3).partial(0) == 3 * x**2
    with pytest.raises(IndexError):
        x.partial(2)


def test_apply_diff_examples():
    x, y = xy()
    assert apply_diff(x**2, x**4) == 12 * x**2
    assert apply_diff(x * y, x**2 + y**2).is_zero()
    assert apply_diff(x, x) == Polynomial.constant(1, 2, QQ)


def test_apply_diff_degree_drop():
    x, y = xy()
    assert apply_diff(x**3, x**2).is_zero()  # operator degree exceeds target


def test_apolar_inner_examples():
    x, y = xy()
    assert apolar_inner(x**2, x**2) == 2
    assert apolar_inner(x * y, x * y) == 1
    assert apolar_inner(x**2, x * y) == 0


def test_apolar_inner_is_constant_term_of_apply_diff():
    rng = random.Random(2)
    for _ in range(100):
        f = random_polynomial(rng, 3, QQ, rng.randint(1, 4), homogeneous=False)
        g = random_polynomial(rng, 3, QQ, rng.randint(1, 4), homogeneous=False)
        assert apolar_inner(f, g) == apply_diff(f, g).constant_term()


def test_substitute_linear_examples():
    x, y = xy()
    rot = ((0, -1), (1, 0))
    assert substitute_linear(x**2 + y**2, rot) == x**2 + y**2
    assert substitute_linear(x, ((-1, 0), (0, 1))) == -x
    swap = ((0, 1), (1, 0))
    assert substitute_linear(x * y, swap) == x * y


def test_substitute_preserves_degree():
    rng = random.Random(3)
    m = ((1, 2, 0), (0, 1, 1), (3, 0, 1))
    for _ in range(20):
        f = random_polynomial(rng, 3, QQ, rng.randint(1, 5))
        g = substitute_linear(f, m)
        if not g.is_zero():
            assert g.homogeneous_degree() == f.homogeneous_degree()


def test_differential_examples():
    x, y = xy()
    d = differential(x**2 + y**2)
    assert d == OneForm([2 * x, 2 * y])
    assert differential(Polynomial.constant(5, 2, QQ)).is_zero()
    assert differential(x * y) == OneForm([y, x])


def test_differential_leibniz():
    rng = random.Random(4)
    for _ in range(50):
        f = random_polynomial(rng, 3, QQ, rng.randint(1, 3), homogeneous=False)
        g = random_polynomial(rng, 3, QQ, rng.randint(1, 3), homogeneous=False)
        left = differential(f * g)
        right = OneForm([f * c for c in differential(g).components]) + OneForm(
            [g * c for c in differential(f).components]
        )
        assert left == right


def test_oneform_inner_examples():
    x, y = xy()
    dx = OneForm([Polynomial.constant(1, 2, QQ), Polynomial.zero(2, QQ)])
    dy = OneForm([Polynomial.zero(2, QQ), Polynomial.constant(1, 2, QQ)])
    assert oneform_inner(dx, dx) == 1
    assert oneform_inner(dx, dy) == 0
    d = differential(x**2 + y**2)
    assert oneform_inner(d, d) == 8


def test_bilinearity():
    rng = random.Random(5)
    for _ in range(60):
        f = random_polynomial(rng, 2, QQ, 3, homogeneous=False)
        g = random_polynomial(rng, 2, QQ, 3, homogeneous=False)
        h = random_polynomial(rng, 2, QQ, 3, homogeneous=False)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert apply_diff(f + g.scale(c), h) == apply_diff(f, h) + apply_diff(g, h).scale(c)
        assert apply_diff(h, f + g.scale(c)) == apply_diff(h, f) + apply_diff(h, g).scale(c)
        assert apolar_inner(f + g.scale(c), h) == apolar_inner(f, h) + c * apolar_inner(g, h)


def test_apolar_symmetry_500_pairs():
    rng = random.Random(6)
    for _ in range(500):
        f = random_polynomial(rng, 3, QQ, rng.randint(0, 4), homogeneous=False)
        g = random_polynomial(rng, 3, QQ, rng.randint(0, 4), homogeneous=False)
        assert apolar_inner(f, g) == apolar_inner(g, f)


def test_apolar_positive_definite():
    rng = random.Random(7)
    for _ in range(200):
        f = random_polynomial(rng, 3, QQ, rng.randint(0, 5), homogeneous=False)
        if f.is_zero():
            continue
        assert is_positive(apolar_inner(f, f))


def test_differential_inner_degree_identity():
    # <df, dg> equals deg(f) * <f, g> for equal degrees and 0 otherwise.
    rng = random.Random(8)
    for _ in range(100):
        df_deg = rng.randint(1, 5)
        dg_deg = rng.randint(1, 5)
        f = random_polynomial(rng, 3, QQ, df_deg)
        g = random_polynomial(rng, 3, QQ, dg_deg)
        got = oneform_inner(differential(f), differential(g))
        if df_deg == dg_deg:
            assert got == df_deg * apolar_inner(f, g)
        else:
            assert got == 0


def test_action_is_a_homomorphism():
    rng = random.Random(9)
    a = ((1, 1, 0), (0, 1, 0), (2, 0, 1))
    b = ((0, 1, 0), (1, 0, 1), (1, 1, 1))
    ab = tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)) for i in range(3)
    )
    for _ in range(30):
        f = random_polynomial(rng, 3, QQ, rng.randint(1, 4), homogeneous=False)
        assert substitute_linear(substitute_linear(f, a), b) == substitute_linear(f, ab)


def test_pairing_invariant_under_orthogonal_action():
    rng = random.Random(10)
    group = get_group("B", 3)
    elements = group.enumerate()
    for _ in range(40):
        w, _ = elements[rng.randrange(len(elements))]
        f = random_polynomial(rng, 3, QQ, rng.randint(1, 4), homogeneous=False)
        g = random_polynomial(rng, 3, QQ, rng.randint(1, 4), homogeneous=False)
        assert apolar_inner(substitute_linear(f, w), substitute_linear(g, w)) == apolar_inner(f, g)


def test_action_multiplicative_over_products():
    rng = random.Random(11)
    group = get_group("B", 2)
    for w, _ in group.enumerate():
        f = random_polynomial(rng, 2, QQ, 2)
        g = random_polynomial(rng, 2, QQ, 3)
        assert substitute_linear(f * g, w) == substitute_linear(f, w) * substitute_linear(g, w)


def test_json_round_trip_and_term_order():
    x, y = xy()
    f = 3 * x**2 * y - y**3 / 2 + Polynomial.constant(7, 2, QQ)
    data = f.to_json()
    assert data["field"] == "Q"
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))
    assert Polynomial.from_json(data) == f
    assert json.dumps(data) == json.dumps(Polynomial.from_json(data).to_json())


def test_json_round_trip_sqrt5():
    p = Polynomial(2, QSQRT5, {(1, 0): QSQRT5.parse("1/2+1/2*sqrt5"), (0, 1): 1})
    assert Polynomial.from_json(p.to_json()) == p


def test_linear_form():
    f = linear_form((Fraction(2), Fraction(-1)), QQ)
    x, y = xy()
    assert f == 2 * x - y


def test_str_rendering():
    x, y = xy()
    assert str(x**2 - y**2) == "x1^2 - x2^2"
    assert str(Polynomial.zero(2, QQ)) == "0"
    assert (x * y).latex() == "x_{1}x_{2}"


# -- property tests of the apply_diff kernel against a naive reference -------

def reference_apply_diff(f, g):
    """The naive double loop: falling factorials over Fraction/QuadExt values."""
    out = {}
    for ea, ca in f._terms.items():
        for eb, cb in g._terms.items():
            if all(a <= b for a, b in zip(ea, eb)):
                coef = prod(factorial(b) // factorial(b - a) for a, b in zip(ea, eb))
                key = tuple(b - a for a, b in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb * coef
    return Polynomial(f.num_vars, f.field, out)


# Largest exponents at the edges of the packed field width, plus 17.
EXPONENT_TOPS = (1, 3, 4, 7, 8, 15, 16, 17)
# Pairwise coprime denominators, so the common denominator is their product.
DENOMINATORS = (1, 2, 3, 5, 7, 11, 16, 27)


def fractions():
    return st.builds(Fraction, st.integers(-50, 50), st.sampled_from(DENOMINATORS))


def scalars(field):
    if field is QSQRT5:
        return st.builds(QuadExt, fractions(), fractions() | st.just(0))
    return fractions()


@st.composite
def polynomials(draw, nv, field):
    kind = draw(st.sampled_from(("zero", "constant", "sparse", "sparse")))
    if kind == "zero":
        return Polynomial.zero(nv, field)
    if kind == "constant":
        return Polynomial.constant(draw(scalars(field)), nv, field)
    top = draw(st.sampled_from(EXPONENT_TOPS))
    exponent = st.integers(0, top) | st.sampled_from((0, 1, top))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * nv), scalars(field),
                                 min_size=1, max_size=6))
    return Polynomial(nv, field, terms)


@st.composite
def operands(draw, count):
    """``count`` polynomials over one field in one number of variables (1-7)."""
    field = draw(st.sampled_from((QQ, QSQRT5)))
    nv = draw(st.integers(1, 7))
    return [draw(polynomials(nv, field)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(operands(2))
def test_apply_diff_kernel_matches_reference(pair):
    f, g = pair
    got = apply_diff(f, g)
    assert got == reference_apply_diff(f, g)
    kind = QuadExt if f.field is QSQRT5 else Fraction
    assert all(type(c) is kind and c != 0 for c in got._terms.values())
    assert apolar_inner(f, g) == got.constant_term()
    assert apolar_inner(f, g) == apolar_inner(g, f)
    assert got.constant_term() == apply_diff(g, f).constant_term()


@settings(max_examples=150, deadline=None)
@given(operands(3))
def test_apply_diff_operators_compose(triple):
    f1, f2, g = triple
    assert apply_diff(f1 * f2, g) == apply_diff(f1, apply_diff(f2, g))


def test_apply_diff_operator_above_target_degree():
    for field in (QQ, QSQRT5):
        x, y = xy(field)
        assert apply_diff(x**5 * y + y**3, x**4 * y**2 + y**2).is_zero()
        assert apply_diff(x**17, x**16).is_zero()
        assert apply_diff(x**16, x**17) == Polynomial.constant(factorial(17), 2, field) * x
