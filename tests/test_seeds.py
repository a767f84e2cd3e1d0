import json

import pytest

from canoninv import linalg, seeds as seeds_module
from canoninv.groups import ReflectionGroup, antiinvariant, build_root_system, group_action
from canoninv.polys import Polynomial, coefficient_rows
from canoninv.scalars import QQ
from canoninv.seeds import (
    SeedSystem,
    _reynolds_candidates,
    _reynolds_seeds,
    jacobian_certificate,
    seed_invariants,
    validate_user_seeds,
)

from conftest import get_group


def _poly_det(rows):
    """Determinant of a square matrix of polynomials by memoized minor expansion."""
    n = len(rows)
    field = rows[0][0].field
    nv = rows[0][0].num_vars
    memo = {}

    def minor(i, colmask):
        if i == n:
            return Polynomial.constant(1, nv, field)
        got = memo.get((i, colmask))
        if got is not None:
            return got
        total = Polynomial.zero(nv, field)
        sign = 1
        for j in range(n):
            bit = 1 << j
            if colmask & bit:
                continue
            entry = rows[i][j]
            if not entry.is_zero():
                contrib = entry * minor(i + 1, colmask | bit)
                total = total + (contrib if sign > 0 else -contrib)
            sign = -sign
        memo[(i, colmask)] = total
        return total

    return minor(0, 0)


def symbolic_jacobian(system, group):
    """Reference for the point certificate: the Jacobian determinant as a polynomial.

    For groups realized in a larger ambient space the matrix is squared off
    with the constant gradients of the fixed directions.
    """
    rs = group.root_system
    nv, field = rs.num_vars, rs.field
    rows = [[p.partial(j) for j in range(nv)] for p in system.polynomials]
    rows += [[Polynomial.constant(c, nv, field) for c in u] for u in rs.complement_basis]
    return _poly_det(rows)


def seeds_by(group, path):
    """``auto`` is the group's own seed system; ``reynolds`` is the greedy pass called directly."""
    return _reynolds_seeds(group) if path == "reynolds" else seed_invariants(group)


def is_nonzero_multiple(f, g):
    """Whether f = c*g for a nonzero scalar c."""
    if f.is_zero() or g.is_zero():
        return False
    exp, lead = g.sorted_terms()[0]
    return f.scale(lead) == g.scale(f.coefficient(exp))


def test_b2_power_sum_seeds():
    group = get_group("B", 2)
    seeds = seed_invariants(group)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    assert seeds.polynomials == [x**2 + y**2, x**4 + y**4]
    assert jacobian_certificate(seeds, group) is True
    witness = symbolic_jacobian(seeds, group)
    # witness is 8*x*y^3 - 8*x^3*y up to global sign, a multiple of the antiinvariant
    assert witness in (8 * (x * y**3 - x**3 * y), 8 * (x**3 * y - x * y**3))
    assert is_nonzero_multiple(witness, antiinvariant(group.root_system))


def test_b1_seed_witness():
    group = get_group("B", 1)
    seeds = seed_invariants(group)
    x = Polynomial.variable(0, 1, QQ)
    assert seeds.polynomials == [x**2]
    assert jacobian_certificate(seeds, group) is True
    assert symbolic_jacobian(seeds, group) == 2 * x


def test_dependent_system_detected():
    group = get_group("B", 2)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    q = x**2 + y**2
    a3 = get_group("A", 3)
    # A3 with p4 replaced by p2^2: invariant, of the table degrees, and dependent
    p2, p3, _p4 = seed_invariants(a3).polynomials
    for bogus, grp in [
        (SeedSystem([q, q * q], [2, 4], "user-supplied"), group),
        (SeedSystem([p2, p3, p2 * p2], [2, 3, 4], "user-supplied"), a3),
    ]:
        assert jacobian_certificate(bogus, grp) is False
        assert symbolic_jacobian(bogus, grp).is_zero()
        with pytest.raises(ValueError, match="dependent"):
            validate_user_seeds(bogus.polynomials, grp)


def test_d4_seed_degrees_and_monomial():
    group = get_group("D", 4)
    seeds = seed_invariants(group)
    assert seeds.degrees == [2, 4, 4, 6]
    mono = Polynomial(4, QQ, {(1, 1, 1, 1): 1})
    assert any(p == mono for p in seeds.polynomials)


def test_h3_reynolds_seed_degrees():
    group = get_group("H3")
    seeds = seed_invariants(group)
    assert seeds.degrees == [2, 6, 10]
    assert seeds.provenance == "reynolds"


@pytest.mark.parametrize("type_label,rank,m,strategy", [
    ("A", 2, None, "auto"), ("A", 3, None, "auto"),
    ("B", 3, None, "auto"), ("B", 3, None, "reynolds"),
    ("D", 4, None, "auto"), ("D", 4, None, "reynolds"),
    ("I2", 2, 4, "auto"), ("I2", 2, 5, "auto"), ("I2", 2, 6, "auto"),
    ("H3", 3, None, "auto"),
])
def test_seeds_are_invariant_with_table_degrees(type_label, rank, m, strategy):
    group = get_group(type_label, rank, m)
    seeds = seeds_by(group, strategy)
    assert seeds.degrees == list(group.root_system.degrees)
    for p in seeds.polynomials:
        for g in group.generators:
            assert group_action(g, p) == p


@pytest.mark.parametrize("type_label,rank,m", [
    ("A", 2, None), ("A", 3, None), ("B", 1, None), ("B", 2, None),
    ("B", 3, None), ("D", 4, None), ("I2", 2, 5), ("H3", 3, None),
])
def test_witness_is_constant_multiple_of_antiinvariant(type_label, rank, m):
    group = get_group(type_label, rank, m)
    seeds = seed_invariants(group)
    assert jacobian_certificate(seeds, group) is True
    witness = symbolic_jacobian(seeds, group)
    assert is_nonzero_multiple(witness, antiinvariant(group.root_system))


def test_user_seed_validation():
    group = get_group("B", 2)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    good = validate_user_seeds([x**2 + y**2, x**4 + y**4], group)
    assert good.provenance == "user-supplied"
    with pytest.raises(ValueError, match="degrees"):
        validate_user_seeds([x**2 + y**2, (x**2 + y**2) ** 3], group)
    with pytest.raises(ValueError, match="invariant"):
        validate_user_seeds([x**2 + y**2, x**4 + y**3 * x], group)
    q = x**2 + y**2
    with pytest.raises(ValueError, match="dependent"):
        validate_user_seeds([q, q * q], group)


def test_i2_planar_seed_formula():
    group = get_group("I2", 2, 4)
    seeds = seed_invariants(group)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    assert seeds.polynomials[0] == x**2 + y**2
    assert seeds.polynomials[1] == x**4 - 6 * x**2 * y**2 + y**4


def test_a_type_seeds_live_in_the_root_span_algebra():
    # Projected power sums must be killed by the sum of all partials.
    group = get_group("A", 3)
    seeds = seed_invariants(group)
    for p in seeds.polynomials:
        total = Polynomial.zero(p.num_vars, p.field)
        for j in range(p.num_vars):
            total = total + p.partial(j)
        assert total.is_zero()


def depth_first_reynolds_seeds(group):
    """Reference for the greedy Reynolds pass: a depth-first search with backtracking.

    A candidate must be nonzero, of the right degree and linearly independent
    inside its equal-degree block; each complete assignment must pass the
    Jacobian certificate.  Returns the first success and the number of
    certificate calls it took.
    """
    rs = group.root_system
    degrees = rs.degrees
    slots = len(degrees)
    generators = {d: _reynolds_candidates(group, d) for d in set(degrees)}
    computed = {d: [] for d in set(degrees)}
    calls = [0]

    def candidate(degree, index):
        pool = computed[degree]
        while len(pool) <= index:
            try:
                pool.append(next(generators[degree]))
            except StopIteration:
                return None
        return pool[index]

    def extend(chosen, i):
        if i == slots:
            system = SeedSystem(list(chosen), list(degrees), "reynolds")
            calls[0] += 1
            return system if jacobian_certificate(system, group) else None
        index = 0
        while True:
            cand = candidate(degrees[i], index)
            index += 1
            if cand is None:
                return None
            if cand.is_zero() or cand.homogeneous_degree() != degrees[i]:
                continue
            block = [p for p, d in zip(chosen, degrees) if d == degrees[i]] + [cand]
            if linalg.rank(coefficient_rows(block), rs.field) < len(block):
                continue
            found = extend(chosen + [cand], i + 1)
            if found is not None:
                return found

    return extend([], 0), calls[0]


@pytest.mark.parametrize("type_label,rank,m,strategy", [
    ("B", 3, None, "reynolds"), ("D", 4, None, "reynolds"), ("A", 3, None, "reynolds"),
    ("H3", 3, None, "auto"), ("I2", 2, 5, "auto"), ("I2", 2, 10, "auto"),
])
def test_greedy_reynolds_matches_depth_first_reference(type_label, rank, m, strategy):
    group = get_group(type_label, rank, m)
    greedy = seeds_by(group, strategy)
    reference, calls = depth_first_reynolds_seeds(group)
    assert greedy.provenance == reference.provenance == "reynolds"
    assert (json.dumps([p.to_json() for p in greedy.polynomials])
            == json.dumps([p.to_json() for p in reference.polynomials]))
    if type_label == "D":
        assert calls > 1  # the reference backtracks here; the greedy pass never does


@pytest.mark.parametrize("type_label,rank,m,strategy", [
    ("B", 3, None, "auto"), ("A", 3, None, "power-sums"), ("D", 4, None, "reynolds"),
    ("H3", 3, None, "auto"), ("I2", 2, 5, "reynolds"), ("I2", 2, 7, "auto"),
])
def test_every_strategy_is_certified_once(monkeypatch, type_label, rank, m, strategy):
    """Each group's seeds are certified once; ``reynolds`` hides the closed form first."""
    if strategy == "reynolds":
        monkeypatch.setattr(seeds_module, "_power_sum_seeds", lambda group: None)
    calls = []

    def counting(system, group):
        calls.append(system)
        return jacobian_certificate(system, group)

    monkeypatch.setattr(seeds_module, "jacobian_certificate", counting)
    system = seed_invariants(get_group(type_label, rank, m))
    assert calls == [system]
    reynolds = strategy == "reynolds" or type_label == "H3"
    assert system.provenance == ("reynolds" if reynolds else "power-sum")


@pytest.mark.parametrize("m", [7, 8, 9, 11, 12, 13, 17, 30, 60])
def test_float_planar_seeds_pass_the_certificate(m):
    group = ReflectionGroup(build_root_system("I2", 2, m=m))
    assert jacobian_certificate(seed_invariants(group), group) is True
