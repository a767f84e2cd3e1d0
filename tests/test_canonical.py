import random
from fractions import Fraction

import pytest

from canoninv.canonical import (
    InvariantSystem,
    candidate_invariants,
    canonical_system,
    euler_contract,
    orthogonalize_graded,
    transfer,
    transfer_form,
    verify_canonical,
)
from canoninv.groups import antiinvariant, group_action, reynolds
from canoninv.oracle import spans_agree
from canoninv.polys import (
    OneForm,
    Polynomial,
    apolar_inner,
    apply_diff,
    differential,
    linear_form,
    oneform_inner,
)
from canoninv.scalars import QQ, is_positive, to_float
from canoninv.seeds import SeedSystem, seed_invariants, validate_user_seeds

from conftest import get_group, random_polynomial


def test_transfer_kills_invariants_b2():
    group = get_group("B", 2)
    delta = antiinvariant(group.root_system)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    assert transfer(x**2 + y**2, delta).is_zero()


def test_transfer_rank_one_identity():
    group = get_group("B", 1)
    delta = antiinvariant(group.root_system)
    x = Polynomial.variable(0, 1, QQ)
    assert transfer(x, delta) == x
    assert transfer(Polynomial.zero(1, QQ), delta).is_zero()


def test_transfer_form_b2_degree_one():
    group = get_group("B", 2)
    delta = antiinvariant(group.root_system)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    image = transfer_form(differential(x**2 + y**2), delta)
    # the degree-1 block is an eigenspace: the image is a nonzero multiple of (2x, 2y)
    assert not image.is_zero()
    ratio = None
    for got, orig in zip(image.components, differential(x**2 + y**2).components):
        r = got.sorted_terms()[0][1] / orig.sorted_terms()[0][1]
        assert got == orig.scale(r)
        if ratio is None:
            ratio = r
        assert r == ratio
    assert ratio != 0
    zero = OneForm.zero(2, QQ)
    assert transfer_form(zero, delta).is_zero()


def test_d4_monomial_differential_is_eigenvector():
    group = get_group("D", 4)
    delta = antiinvariant(group.root_system)
    mono = Polynomial(4, QQ, {(1, 1, 1, 1): 1})
    dm = differential(mono)
    image = transfer_form(dm, delta)
    lam = None
    for got, orig in zip(image.components, dm.components):
        r = got.sorted_terms()[0][1] / orig.sorted_terms()[0][1]
        assert got == orig.scale(r)
        lam = r if lam is None else lam
        assert r == lam
    assert lam != 0


def test_euler_contract_examples():
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    assert euler_contract(OneForm([y, x])) == 2 * x * y
    assert euler_contract(differential(x**2 + y**2)) == 2 * (x**2 + y**2)
    assert euler_contract(OneForm.zero(2, QQ)).is_zero()


def test_euler_contract_scales_by_degree():
    rng = random.Random(21)
    for _ in range(30):
        d = rng.randint(1, 6)
        f = random_polynomial(rng, 3, QQ, d)
        assert euler_contract(differential(f)) == f.scale(d)


def test_candidates_rank_one():
    group = get_group("B", 1)
    delta = antiinvariant(group.root_system)
    seeds = seed_invariants(group)
    cands = candidate_invariants(seeds, delta)
    x = Polynomial.variable(0, 1, QQ)
    assert cands == [2 * x**2]


def test_candidates_b2():
    group = get_group("B", 2)
    delta = antiinvariant(group.root_system)
    seeds = seed_invariants(group)
    g1, g2 = candidate_invariants(seeds, delta)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    q = x**2 + y**2
    r = g1.sorted_terms()[0][1] / q.sorted_terms()[0][1]
    assert g1 == q.scale(r) and r != 0
    # after orthogonalization the degree-4 output is proportional to the
    # harmonic invariant x^4 - 6x^2y^2 + y^4
    out = orthogonalize_graded([g1, g2])
    harmonic = x**4 - 6 * x**2 * y**2 + y**4
    r = out[1].sorted_terms()[0][1] / harmonic.sorted_terms()[0][1]
    assert out[1] == harmonic.scale(r) and r != 0


def test_orthogonalize_distinct_degrees_is_identity():
    group = get_group("B", 3)
    delta = antiinvariant(group.root_system)
    cands = candidate_invariants(seed_invariants(group), delta)
    assert orthogonalize_graded(cands) == cands


def test_orthogonalize_equal_degree_block():
    group = get_group("D", 4)
    delta = antiinvariant(group.root_system)
    cands = candidate_invariants(seed_invariants(group), delta)
    out = orthogonalize_graded(cands)
    block = [p for p in out if p.homogeneous_degree() == 4]
    assert len(block) == 2
    assert apolar_inner(block[0], block[1]) == 0


def test_orthogonalize_single_candidate_unchanged():
    x = Polynomial.variable(0, 1, QQ)
    assert orthogonalize_graded([x**2]) == [x**2]


def test_orthogonalize_rejects_dependent_input():
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    with pytest.raises(RuntimeError):
        orthogonalize_graded([x**2 + y**2, (x**2 + y**2).scale(3)])


def test_candidate_of_invalid_seed_aborts():
    group = get_group("B", 2)
    delta = antiinvariant(group.root_system)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    q = x**2 + y**2
    bogus = SeedSystem([q, q * q], [2, 4], "user-supplied")
    with pytest.raises(RuntimeError):
        orthogonalize_graded(candidate_invariants(bogus, delta))


def test_canonical_rank_one_exact_and_float():
    group = get_group("B", 1)
    system = canonical_system(group)
    x = Polynomial.variable(0, 1, QQ)
    assert system.entries[0].polynomial == x**2
    assert system.entries[0].norm == 2
    assert verify_canonical(system, group).passed
    normalized = system.float_normalized()
    coef = normalized[0].coefficient((2,))
    assert abs(coef - 2 ** -0.5) < 1e-14


def test_canonical_b2_degree_four_entry():
    group = get_group("B", 2)
    system = canonical_system(group)
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    assert system.entries[1].polynomial == x**4 - 6 * x**2 * y**2 + y**4
    assert verify_canonical(system, group).passed


def test_canonical_d4_refined_vs_generic():
    group = get_group("D", 4)
    generic = canonical_system(group, mode="generic")
    refined = canonical_system(group, mode="refined")
    mono = Polynomial(4, QQ, {(1, 1, 1, 1): 1})
    assert any(e.polynomial == mono for e in refined.entries)
    assert verify_canonical(generic, group).passed
    assert verify_canonical(refined, group).passed
    agreement = spans_agree(generic.polynomials(), refined.polynomials())
    assert all(agreement.values())
    # On default seeds the two modes agree entry for entry, not just in span.
    assert refined.to_json()["entries"] == generic.to_json()["entries"]


def test_refined_mode_with_fresh_seed_object():
    group = get_group("D", 4)
    seeds = seed_invariants(group)
    rebuilt = SeedSystem(list(seeds.polynomials), list(seeds.degrees), "power-sum")
    system = canonical_system(group, seeds=rebuilt, mode="refined")
    assert verify_canonical(system, group).passed


def test_refined_d4_mixes_user_seeds():
    # Both degree-4 seeds pair to 1 against x1*x2*x3*x4, so the refined mode
    # really mixes them (default seeds have a = 0).
    group = get_group("D", 4)
    x = [Polynomial.variable(i, 4, QQ) for i in range(4)]
    p2, p4, p6 = (sum((v**k for v in x[1:]), x[0]**k) for k in (2, 4, 6))
    e4 = x[0] * x[1] * x[2] * x[3]
    seeds = validate_user_seeds([p2, p4 + e4, e4 + p2**2, p6], group)
    generic = canonical_system(group, seeds=seeds, mode="generic")
    refined = canonical_system(group, seeds=seeds, mode="refined")
    assert verify_canonical(refined, group).passed
    assert any(e.polynomial == e4 for e in refined.entries)
    assert all(spans_agree(generic.polynomials(), refined.polynomials()).values())
    assert refined.to_json()["entries"] != generic.to_json()["entries"]


def test_unknown_mode_rejected():
    group = get_group("B", 2)
    with pytest.raises(ValueError, match="mode"):
        canonical_system(group, mode="fancy")


def test_verify_b3_end_to_end():
    group = get_group("B", 3)
    system = canonical_system(group)
    report = verify_canonical(system, group)
    assert report.passed
    assert not report.pair_failures
    assert all(is_positive(c) for c in report.norms)


def test_negative_control_raw_seeds_fail():
    group = get_group("B", 2)
    seeds = seed_invariants(group)
    system = InvariantSystem.from_polynomials(
        seeds.polynomials, group.root_system.to_json(), "user-supplied"
    )
    report = verify_canonical(system, group)
    assert not report.passed
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    failures = {(f.i, f.j): f.pairing for f in report.pair_failures}
    assert (0, 1) in failures
    assert failures[(0, 1)] == 12 * (x**2 + y**2)


def test_single_entry_system_passes():
    group = get_group("B", 1)
    x = Polynomial.variable(0, 1, QQ)
    system = InvariantSystem.from_polynomials([x**2], group.root_system.to_json(), "user")
    report = verify_canonical(system, group)
    assert report.passed and report.norms == [Fraction(2)]


def test_system_json_round_trip():
    group = get_group("B", 2)
    system = canonical_system(group)
    verify_canonical(system, group)
    data = system.to_json()
    back = InvariantSystem.from_json(data)
    assert [e.polynomial for e in back.entries] == [e.polynomial for e in system.entries]
    assert [e.norm for e in back.entries] == [e.norm for e in system.entries]
    assert back.verified


def test_latex_output():
    group = get_group("B", 1)
    system = canonical_system(group)
    assert system.latex() == ["f_{1} = x_{1}^{2}"]


# -- property suites -----------------------------------------------------

PROPERTY_TYPES = [("A", 2, None), ("B", 2, None), ("B", 3, None), ("I2", 2, 4), ("H3", 3, None)]


@pytest.mark.parametrize("type_label,rank,m", PROPERTY_TYPES)
def test_transfer_linear_and_degree_preserving(type_label, rank, m):
    group = get_group(type_label, rank, m)
    rs = group.root_system
    delta = antiinvariant(rs)
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randint(1, min(8, delta.homogeneous_degree()))
        f = random_polynomial(rng, rs.num_vars, rs.field, d)
        g = random_polynomial(rng, rs.num_vars, rs.field, d)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        tf, tg = transfer(f, delta), transfer(g, delta)
        assert transfer(f + g.scale(c), delta) == tf + tg.scale(c)
        if not tf.is_zero():
            assert tf.homogeneous_degree() == d


@pytest.mark.parametrize("type_label,rank,m", PROPERTY_TYPES)
def test_transfer_commutes_with_group(type_label, rank, m):
    group = get_group(type_label, rank, m)
    rs = group.root_system
    delta = antiinvariant(rs)
    rng = random.Random(32)
    elements = group.enumerate()
    ws = [elements[rng.randrange(len(elements))] for _ in range(10)]
    for _ in range(20):
        f = random_polynomial(rng, rs.num_vars, rs.field, rng.randint(1, 5))
        for w, _ in ws:
            assert group_action(w, transfer(f, delta)) == transfer(group_action(w, f), delta)


@pytest.mark.parametrize("type_label,rank,m", PROPERTY_TYPES)
def test_transfer_self_adjoint(type_label, rank, m):
    group = get_group(type_label, rank, m)
    rs = group.root_system
    delta = antiinvariant(rs)
    rng = random.Random(33)
    for _ in range(200):
        d = rng.randint(1, 5)
        f = random_polynomial(rng, rs.num_vars, rs.field, d)
        g = random_polynomial(rng, rs.num_vars, rs.field, d)
        assert apolar_inner(transfer(f, delta), g) == apolar_inner(f, transfer(g, delta))


@pytest.mark.parametrize("type_label,rank,m", PROPERTY_TYPES)
def test_transfer_kills_the_invariant_ideal(type_label, rank, m):
    group = get_group(type_label, rank, m)
    rs = group.root_system
    delta = antiinvariant(rs)
    seeds = seed_invariants(group)
    rng = random.Random(34)
    for _ in range(50):
        h = seeds.polynomials[rng.randrange(len(seeds.polynomials))]
        q = random_polynomial(rng, rs.num_vars, rs.field, rng.randint(0, 3), homogeneous=False)
        assert transfer(h * q, delta).is_zero()


@pytest.mark.parametrize("type_label,rank,m", PROPERTY_TYPES)
def test_ideal_annihilates_antiinvariant(type_label, rank, m):
    group = get_group(type_label, rank, m)
    rs = group.root_system
    delta = antiinvariant(rs)
    seeds = seed_invariants(group)
    rng = random.Random(35)
    for _ in range(50):
        h = seeds.polynomials[rng.randrange(len(seeds.polynomials))]
        q = random_polynomial(rng, rs.num_vars, rs.field, rng.randint(0, 3), homogeneous=False)
        assert apply_diff(h * q, delta).is_zero()


@pytest.mark.parametrize("type_label,rank,m", PROPERTY_TYPES)
def test_entry_partials_do_not_annihilate_antiinvariant(type_label, rank, m):
    # Converse direction: partials of canonical entries lie outside the ideal.
    group = get_group(type_label, rank, m)
    delta = antiinvariant(group.root_system)
    system = canonical_system(group)
    for e in system.entries:
        partials = [e.polynomial.partial(j) for j in range(e.polynomial.num_vars)]
        nonzero = [p for p in partials if not p.is_zero()]
        assert nonzero
        for p in nonzero:
            assert not apply_diff(p, delta).is_zero()


def test_transfer_form_symmetric_on_seed_differentials():
    for type_label, rank, m in [("B", 3, None), ("D", 4, None), ("H3", 3, None)]:
        group = get_group(type_label, rank, m)
        delta = antiinvariant(group.root_system)
        seeds = seed_invariants(group)
        forms = [differential(h) for h in seeds.polynomials]
        for w1 in forms:
            for w2 in forms:
                assert oneform_inner(transfer_form(w1, delta), w2) == oneform_inner(
                    w1, transfer_form(w2, delta)
                )


def test_root_scaling_changes_nothing_after_verification():
    group = get_group("B", 2)
    rs = group.root_system
    scales = [Fraction(2), Fraction(1, 3), Fraction(-5), Fraction(7, 2)]
    delta = Polynomial.constant(1, rs.num_vars, rs.field)
    for root, c in zip(sorted(rs.positive_roots), scales):
        delta = delta * linear_form(root, rs.field).scale(c)
    seeds = seed_invariants(group)
    system = canonical_system(group, seeds=seeds, delta=delta)
    assert verify_canonical(system, group).passed
    reference = canonical_system(group, seeds=seeds)
    agreement = spans_agree(system.polynomials(), reference.polynomials())
    assert all(agreement.values())


@pytest.mark.parametrize("type_label,rank,m", [("B", 3, None), ("D", 4, None)])
def test_seed_choice_does_not_change_spans(type_label, rank, m):
    group = get_group(type_label, rank, m)
    sys_power = canonical_system(group, seeds=seed_invariants(group, "power-sums"))
    sys_reyn = canonical_system(group, seeds=seed_invariants(group, "reynolds"))
    assert verify_canonical(sys_power, group).passed
    assert verify_canonical(sys_reyn, group).passed
    agreement = spans_agree(sys_power.polynomials(), sys_reyn.polynomials())
    assert all(agreement.values())


@pytest.mark.parametrize("m", [5, 10])
def test_pentagonal_dihedral_exact(m):
    from canoninv.oracle import pde_solve

    group = get_group("I2", 2, m)
    system = canonical_system(group)
    assert verify_canonical(system, group).passed
    oracle = pde_solve(group)
    assert verify_canonical(oracle, group).passed
    agreement = spans_agree(oracle.polynomials(), system.polynomials())
    assert all(agreement.values())


def test_float_dihedral_build_and_verify():
    group = get_group("I2", 2, 7)
    system = canonical_system(group)
    report = verify_canonical(system, group)
    assert report.passed
    assert report.tolerance is not None


def test_float_normalized_view_is_canonical_numerically():
    group = get_group("B", 3)
    system = canonical_system(group)
    normalized = system.float_normalized()
    for i, f in enumerate(normalized):
        for j, g in enumerate(normalized):
            pairing = apply_diff(f, g)
            if i == j:
                assert abs(pairing.constant_term() - 1.0) < 1e-10
            else:
                coeffs = [abs(to_float(c)) for _, c in pairing.sorted_terms()]
                assert not coeffs or max(coeffs) < 1e-10
