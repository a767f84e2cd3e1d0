"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import random
import time

from canoninv.canonical import (
    InvariantSystem,
    canonical_system,
    transfer,
    transfer_form,
    verify_canonical,
)
from canoninv.cli import main as cli_main
from canoninv.groups import antiinvariant, group_action
from canoninv.oracle import pde_solve, spans_agree
from canoninv.polys import (
    Polynomial,
    apolar_inner,
    apply_diff,
    differential,
    oneform_inner,
)
from canoninv.scalars import QQ, is_positive, to_float
from canoninv.seeds import _reynolds_seeds, seed_invariants

from conftest import get_group, random_polynomial

CRITERION_1_TYPES = [
    ("A", 2, None), ("A", 3, None),
    ("B", 2, None), ("B", 3, None), ("B", 4, None),
    ("D", 4, None), ("D", 5, None),
    ("I2", 2, 4), ("I2", 2, 6),
    ("H3", 3, None), ("F4", 4, None),
]
SMALL_TYPES = [t for t in CRITERION_1_TYPES if t[0] not in ("F4",) and t[1] <= 3]
HEAVY_TYPES = [t for t in CRITERION_1_TYPES if t not in SMALL_TYPES]

_SYSTEMS = {}


def built_system(type_label, rank, m):
    key = (type_label, rank, m)
    if key not in _SYSTEMS:
        group = get_group(type_label, rank, m)
        _SYSTEMS[key] = canonical_system(group)
    return _SYSTEMS[key]


def label_of(type_label, rank, m):
    if type_label == "I2":
        return f"I2({m})"
    if type_label in ("H3", "F4"):
        return type_label
    return f"{type_label}{rank}"


def cli_args(type_label, rank, m, *extra):
    args = ["build", "--type", type_label]
    if type_label in ("A", "B", "D"):
        args += ["--rank", str(rank)]
    if m is not None:
        args += ["--m", str(m)]
    return args + list(extra)


def test_criterion_1_exact_canonicity(capsys):
    timings = {}
    for type_label, rank, m in CRITERION_1_TYPES:
        t0 = time.perf_counter()
        code = cli_main(cli_args(type_label, rank, m, "--verify"))
        out = capsys.readouterr().out
        assert code == 0, f"build --verify failed for {label_of(type_label, rank, m)}"
        data = json.loads(out)
        assert data["verification"]["passed"] is True

        # Independent re-check of the emitted file: every off-diagonal pairing
        # must be the identically-zero polynomial, every norm exactly positive.
        system = InvariantSystem.from_json(data)
        polys = [e.polynomial for e in system.entries]
        for i, f in enumerate(polys):
            for j, g in enumerate(polys):
                pairing = apply_diff(f, g)
                if i == j:
                    residual = pairing - Polynomial.constant(
                        pairing.constant_term(), pairing.num_vars, pairing.field
                    )
                    assert residual.is_zero()
                    assert is_positive(pairing.constant_term())
                else:
                    assert pairing.is_zero(), (
                        f"{label_of(type_label, rank, m)}: pairing ({i},{j}) nonzero"
                    )
        timings[label_of(type_label, rank, m)] = time.perf_counter() - t0
    for name, t in timings.items():
        heavy = name in ("F4", "B4", "D5")
        assert t < (300 if heavy else 60), f"{name} took {t:.1f}s"
    stamp = " ".join(f"{k}={v:.2f}s" for k, v in timings.items())
    print(f"\nACCEPTANCE 1: PASS - exact canonicity on 11 types ({stamp})")


def test_criterion_2_degree_tables():
    expected = {
        ("A", 2, None): [2, 3],
        ("B", 3, None): [2, 4, 6],
        ("D", 4, None): [2, 4, 4, 6],
        ("H3", 3, None): [2, 6, 10],
        ("F4", 4, None): [2, 6, 8, 12],
    }
    for key, degs in expected.items():
        system = built_system(*key)
        assert system.degrees == degs, f"{label_of(*key)}: {system.degrees} != {degs}"
    print("\nACCEPTANCE 2: PASS - degree multisets match the classical tables")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    for type_label, rank, m in [
        ("A", 2, None), ("B", 2, None), ("B", 3, None),
        ("I2", 2, 6), ("H3", 3, None), ("D", 4, None),
    ]:
        group = get_group(type_label, rank, m)
        oracle = pde_solve(group)
        constructed = built_system(type_label, rank, m)
        assert verify_canonical(oracle, group).passed
        assert verify_canonical(constructed, group).passed
        agreement = spans_agree(oracle.polynomials(), constructed.polynomials())
        assert all(agreement.values()), f"{label_of(type_label, rank, m)}: {agreement}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"oracle comparisons took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3: PASS - oracle spans equal on 6 types ({elapsed:.1f}s)")


TRANSFER_SUITE_TYPES = [
    ("A", 2, None), ("A", 3, None), ("B", 2, None), ("B", 3, None),
    ("I2", 2, 4), ("I2", 2, 6), ("H3", 3, None),
]


def test_criterion_4_transfer_property_suite():
    failures = 0
    for type_label, rank, m in TRANSFER_SUITE_TYPES:
        group = get_group(type_label, rank, m)
        rs = group.root_system
        delta = antiinvariant(rs)
        max_deg = min(8, delta.homogeneous_degree())
        rng = random.Random(2024)
        elements = group.enumerate()
        ws = [elements[rng.randrange(len(elements))][0] for _ in range(10)]
        polys = [
            random_polynomial(rng, rs.num_vars, rs.field, rng.randint(1, max_deg))
            for _ in range(200)
        ]
        for idx, f in enumerate(polys):
            tf = transfer(f, delta)
            if not tf.is_zero() and tf.homogeneous_degree() != f.homogeneous_degree():
                failures += 1
            g = polys[(idx + 1) % len(polys)]
            if f.homogeneous_degree() == g.homogeneous_degree():
                if apolar_inner(tf, g) != apolar_inner(f, transfer(g, delta)):
                    failures += 1
            w = ws[idx % len(ws)]
            if group_action(w, tf) != transfer(group_action(w, f), delta):
                failures += 1
        seeds = seed_invariants(group)
        for _ in range(50):
            h = seeds.polynomials[rng.randrange(len(seeds.polynomials))]
            q = random_polynomial(
                rng, rs.num_vars, rs.field, rng.randint(0, 3), homogeneous=False
            )
            if not transfer(h * q, delta).is_zero():
                failures += 1
    assert failures == 0
    print("\nACCEPTANCE 4: PASS - transfer map property suite, zero failures")


def test_criterion_5_ideal_annihilation():
    for type_label, rank, m in TRANSFER_SUITE_TYPES:
        group = get_group(type_label, rank, m)
        rs = group.root_system
        delta = antiinvariant(rs)
        seeds = seed_invariants(group)
        rng = random.Random(55)
        for _ in range(50):
            h = seeds.polynomials[rng.randrange(len(seeds.polynomials))]
            q = random_polynomial(
                rng, rs.num_vars, rs.field, rng.randint(0, 3), homogeneous=False
            )
            assert apply_diff(h * q, delta).is_zero()
        # Converse witnesses: partials of canonical entries are outside the
        # ideal, so they must not annihilate the antiinvariant.
        system = built_system(type_label, rank, m)
        witnessed = 0
        for e in system.entries:
            for j in range(e.polynomial.num_vars):
                p = e.polynomial.partial(j)
                if p.is_zero():
                    continue
                assert not apply_diff(p, delta).is_zero()
                witnessed += 1
        assert witnessed > 0
    print("\nACCEPTANCE 5: PASS - ideal annihilates the antiinvariant; witnesses do not")


def test_criterion_6_d4_eigenvector_and_mode_agreement():
    group = get_group("D", 4)
    delta = antiinvariant(group.root_system)
    mono = Polynomial(4, QQ, {(1, 1, 1, 1): 1})
    dm = differential(mono)
    image = transfer_form(dm, delta)
    lam = None
    for got, orig in zip(image.components, dm.components):
        ratio = got.sorted_terms()[0][1] / orig.sorted_terms()[0][1]
        assert got == orig.scale(ratio)
        lam = ratio if lam is None else lam
        assert ratio == lam
    assert lam != 0
    generic = canonical_system(group, mode="generic")
    refined = canonical_system(group, mode="refined")
    assert verify_canonical(generic, group).passed
    assert verify_canonical(refined, group).passed
    agreement = spans_agree(generic.polynomials(), refined.polynomials())
    assert all(agreement.values())
    print(f"\nACCEPTANCE 6: PASS - d(x1x2x3x4) is an eigenvector (lambda={lam}); modes agree")


def test_criterion_7_contraction_and_differential_identities():
    for type_label, rank, m in CRITERION_1_TYPES:
        group = get_group(type_label, rank, m)
        seeds = seed_invariants(group)
        from canoninv.canonical import euler_contract

        for h in seeds.polynomials:
            d = h.homogeneous_degree()
            assert euler_contract(differential(h)) == h.scale(d)
        for a in seeds.polynomials:
            for b in seeds.polynomials:
                if a.homogeneous_degree() == b.homogeneous_degree():
                    got = oneform_inner(differential(a), differential(b))
                    assert got == a.homogeneous_degree() * apolar_inner(a, b)
    print("\nACCEPTANCE 7: PASS - contraction and differential identities exact on all seeds")


def test_criterion_8_seed_independence():
    for type_label, rank, m in [("B", 3, None), ("D", 4, None)]:
        group = get_group(type_label, rank, m)
        sys_power = canonical_system(group, seeds=seed_invariants(group))
        sys_reyn = canonical_system(group, seeds=_reynolds_seeds(group))
        assert verify_canonical(sys_power, group).passed
        assert verify_canonical(sys_reyn, group).passed
        agreement = spans_agree(sys_power.polynomials(), sys_reyn.polynomials())
        assert all(agreement.values()), f"{label_of(type_label, rank, m)}: {agreement}"
    print("\nACCEPTANCE 8: PASS - power-sum and Reynolds seeds give identical spans")


def test_criterion_9_float_normalized_view():
    for type_label, rank, m in CRITERION_1_TYPES:
        system = built_system(type_label, rank, m)
        normalized = system.float_normalized()
        for i, f in enumerate(normalized):
            for j, g in enumerate(normalized):
                pairing = apply_diff(f, g)
                if i == j:
                    assert abs(pairing.constant_term() - 1.0) <= 1e-10
                    rest = [
                        abs(to_float(c))
                        for e, c in pairing.sorted_terms()
                        if any(e)
                    ]
                    assert not rest or max(rest) <= 1e-10
                else:
                    coeffs = [abs(to_float(c)) for _, c in pairing.sorted_terms()]
                    assert not coeffs or max(coeffs) <= 1e-10
    print("\nACCEPTANCE 9: PASS - float-normalized systems canonical within 1e-10")


def test_criterion_10_negative_control():
    group = get_group("B", 2)
    seeds = seed_invariants(group)
    system = InvariantSystem.from_polynomials(
        seeds.polynomials, group.root_system.to_json(), "user-supplied"
    )
    report = verify_canonical(system, group)
    assert not report.passed
    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    failures = {(f.i, f.j): f.pairing for f in report.pair_failures}
    assert failures[(0, 1)] == 12 * (x**2 + y**2)
    print("\nACCEPTANCE 10: PASS - raw B2 seeds rejected with (f1,f2) = 12(x1^2+x2^2)")
