"""Seed systems of basic invariants, one per group, with an independence certificate.

The downstream construction transforms an arbitrary valid system of basic
invariants; this module provides concrete defaults:

* power sums of even degree for B_n and D_n (plus the product of all
  variables for D_n),
* projected power sums for A_n,
* the radial quadratic and the real part of (x + iy)^m for planar dihedral
  models,
* Reynolds averages of powers of linear forms for everything else, with a
  deterministic retry ladder in case a candidate vanishes or breaks
  algebraic independence.

Validity is certified by the Jacobian J: invariants are algebraically
independent iff J is not the zero polynomial.  Invariants of the table
degrees have an anti-invariant J of degree |Phi+| (squared off with the
fixed directions, which every group element fixes), so J = c * Delta for a
scalar c, Delta being the fundamental antiinvariant.  At a point x0 off
every reflecting hyperplane Delta(x0) != 0, hence J(x0) = 0 exactly when
c = 0: the exact rank of the gradients at x0 decides independence both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .groups import (
    ReflectionGroup,
    RootSystem,
    group_action,
    project_polynomial,
    reynolds,
    reynolds_linear_power,
)
from .polys import Polynomial, coefficient_rows, monomials_of_degree, substitute_linear
from .scalars import FLOAT


@dataclass
class SeedSystem:
    """Homogeneous invariant generators sorted by degree, with provenance."""

    polynomials: list
    degrees: list
    provenance: str

    def __post_init__(self):
        order = sorted(range(len(self.polynomials)), key=lambda i: self.degrees[i])
        self.polynomials = [self.polynomials[i] for i in order]
        self.degrees = [self.degrees[i] for i in order]


def _power_sum(num_vars, field, k):
    terms = {}
    for j in range(num_vars):
        exp = tuple(k if i == j else 0 for i in range(num_vars))
        terms[exp] = 1
    return Polynomial(num_vars, field, terms)


def _product_of_variables(num_vars, field):
    return Polynomial(num_vars, field, {(1,) * num_vars: 1})


def _planar_dihedral_seeds(rs: RootSystem):
    # Invariants of the dihedral group whose first mirror is the x-axis:
    # the radial quadratic and Re((x + iy)^m).
    field, m = rs.field, rs.m
    radial = _power_sum(2, field, 2)
    terms = {}
    sign = 1
    for k in range(0, m + 1, 2):
        binom = 1
        for t in range(k):
            binom = binom * (m - t) // (t + 1)
        terms[(m - k, k)] = sign * binom
        sign = -sign
    return [radial, Polynomial(2, field, terms)]


def _power_sum_seeds(group: ReflectionGroup) -> SeedSystem:
    rs = group.root_system
    nv, field = rs.num_vars, rs.field
    label = rs.type_label
    if label == "A":
        proj = rs.projection
        polys = [substitute_linear(_power_sum(nv, field, k), proj)
                 for k in range(2, rs.rank + 2)]
        return SeedSystem(polys, [p.homogeneous_degree() for p in polys], "power-sum")
    if label == "B":
        polys = [_power_sum(nv, field, 2 * i) for i in range(1, rs.rank + 1)]
        return SeedSystem(polys, [2 * i for i in range(1, rs.rank + 1)], "power-sum")
    if label == "D":
        polys = [_power_sum(nv, field, 2 * i) for i in range(1, rs.rank)]
        polys.append(_product_of_variables(nv, field))
        return SeedSystem(polys, [p.homogeneous_degree() for p in polys], "power-sum")
    if label == "I2" and (rs.num_vars == 2):
        polys = _planar_dihedral_seeds(rs)
        return SeedSystem(polys, [2, rs.m], "power-sum")
    raise ValueError(f"no closed-form seed family for type {rs.describe()}; use reynolds")


def _candidate_forms(nv):
    """Deterministic ladder of linear forms whose powers get averaged."""
    for t in range(1, nv + 1):
        yield tuple(1 if j < t else 0 for j in range(nv))
    for t in range(1, nv):
        yield tuple(1 if j == 0 else (2 if j == t else 0) for j in range(nv))
    for t in range(2, nv):
        yield tuple(j + 1 if j <= t else 0 for j in range(nv))


def _reynolds_candidates(group: ReflectionGroup, degree: int):
    """Lazily yield candidate invariants of one degree, deterministically."""
    rs = group.root_system
    nv, field = rs.num_vars, rs.field
    proj = rs.projection
    for coeffs in _candidate_forms(nv):
        vec = linalg.mat_vec(proj, tuple(field.coerce(c) for c in coeffs))
        if all(field.is_zero(c) for c in vec):
            continue
        yield reynolds_linear_power(vec, degree, group)
    for exp in monomials_of_degree(nv, degree):
        mono = Polynomial.monomial(exp, 1, field)
        # project after averaging: cheaper and equal, the projector commutes
        yield project_polynomial(reynolds(mono, group), rs)


_MAX_CANDIDATES_PER_SLOT = 24


def _reynolds_seeds(group: ReflectionGroup) -> SeedSystem:
    """Fill every classical degree with Reynolds averages.

    Depth-first search over the deterministic candidate ladder: a candidate
    must be nonzero, of the right degree, and linearly independent inside its
    equal-degree block; complete assignments must pass the Jacobian
    certificate (within-degree independence cannot see relations like p^2
    against a lower-degree seed p).  Averages are memoized so backtracking
    never recomputes them.
    """
    rs = group.root_system
    degrees = rs.degrees
    slots = len(degrees)
    generators = {d: _reynolds_candidates(group, d) for d in set(degrees)}
    computed: dict = {d: [] for d in set(degrees)}

    def candidate(degree, index):
        pool = computed[degree]
        while len(pool) <= index:
            try:
                pool.append(next(generators[degree]))
            except StopIteration:
                return None
            if len(pool) > _MAX_CANDIDATES_PER_SLOT:
                return None
        return pool[index]

    def extend(chosen, i):
        if i == slots:
            system = SeedSystem(list(chosen), list(degrees), "reynolds")
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

    system = extend([], 0)
    if system is None:
        raise RuntimeError(
            f"no algebraically independent Reynolds seed system found for {rs.describe()}"
        )
    return system


def seed_invariants(group: ReflectionGroup, strategy: str = "auto") -> SeedSystem:
    """A valid system of basic invariants for the group.

    ``strategy`` is one of ``auto`` (closed-form family when one exists,
    Reynolds averaging otherwise), ``power-sums``, or ``reynolds``.
    """
    rs = group.root_system
    has_closed_form = rs.type_label in ("A", "B", "D") or (
        rs.type_label == "I2" and rs.num_vars == 2
    )
    if strategy == "auto":
        strategy = "power-sums" if has_closed_form else "reynolds"
    if strategy == "power-sums":
        if not has_closed_form:
            raise ValueError(f"no closed-form seeds for {rs.describe()}; use reynolds")
        system = _power_sum_seeds(group)
        if rs.field is not FLOAT and not jacobian_certificate(system, group):
            raise RuntimeError(
                f"seed system for {rs.describe()} failed the independence certificate"
            )
    elif strategy == "reynolds":
        # certified inside the search
        system = _reynolds_seeds(group)
    else:
        raise ValueError(f"unknown seed strategy {strategy!r}")
    if list(system.degrees) != list(rs.degrees):
        raise RuntimeError(
            f"seed degrees {system.degrees} do not match the classical table {rs.degrees}"
        )
    return system


def validate_user_seeds(polys, group: ReflectionGroup) -> SeedSystem:
    """Wrap user-supplied polynomials as a certified seed system."""
    rs = group.root_system
    degrees = []
    for p in polys:
        d = p.homogeneous_degree()
        if d is None:
            raise ValueError("user seeds must be homogeneous and nonzero")
        if p.num_vars != rs.num_vars or p.field is not rs.field:
            raise ValueError("user seeds do not match the group's variables or field")
        degrees.append(d)
    system = SeedSystem(list(polys), degrees, "user-supplied")
    if list(system.degrees) != list(rs.degrees):
        raise ValueError(
            f"user seed degrees {sorted(degrees)} do not match the classical "
            f"table {rs.degrees} for {rs.describe()}"
        )
    for gen in group.generators:
        for p in system.polynomials:
            if group_action(gen, p) != p:
                raise ValueError("user seed is not invariant under the group")
    if not jacobian_certificate(system, group):
        raise ValueError("user seeds are algebraically dependent (zero Jacobian)")
    return system


def _generic_point(rs: RootSystem):
    """x0 = (1, k, k^2, ...) for the first k >= 2 off every reflecting hyperplane.

    The search ends: the product of the alpha . x0 over the positive roots is
    a nonzero polynomial in k.
    """
    k = 2
    while True:
        point = tuple(k**i for i in range(rs.num_vars))
        if not any(rs.field.is_zero(linalg.dot(root, point)) for root in rs.positive_roots):
            return point
        k += 1


def jacobian_certificate(system: SeedSystem, group: ReflectionGroup) -> bool:
    """Whether the seeds are algebraically independent.

    Exact rank of the seeds' gradients at a point off every reflecting
    hyperplane (see the module docstring); for groups realized in a larger
    ambient space the matrix is squared off with the fixed directions.
    """
    rs = group.root_system
    nv = rs.num_vars
    point = _generic_point(rs)
    rows = [[p.partial(j).evaluate(point) for j in range(nv)] for p in system.polynomials]
    rows += rs.complement_basis
    if len(rows) != nv:
        raise ValueError("seed count plus fixed directions must equal the variable count")
    return linalg.rank(rows, rs.field) == nv
