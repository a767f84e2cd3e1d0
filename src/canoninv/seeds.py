"""Seed systems of basic invariants, one per group, with an independence certificate.

The downstream construction transforms an arbitrary valid system of basic
invariants; this module provides concrete defaults:

* power sums of even degree for B_n and D_n (plus the product of all
  variables for D_n),
* projected power sums for A_n,
* the radial quadratic and the real part of (x + iy)^m for planar dihedral
  models,
* Reynolds averages of powers of linear forms for everything else, chosen
  greedily along a deterministic ladder.

Validity is certified by the Jacobian J: invariants are algebraically
independent iff J is not the zero polynomial.  Invariants of the table
degrees have an anti-invariant J of degree |Phi+| (squared off with the
fixed directions, which every group element fixes), so J = c * Delta for a
scalar c, Delta being the fundamental antiinvariant.  At a point x0 off
every reflecting hyperplane Delta(x0) != 0, hence J(x0) = 0 exactly when
c = 0: the exact rank of the gradients at x0 decides independence both ways.

The same rank picks the Reynolds seeds without backtracking.  Write any
invariant of degree d as P(f_1, ..., f_n) in a basic system f.  Its gradient
at x0 is the sum of (dP/df_j)(f(x0)) grad f_j(x0); the terms with deg f_j < d
lie in the span L_d of the lower gradients, and for deg f_j = d the factor
dP/df_j is the constant coefficient of f_j in P.  Since J(x0) != 0, the
gradients of any valid lower seeds span the same L_d, so a candidate raises
the rank of the rows taken so far exactly when its indecomposable part is
independent of the degree-d seeds already taken.  A candidate that does not
raise the rank has no valid completion; one that does always has one (graded
Nakayama), and the later degrees see the same span whichever basis of a
degree block was taken.  Within an equal-degree block the greedy choice is
the lexicographically first basis of the matroid, so the greedy pass returns
exactly the first success of a depth-first search over the same ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import linalg
from .groups import ReflectionGroup, RootSystem, group_action, reynolds_linear_power
from .polys import Polynomial, substitute_linear


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
    terms = {(m - k, k): (-1) ** (k // 2) * comb(m, k) for k in range(0, m + 1, 2)}
    return [_power_sum(2, field, 2), Polynomial(2, field, terms)]


def _power_sum_seeds(group: ReflectionGroup) -> SeedSystem | None:
    """The closed-form seed family of the group, or None if it has none."""
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
    return None


def _candidate_forms(nv):
    """Deterministic ladder of 3n - 3 linear forms whose powers get averaged."""
    for t in range(1, nv + 1):
        yield tuple(1 if j < t else 0 for j in range(nv))
    for t in range(1, nv):
        yield tuple(1 if j == 0 else (2 if j == t else 0) for j in range(nv))
    for t in range(2, nv):
        yield tuple(j + 1 if j <= t else 0 for j in range(nv))


def _reynolds_candidates(group: ReflectionGroup, degree: int):
    """Lazily yield the averaged powers of the projected ladder forms, in order."""
    rs = group.root_system
    nv, field = rs.num_vars, rs.field
    proj = rs.projection
    for coeffs in _candidate_forms(nv):
        vec = linalg.mat_vec(proj, tuple(field.coerce(c) for c in coeffs))
        if all(field.is_zero(c) for c in vec):
            continue
        yield reynolds_linear_power(vec, degree, group)


def _reynolds_seeds(group: ReflectionGroup) -> SeedSystem:
    """Fill every classical degree with Reynolds averages, greedily.

    In ascending degree, each slot takes the first candidate of its degree
    whose gradient at x0 raises the rank of the rows taken so far (the fixed
    directions first); equal-degree slots continue the same ladder.  The
    module docstring proves that no backtracking could do better.
    """
    rs = group.root_system
    point = _generic_point(rs)
    rows = list(rs.complement_basis)
    ladders = {d: _reynolds_candidates(group, d) for d in set(rs.degrees)}
    chosen = []
    for degree in rs.degrees:
        for cand in ladders[degree]:
            if cand.homogeneous_degree() != degree:
                continue
            row = _gradient_at(cand, point)
            if linalg.rank(rows + [row], rs.field) > len(rows):
                rows.append(row)
                chosen.append(cand)
                break
        else:
            raise RuntimeError(
                f"no algebraically independent Reynolds seed system found for {rs.describe()}"
            )
    return SeedSystem(chosen, list(rs.degrees), "reynolds")


def seed_invariants(group: ReflectionGroup) -> SeedSystem:
    """A valid system of basic invariants for the group.

    The closed-form family when the group has one, Reynolds averages
    otherwise.  The result passes the point-rank certificate once before it
    is returned.
    """
    rs = group.root_system
    system = _power_sum_seeds(group) or _reynolds_seeds(group)
    if list(system.degrees) != list(rs.degrees):
        raise RuntimeError(
            f"seed degrees {system.degrees} do not match the classical table {rs.degrees}"
        )
    if not jacobian_certificate(system, group):
        raise RuntimeError(
            f"seed system for {rs.describe()} failed the independence certificate"
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


def _gradient_at(p: Polynomial, point):
    return [p.partial(j).evaluate(point) for j in range(p.num_vars)]


def jacobian_certificate(system: SeedSystem, group: ReflectionGroup) -> bool:
    """Whether the seeds are algebraically independent.

    Exact rank of the seeds' gradients at a point off every reflecting
    hyperplane (see the module docstring); for groups realized in a larger
    ambient space the matrix is squared off with the fixed directions.
    """
    rs = group.root_system
    nv = rs.num_vars
    point = _generic_point(rs)
    rows = [_gradient_at(p, point) for p in system.polynomials] + list(rs.complement_basis)
    if len(rows) != nv:
        raise ValueError("seed count plus fixed directions must equal the variable count")
    return linalg.rank(rows, rs.field) == nv
