"""Root systems and finite reflection groups.

Supported types: A_n, B_n, D_n, I2(m), H3, F4, and (behind an explicit
opt-in) H4 and E6.  Groups that need an angle outside the supported exact
fields are realized in a larger ambient space where their matrices become
exact:

* A_n acts on the sum-zero hyperplane of n+1 coordinates (permutations),
* I2(3) and I2(6) reuse the rank-2 crystallographic models inside the
  sum-zero plane of 3 coordinates,
* I2(5) and I2(10) sit inside 3-space over Q(sqrt5), fixing an axis,
* E6 uses the standard 8-coordinate model (two fixed directions).

Every matrix is orthogonal with exact entries, so the apolar pairing is
invariant under the group action.  Dihedral groups I2(m) for other m fall
back to a planar float model.

The essential rank may therefore be smaller than the number of coordinates;
``RootSystem.projection`` is the orthogonal projector onto the span of the
roots, used to push ambient polynomials into the subalgebra where the
invariant theory happens.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from . import linalg
from .polys import Polynomial, linear_form, substitute_linear
from .scalars import FLOAT, GOLDEN, QQ, QSQRT5, Field, QuadExt

DEFAULT_MAX_GROUP_ORDER = 52_000


class GroupOrderCapExceeded(RuntimeError):
    """The requested group is larger than the configured enumeration cap."""


def max_group_order() -> int:
    value = os.environ.get("CANON_MAX_GROUP_ORDER")
    return int(value) if value else DEFAULT_MAX_GROUP_ORDER


def classical_degrees(type_label: str, rank: int, m: int | None = None) -> list[int]:
    """Degrees of any system of basic invariants, sorted ascending."""
    if type_label == "A":
        return list(range(2, rank + 2))
    if type_label == "B":
        return [2 * i for i in range(1, rank + 1)]
    if type_label == "D":
        return sorted([2 * i for i in range(1, rank)] + [rank])
    if type_label == "I2":
        return sorted([2, m])
    if type_label == "H3":
        return [2, 6, 10]
    if type_label == "H4":
        return [2, 12, 20, 30]
    if type_label == "F4":
        return [2, 6, 8, 12]
    if type_label == "E6":
        return [2, 5, 6, 8, 9, 12]
    raise ValueError(f"unsupported type {type_label!r}")


def expected_order(type_label, rank, m=None) -> int:
    degs = classical_degrees(type_label, rank, m)
    out = 1
    for d in degs:
        out *= d
    return out


def expected_positive_count(type_label, rank, m=None) -> int:
    return sum(d - 1 for d in classical_degrees(type_label, rank, m))


class RootSystem:
    """Positive roots, simple roots, and the ambient geometry of one group."""

    def __init__(self, type_label, rank, m, num_vars, field, simple_roots,
                 positive_roots, complement_basis):
        self.type_label = type_label
        self.rank = rank
        self.m = m
        self.num_vars = num_vars
        self.field = field
        self.simple_roots = simple_roots
        self.positive_roots = positive_roots
        # Orthogonalized basis of the subspace fixed by the whole group.
        self.complement_basis = complement_basis
        self.projection = _projection_matrix(num_vars, complement_basis, field)

    @property
    def degrees(self):
        return classical_degrees(self.type_label, self.rank, self.m)

    def describe(self):
        label = self.type_label if self.type_label in ("H3", "H4", "F4", "E6") else (
            f"I2({self.m})" if self.type_label == "I2" else f"{self.type_label}{self.rank}"
        )
        return label

    def to_json(self):
        roots = sorted(self.positive_roots)
        return {
            "type": self.type_label,
            "rank": self.rank,
            "m": self.m,
            "field": self.field.name,
            "vars": self.num_vars,
            "positive_roots": [[self.field.format(c) for c in r] for r in roots],
        }


def _projection_matrix(num_vars, complement_basis, field: Field):
    """Orthogonal projector onto the root span: identity minus u u^T / (u, u)."""
    proj = [list(row) for row in linalg.identity(num_vars, field)]
    for u in complement_basis:
        uu = linalg.dot(u, u)
        for i in range(num_vars):
            for j in range(num_vars):
                proj[i][j] = proj[i][j] - u[i] * u[j] / uu
    return tuple(tuple(row) for row in proj)


def _gram_schmidt_vectors(vectors, field: Field):
    out = []
    for v in vectors:
        w = list(field.coerce(c) for c in v)
        for u in out:
            factor = linalg.dot(w, u) / linalg.dot(u, u)
            w = [a - factor * b for a, b in zip(w, u)]
        out.append(tuple(w))
    return out


def reflection_matrix(alpha, field: Field):
    """Orthogonal reflection across the hyperplane normal to ``alpha``."""
    alpha = tuple(field.coerce(c) for c in alpha)
    norm = linalg.dot(alpha, alpha)
    if field.is_zero(norm):
        raise ValueError("cannot reflect across the zero vector")
    n = len(alpha)
    two = field.coerce(2)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = field.one if i == j else field.zero
            row.append(v - two * alpha[i] * alpha[j] / norm)
        rows.append(tuple(row))
    return tuple(rows)


def _closure_positive_roots(simple_roots, field: Field, expected: int):
    """Close the simple roots under all simple reflections; sign-normalize.

    A vector is stored through its positive representative: the one whose
    coordinates in the simple-root basis are all nonnegative.
    """
    simples = [tuple(field.coerce(c) for c in r) for r in simple_roots]
    nv = len(simples[0])
    basis_cols = [[simples[j][i] for j in range(len(simples))] for i in range(nv)]

    def positive_rep(vec):
        coords = linalg.solve(basis_cols, list(vec), field)
        if coords is None:
            raise ValueError("closure produced a vector outside the root span")
        signs = {1 if c > field.zero else (-1 if c < field.zero else 0) for c in coords}
        if 1 in signs and -1 in signs:
            raise ValueError("root is neither positive nor negative in the simple basis")
        if -1 in signs:
            return tuple(-c for c in vec)
        return tuple(vec)

    reflections = [reflection_matrix(a, field) for a in simples]
    roots = {positive_rep(a) for a in simples}
    frontier = list(roots)
    while frontier:
        new = []
        for r in frontier:
            for s in reflections:
                image = positive_rep(linalg.mat_vec(s, r))
                if image not in roots:
                    roots.add(image)
                    new.append(image)
        frontier = new
        if len(roots) > expected:
            raise ValueError(
                f"closure produced more than the expected {expected} positive roots"
            )
    if len(roots) != expected:
        raise ValueError(f"closure found {len(roots)} positive roots, expected {expected}")
    return sorted(roots)


_PHI = GOLDEN                       # (1 + sqrt5)/2
_PHI_INV = GOLDEN - 1               # (sqrt5 - 1)/2 = 1/phi


def _simple_root_data(type_label, rank, m):
    """(num_vars, field, simple roots, complement basis) for exact models."""
    F = Fraction
    if type_label == "A":
        nv = rank + 1
        simples = [
            tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(nv))
            for i in range(rank)
        ]
        return nv, QQ, simples, [tuple([F(1)] * nv)]
    if type_label == "B":
        simples = [
            tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(rank))
            for i in range(rank - 1)
        ]
        simples.append(tuple(1 if j == rank - 1 else 0 for j in range(rank)))
        return rank, QQ, simples, []
    if type_label == "D":
        simples = [
            tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(rank))
            for i in range(rank - 1)
        ]
        simples.append(tuple(1 if j >= rank - 2 else 0 for j in range(rank)))
        return rank, QQ, simples, []
    if type_label == "F4":
        simples = [
            (F(0), F(1), F(-1), F(0)),
            (F(0), F(0), F(1), F(-1)),
            (F(0), F(0), F(0), F(1)),
            (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)),
        ]
        return 4, QQ, simples, []
    if type_label == "H3":
        simples = [
            (-_PHI, QuadExt(1), _PHI_INV),
            (QuadExt(2), QuadExt(0), QuadExt(0)),
            (QuadExt(-1), -_PHI_INV, -_PHI),
        ]
        return 3, QSQRT5, simples, []
    if type_label == "H4":
        simples = [
            (-_PHI, QuadExt(1), _PHI_INV, QuadExt(0)),
            (QuadExt(2), QuadExt(0), QuadExt(0), QuadExt(0)),
            (QuadExt(-1), -_PHI_INV, -_PHI, QuadExt(0)),
            (QuadExt(0), QuadExt(-1), _PHI, _PHI_INV),
        ]
        return 4, QSQRT5, simples, []
    if type_label == "E6":
        half = F(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = (F(1), F(1), F(0), F(0), F(0), F(0), F(0), F(0))
        rest = [
            tuple(F(1) if j == i + 1 else (F(-1) if j == i else F(0)) for j in range(8))
            for i in range(4)
        ]
        simples = [a1, a2] + rest
        comp = [
            (F(0),) * 5 + (F(1), F(0), F(1)),
            (F(0),) * 5 + (F(0), F(1), F(1)),
        ]
        return 8, QQ, simples, comp
    if type_label == "I2":
        if m == 3:
            simples = [(F(1), F(-1), F(0)), (F(0), F(1), F(-1))]
            return 3, QQ, simples, [(F(1), F(1), F(1))]
        if m == 4:
            simples = [(F(0), F(1)), (F(1), F(-1))]
            return 2, QQ, simples, []
        if m == 6:
            simples = [(F(1), F(-1), F(0)), (F(-1), F(2), F(-1))]
            return 3, QQ, simples, [(F(1), F(1), F(1))]
        if m == 5:
            simples = [
                (QuadExt(2), QuadExt(0), QuadExt(0)),
                (-_PHI, QuadExt(-1), _PHI_INV),
            ]
            return 3, QSQRT5, simples, [(QuadExt(0), QuadExt(1), _PHI)]
        if m == 10:
            simples = [
                (QuadExt(2), QuadExt(0), QuadExt(0)),
                (-(_PHI + 2), QuadExt(-1), _PHI_INV),
            ]
            return 3, QSQRT5, simples, [(QuadExt(0), QuadExt(1), _PHI)]
    raise ValueError(f"no exact model for type {type_label!r}")


def _build_float_dihedral(m: int) -> RootSystem:
    # Mirrors at angles k*pi/m, k = 0..m-1; root k is the unit normal of mirror k.
    roots = []
    for k in range(m):
        theta = k * math.pi / m
        roots.append((-math.sin(theta), math.cos(theta)))
    simples = [roots[0], roots[m - 1]]
    return RootSystem("I2", 2, m, 2, FLOAT, simples, roots, [])


def resolve_field(type_label, m=None, requested: str = "auto") -> Field:
    """Pick the coefficient field for a group, honoring an explicit request."""
    if type_label in ("H3", "H4"):
        natural = QSQRT5
    elif type_label == "I2":
        if m in (3, 4, 6):
            natural = QQ
        elif m in (5, 10):
            natural = QSQRT5
        else:
            natural = FLOAT
    else:
        natural = QQ
    if requested == "auto":
        return natural
    chosen = {"Q": QQ, "Qsqrt5": QSQRT5, "float": FLOAT}.get(requested)
    if chosen is None:
        raise ValueError(f"unknown field selector {requested!r}")
    if type_label == "I2" and chosen is FLOAT:
        return FLOAT  # planar float model exists for every m
    if natural is QQ and chosen in (QQ, QSQRT5):
        return chosen
    if natural is QSQRT5 and chosen is QSQRT5:
        return chosen
    if natural is FLOAT and chosen is FLOAT:
        return chosen
    if natural is QSQRT5 and chosen is QQ:
        raise ValueError(f"type {type_label} needs sqrt 5; it cannot run over plain Q")
    if chosen is FLOAT:
        raise ValueError("the float backend is reserved for dihedral groups I2(m)")
    raise ValueError(
        f"field {requested!r} cannot represent type {type_label} (needs {natural.name})"
    )


def build_root_system(type_label, rank, m=None, allow_large=False,
                      field_request: str = "auto") -> RootSystem:
    """Construct the root system for one supported (type, rank[, m])."""
    type_label = str(type_label)
    if type_label in ("E", "E7", "E8") and (type_label != "E" or rank in (7, 8)):
        raise ValueError(
            "types E7 and E8 are out of scope: their groups exceed the enumeration "
            "cap and the antiinvariant is beyond desk scale"
        )
    if type_label == "E":
        if rank != 6:
            raise ValueError("type E supports only rank 6 (E7/E8 are out of scope)")
        type_label = "E6"
    if type_label in ("H3", "H4", "F4", "E6"):
        implied = int(type_label[1])
        if rank not in (None, implied):
            raise ValueError(f"type {type_label} has rank {implied}")
        rank = implied
    if type_label == "H" and rank in (3, 4):
        type_label = f"H{rank}"
    if type_label == "F" and rank == 4:
        type_label = "F4"
    if type_label not in ("A", "B", "D", "I2", "H3", "H4", "F4", "E6"):
        raise ValueError(f"unsupported type {type_label!r}")
    if type_label in ("H4", "E6") and not allow_large:
        raise ValueError(
            f"type {type_label} is expensive; pass allow_large=True (--allow-large) to opt in"
        )
    if type_label == "A" and rank < 1:
        raise ValueError("type A needs rank >= 1")
    if type_label == "B" and rank < 1:
        raise ValueError("type B needs rank >= 1")
    if type_label == "D" and rank < 3:
        raise ValueError("type D needs rank >= 3 (smaller ranks are not irreducible)")
    if type_label == "I2":
        rank = 2
        if m is None or m < 3:
            raise ValueError("type I2 needs m >= 3")

    field = resolve_field(type_label, m, field_request)
    if field is FLOAT:
        return _build_float_dihedral(m)

    nv, _natural_field, simples, comp = _simple_root_data(type_label, rank, m)
    simples = [tuple(field.coerce(c) for c in r) for r in simples]
    comp = [tuple(field.coerce(c) for c in u) for u in comp]
    expected = expected_positive_count(type_label, rank, m)
    positives = _closure_positive_roots(simples, field, expected)
    comp = _gram_schmidt_vectors(comp, field)
    return RootSystem(type_label, rank, m, nv, field, simples, positives, comp)


class ReflectionGroup:
    """A root system together with its generators and (lazily) all elements."""

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        self.generators = [
            reflection_matrix(a, root_system.field) for a in root_system.simple_roots
        ]
        self._elements = None

    @property
    def field(self):
        return self.root_system.field

    @property
    def num_vars(self):
        return self.root_system.num_vars

    @property
    def order(self):
        rs = self.root_system
        return expected_order(rs.type_label, rs.rank, rs.m)

    def enumerate(self):
        """All group elements as (matrix, determinant) pairs, breadth-first."""
        if self._elements is not None:
            return self._elements
        cap = max_group_order()
        if self.order > cap:
            raise GroupOrderCapExceeded(
                f"group {self.root_system.describe()} has order {self.order}, "
                f"which exceeds the cap {cap} (set CANON_MAX_GROUP_ORDER to raise it)"
            )
        if self.field is FLOAT:
            self._elements = self._enumerate_float_dihedral()
            return self._elements
        ident = linalg.identity(self.num_vars, self.field)
        seen = {ident: 1}
        frontier = [ident]
        while frontier:
            new = []
            for w in frontier:
                dw = seen[w]
                for g in self.generators:
                    prod = linalg.mat_mul(g, w)
                    if prod not in seen:
                        seen[prod] = -dw
                        new.append(prod)
            frontier = new
            if len(seen) > cap:
                raise GroupOrderCapExceeded(
                    f"enumeration exceeded the cap {cap} for {self.root_system.describe()}"
                )
        if len(seen) != self.order:
            raise ValueError(
                f"enumerated {len(seen)} elements, expected {self.order}"
            )
        self._elements = [(w, d) for w, d in seen.items()]
        return self._elements

    def _enumerate_float_dihedral(self):
        # Rotations by 2*pi*k/m plus reflections across the m mirrors; closing
        # float matrices under products would need fuzzy dedup, so build them
        # analytically.
        m = self.root_system.m
        out = []
        for k in range(m):
            t = 2 * math.pi * k / m
            out.append((((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t))), 1))
            u = 2 * math.pi * k / (2 * m)
            out.append((((math.cos(2 * u), math.sin(2 * u)),
                         (math.sin(2 * u), -math.cos(2 * u))), -1))
        return out


def group_action(matrix, f: Polynomial) -> Polynomial:
    """Act on a polynomial: (w . f)(x) = f(w^-1 x), with w orthogonal."""
    return substitute_linear(f, linalg.transpose(matrix))


def antiinvariant(rs: RootSystem) -> Polynomial:
    """Product of the linear forms of all positive roots."""
    out = Polynomial.constant(1, rs.num_vars, rs.field)
    for root in sorted(rs.positive_roots):
        out = out * linear_form(root, rs.field)
    return out


def reynolds(f: Polynomial, group: ReflectionGroup) -> Polynomial:
    """Group average of ``f``; a projection onto the invariant subalgebra."""
    total = Polynomial.zero(f.num_vars, f.field)
    elems = group.enumerate()
    for w, _ in elems:
        total = total + substitute_linear(f, w)
    return total / len(elems)


def reynolds_linear_power(coefficients, power: int, group: ReflectionGroup) -> Polynomial:
    """Group average of (c . x)^power, grouping repeated images of the covector.

    A linear form often has a large stabilizer, so collecting the orbit of its
    coefficient vector before exponentiating avoids most of the work of the
    generic Reynolds average.
    """
    field = group.field
    elems = group.enumerate()
    orbit = {}
    covector = tuple(field.coerce(c) for c in coefficients)
    for w, _ in elems:
        image = tuple(linalg.dot(covector, col) for col in zip(*w))
        orbit[image] = orbit.get(image, 0) + 1
    total = Polynomial.zero(group.num_vars, field)
    for image, count in sorted(orbit.items()):
        total = total + (linear_form(image, field) ** power).scale(count)
    return total / len(elems)


def project_polynomial(f: Polynomial, rs: RootSystem) -> Polynomial:
    """Compose with the projector onto the root span (no-op for full rank)."""
    if not rs.complement_basis:
        return f
    return substitute_linear(f, rs.projection)
