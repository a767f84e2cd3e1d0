"""Independent brute-force construction of canonical systems.

This path never touches the transfer machinery: it builds graded bases of
invariant polynomials by Reynolds-averaging monomials, then solves the
defining partial differential equations degree by degree with exact linear
algebra.  Agreement of its per-degree spans with the construction path is
the strongest cross-check the package offers, precisely because the two
routes share only the polynomial and group layers and the final
Gram-Schmidt step (``orthogonalize_graded``).
"""

from __future__ import annotations

from .canonical import InvariantSystem, orthogonalize_graded
from . import linalg
from .groups import ReflectionGroup, project_polynomial, reynolds
from .polys import (
    Polynomial,
    apply_diff,
    coefficient_rows,
    monomials_of_degree,
)
from .scalars import FLOAT


def hilbert_dimension(degrees, d: int) -> int:
    """Dimension of the degree-d graded piece of a free algebra on the degrees.

    Coefficient of t^d in the product of the geometric series 1/(1 - t^m).
    """
    coeffs = [0] * (d + 1)
    coeffs[0] = 1
    for m in degrees:
        for k in range(m, d + 1):
            coeffs[k] += coeffs[k - m]
    return coeffs[d]


def invariant_basis(group: ReflectionGroup, degree: int) -> list:
    """Echelonized basis of the invariant polynomials of one degree.

    Spanning set: Reynolds images of all degree-d monomials (projected into
    the root span first when the group fixes extra directions).  Averaging
    stops early once the rank reaches the dimension predicted by the degrees
    table; remaining monomials cannot enlarge the span.
    """
    rs = group.root_system
    field, nv = rs.field, rs.num_vars
    target = hilbert_dimension(rs.degrees, degree)
    if target == 0:
        return []
    support = sorted(monomials_of_degree(nv, degree))
    rows = []
    current_rank = 0
    for exp in support:
        mono = Polynomial.monomial(exp, 1, field)
        # Averaging the bare monomial first is much cheaper than averaging its
        # projection; the two commute because the projector is group-stable.
        image = project_polynomial(reynolds(mono, group), rs)
        if image.is_zero():
            continue
        rows += coefficient_rows([image], support)
        new_rank = linalg.rank(rows, field)
        if new_rank == current_rank:
            rows.pop()
        else:
            current_rank = new_rank
        if current_rank == target:
            break
    basis_rows = linalg.echelon_basis(rows, field)
    return [
        Polynomial(nv, field, {support[i]: c for i, c in enumerate(row)})
        for row in basis_rows
    ]


def pde_solve(group: ReflectionGroup) -> InvariantSystem:
    """Canonical system as the solution of the annihilation equations.

    At each classical degree m, the invariants f of degree m annihilated by
    every previously accepted member (f_prev(d)f = 0, an exact linear system
    on the invariant basis) form a space whose dimension must equal the
    multiplicity of m; the equal-degree block is then orthogonalized under
    the apolar pairing.  The field must be exact: a float nullspace has no
    reliable dimension.
    """
    rs = group.root_system
    field = rs.field
    if field is FLOAT:
        raise ValueError(f"the PDE oracle needs an exact field; {rs.describe()} is "
                         f"realized over {field.name}")
    degrees = list(rs.degrees)
    accepted: list[Polynomial] = []
    for degree in sorted(set(degrees)):
        multiplicity = degrees.count(degree)
        basis = invariant_basis(group, degree)
        if len(basis) < multiplicity:
            raise RuntimeError(
                f"invariant space of degree {degree} is smaller than the multiplicity"
            )
        # Unknowns: coordinates in the invariant basis.  Conditions: every
        # coefficient of f_prev(d)(candidate) vanishes.
        rows = []
        for prev in accepted:
            rows += linalg.transpose(coefficient_rows([apply_diff(prev, b) for b in basis]))
        if rows:
            solution = linalg.nullspace(rows, field)
        else:
            solution = linalg.identity(len(basis), field)
        if len(solution) != multiplicity:
            raise RuntimeError(
                f"degree {degree}: solution space has dimension {len(solution)}, "
                f"expected {multiplicity}; this signals an implementation bug"
            )
        block = []
        for coords in solution:
            f = Polynomial.zero(rs.num_vars, field)
            for c, b in zip(coords, basis):
                f = f + b.scale(c)
            block.append(f)
        accepted.extend(orthogonalize_graded(block))
    return InvariantSystem.from_polynomials(accepted, rs.to_json(), "oracle")


def spans_agree(polys_a, polys_b) -> dict:
    """Exact per-degree span comparison of two families of homogeneous polys.

    Returns {degree: bool}; spans agree iff stacking either family onto the
    other does not raise the rank.
    """
    degrees = sorted(
        {p.homogeneous_degree() for p in polys_a} | {p.homogeneous_degree() for p in polys_b}
    )
    out = {}
    for d in degrees:
        block_a = [p for p in polys_a if p.homogeneous_degree() == d]
        block_b = [p for p in polys_b if p.homogeneous_degree() == d]
        if not block_a or not block_b:
            out[d] = False
            continue
        field = block_a[0].field
        rows = coefficient_rows(block_a + block_b)
        rows_a, rows_b = rows[: len(block_a)], rows[len(block_a):]
        ra = linalg.rank(rows_a, field)
        rb = linalg.rank(rows_b, field)
        rab = linalg.rank(rows_a + rows_b, field)
        out[d] = ra == rb == rab
    return out
