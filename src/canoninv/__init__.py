"""Exact canonical systems of basic invariants for finite reflection groups."""

from .scalars import FLOAT, QQ, QSQRT5, QuadExt, field_by_name, is_positive, to_float
from .polys import (
    OneForm,
    Polynomial,
    apolar_inner,
    apply_diff,
    differential,
    linear_form,
    oneform_inner,
    substitute_linear,
)
from .groups import (
    ReflectionGroup,
    RootSystem,
    antiinvariant,
    build_root_system,
    classical_degrees,
    group_action,
    reflection_matrix,
    reynolds,
)
from .seeds import SeedSystem, jacobian_certificate, seed_invariants
from .canonical import (
    InvariantSystem,
    canonical_system,
    candidate_invariants,
    euler_contract,
    orthogonalize_graded,
    transfer,
    transfer_form,
    verify_canonical,
)
from .oracle import pde_solve, invariant_basis, spans_agree

__version__ = "0.1.0"

__all__ = [
    "FLOAT", "QQ", "QSQRT5", "QuadExt", "field_by_name", "is_positive", "to_float",
    "OneForm", "Polynomial", "apolar_inner", "apply_diff", "differential",
    "linear_form", "oneform_inner", "substitute_linear",
    "ReflectionGroup", "RootSystem", "antiinvariant",
    "build_root_system", "classical_degrees", "group_action", "reflection_matrix",
    "reynolds",
    "SeedSystem", "jacobian_certificate", "seed_invariants",
    "InvariantSystem", "canonical_system", "candidate_invariants", "euler_contract",
    "orthogonalize_graded", "transfer", "transfer_form", "verify_canonical",
    "pde_solve", "invariant_basis", "spans_agree",
]
