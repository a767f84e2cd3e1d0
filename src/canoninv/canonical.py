"""Construction and exact verification of canonical systems of basic invariants.

A system f_1, ..., f_n of basic invariants is canonical when f_i(d)f_j is
the zero polynomial for i != j and a positive constant for i = j.  The
construction here starts from any valid seed system h_1, ..., h_n:

1. push each seed through the transfer map built from the fundamental
   antiinvariant (``transfer``), assembling the candidate
   ``sum_j x_j * transfer(d_j h_i)``,
2. orthogonalize candidates of equal degree under the apolar pairing.

For groups whose invariant degrees are all distinct, step 2 is a no-op.
Type D_n with even n has one repeated degree, and the monomial x_1*...*x_n
is itself a member of the canonical span.  The refined mode places it
directly: it mixes the two degree-n seeds into the one combination whose
candidate pairs to zero with the monomial, and sends the reduced seeds
through the same two steps, saving one transfer of a seed.

Exact outputs carry the pair (f_i, c_i) with c_i = <f_i, f_i>; the unit
normalization divides by sqrt(c_i) and therefore exists only in the float
view.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .groups import ReflectionGroup, RootSystem, antiinvariant, group_action
from .polys import (
    OneForm,
    Polynomial,
    apolar_inner,
    apply_diff,
    coefficient_rows,
    differential,
    linear_form,
)
from .scalars import FLOAT, is_positive, to_float
from .seeds import SeedSystem, seed_invariants


def transfer(f: Polynomial, delta: Polynomial) -> Polynomial:
    """Apply ``f`` to the antiinvariant, then apply the result to it again.

    The map is linear, degree-preserving, self-adjoint for the apolar
    pairing, commutes with the group action, and kills exactly the ideal
    generated by positive-degree invariants.
    """
    return apply_diff(apply_diff(f, delta), delta)


def transfer_form(omega: OneForm, delta: Polynomial) -> OneForm:
    """Componentwise transfer of a one-form."""
    return omega.map_components(lambda c: transfer(c, delta))


def euler_contract(omega: OneForm) -> Polynomial:
    """Contract a one-form with the Euler vector field: sum_k x_k * h_k.

    On the differential of a homogeneous h this returns (deg h) * h.
    """
    nv, field = omega.num_vars, omega.field
    total = Polynomial.zero(nv, field)
    for k, comp in enumerate(omega.components):
        total = total + Polynomial.variable(k, nv, field) * comp
    return total


def candidate_invariants(seeds: SeedSystem, delta: Polynomial) -> list:
    """The candidate system sum_j x_j * transfer(d_j h_i), one per seed.

    Each candidate is homogeneous invariant of the same degree as its seed,
    and the list is linearly independent; anything else signals an invalid
    seed system or an upstream bug.
    """
    cands = []
    for h in seeds.polynomials:
        g = euler_contract(transfer_form(differential(h), delta))
        if g.is_zero():
            raise RuntimeError(
                f"candidate for a degree-{h.homogeneous_degree()} seed collapsed to zero"
            )
        if g.homogeneous_degree() != h.homogeneous_degree():
            raise RuntimeError("candidate degree does not match its seed degree")
        cands.append(g)
    for degree in set(seeds.degrees):
        block = [c for c in cands if c.homogeneous_degree() == degree]
        if len(block) < 2:
            continue
        if linalg.rank(coefficient_rows(block), block[0].field) < len(block):
            raise RuntimeError(f"degree-{degree} candidates are linearly dependent")
    return cands


def orthogonalize_graded(candidates: list) -> list:
    """Gram-Schmidt under the apolar pairing, without normalization.

    Candidates must be homogeneous and sorted by degree.  Polynomials of
    distinct degrees pair to zero, so projections only happen inside
    equal-degree blocks.
    """
    out = []
    for cand in candidates:
        g = cand
        d = cand.homogeneous_degree()
        for prev in out:
            if prev.homogeneous_degree() != d:
                continue
            coeff = apolar_inner(prev, g) / apolar_inner(prev, prev)
            g = g - prev.scale(coeff)
        if g.is_zero():
            raise RuntimeError("orthogonalization hit a zero vector: dependent candidates")
        out.append(g)
    return out


@dataclass
class InvariantEntry:
    polynomial: Polynomial
    degree: int
    norm: object  # <f, f>, a field scalar

    def to_json(self, field):
        return {
            "degree": self.degree,
            "norm": field.format(self.norm),
            "poly": self.polynomial.to_json(),
        }


class InvariantSystem:
    """Ordered homogeneous invariants with their exact self-pairings."""

    def __init__(self, entries, group_json, provenance):
        self.entries = list(entries)
        self.group_json = group_json
        self.provenance = provenance
        self.verified = False

    @property
    def degrees(self):
        return [e.degree for e in self.entries]

    def polynomials(self):
        return [e.polynomial for e in self.entries]

    def float_normalized(self):
        """Unit-normalized float view: each entry divided by sqrt of its norm."""
        out = []
        for e in self.entries:
            scale = 1.0 / (to_float(e.norm) ** 0.5)
            f = e.polynomial.convert(FLOAT)
            out.append(f.scale(scale))
        return out

    def to_json(self):
        field = self.entries[0].polynomial.field
        return {
            "group": self.group_json,
            "entries": [e.to_json(field) for e in self.entries],
            "provenance": self.provenance,
            "verified": self.verified,
        }

    @classmethod
    def from_polynomials(cls, polys, group_json, provenance):
        """Wrap homogeneous polynomials as a system (no canonicity implied)."""
        return cls(_entries_from_polys(polys), group_json, provenance)

    @classmethod
    def from_json(cls, data):
        try:
            g = data["group"]
            if not (isinstance(g, dict) and type(g["type"]) is str and type(g["rank"]) is int
                    and (g.get("m") is None or type(g["m"]) is int)):
                raise ValueError("malformed system: group needs a string type, an int rank "
                                 "and an int or null m")
            entries = []
            for e in data["entries"]:
                poly = Polynomial.from_json(e["poly"])
                if type(e["degree"]) is not int:
                    raise ValueError(f"malformed system: degree {e['degree']!r} is not an int")
                entries.append(InvariantEntry(poly, e["degree"], poly.field.parse(e["norm"])))
            system = cls(entries, g, data["provenance"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed system: {type(exc).__name__} {exc}") from None
        if not entries:
            raise ValueError("system has no entries")
        system.verified = bool(data.get("verified", False))
        return system

    def latex(self):
        lines = []
        for i, e in enumerate(self.entries, start=1):
            lines.append(f"f_{{{i}}} = {e.polynomial.latex()}")
        return lines


def _entries_from_polys(polys):
    """Normalize each member to a unit coefficient, then record its norm.

    Scaling an entry never affects canonicity; pinning the graded-lex leading
    coefficient makes the output representative (and its JSON) deterministic.
    Float polynomials first shed roundoff dust (relative 1e-12) and are pinned
    at their largest coefficient instead, which a noise term can never be.
    """
    out = []
    for p in polys:
        if p.field is FLOAT:
            peak = max(abs(c) for _, c in p.sorted_terms())
            p = Polynomial(p.num_vars, p.field,
                           {e: c for e, c in p.sorted_terms() if abs(c) > 1e-12 * peak})
            lead = max(p.sorted_terms(), key=lambda ec: (abs(ec[1]), ec[0]))[1]
        else:
            lead = p.sorted_terms()[0][1]
        p = p.scale(p.field.one / lead)
        out.append(InvariantEntry(p, p.homogeneous_degree(), apolar_inner(p, p)))
    return out


def _even_d_seeds(rs: RootSystem, seeds: SeedSystem) -> tuple:
    """Type D with even rank n: mix the two degree-n seeds h, h' into one.

    With a, b the apolar pairings of h, h' against the monomial x_1*...*x_n,
    the candidate of b*h - a*h' is orthogonal to the monomial, because the
    transfer is self-adjoint and has d(x_1*...*x_n) as an eigenvector.
    Returns the reduced seed system and the monomial.
    """
    monomial = Polynomial(rs.num_vars, rs.field, {(1,) * rs.num_vars: 1})
    repeated = [i for i, d in enumerate(seeds.degrees) if d == rs.rank]
    if len(repeated) != 2:
        raise RuntimeError("expected exactly two seeds of the repeated degree")
    i_low, i_high = repeated
    h, h_prime = seeds.polynomials[i_low], seeds.polynomials[i_high]
    a = apolar_inner(monomial, h)
    b = apolar_inner(monomial, h_prime)
    if rs.field.is_zero(a) and rs.field.is_zero(b):
        raise RuntimeError(
            "both repeated-degree seeds pair to zero against the monomial; "
            "the seed system cannot be a valid basis"
        )
    polys = list(seeds.polynomials)
    polys[i_low] = h.scale(b) - h_prime.scale(a)
    del polys[i_high]
    degrees = seeds.degrees[:i_high] + seeds.degrees[i_high + 1:]
    return SeedSystem(polys, degrees, seeds.provenance), monomial


def canonical_system(group: ReflectionGroup, seeds: SeedSystem | None = None,
                     mode: str = "generic", delta: Polynomial | None = None) -> InvariantSystem:
    """Build a canonical system for the group.

    Both modes run the same pipeline: candidates, then graded Gram-Schmidt.
    ``refined`` differs only for D_n with even n, where it places the
    monomial x_1*...*x_n directly next to the candidate of one mixed seed
    (see ``_even_d_seeds``); elsewhere it equals ``generic``.  The per-degree
    spans of the two modes agree; with default seeds so do the entries.
    """
    if mode not in ("generic", "refined"):
        raise ValueError(f"unknown mode {mode!r}")
    rs = group.root_system
    if seeds is None:
        seeds = seed_invariants(group)
    if delta is None:
        delta = antiinvariant(rs)
    monomial = None
    if mode == "refined" and rs.type_label == "D" and rs.rank % 2 == 0:
        seeds, monomial = _even_d_seeds(rs, seeds)
    polys = candidate_invariants(seeds, delta)
    if monomial is not None:
        polys.insert(seeds.degrees.index(rs.rank) + 1, monomial)
    return InvariantSystem.from_polynomials(orthogonalize_graded(polys), rs.to_json(), mode)


@dataclass
class PairFailure:
    i: int
    j: int
    pairing: Polynomial

    def describe(self):
        return f"(f_{self.i + 1}, f_{self.j + 1}) = {self.pairing} != 0"


@dataclass
class VerificationReport:
    passed: bool
    pair_failures: list
    norm_failures: list
    invariance_failures: list
    degree_ok: bool
    norms: list
    tolerance: float | None
    degree_label_failures: list  # "f_i: ..." lines naming the entry
    stored_norm_failures: list
    root_span_failures: list

    def summary(self):
        if self.passed:
            return "canonical: all cross-pairings vanish, all self-pairings positive"
        issues = []
        for f in self.pair_failures:
            issues.append(f.describe())
        for i in self.norm_failures:
            issues.append(f"(f_{i + 1}, f_{i + 1}) is not a positive constant")
        for i, g in self.invariance_failures:
            issues.append(f"f_{i + 1} is not invariant under generator {g + 1}")
        if not self.degree_ok:
            issues.append("degrees do not match the classical table")
        return "; ".join(issues + self.degree_label_failures + self.stored_norm_failures
                         + self.root_span_failures)

    def to_json(self, field):
        return {
            "passed": self.passed,
            "pair_failures": [
                {"i": f.i, "j": f.j, "pairing": f.pairing.to_json()}
                for f in self.pair_failures
            ],
            "norm_failures": self.norm_failures,
            "invariance_failures": self.invariance_failures,
            "degree_ok": self.degree_ok,
            "norms": [field.format(n) for n in self.norms],
            "tolerance": self.tolerance,
            "degree_label_failures": self.degree_label_failures,
            "stored_norm_failures": self.stored_norm_failures,
            "root_span_failures": self.root_span_failures,
        }


def _max_abs_coefficient(p: Polynomial) -> float:
    if p.is_zero():
        return 0.0
    return max(abs(to_float(c)) for _, c in p.sorted_terms())


FLOAT_VERIFY_TOLERANCE = 1e-8


def verify_canonical(system: InvariantSystem, group: ReflectionGroup,
                     tolerance: float | None = None) -> VerificationReport:
    """Check every ordered pair (i, j) of the defining conditions.

    For exact fields the cross-pairings must vanish identically (including
    i < j, where the pairing is a positive-degree polynomial).  For the float
    backend the system is unit-normalized first and coefficients are compared
    against a tolerance.  Each entry's degree label must be its degree, its
    stored norm must be <f_i, f_i> (exactly, or to the relative tolerance), and
    it must lie in the root-span subalgebra: u(d) f_i = 0 for every fixed
    direction u.
    """
    rs = group.root_system
    exact = rs.field is not FLOAT
    if not exact and tolerance is None:
        tolerance = FLOAT_VERIFY_TOLERANCE

    originals = system.polynomials()
    polys = originals if exact else system.float_normalized()
    degree_label_failures = [
        f"f_{i + 1}: degree label {e.degree} != degree {e.polynomial.homogeneous_degree()}"
        for i, e in enumerate(system.entries) if e.polynomial.homogeneous_degree() != e.degree
    ]
    pair_failures = []
    norm_failures = []
    stored_norm_failures = []
    norms = []
    n = len(polys)
    for i in range(n):
        for j in range(n):
            pairing = apply_diff(polys[i], polys[j])
            if i == j:
                c = pairing.constant_term()
                norms.append(c)
                actual = c if exact else apolar_inner(originals[i], originals[i])
                stored, fmt = system.entries[i].norm, originals[i].field.format
                if (stored != actual) if exact else abs(stored - actual) > tolerance * abs(actual):
                    stored_norm_failures.append(f"f_{i + 1}: stored norm {fmt(stored)} != "
                                                f"<f_{i + 1}, f_{i + 1}> = {fmt(actual)}")
                residual = pairing - Polynomial.constant(c, pairing.num_vars, pairing.field)
                if exact:
                    ok = residual.is_zero() and is_positive(c)
                else:
                    ok = (
                        _max_abs_coefficient(residual) <= tolerance
                        and abs(to_float(c) - 1.0) <= tolerance
                    )
                if not ok:
                    norm_failures.append(i)
            else:
                bad = (not pairing.is_zero()) if exact else (
                    _max_abs_coefficient(pairing) > tolerance
                )
                if bad:
                    pair_failures.append(PairFailure(i, j, pairing))

    root_span_failures = [
        f"f_{i + 1}: not in the root-span subalgebra (fixed direction {k + 1})"
        for i, p in enumerate(originals) for k, u in enumerate(rs.complement_basis)
        if not apply_diff(linear_form(u, rs.field), p).is_zero()
    ]
    invariance_failures = []
    for i, p in enumerate(originals):
        for gi, gen in enumerate(group.generators):
            moved = group_action(gen, p)
            if exact:
                ok = moved == p
            else:
                ok = _max_abs_coefficient(moved - p) <= tolerance * max(
                    1.0, _max_abs_coefficient(p)
                )
            if not ok:
                invariance_failures.append((i, gi))

    degree_ok = system.degrees == list(rs.degrees)
    passed = degree_ok and not (pair_failures or norm_failures or invariance_failures
                                or degree_label_failures or stored_norm_failures
                                or root_span_failures)
    return VerificationReport(
        passed=passed,
        pair_failures=pair_failures,
        norm_failures=norm_failures,
        invariance_failures=invariance_failures,
        degree_ok=degree_ok,
        norms=norms,
        tolerance=tolerance,
        degree_label_failures=degree_label_failures,
        stored_norm_failures=stored_norm_failures,
        root_span_failures=root_span_failures,
    )


