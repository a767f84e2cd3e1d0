"""Sparse multivariate polynomials over an exact (or float) coefficient field.

A polynomial is a mapping from exponent tuples to nonzero coefficients; the
zero polynomial has an empty term map.  The module provides the two pairings
everything else is built on:

* ``apply_diff(f, g)``: substitute partial derivatives for the variables of
  ``f`` and apply the resulting operator to ``g`` (a polynomial result),
* ``apolar_inner(f, g)``: the constant term of ``apply_diff(f, g)``, which is
  a positive-definite symmetric pairing on real polynomials; on monomials
  ``<x^a, x^a>`` equals the product of the factorials of the exponents.

On Q and Q(sqrt5), ``apply_diff`` is one integer kernel: packed exponents
with guard bits, numerators over a common denominator, and divided powers
(see its docstring).  Floats keep a direct loop, whose rounding and
summation order the float outputs depend on.

Group actions enter through ``substitute_linear``; differentials of
polynomials are :class:`OneForm` values with one coefficient polynomial per
``dx_j``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod

from .scalars import FLOAT, QSQRT5, Field, QuadExt, field_by_name


def _check_compatible(f: "Polynomial", g: "Polynomial"):
    if f.num_vars != g.num_vars:
        raise ValueError(f"variable count mismatch: {f.num_vars} vs {g.num_vars}")
    if f.field is not g.field:
        raise ValueError(f"field mismatch: {f.field.name} vs {g.field.name}")


class Polynomial:
    """Immutable sparse polynomial in ``num_vars`` variables."""

    __slots__ = ("num_vars", "field", "_terms")

    def __init__(self, num_vars: int, field: Field, terms=None):
        self.num_vars = num_vars
        self.field = field
        clean = {}
        if terms:
            for exp, coef in terms.items():
                c = field.coerce(coef)
                if not field.is_zero(c):
                    clean[tuple(exp)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, num_vars, field, terms):
        """Internal constructor for already-coerced, already-pruned term maps."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.field = field
        p._terms = terms
        return p

    @classmethod
    def zero(cls, num_vars, field):
        return cls._raw(num_vars, field, {})

    @classmethod
    def constant(cls, value, num_vars, field):
        c = field.coerce(value)
        if field.is_zero(c):
            return cls.zero(num_vars, field)
        return cls._raw(num_vars, field, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, index, num_vars, field):
        if not 0 <= index < num_vars:
            raise IndexError(f"variable index {index} out of range for {num_vars} variables")
        exp = [0] * num_vars
        exp[index] = 1
        return cls._raw(num_vars, field, {tuple(exp): field.one})

    @classmethod
    def monomial(cls, exponents, coefficient, field):
        exp = tuple(exponents)
        c = field.coerce(coefficient)
        if field.is_zero(c):
            return cls.zero(len(exp), field)
        return cls._raw(len(exp), field, {exp: c})

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def coefficient(self, exponents):
        return self._terms.get(tuple(exponents), self.field.zero)

    def constant_term(self):
        return self._terms.get((0,) * self.num_vars, self.field.zero)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if inhomogeneous/zero."""
        degs = {sum(e) for e in self._terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def sorted_terms(self):
        """Terms in graded lexicographic order (ascending); deterministic."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __len__(self):
        return len(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_compatible(self, other)
        out = dict(self._terms)
        fz = self.field.is_zero
        for exp, c in other._terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if fz(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return Polynomial._raw(self.num_vars, self.field, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._raw(self.num_vars, self.field, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        _check_compatible(self, other)
        out = {}
        fz = self.field.is_zero
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                v = ca * cb
                s = out.get(key)
                s = v if s is None else s + v
                if fz(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        return Polynomial._raw(self.num_vars, self.field, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        c = self.field.coerce(scalar)
        if self.field.is_zero(c):
            return Polynomial.zero(self.num_vars, self.field)
        return Polynomial._raw(self.num_vars, self.field, {e: v * c for e, v in self._terms.items()})

    def __truediv__(self, scalar):
        c = self.field.coerce(scalar)
        return self.scale(self.field.one / c)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Polynomial.constant(1, self.num_vars, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.field is other.field
            and self._terms == other._terms
        )

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def partial(self, index):
        """Formal partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range for {self.num_vars} variables")
        out = {}
        fz = self.field.is_zero
        for exp, c in self._terms.items():
            k = exp[index]
            if k == 0:
                continue
            v = c * k
            if fz(v):
                continue
            new = list(exp)
            new[index] = k - 1
            out[tuple(new)] = v
        return Polynomial._raw(self.num_vars, self.field, out)

    def evaluate(self, point):
        """Value at ``point``, given as one integer or field scalar per variable."""
        total = self.field.zero
        for exp, c in self._terms.items():
            for x, e in zip(point, exp):
                if e:
                    c = c * x**e
            total = total + c
        return total

    # -- conversion & display ----------------------------------------------

    def convert(self, field: Field):
        """Re-coerce every coefficient into ``field`` (e.g. Q into Q(sqrt5) or float)."""
        if field is self.field:
            return self
        return Polynomial(self.num_vars, field, self._terms)

    def to_json(self):
        return {
            "vars": self.num_vars,
            "field": self.field.name,
            "terms": [
                {"exp": list(exp), "coef": self.field.format(c)}
                for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        try:
            field = field_by_name(data["field"])
            nv = data["vars"]
            terms = {}
            for t in data["terms"]:
                exp = tuple(t["exp"])
                if len(exp) != nv:
                    raise ValueError("exponent length does not match variable count")
                terms[exp] = field.parse(t["coef"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial: {type(exc).__name__} {exc}") from None
        return cls(nv, field, terms)

    def _term_str(self, exp, coef, latex=False):
        parts = []
        for j, e in enumerate(exp):
            if e == 0:
                continue
            name = f"x_{{{j + 1}}}" if latex else f"x{j + 1}"
            if e == 1:
                parts.append(name)
            else:
                parts.append(f"{name}^{{{e}}}" if latex else f"{name}^{e}")
        var_part = ("" if latex else "*").join(parts)
        cs = str(coef) if isinstance(coef, QuadExt) else self.field.format(coef)
        if not parts:
            return cs
        if cs == "1":
            return var_part
        if cs == "-1":
            return "-" + var_part
        if "+" in cs[1:] or "-" in cs[1:] or "*" in cs or (latex and "/" in cs):
            cs = f"({cs})"
        return f"{cs}{var_part}" if latex else f"{cs}*{var_part}"

    def _render(self, latex):
        """Terms in descending graded-lex order, as plain text or LaTeX."""
        if not self._terms:
            return "0"
        terms = sorted(self._terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
        out = self._term_str(*terms[0], latex=latex)
        for exp, c in terms[1:]:
            s = self._term_str(exp, c, latex=latex)
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out

    def __str__(self):
        return self._render(latex=False)

    def latex(self):
        return self._render(latex=True)

    def __repr__(self):
        return f"<Polynomial {self}>"


def monomials_of_degree(num_vars, degree):
    """All exponent tuples of the given total degree, in ascending lexicographic order."""
    def rec(pos, remaining):
        if pos == num_vars - 1:
            yield (remaining,)
            return
        for e in range(remaining + 1):
            for rest in rec(pos + 1, remaining - e):
                yield (e,) + rest
    return rec(0, degree)


def coefficient_rows(polys, support=None):
    """Coefficient matrix: one row per polynomial, one column per exponent.

    ``support`` defaults to the sorted union of the polynomials' exponents.
    """
    if support is None:
        support = sorted({e for p in polys for e in p._terms})
    rows = []
    for p in polys:
        terms, zero = p._terms, p.field.zero
        rows.append([terms.get(e, zero) for e in support])
    return rows


def _packed(terms, comps, shifts, bias, facts):
    """Common denominator and, per coefficient component, [(packed key | bias, numerator * b!)]."""
    den = lcm(*(q.denominator for c in terms.values() for q in comps(c)))
    parts = ([], [])
    for exp, c in terms.items():
        key = sum(e << s for e, s in zip(exp, shifts)) | bias
        scale = prod(facts[e] for e in exp) if facts else 1
        for part, q in zip(parts, comps(c)):
            if q:
                part.append((key, q.numerator * (den // q.denominator) * scale))
    return den, parts


def _pair_sums(acc, fpart, gpart, guard, k=1):
    """``acc[b - a] += k * ca * cb`` over the pairs with b >= a (see ``apply_diff``)."""
    get = acc.get
    for ka, ca in fpart:
        ca *= k
        for kb, cb in gpart:
            d = kb - ka
            if d & guard == guard:
                d ^= guard
                acc[d] = get(d, 0) + ca * cb


def apply_diff(f: Polynomial, g: Polynomial) -> Polynomial:
    """Apply ``f`` as a constant-coefficient differential operator to ``g``.

    ``c x^a`` acts as ``c d^a``, and ``d^a x^b = b!/(b-a)! x^(b-a)`` if b >= a,
    else 0.  Exact fields run one integer kernel.  Exponents are packed w bits
    per variable, w = top.bit_length() + 1 for the largest exponent ``top``,
    with the top (guard) bit of every field of g's keys set.  Every exponent
    is below 2^(w-1), so each field of ``d = kb - ka`` is b_i - a_i + 2^(w-1)
    in [1, 2^w): no borrow crosses a field, all guard bits survive exactly
    when b >= a, and then ``d ^ guard`` is the packed b - a.  Each side is put
    over one common denominator and g's numerators are stored times b!
    (divided powers): a pair costs one integer product, and (b-a)! and the
    denominators are divided out once per output term.  Q(sqrt5) splits into
    rational and sqrt5 parts; sqrt5 * sqrt5 enters the rational part times 5.
    """
    _check_compatible(f, g)
    field = f.field
    if field is FLOAT:
        # Floats keep the direct loop: float outputs depend on its rounding
        # and summation order.  This branch goes with the float backend.
        out = {}
        fz = field.is_zero
        gterms = g._terms
        for ea, ca in f._terms.items():
            for eb, cb in gterms.items():
                coef = 1
                for a, b in zip(ea, eb):
                    if a > b:
                        coef = 0
                        break
                    for t in range(b, b - a, -1):  # falling factorial b!/(b-a)!
                        coef *= t
                if coef == 0:
                    continue
                key = tuple(b - a for a, b in zip(ea, eb))
                v = ca * cb * coef
                s = out.get(key)
                s = v if s is None else s + v
                if fz(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        return Polynomial._raw(f.num_vars, field, out)
    top = max((max(e, default=0) for e in (*f._terms, *g._terms)), default=0)
    w = top.bit_length() + 1
    shifts = range(0, w * f.num_vars, w)
    guard = sum(1 << (s + w - 1) for s in shifts)
    facts = [factorial(e) for e in range(top + 1)]
    quad = field is QSQRT5
    comps = (lambda c: (c.a, c.b)) if quad else (lambda c: (c,))
    den_f, (fa, fb) = _packed(f._terms, comps, shifts, 0, None)
    den_g, (ga, gb) = _packed(g._terms, comps, shifts, guard, facts)
    rat, irr = {}, {}
    _pair_sums(rat, fa, ga, guard)
    _pair_sums(rat, fb, gb, guard, 5)
    _pair_sums(irr, fa, gb, guard)
    _pair_sums(irr, fb, ga, guard)
    den, mask, out = den_f * den_g, (1 << w) - 1, {}
    for d in rat | irr:
        a, b = rat.get(d, 0), irr.get(d, 0)
        if a or b:
            exp = tuple((d >> s) & mask for s in shifts)
            q = den * prod(facts[e] for e in exp)
            out[exp] = QuadExt(Fraction(a, q), Fraction(b, q)) if quad else Fraction(a, q)
    return Polynomial._raw(f.num_vars, field, out)


def apolar_inner(f: Polynomial, g: Polynomial):
    """Constant term of ``apply_diff(f, g)``: symmetric and positive definite."""
    _check_compatible(f, g)
    total = f.field.zero
    small, large = (f._terms, g._terms) if len(f) <= len(g) else (g._terms, f._terms)
    for exp, ca in small.items():
        cb = large.get(exp)
        if cb is None:
            continue
        total = total + ca * cb * prod(map(factorial, exp))
    return total


def substitute_linear(f: Polynomial, matrix) -> Polynomial:
    """Return ``f(Mx)``: substitute each variable ``x_i`` by ``sum_j M[i][j] x_j``.

    Terms are grouped variable by variable so that partial products of row
    powers are shared across the whole polynomial; without the sharing,
    high-degree inputs such as antiinvariants are far too slow to transform.
    """
    nv = f.num_vars
    if len(matrix) != nv or any(len(row) != nv for row in matrix):
        raise ValueError("substitution matrix shape does not match variable count")
    field = f.field
    rows = [linear_form(row, field) for row in matrix]
    power_cache = {}

    def row_power(i, e):
        key = (i, e)
        got = power_cache.get(key)
        if got is None:
            got = rows[i] ** e
            power_cache[key] = got
        return got

    def build(items, var):
        # items: [(exponent tuple, coefficient)], all agreeing on vars < var.
        if var == nv:
            total = items[0][1]
            for _, c in items[1:]:
                total = total + c
            return Polynomial.constant(total, nv, field)
        groups = {}
        for exp, c in items:
            groups.setdefault(exp[var], []).append((exp, c))
        total = Polynomial.zero(nv, field)
        for e in sorted(groups):
            sub = build(groups[e], var + 1)
            total = total + (sub if e == 0 else sub * row_power(var, e))
        return total

    if not f._terms:
        return Polynomial.zero(nv, field)
    return build(list(f._terms.items()), 0)


class OneForm:
    """Element of S (x) V*: one coefficient polynomial per ``dx_j``."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("a one-form needs at least one component")
        first = comps[0]
        for c in comps[1:]:
            _check_compatible(first, c)
        if len(comps) != first.num_vars:
            raise ValueError("a one-form needs one component per variable")
        self.components = comps

    @classmethod
    def zero(cls, num_vars, field):
        return cls([Polynomial.zero(num_vars, field)] * num_vars)

    @property
    def num_vars(self):
        return self.components[0].num_vars

    @property
    def field(self):
        return self.components[0].field

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def homogeneous_degree(self):
        degs = {c.homogeneous_degree() for c in self.components if not c.is_zero()}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __add__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return OneForm([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return OneForm([a - b for a, b in zip(self.components, other.components)])

    def __rmul__(self, scalar):
        return OneForm([c.scale(scalar) for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def map_components(self, fn):
        return OneForm([fn(c) for c in self.components])

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.components)
        return f"<OneForm ({inner})>"


def differential(f: Polynomial) -> OneForm:
    """The one-form with component ``j`` equal to the j-th partial of ``f``."""
    return OneForm([f.partial(j) for j in range(f.num_vars)])


def oneform_inner(w1: OneForm, w2: OneForm):
    """Componentwise sum of apolar pairings of two one-forms."""
    if w1.num_vars != w2.num_vars:
        raise ValueError("one-form variable count mismatch")
    total = w1.field.zero
    for a, b in zip(w1.components, w2.components):
        total = total + apolar_inner(a, b)
    return total


def linear_form(coefficients, field: Field) -> Polynomial:
    """The degree-1 polynomial with the given coefficient vector."""
    nv = len(coefficients)
    terms = {}
    for j, c in enumerate(coefficients):
        exp = tuple(1 if k == j else 0 for k in range(nv))
        terms[exp] = c
    return Polynomial(nv, field, terms)
