"""Sparse multivariate polynomials over the integers.

A monomial is a tuple of ``(variable_index, exponent)`` pairs sorted by
variable index, with every stored exponent positive; the empty tuple is the
constant monomial 1.  A polynomial maps monomials to nonzero integer
coefficients; the empty mapping is the zero polynomial.  Variable indices
are positive integers (``x1``, ``x2``, ...), and coefficients are plain
Python ints, so there is no overflow anywhere.

The monomial order used for leading terms, rendering and sign conventions
is graded lexicographic: higher total degree wins, ties are broken by
comparing exponents of the lowest-indexed variable first.
"""

from __future__ import annotations

import math
import operator

Monomial = tuple[tuple[int, int], ...]

CONST_MONOMIAL: Monomial = ()


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent vectors, adding exponents of shared variables."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def monomial_div(a: Monomial, b: Monomial) -> Monomial | None:
    """Return a/b as a monomial, or None when b does not divide a."""
    exps = dict(a)
    for v, e in b:
        have = exps.get(v, 0)
        if have < e:
            return None
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return tuple(sorted(exps.items()))


def grlex_key(m: Monomial) -> tuple:
    """Sort key realizing graded-lex order with x1 > x2 > ... on ties."""
    return (sum(e for _, e in m), tuple((-v, e) for v, e in m))


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = (
            {m: c for m, c in terms.items() if c != 0} if terms else {}
        )
        self._hash: int | None = None

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "Poly":
        # Trusted constructor: terms must already be zero-free.
        p = cls.__new__(cls)
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls._raw({CONST_MONOMIAL: c} if c else {})

    @classmethod
    def one(cls) -> "Poly":
        return cls.const(1)

    @classmethod
    def variable(cls, index: int) -> "Poly":
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        return cls._raw({((index, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and CONST_MONOMIAL in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(CONST_MONOMIAL, 0)

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return frozenset(out)

    def degree_in(self, v: int) -> int:
        deg = 0
        for m in self.terms:
            for var, e in m:
                if var == v and e > deg:
                    deg = e
        return deg

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    def icontent(self) -> int:
        """Gcd of the integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def derivative(self, v: int) -> "Poly":
        """Formal partial derivative with respect to x_v."""
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            for i, (var, e) in enumerate(m):
                if var == v:
                    if e == 1:
                        dm = m[:i] + m[i + 1 :]
                    else:
                        dm = m[:i] + ((var, e - 1),) + m[i + 1 :]
                    out[dm] = out.get(dm, 0) + c * e
                    break
        return Poly(out)

    def _merge(self, other: "Poly", op) -> "Poly":
        # self + other or self - other, with op = operator.add / operator.sub
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = op(out.get(m, 0), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly._raw(out)

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        return self._merge(other, operator.add)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._merge(other, operator.sub)

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly.zero()
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly._raw(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending graded-lex order (deterministic rendering)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"


def poly_str(p: Poly) -> str:
    """Render like ``x1*x2^2 - 3*x3 + 1``; the zero polynomial is ``0``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in p.sorted_terms():
        mag = abs(c)
        if m == CONST_MONOMIAL:
            body = str(mag)
        else:
            factors = [f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in m]
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def normalize_sign(p: Poly) -> Poly:
    """Flip the sign so the graded-lex leading coefficient is positive."""
    if p.is_zero() or p.leading_coeff() > 0:
        return p
    return -p


def divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p/d; raises ArithmeticError when d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return Poly.zero()
    if d.is_constant():
        c = d.constant_value()
        if c == 1:
            return p
        if c == -1:
            return -p
        out = {}
        for m, k in p.terms.items():
            if k % c != 0:
                raise ArithmeticError("inexact polynomial division")
            out[m] = k // c
        return Poly._raw(out)
    lead_m = d.leading_monomial()
    lead_c = d.terms[lead_m]
    rem = dict(p.terms)
    out: dict[Monomial, int] = {}
    while rem:
        m = max(rem, key=grlex_key)
        c = rem[m]
        qm = monomial_div(m, lead_m)
        if qm is None or c % lead_c != 0:
            raise ArithmeticError("inexact polynomial division")
        qc = c // lead_c
        out[qm] = qc
        for dm, dc in d.terms.items():
            t = monomial_mul(qm, dm)
            s = rem.get(t, 0) - qc * dc
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return Poly._raw(out)


def _coeffs_in(p: Poly, v: int) -> dict[int, dict[Monomial, int]]:
    """View p as univariate in x_v: degree -> coefficient polynomial terms."""
    out: dict[int, dict[Monomial, int]] = {}
    for m, c in p.terms.items():
        deg = 0
        rest = m
        for i, (var, e) in enumerate(m):
            if var == v:
                deg = e
                rest = m[:i] + m[i + 1 :]
                break
        out.setdefault(deg, {})[rest] = c
    return out


def _mul_by_power(p: Poly, v: int, e: int) -> Poly:
    if e == 0:
        return p
    shift: Monomial = ((v, e),)
    return Poly._raw({monomial_mul(m, shift): c for m, c in p.terms.items()})


def _prem(a: Poly, b: Poly, v: int) -> Poly:
    """Pseudo-remainder of a by b in x_v, up to a content factor.

    The classical lc(b)^k premultiplier is dropped and integer content is
    stripped as it appears; callers take primitive parts anyway, so only
    the remainder up to content matters.
    """
    coeffs = _coeffs_in(b, v)
    db = max(coeffs)
    lead_b = Poly._raw(coeffs[db])
    r = a
    while not r.is_zero():
        coeffs = _coeffs_in(r, v)
        dr = max(coeffs)
        if dr < db:
            break
        lead_r = Poly._raw(coeffs[dr])
        r = lead_b * r - _mul_by_power(lead_r, v, dr - db) * b
        ic = r.icontent()
        if ic > 1:
            r = Poly._raw({m: c // ic for m, c in r.terms.items()})
    return r


def _content_in(p: Poly, v: int) -> Poly:
    """Gcd of the coefficients of p viewed as univariate in x_v."""
    g = Poly.zero()
    for coeff_terms in _coeffs_in(p, v).values():
        g = poly_gcd(g, Poly._raw(coeff_terms))
        if g.is_constant() and g.constant_value() == 1:
            break
    return g


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd over the integer polynomial ring, primitive-PRS style.

    Treats both inputs as univariate in the lowest-indexed variable of
    either, with polynomial coefficients, and recurses on contents.  The
    result has a positive graded-lex leading coefficient; gcd(p, 0) =
    +/-p normalized, gcd(0, 0) = 0.
    """
    if p.is_zero():
        return normalize_sign(q)
    if q.is_zero():
        return normalize_sign(p)
    if p.is_constant() or q.is_constant():
        return Poly.const(math.gcd(p.icontent(), q.icontent()))

    vars_p = p.variables()
    vars_q = q.variables()
    if not vars_p & vars_q:
        # a divisor of p only involves variables of p, so the gcd of
        # variable-disjoint polynomials is an integer
        return Poly.const(math.gcd(p.icontent(), q.icontent()))
    if len(p.terms) == 1 and len(q.terms) == 1:
        (mp, cp_), (mq, cq_) = next(iter(p.terms.items())), next(iter(q.terms.items()))
        ep, eq = dict(mp), dict(mq)
        shared = tuple(
            sorted((v, min(ep[v], eq[v])) for v in set(ep) & set(eq))
        )
        return Poly._raw({shared: math.gcd(cp_, cq_)})

    v = min(vars_p | vars_q)
    cp = _content_in(p, v)
    cq = _content_in(q, v)
    c = poly_gcd(cp, cq)
    a = divexact(p, cp)
    b = divexact(q, cq)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a

    while True:
        if b.degree_in(v) == 0:
            # b is primitive in x_v with degree zero, hence a unit.
            g = Poly.one()
            break
        r = _prem(a, b, v)
        if r.is_zero():
            g = b
            break
        a, b = b, divexact(r, _content_in(r, v))

    return normalize_sign(c * g)
