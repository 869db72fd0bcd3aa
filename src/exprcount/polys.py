"""Sparse multivariate polynomials over the integers.

A monomial is a sorted tuple of variable indices, each index repeated
once per unit of its exponent: x1^2*x3 is ``(1, 1, 3)``, the empty tuple
is the constant monomial 1, and a monomial's degree is its length.  A
polynomial maps monomials to nonzero integer coefficients; the empty
mapping is the zero polynomial.  Variable indices are positive integers
(``x1``, ``x2``, ...), and coefficients are plain Python ints, so there is
no overflow anywhere.  ``Poly(terms)`` also takes the readable form, a
monomial as ``(variable_index, exponent)`` pairs.

The monomial order used for leading terms, rendering and sign conventions
is graded lexicographic: higher total degree wins, ties are broken by
comparing exponents of the lowest-indexed variable first.  Its one sort
key, ``_grlex_desc_key``, is ``(-len(m), m)``: between two monomials of
one degree, the first position where they differ holds the smaller index
in the one with more of that variable, and both have the same exponent
of every lower-indexed variable.

``poly_gcd`` is exact: after cheap exits for a zero input, inputs with
no variable in common (a constant has none) and monomial inputs, it
takes out the contents and settles an input of degree 1 in some variable
whose coefficient or remaining part is one term with one trial division:
such an input is irreducible (any factor free of that variable divides a
one-term polynomial, so it is a monomial times an integer, and the
contents are gone), so the gcd is the input or 1.  That division stops
once its quotient has as many terms as the two inputs together, which
bounds its cost; an undecided pair goes on.  Otherwise it tries the
heuristic gcd (GCDHEU: evaluate, take the gcd of the images,
interpolate the gcd or a cofactor), accepts a candidate only when it
divides both inputs, and falls back to a primitive pseudo-remainder
sequence when every evaluation point fails; both read a polynomial as
univariate in its highest-index variable through ``_coeffs_in``.  ``divexact``
divides by one term (a content) term by term, and otherwise keeps its
remainder's terms in a heap, so each step finds the leading term in
logarithmic time.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Iterable

Monomial = tuple[int, ...]  # sorted indices, one per unit of exponent: len is degree

CONST_MONOMIAL: Monomial = ()


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product: both index runs, one after the other when they do not overlap."""
    if not a or not b or a[-1] <= b[0]:
        return a + b
    if b[-1] <= a[0]:
        return b + a
    return tuple(sorted(a + b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial | None:
    """Return a/b as a monomial, or None when b does not divide a."""
    if not b:
        return a
    out = list(a)
    for v in b:
        try:
            out.remove(v)
        except ValueError:
            return None
    return tuple(out)


def _lex_key(m: Monomial) -> tuple:
    """Pure lex sort key, x1 > x2 > ...; a key that prefixes another is a divisor's, so lower."""
    return tuple(-v for v in m)


def _grlex_desc_key(m: Monomial) -> tuple:
    # Graded-lex larger sorts first (see the module docstring).
    return (-len(m), m)


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation.

    The hash is computed on the first ``hash()`` and kept in ``_hash``;
    building a ``Poly`` leaves that slot unset, so arithmetic that never
    hashes its intermediate results pays nothing for it.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[tuple[tuple[int, int], ...], int] | None = None):
        # terms maps (variable_index, exponent) pairs to coefficients; pairs
        # giving one monomial add up, and zero sums are dropped
        out: dict[Monomial, int] = {}
        for pairs, c in (terms or {}).items():
            indices: list[int] = []
            for v, e in pairs:
                if v < 1 or e < 0:
                    raise ValueError(f"need variable index >= 1 and exponent >= 0, got {(v, e)}")
                indices += [v] * e
            m = tuple(sorted(indices))
            out[m] = out.get(m, 0) + c
        self.terms: dict[Monomial, int] = {m: c for m, c in out.items() if c}

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "Poly":
        # Trusted constructor: terms must already be zero-free.
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls._raw({CONST_MONOMIAL: c} if c else {})

    @classmethod
    def variable(cls, index: int) -> "Poly":
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        return cls._raw({(index,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[int]:
        return frozenset().union(*self.terms)

    def leading_monomial(self) -> Monomial:
        if len(self.terms) == 1:
            [m] = self.terms
            return m
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=_grlex_desc_key)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    def icontent(self) -> int:
        """Gcd of the integer coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.terms.values())

    def derivative(self, v: int) -> "Poly":
        """Formal partial derivative with respect to x_v."""
        # m -> m/x_v is one-to-one, so no two terms meet
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            e = m.count(v)
            if e:
                i = m.index(v)
                out[m[:i] + m[i + 1 :]] = c * e
        return Poly._raw(out)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly._raw(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        # Polys are immutable, so a product with the constant 1 can be the
        # other operand itself.
        if self.terms == ONE.terms:
            return other
        if other.terms == ONE.terms:
            return self
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
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.terms.items()))
            return h

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"


# Polys are immutable, so the polynomial 1 is one shared object.
ONE = Poly.const(1)


def poly_str(p: Poly) -> str:
    """Render like ``x1*x2^2 - 3*x3 + 1``; the zero polynomial is ``0``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for m in sorted(p.terms, key=_grlex_desc_key):
        c = p.terms[m]
        mag = abs(c)
        if m == CONST_MONOMIAL:
            body = str(mag)
        else:
            runs = dict.fromkeys(m)  # each index once, in order
            body = "*".join([f"x{v}" if (e := m.count(v)) == 1 else f"x{v}^{e}" for v in runs])
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


class QuotientTooLong(Exception):
    """A ``divexact`` that would give more quotient terms than allowed."""


def divexact(p: Poly, d: Poly, max_terms: float = math.inf) -> Poly:
    """Exact division p/d; raises ArithmeticError when d does not divide p.

    A one-term divisor c*m divides term by term.  Otherwise the
    remainder's monomials sit in a heap ordered by descending grlex; a
    monomial is pushed when it enters the remainder, entries whose term has
    since cancelled are skipped, and the leading term is cancelled by
    popping it, so each step costs the divisor's terms plus a heap operation.
    Such a division raises ``QuotientTooLong`` instead of taking a step
    once the quotient has ``max_terms`` terms, so it takes at most that
    many steps.
    """
    if d is ONE:
        return p
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if len(d.terms) == 1:
        if d == ONE:
            return p
        [(dm, dc)] = d.terms.items()
        out = {}
        for m, c in p.terms.items():
            qm = monomial_div(m, dm)
            if qm is None or c % dc:
                raise ArithmeticError("inexact polynomial division")
            out[qm] = c // dc
        return Poly._raw(out)
    lead_m = d.leading_monomial()
    lead_c = d.terms[lead_m]
    tail = [(dm, dc) for dm, dc in d.terms.items() if dm != lead_m]
    rem = dict(p.terms)
    heap = [(_grlex_desc_key(m), m) for m in rem]
    heapq.heapify(heap)
    out: dict[Monomial, int] = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = rem.pop(m, 0)
        if not c:
            continue  # cancelled after it was pushed
        qm = monomial_div(m, lead_m)
        if qm is None or c % lead_c != 0:
            raise ArithmeticError("inexact polynomial division")
        if len(out) >= max_terms:
            raise QuotientTooLong
        qc = c // lead_c
        out[qm] = qc
        for dm, dc in tail:
            t = monomial_mul(qm, dm)
            old = rem.get(t)
            if old is None:
                rem[t] = -qc * dc
                heapq.heappush(heap, (_grlex_desc_key(t), t))
                continue
            s = old - qc * dc
            if s:
                rem[t] = s
            else:
                del rem[t]
    return Poly._raw(out)


def _coeffs_in(p: Poly, v: int) -> dict[int, dict[Monomial, int]]:
    """View p as univariate in x_v, its highest-index variable: degree -> terms."""
    out: dict[int, dict[Monomial, int]] = {}
    for m, c in p.terms.items():
        i = bisect_left(m, v)  # x_v's run is the tail of m
        out.setdefault(len(m) - i, {})[m[:i]] = c
    return out


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
        # lc(r) * x_v^(dr - db): x_v sorts after every variable of lc(r)
        shift = (v,) * (dr - db)
        lead_r = Poly._raw({m + shift: c for m, c in coeffs[dr].items()})
        r = lead_b * r - lead_r * b
        ic = r.icontent()
        if ic > 1:
            r = divexact(r, Poly.const(ic))
    return r


def _content_in(p: Poly, v: int) -> Poly:
    """Gcd of the coefficients of p viewed as univariate in x_v."""
    g = Poly.const(0)
    for coeff_terms in _coeffs_in(p, v).values():
        g = poly_gcd(g, Poly._raw(coeff_terms))
        if g == ONE:
            break
    return g


# Evaluation points GCDHEU tries before poly_gcd falls back to the PRS.
GCDHEU_POINTS = 6


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd over the integer polynomial ring, exact and unique up to sign.

    Cheap exits come first: a zero input, inputs with no variable in
    common (a constant among them), and an input that is one monomial.
    Otherwise the integer and monomial contents are taken out.  If what is
    left of the input with fewer terms, or else of the other, is
    f = a*x_v + b with a and b free of x_v and one of them one term, f is
    irreducible, and one trial division decides between gcd f and gcd 1:
    a factorization f = g*h has a factor, say h, of degree 0 in x_v; h
    divides a and b, so it divides a one-term polynomial and is an integer
    times a monomial; f has integer content 1 and no monomial content, so
    h = +/-1.  The division stops once the quotient has as many terms as
    the two inputs together: failing to divide can take far longer than
    dividing (x1^20 + 1 by x1 + ... + x9 builds millions of quotient
    terms), and GCDHEU settles such a pair after a few evaluations.  Any
    other input, and a pair the division left undecided, goes to the
    heuristic gcd (``_gcdheu``), which tries up to ``GCDHEU_POINTS``
    evaluation points, returning a candidate only once ``divexact`` has
    divided both by it.  If every point fails, a primitive pseudo-remainder sequence
    (``_prs_gcd``) computes the gcd.  The result has a positive graded-lex
    leading coefficient; gcd(p, 0) = +/-p normalized, gcd(0, 0) = 0.
    """
    if p.is_zero():
        return normalize_sign(q)
    if q.is_zero():
        return normalize_sign(p)
    if not p.variables() & q.variables():
        # a divisor of p only involves variables of p, so the gcd of
        # variable-disjoint polynomials (a constant has none) is an integer
        g = math.gcd(p.icontent(), q.icontent())
        return ONE if g == 1 else Poly.const(g)
    # gcd(p, q) = gcd of the integer contents * gcd of the monomial contents
    # * gcd of what is left, which no integer > 1 and no variable divides
    cp, cq = p.icontent(), q.icontent()
    mp, mq = _monomial_content(p.terms), _monomial_content(q.terms)
    c = Poly._raw({_monomial_content((mp, mq)): math.gcd(cp, cq)})
    if len(p.terms) == 1 or len(q.terms) == 1:
        return c
    p = divexact(p, Poly._raw({mp: cp}))
    q = divexact(q, Poly._raw({mq: cq}))
    # the input with fewer terms first: the cheaper one to test and divide by
    pair = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
    for f, other in (pair, pair[::-1]):
        if _linear_irreducible(f):
            try:
                divexact(other, f, len(p.terms) + len(q.terms))
            except ArithmeticError:
                return c
            except QuotientTooLong:
                continue
            return normalize_sign(c * f)
    g = _gcdheu(p, q, max(p.variables() | q.variables()))
    if g is None:
        g = _prs_gcd(p, q)
    return normalize_sign(c * g)


def _monomial_content(monomials: Iterable[Monomial]) -> Monomial:
    """The largest monomial that divides every one of the given monomials."""
    rest = iter(monomials)
    g = next(rest)
    for m in rest:
        if not g:
            break
        left, kept = list(m), []
        for v in g:  # g's indices, each kept while m has a copy left
            if v in left:
                left.remove(v)
                kept.append(v)
        g = tuple(kept)
    return g


def _linear_irreducible(f: Poly) -> bool:
    """Whether f = a*x_v + b for some x_v, a and b free of x_v, one of them one term.

    With no integer or monomial content such an f is irreducible; the
    proof is in ``poly_gcd``.
    """
    n = len(f.terms)
    counts: dict[int, int] = {}
    squared: set[int] = set()
    for m in f.terms:
        prev = 0
        for v in m:
            # the terms holding x_v, unless x_v is squared
            counts[v] = counts.get(v, 0) + 1
            if v == prev:
                squared.add(v)
            prev = v
    # x_v is in the k terms of a*x_v and missing from the n - k terms of b
    return any((k == 1 or k == n - 1) and v not in squared for v, k in counts.items())


def _gcdheu(p: Poly, q: Poly, v: int) -> Poly | None:
    """Heuristic gcd of primitive p and q, or None after GCDHEU_POINTS failures.

    x_v, the highest-index variable of either input, is set to an integer
    xi, and ``poly_gcd`` takes the gcd of the two images (one variable
    fewer, so the recursion ends).  The image gcd read back digit by digit
    in symmetric base xi, made primitive, is the first candidate.  A gcd
    whose coefficients exceed xi/2 cannot be read back that way, but a
    small cofactor can: p divided by the cofactor read back from p's image
    divided by the image gcd is the second candidate, and likewise for q
    the third.  A candidate is returned once it divides both inputs.
    Char, Geddes & Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
    based on integer GCD computation", J. Symbolic Computation 7 (1989).
    """
    # Why a candidate h that divides p and q is their gcd G: G = h*k, and
    # k(xi, ...) is a nonzero integer of size at most xi/2: for the first
    # candidate it divides the interpolant's integer content, whose digits
    # are at most xi/2, and for a cofactor candidate it is +/-1.  The
    # Kronecker substitution x_u -> x_v^(N^(v-u)) (N large) maps k, p and
    # q to univariate K, P and Q with K dividing P and Q, K(xi) =
    # k(xi, ...), and leading coefficients taken in pure lex with
    # x1 > x2 > ...  By Cauchy's bound every root of K, a root of P, has
    # size below 1 + max|coefficient of p| / |lex-leading coefficient of p|,
    # and likewise for q.  Every xi tried exceeds twice the smaller bound,
    # so |K(xi)| > xi/2 unless K is constant; then k is an integer, and
    # +/-1 since G is primitive.
    p_norm = max(abs(c) for c in p.terms.values())
    q_norm = max(abs(c) for c in q.terms.values())
    p_lc = abs(p.terms[max(p.terms, key=_lex_key)])
    q_lc = abs(q.terms[max(q.terms, key=_lex_key)])
    b = 2 * min(p_norm, q_norm) + 29
    xi = max(min(b, 99 * math.isqrt(b)), 2 * min(p_norm // p_lc, q_norm // q_lc) + 4)
    for _ in range(GCDHEU_POINTS):
        p_image = _evaluate(p, v, xi)
        q_image = _evaluate(q, v, xi)
        image = poly_gcd(p_image, q_image)
        h = _interpolate(image, v, xi)
        h = divexact(h, Poly.const(h.icontent()))
        if _quotient(p, h) is not None and _quotient(q, h) is not None:
            return h
        for f, f_image, other in ((p, p_image, q), (q, q_image, p)):
            h = _quotient(f, _interpolate(divexact(f_image, image), v, xi))
            if h is not None and _quotient(other, h) is not None:
                return h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _quotient(p: Poly, d: Poly) -> Poly | None:
    """p/d when d divides p, else None."""
    try:
        return divexact(p, d)
    except ArithmeticError:
        return None


def _evaluate(p: Poly, v: int, xi: int) -> Poly:
    """p with x_v set to xi, where no variable of p has an index above v."""
    out: dict[Monomial, int] = {}
    for e, terms in _coeffs_in(p, v).items():
        power = xi**e
        for m, c in terms.items():
            s = out.get(m, 0) + c * power
            if s:
                out[m] = s
            else:
                del out[m]
    return Poly._raw(out)


def _interpolate(image: Poly, v: int, xi: int) -> Poly:
    """Spread each coefficient over powers of x_v by its symmetric base-xi digits.

    Every digit lies in (-xi/2, xi/2]; ``image`` has no variable of index v
    or above, so appending x_v keeps monomials sorted.
    """
    half = xi // 2
    out: dict[Monomial, int] = {}
    for m, c in image.terms.items():
        e = 0
        while c:
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[m + (v,) * e] = digit
            e += 1
    return Poly._raw(out)


def _prs_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd up to sign by a primitive pseudo-remainder sequence.

    Treats both inputs as univariate in the highest-index variable of
    either, the one ``_gcdheu`` evaluates, with polynomial coefficients,
    and recurses on contents.  Its coefficients can grow to thousands of
    bits, so ``poly_gcd`` calls it only when the heuristic has failed at
    every point.
    """
    v = max(p.variables() | q.variables())
    cp = _content_in(p, v)
    cq = _content_in(q, v)
    c = poly_gcd(cp, cq)
    # the higher degree in x_v first, so the first step already divides
    a, b = sorted((divexact(p, cp), divexact(q, cq)), key=lambda f: -max(_coeffs_in(f, v)))
    while max(_coeffs_in(b, v)) > 0:
        r = _prem(a, b, v)
        if r.is_zero():
            return c * b
        a, b = b, divexact(r, _content_in(r, v))
    return c  # b is primitive in x_v with degree zero, hence a unit
