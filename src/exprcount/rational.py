"""Canonical fractions of integer polynomials (the field Z(X)).

Every ``Frac`` holds a coprime numerator/denominator pair.  Coprime pairs
are unique only up to a global sign, so a deterministic convention picks
one of the two: the denominator's graded-lex leading coefficient is always
positive.  With that fixed, structural equality of ``Frac`` values decides
equality in the field, and fractions hash consistently, which is what the
enumeration code relies on for deduplication.

Arithmetic is exact: operate on cross-multiplied polynomials, then divide
out the gcd.  Fractions are immutable and safe to share.
"""

from __future__ import annotations

from .polys import ONE, Poly, divexact, poly_gcd, poly_str


class Frac:
    """A canonical fraction num/den with gcd(num, den) = 1 and den > 0.

    Build one from two polynomials with ``canonicalize(num, den)``.
    """

    __slots__ = ("num", "den")

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "Frac":
        # Trusted constructor: (num, den) must already be canonical.
        f = cls.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def variable(cls, index: int) -> "Frac":
        return cls._raw(Poly.variable(index), ONE)

    @classmethod
    def const(cls, c: int) -> "Frac":
        return cls._raw(Poly.const(c), ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def variables(self) -> frozenset[int]:
        """Set of variable indices contained by the fraction."""
        return self.num.variables() | self.den.variables()

    def __add__(self, other: "Frac") -> "Frac":
        # Classical cross-cancelling sum: with gcd(a,b) = gcd(c,d) = 1 and
        # g = gcd(b,d), h = gcd(a(d/g) + c(b/g), g), the pair
        # (t/h, (b/g)(d/h)) is already coprime, so no further gcd is needed.
        # A zero sum needs no shortcut: canonical pairs are unique, so it
        # forces d = b and c = -a.  Then b = d = 1 when g = 1; else g = b
        # (both lead positive), b/g = d/g = 1 and h = gcd(0, g) = g.  Either
        # way the pair is (0, 1).
        a, b = self.num, self.den
        c, d = other.num, other.den
        g = poly_gcd(b, d)
        if g == ONE:
            return Frac._raw(a * d + c * b, b * d)
        b0 = divexact(b, g)
        d0 = divexact(d, g)
        t = a * d0 + c * b0
        h = poly_gcd(t, g)
        return Frac._raw(divexact(t, h), b0 * divexact(d, h))

    def __sub__(self, other: "Frac") -> "Frac":
        return self + -other

    def __mul__(self, other: "Frac") -> "Frac":
        return Frac._raw(*_product(self.num, self.den, other.num, other.den))

    def __truediv__(self, other: "Frac") -> "Frac":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero fraction")
        return _signed(*_product(self.num, self.den, other.den, other.num))

    def reciprocal(self) -> "Frac":
        """1/self: the swapped pair is still coprime, so only its sign is fixed."""
        if self.num.is_zero():
            raise ZeroDivisionError("reciprocal of the zero fraction")
        return _signed(self.den, self.num)

    def __neg__(self) -> "Frac":
        # Negating the numerator keeps the pair canonical.
        return Frac._raw(-self.num, self.den)

    def derivative(self, v: int) -> "Frac":
        """Formal partial derivative with respect to x_v (quotient rule)."""
        return canonicalize(
            self.num.derivative(v) * self.den - self.num * self.den.derivative(v),
            self.den * self.den,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Frac)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def render(self) -> str:
        """Deterministic text form, e.g. ``(x1*x2 + x3)/(x2)``."""
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Frac({self.render()})"


def canonicalize(num: Poly, den: Poly) -> Frac:
    """Reduce num/den to the canonical coprime pair with positive denominator.

    Idempotent; raises ZeroDivisionError for a zero denominator.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    g = poly_gcd(num, den)
    return _signed(divexact(num, g), divexact(den, g))


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> tuple[Poly, Poly]:
    """(a*c, b*d) reduced, for coprime pairs (a, b) and (c, d).

    Only a and d, or c and b, can share a factor, so one gcd cancels each.
    A quotient (a/b)/(c/d) is the product with the divisor's pair swapped.
    """
    g, h = poly_gcd(a, d), poly_gcd(c, b)
    return divexact(a, g) * divexact(c, h), divexact(b, h) * divexact(d, g)


def _signed(num: Poly, den: Poly) -> Frac:
    """The Frac of a coprime pair, both signs flipped if den leads negative."""
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return Frac._raw(num, den)

