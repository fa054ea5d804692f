"""Integer polynomials in one variable, with exact divisibility over Q[t]
decided in integer arithmetic.

Coefficients are stored in ascending order: ``coeffs[k]`` multiplies t^k.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import gcd

from .record import CheckedRecord


class IntPolynomial(CheckedRecord, namedtuple("IntPolynomial", "coeffs")):
    """Integer polynomial, coefficients ascending, with no trailing zero."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("polynomial coefficients not normalized (trailing zero)")
        return tuple.__new__(cls, (coeffs,))

    @staticmethod
    def from_coeffs(coeffs: Sequence[int]) -> "IntPolynomial":
        """Coefficients must be exactly `int`; any other raises, never converts."""
        cs = list(coeffs)
        if any(type(c) is not int for c in cs):
            raise ValueError("expected a polynomial as an ascending coefficient list")
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def poly_product(polys: Sequence[IntPolynomial]) -> IntPolynomial:
    acc = IntPolynomial((1,))
    for p in polys:
        acc = acc * p
    return acc


def poly_divides(p: IntPolynomial, q: IntPolynomial) -> bool:
    """True iff p divides q in Q[t], decided in Z[t].

    By Gauss's lemma, p divides q in Q[t] exactly when the primitive part
    of p (p over the gcd of its coefficients) divides q in Z[t], so the
    long division by it stays in the integers: each quotient step must
    divide exactly, or p does not divide q.  For monic p, the case of
    interest for characteristic polynomials, this is divisibility in Z[t].
    Raises ValueError when q is zero.
    """
    if q.is_zero:
        raise ValueError("divisibility against the zero polynomial is undefined")
    if p.is_zero:
        return False
    if p.degree > q.degree:
        return False
    g = gcd(*p.coeffs)
    div = [c // g for c in p.coeffs]
    rem = list(q.coeffs)
    lead = div[-1]
    for k in range(len(rem) - len(div), -1, -1):
        factor, r = divmod(rem[k + len(div) - 1], lead)
        if r:
            return False
        if factor:
            for i, d in enumerate(div):
                rem[k + i] -= factor * d
    return not any(rem)
