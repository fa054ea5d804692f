from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from vancoh.polynomial import IntPolynomial, poly_divides, poly_product

import oracles


def P(*coeffs):
    return IntPolynomial.from_coeffs(coeffs)


def test_normalization():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P().is_zero
    assert P(0, 0).is_zero
    assert P(3).degree == 0
    assert P(0, 1).degree == 1


@pytest.mark.parametrize("coeff", [1.5, 2.0, "4", True, None], ids=repr)
def test_from_coeffs_rejects_non_integers(coeff):
    with pytest.raises(ValueError,
                       match="^expected a polynomial as an ascending coefficient list$"):
        IntPolynomial.from_coeffs([1, coeff])


def test_from_coeffs_builds_exact_integers():
    big = 2 ** 200
    assert IntPolynomial.from_coeffs([-big, 0, big]).coeffs == (-big, 0, big)
    assert IntPolynomial.from_coeffs([]).is_zero


def test_trailing_zero_raises():
    with pytest.raises(ValueError, match="^polynomial coefficients not normalized"):
        IntPolynomial((1, 0))


def test_str():
    assert str(P(-1, 1)) == "t - 1"
    assert str(P(1, -2, 1)) == "t^2 - 2*t + 1"
    assert str(P()) == "0"
    # zero coefficients are skipped
    assert str(P(1, 0, 1)) == "t^2 + 1"
    assert str(P(0, 0, -3)) == "-3*t^2"
    assert str(P(-2, 0, 0, 1)) == "t^3 - 2"


def test_product():
    assert poly_product([P(-1, 1), P(1, 1)]).coeffs == (-1, 0, 1)
    assert poly_product([]).coeffs == (1,)
    for p in (P(), P(3), P(-1, 0, 2)):
        assert (p * P()).is_zero
        assert (P() * p).is_zero
    assert poly_product([P(-1, 1), P(), P(1, 1)]).is_zero


def test_divides_basics():
    # (t-1) | (t-1)(t+1)
    assert poly_divides(P(-1, 1), P(-1, 0, 1))
    # t^2 does not divide t-1
    assert not poly_divides(P(0, 0, 1), P(-1, 1))
    # rational division: 2t-2 divides t^2-1 over Q[t]
    assert poly_divides(P(-2, 2), P(-1, 0, 1))
    assert poly_divides(P(2), P(-1, 1))
    assert not poly_divides(P(), P(1))


def test_divides_zero_divisor_errors():
    with pytest.raises(ValueError):
        poly_divides(P(-1, 1), P())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5))
def test_property_products_divide(a, b):
    pa, pb = IntPolynomial.from_coeffs(a), IntPolynomial.from_coeffs(b)
    if pa.is_zero or pb.is_zero:
        return
    prod = pa * pb
    assert poly_divides(pa, prod)
    assert poly_divides(pb, prod)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_property_division_evaluation(q, p):
    pq, pp = IntPolynomial.from_coeffs(q), IntPolynomial.from_coeffs(p)
    if pq.is_zero or pp.is_zero or pp.degree > pq.degree:
        return
    # pseudo-division oracle: p | q over Q forces p(t) | lc(p)^k q(t) in Z
    if poly_divides(pp, pq):
        k = pq.degree - pp.degree + 1
        lead = pp.coeffs[-1]
        for t in range(-4, 5):
            if pp(t) != 0:
                assert (lead ** k * pq(t)) % pp(t) == 0


COEFFS = st.one_of(st.integers(-6, 6), st.integers(-2 ** 200, 2 ** 200))
POLYS = st.lists(COEFFS, min_size=1, max_size=4).map(IntPolynomial.from_coeffs)
SCALARS = st.sampled_from([1, -1, 2, -2, 6, -(2 ** 200)])


def plus(p, q):
    return IntPolynomial.from_coeffs([a + b for a, b in zip_longest(p.coeffs, q.coeffs,
                                                                  fillvalue=0)])


@settings(max_examples=200, deadline=None)
@given(POLYS, POLYS, st.one_of(st.just(P()), POLYS), SCALARS, SCALARS)
@example(P(-1, 1), P(1, 1), P(), 2, 1)    # 2t - 2 divides t^2 - 1 over Q, not over Z
@example(P(1, -1), P(1, 1), P(), -3, 2)   # negative leading coefficient
@example(P(1), P(0, 1), P(1), 7, 1)       # a constant divides everything
@example(P(-1, 1), P(1, 1), P(1), 2, 1)   # 2t - 2 does not divide t^2
def test_property_divides_matches_rational_reference(base, cofactor, offset, c1, c2):
    """`poly_divides` equals long division over Q for the divisor
    c1 * base, non-monic, non-primitive or with a negative leading
    coefficient as c1 and base fall, and the dividend
    c2 * base * cofactor + offset, a product whenever offset is 0."""
    p = base * P(c1)
    q = plus(base * cofactor * P(c2), offset)
    if q.is_zero:
        return
    assert poly_divides(p, q) == oracles.rational_divides(p.coeffs, q.coeffs)
