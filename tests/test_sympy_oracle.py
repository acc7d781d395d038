"""Reduced Gröbner bases against sympy's, an independent implementation.

Skipped when sympy is not installed; it is a test-only dependency.  Over
GF(2), GF(3) and GF(7) many integer coefficients of a division cancel to
0 mod p; over QQ, large denominators make long integer coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from residua import (
    GF32003,
    RATIONALS,
    FieldSpec,
    MonomialOrder,
    PolyRing,
    reduced_groebner,
    set_step_limit,
)

from conftest import large_fractions, polynomials
from oracles import from_exponents, tuple_key

sympy = pytest.importorskip("sympy")

VARIABLES = ("x", "y", "z")
SYMBOLS = sympy.symbols(VARIABLES)
ORDERS = ("grevlex", "lex")
RINGS = tuple(
    PolyRing(field, VARIABLES, MonomialOrder(kind))
    for field in (GF32003, RATIONALS)
    for kind in ORDERS
)


def to_sympy(p):
    expr = sympy.Integer(0)
    for m, c in p.terms:
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(SYMBOLS, p.ring.exponents(m)):
            term *= s**e
        expr += term
    return expr


def from_sympy(ring, poly):
    """A sympy Poly as a monic residua polynomial.  sympy's basis elements
    are not monic: over QQ they are integer-primitive, and modulo p the
    coefficients are symmetric residues."""
    F = ring.field
    return from_exponents(
        ring, {m: F.element(Fraction(int(c.p), int(c.q))) for m, c in poly.terms()}
    ).monic()


def _generator_lists(rings, min_size=1, max_size=3, coeffs=None):
    return st.sampled_from(rings).flatmap(lambda ring: st.tuples(
        st.just(ring),
        st.lists(polynomials(ring, max_degree=2, max_terms=3, coeffs=coeffs),
                 min_size=min_size, max_size=max_size),
    ))


def _assert_matches_sympy(ring, gens):
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    options = {"modulus": ring.field.characteristic} if ring.field.characteristic else {}
    theirs = sympy.groebner(
        [to_sympy(g) for g in gens], *SYMBOLS, order=str(ring.order), **options
    )
    key = tuple_key(ring.order)
    expected = sorted(
        (from_sympy(ring, q) for q in theirs.polys), key=lambda g: key(ring.exponents(g.lm()))
    )
    previous = set_step_limit(200000)
    try:
        assert list(reduced_groebner(gens)) == expected
    finally:
        set_step_limit(previous)


@given(_generator_lists(RINGS))
def test_reduced_groebner_matches_sympy(case):
    _assert_matches_sympy(*case)


@pytest.mark.parametrize("p", [2, 3, 7])
@given(data=st.data())
def test_reduced_groebner_matches_sympy_over_small_primes(p, data):
    rings = [PolyRing(FieldSpec(p), VARIABLES, MonomialOrder(kind)) for kind in ORDERS]
    _assert_matches_sympy(*data.draw(_generator_lists(rings, max_size=4)))


@given(_generator_lists([r for r in RINGS if r.field == RATIONALS], min_size=2,
                        coeffs=large_fractions()))
def test_reduced_groebner_matches_sympy_with_large_denominators(case):
    _assert_matches_sympy(*case)
