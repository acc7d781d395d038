"""Polynomial arithmetic, monomial orders, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from residua import GF32003, RATIONALS, FieldSpec, MonomialOrder, PolyRing, monomial_cmp
from residua.ring import ParseError, mono_div, mono_divides, mono_lcm, mono_mul

from conftest import (
    KERNEL_RINGS,
    SMALL_PRIME_RINGS,
    in_kernel_ring,
    large_fractions,
    polynomials,
)
from oracles import fraction_product


def test_grevlex_order_on_quadrics(R2):
    # x^2 > xy > y^2 > x > y > 1
    order = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    for a, b in zip(order, order[1:]):
        assert monomial_cmp(R2.order, a, b) > 0


def test_grevlex_tiebreak():
    # grevlex in 3 vars: x*z > y^2 is false; y^2 > x*z (last variable smallest)
    ring = PolyRing(GF32003, ("x", "y", "z"))
    assert monomial_cmp(ring.order, (0, 2, 0), (1, 0, 1)) > 0


def test_lex_order():
    ring = PolyRing(GF32003, ("x", "y"), MonomialOrder("lex"))
    assert monomial_cmp(ring.order, (1, 0), (0, 5)) > 0


def test_block_order_eliminates_first_variables():
    # block(1): any monomial containing t beats every t-free monomial
    ring = PolyRing(GF32003, ("t", "x", "y"), MonomialOrder("block", 1))
    assert monomial_cmp(ring.order, (1, 0, 0), (0, 4, 4)) > 0
    assert monomial_cmp(ring.order, (0, 2, 0), (0, 1, 1)) > 0  # grevlex inside block


def test_mono_helpers():
    assert mono_mul((1, 2), (3, 0)) == (4, 2)
    assert mono_div((4, 2), (1, 2)) == (3, 0)
    assert mono_lcm((1, 2), (3, 0)) == (3, 2)


def test_parse_roundtrip(R2):
    p = R2.parse("x^2 - 3*x*y + 2")
    assert R2.parse(str(p)) == p


def test_parse_rejects_garbage(R2):
    with pytest.raises(ParseError):
        R2.parse("x +* y")
    with pytest.raises(ParseError):
        R2.parse("w + 1")


def test_rational_field_arithmetic(Q2):
    x, y = Q2.gens
    p = x.scale(Q2.field.element("1/2")) + y
    assert (p + p) == x + y + y


def test_canonical_term_order(R2):
    x, y = R2.gens
    p = y * y + x * x + x * y
    assert [m for m, _ in p.terms] == [(2, 0), (1, 1), (0, 2)]
    assert p.lm() == (2, 0)


def test_homogeneity(R2):
    x, y = R2.gens
    assert (x * x + y * y).is_homogeneous()
    assert not (x * x + y).is_homogeneous()
    assert R2.zero.is_homogeneous()


@given(polynomials(PolyRing(GF32003, ("x", "y"))), polynomials(PolyRing(GF32003, ("x", "y"))))
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(
    polynomials(PolyRing(GF32003, ("x", "y"))),
    polynomials(PolyRing(GF32003, ("x", "y"))),
    polynomials(PolyRing(GF32003, ("x", "y"))),
)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polynomials(PolyRing(GF32003, ("x", "y"))))
def test_additive_inverse(p):
    assert (p - p).is_zero()


def test_pow(R2):
    x, y = R2.gens
    assert (x + y) ** 2 == x * x + x * y + x * y + y * y
    assert (x + y) ** 0 == R2.one


# --- kernel invariants -----------------------------------------------------

def _reference_sum(p, q, subtract):
    """p + q (or p - q) through a dict and a full from_dict sort."""
    F = p.ring.field
    d = dict(p.terms)
    for m, c in q.terms:
        d[m] = (F.sub if subtract else F.add)(d.get(m, F.zero), c)
    return p.ring.from_dict(d)


@given(in_kernel_ring(lambda ring: [polynomials(ring, max_terms=6)] * 2))
def test_add_sub_merge_is_canonical(case):
    ring, p, q = case
    for subtract, result in ((False, p + q), (True, p - q)):
        keys = [ring.key(m) for m, _ in result.terms]
        assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))
        assert all(c != ring.field.zero for _, c in result.terms)
        assert result.terms == _reference_sum(p, q, subtract).terms
    assert (p - p).is_zero()


exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)


def _nested_grevlex(m):
    return (sum(m),) + tuple(-e for e in reversed(m))


@given(st.lists(exponents, min_size=2, max_size=8), st.integers(1, 3))
def test_flat_block_key_orders_as_nested_pair(monos, k):
    order = MonomialOrder("block", k)

    def nested(m):
        return (_nested_grevlex(m[:k]), _nested_grevlex(m[k:]))

    assert sorted(monos, key=order.key) == sorted(monos, key=nested)
    for m1, m2 in zip(monos, monos[1:]):
        assert (order.key(m1) < order.key(m2)) == (nested(m1) < nested(m2))


@given(exponents, exponents)
def test_order_keys_and_mono_helpers(m1, m2):
    assert MonomialOrder("grevlex").key(m1) == _nested_grevlex(m1)
    for order in (MonomialOrder("grevlex"), MonomialOrder("lex"),
                  MonomialOrder("block", 1), MonomialOrder("block", 3)):
        assert order.neg_key(m1) == tuple(-e for e in order.key(m1))
    assert mono_mul(m1, m2) == tuple(a + b for a, b in zip(m1, m2))
    assert mono_lcm(m1, m2) == tuple(max(a, b) for a, b in zip(m1, m2))
    assert mono_divides(m1, m2) == all(a <= b for a, b in zip(m1, m2))
    assert mono_div(mono_mul(m1, m2), m2) == m1


_QQ_LARGE = st.sampled_from([r for r in KERNEL_RINGS if r.field == RATIONALS]).flatmap(
    lambda ring: st.tuples(*[polynomials(ring, max_terms=6, coeffs=large_fractions())] * 2))


@given(st.one_of(
    st.sampled_from(KERNEL_RINGS + SMALL_PRIME_RINGS).flatmap(
        lambda ring: st.tuples(*[polynomials(ring, max_terms=6)] * 2)),
    _QQ_LARGE,
))
def test_mul_matches_fraction_product(case):
    p, q = case
    ring, F = p.ring, p.ring.field
    product = p * q
    assert dict(product.terms) == fraction_product(p, q)
    keys = [ring.key(m) for m, _ in product.terms]
    assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))
    if F.characteristic:
        assert all(type(c) is int and 0 < c < F.characteristic for _, c in product.terms)
    else:
        assert all(type(c) is Fraction and c for _, c in product.terms)


def test_fields_orders_and_rings_are_values():
    assert FieldSpec(0) == RATIONALS and hash(FieldSpec(0)) == hash(RATIONALS)
    assert FieldSpec(7) != FieldSpec(3) and FieldSpec() == GF32003
    assert (RATIONALS.zero, RATIONALS.one) == (0, 1)
    assert type(RATIONALS.one) is Fraction and type(GF32003.one) is int
    assert MonomialOrder("block", 2) == MonomialOrder("block", 2) != MonomialOrder("block", 1)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        MonomialOrder("block", 0)
    R = PolyRing(RATIONALS, ["x", "y"])
    same = PolyRing(FieldSpec(0), ("x", "y"), MonomialOrder("grevlex"))
    assert R == same and hash(R) == hash(same) and len({R, same}) == 1
    assert R != PolyRing(RATIONALS, ("x", "y"), MonomialOrder("lex"))
    assert R != PolyRing(GF32003, ("x", "y"))
    assert R.gens == (R.var("x"), R.var("y")) and R.one == R.constant(1)
    assert R.zero.is_zero() and R.key is R.order.key
