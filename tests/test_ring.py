"""Polynomial arithmetic, monomial orders, parsing."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from residua.field import GF32003, RATIONALS, FieldSpec, _is_prime
from residua.fitting import minors
from residua.ring import (
    MAX_DEGREE,
    MonomialOrder,
    ParseError,
    Polynomial,
    PolyRing,
    sum_of_products,
)

from conftest import (
    DEEP_POLYNOMIALS,
    KERNEL_RINGS,
    SMALL_PRIME_RINGS,
    in_kernel_ring,
    large_fractions,
    polynomials,
)
from oracles import (
    block_key,
    fraction_product,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    tuple_key,
)


def test_grevlex_order_on_quadrics(R2):
    # x^2 > xy > y^2 > x > y > 1
    order = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    for a, b in zip(order, order[1:]):
        assert R2.monomial(a) > R2.monomial(b)
    assert R2.monomial((0, 0)) == 0


def test_grevlex_tiebreak():
    # grevlex in 3 vars: x*z > y^2 is false; y^2 > x*z (last variable smallest)
    ring = PolyRing(GF32003, ("x", "y", "z"))
    assert ring.monomial((0, 2, 0)) > ring.monomial((1, 0, 1))


def test_lex_order():
    ring = PolyRing(GF32003, ("x", "y"), MonomialOrder("lex"))
    assert ring.monomial((1, 0)) > ring.monomial((0, 5))


def test_block_order_eliminates_first_variables():
    # block(1): any monomial containing t beats every t-free monomial
    ring = PolyRing(GF32003, ("t", "x", "y"), MonomialOrder("block", 1))
    assert ring.monomial((1, 0, 0)) > ring.monomial((0, 4, 4))
    assert ring.monomial((0, 2, 0)) > ring.monomial((0, 1, 1))  # grevlex inside block


def test_mono_helpers(R2):
    m = R2.monomial
    assert m((1, 2)) + m((3, 0)) == m((4, 2))
    assert m((4, 2)) - m((1, 2)) == m((3, 0))
    assert R2.lcm(m((1, 2)), m((3, 0))) == m((3, 2))
    assert R2.divides(m((1, 2)), m((4, 2))) and not R2.divides(m((1, 2)), m((4, 1)))
    assert R2.exponents(m((4, 2))) == (4, 2) and R2.degree(m((4, 2))) == 6


def test_parse_roundtrip(R2):
    p = R2.parse("x^2 - 3*x*y + 2")
    assert R2.parse(str(p)) == p


def test_parse_rejects_garbage(R2):
    with pytest.raises(ParseError):
        R2.parse("x +* y")
    with pytest.raises(ParseError):
        R2.parse("w + 1")


# text, then the expected polynomial as {exponents: coefficient}
PARSE_EXAMPLES = [
    ("x", {(1, 0): 1}),
    ("3", {(0, 0): 3}),
    ("x^2 - 3*x*y + 2", {(2, 0): 1, (1, 1): -3, (0, 0): 2}),
    ("- x - y - 1", {(1, 0): -1, (0, 1): -1, (0, 0): -1}),
    ("-x + x", {}),
    ("x*y + y*x - 2*x*y", {}),
    ("1/2*x + 1/3*x - y^2", {(1, 0): Fraction(5, 6), (0, 2): -1}),
    ("+x - (y - x)", {(1, 0): 2, (0, 1): -1}),
    ("(x + y)*(x - y) - x^2", {(0, 2): -1}),
    ("x^2 + 2*x*y + y^2 - (x + y)^2", {}),
    ("-(x - 1)^2", {(2, 0): -1, (1, 0): 2, (0, 0): -1}),
]


@pytest.mark.parametrize("field", [GF32003, FieldSpec(101), RATIONALS], ids=str)
@pytest.mark.parametrize("text, expected", PARSE_EXAMPLES)
def test_parse_sums_to_the_expected_polynomial(field, text, expected):
    # a sum of signed terms, each a product, with cancellation, fractions
    # and nested sums, against the polynomial built from its coefficients
    ring = PolyRing(field, ("x", "y"))
    want = ring.from_dict({ring.monomial(e): ring.field.element(c) for e, c in expected.items()})
    assert ring.parse(text) == want


@pytest.mark.parametrize("field", [RATIONALS, GF32003], ids=str)
def test_parse_rejects_a_zero_denominator(field):
    # 1/0 in every field, and over GF(p) a denominator divisible by p: a
    # ParseError at the number, not a ZeroDivisionError
    ring = PolyRing(field, ("x", "y"))
    with pytest.raises(ParseError, match=r"denominator of 1/0 is zero .*position 5\)$"):
        ring.parse("x^2 + 1/0*y^2")
    if field.characteristic:
        with pytest.raises(ParseError, match=r"denominator of 1/32003 is zero in GF\(32003\)"):
            ring.parse("x^2 + 1/32003*y^2")
    else:
        assert str(ring.parse("x^2 + 1/32003*y^2")) == "x^2 + 1/32003*y^2"


@pytest.mark.parametrize("text", DEEP_POLYNOMIALS.values(), ids=DEEP_POLYNOMIALS)
def test_parse_rejects_deep_nesting(R2, text):
    with pytest.raises(ParseError, match=r"^expression nested too deeply \(at position 0\)$"):
        R2.parse(text)


def test_rational_field_arithmetic(Q2):
    x, y = Q2.gens
    p = x.scale(Fraction(1, 2)) + y
    assert (p + p) == x + y + y


def test_canonical_term_order(R2):
    x, y = R2.gens
    p = y * y + x * x + x * y
    assert [R2.exponents(m) for m, _ in p.terms] == [(2, 0), (1, 1), (0, 2)]
    assert p.lm() == R2.monomial((2, 0))


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


@pytest.mark.parametrize("other", ["x", 1.5, 1], ids=repr)
def test_arithmetic_with_a_non_polynomial_raises_type_error(R2, other):
    # a number is made a polynomial by `constant` first, never coerced
    x = R2.gens[0]
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    assert x != other and R2.zero != 0 and R2.one != 1


@given(in_kernel_ring(lambda ring: [polynomials(ring)] * 2))
@example((KERNEL_RINGS[1], KERNEL_RINGS[1].parse("x^2 - 3*y*z + 2"), KERNEL_RINGS[1].gens[2]))
@example((KERNEL_RINGS[5], KERNEL_RINGS[5].parse("-1/2*x^2 - 3*y*z"), KERNEL_RINGS[5].one))
@example((KERNEL_RINGS[6], KERNEL_RINGS[6].parse("-x*y + 7/3*z^2 - 2"), KERNEL_RINGS[6].zero))
def test_kept_str_and_hash_match_a_fresh_copy(case):
    # a polynomial keeps its string and hash from their first use; a copy
    # parsed from that string in a ring built afresh formats, hashes and
    # compares the same, and so does the polynomial read again
    ring, p, q = case
    fresh = PolyRing(ring.field, ring.variables, ring.order)
    assert fresh is not ring and fresh == ring and not fresh != ring
    assert ring != PolyRing(ring.field, ring.variables[::-1], ring.order) and ring != 0
    for f in (p, -p, p * q, p - q):
        text, h = str(f), hash(f)
        copy = fresh.parse(text)
        assert copy == f and not copy != f and hash(copy) == h
        assert str(copy) == text == str(f) == f._format()
        assert hash(f) == h and repr(f) == f"<{text}>"


# --- kernel invariants -----------------------------------------------------

def _reference_sum(p, q, subtract):
    """p + q (or p - q) through a dict and a full from_dict sort."""
    F = p.ring.field
    d = dict(p.terms)
    for m, c in q.terms:
        d[m] = F.element(d.get(m, F.zero) + (-c if subtract else c))
    return p.ring.from_dict(d)


_GF, _QQ = KERNEL_RINGS[0], KERNEL_RINGS[4]     # grevlex over GF(32003) and QQ


@given(in_kernel_ring(lambda ring: [polynomials(ring, max_terms=6)] * 2))
# a zero operand on either side: p + 0, p - 0, 0 + q and 0 - q
@example((_GF, _GF.parse("x^2 - 3*y*z + 2"), _GF.zero))
@example((_GF, _GF.zero, _GF.parse("x^2 - 3*y*z + 2")))
@example((_QQ, _QQ.parse("1/2*x^2 - 3*y*z + 2"), _QQ.zero))
@example((_QQ, _QQ.zero, _QQ.parse("1/2*x^2 - 3*y*z + 2")))
@example((_QQ, _QQ.zero, _QQ.zero))
def test_add_sub_merge_is_canonical(case):
    ring, p, q = case
    key = tuple_key(ring.order)
    for subtract, result in ((False, p + q), (True, p - q)):
        keys = [key(ring.exponents(m)) for m, _ in result.terms]
        assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))
        assert all(c != ring.field.zero for _, c in result.terms)
        assert result.terms == _reference_sum(p, q, subtract).terms
    assert (p - p).is_zero()


# the prime fields whose residues are summed with no reduction before the
# end, the largest characteristic among them, and QQ's common denominators
_SUM_RINGS = SMALL_PRIME_RINGS + (PolyRing(FieldSpec(2**31 - 1), ("x", "y", "z")),) + tuple(
    r for r in KERNEL_RINGS if r.field == RATIONALS)


def _sum_case(ring):
    poly = polynomials(ring, max_terms=4)
    return st.tuples(st.just(ring), st.lists(st.tuples(poly, poly), min_size=1, max_size=4),
                     st.booleans(), st.lists(poly, min_size=6, max_size=6))


@given(st.sampled_from(_SUM_RINGS).flatmap(_sum_case))
def test_sum_of_products_matches_a_termwise_reference(case):
    """Sums of 1-4 products, with the first product's negation added when
    `cancel` is drawn, so that sums cancel mod p, against a sum taken term
    by term with `FieldSpec.mul` and the field's addition; negation and the
    1 x 1 minors ride along."""
    ring, pairs, cancel, entries = case
    F, p = ring.field, ring.field.characteristic
    if cancel:
        f, g = pairs[0]
        pairs = pairs + [(ring.from_dict({m: F.neg(c) for m, c in f.terms}), g)]
    acc = {}
    for f, g in pairs:
        for m, a in f.terms:
            for t, b in g.terms:
                acc[m + t] = F.element(acc.get(m + t, F.zero) + F.mul(a, b))
    got = sum_of_products(ring, [(f.terms, g.terms) for f, g in pairs])
    assert got == ring.from_dict(acc).terms
    if p:
        assert all(type(c) is int and 1 <= c < p for _, c in got)
    else:
        assert all(type(c) is Fraction and c for _, c in got)
    for f, _ in pairs:
        assert -f == ring.zero - f
    matrix = [entries[:3], entries[3:]]
    assert minors(ring, matrix, 1).generators == tuple(e for e in entries if not e.is_zero())


@pytest.mark.parametrize("ring", [_GF, _QQ], ids=str)
def test_range_check_covers_cancelled_terms(ring):
    """A summed key past the bound raises even when its coefficient cancels
    to zero: every key is range-checked, not only the kept ones."""
    x, y = ring.gens[:2]
    top = (x ** MAX_DEGREE).terms
    with pytest.raises(ValueError, match="exceeds the bound"):
        sum_of_products(ring, [(top, y.terms), (top, (-y).terms)])
    # x^MAX_DEGREE * y, whose grevlex degree digit is past the bound: no
    # constructor makes it, so it is built from its packed term
    f = Polynomial(ring, ((top[0][0] + y.lm(), ring.field.one),))
    with pytest.raises(ValueError, match="exceeds the bound"):
        f - f


exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)
_FOUR = ("w", "x", "y", "z")


def _nested_grevlex(m):
    return (sum(m),) + tuple(-e for e in reversed(m))


@given(st.lists(exponents, min_size=2, max_size=8), st.integers(1, 3))
def test_flat_block_key_orders_as_nested_pair(monos, k):
    ring = PolyRing(GF32003, _FOUR, MonomialOrder("block", k))

    def nested(m):
        return (_nested_grevlex(m[:k]), _nested_grevlex(m[k:]))

    assert sorted(monos, key=lambda m: block_key(k, m)) == sorted(monos, key=nested)
    assert sorted(monos, key=ring.monomial) == sorted(monos, key=nested)
    for m1, m2 in zip(monos, monos[1:]):
        assert (block_key(k, m1) < block_key(k, m2)) == (nested(m1) < nested(m2))
        assert (ring.monomial(m1) < ring.monomial(m2)) == (nested(m1) < nested(m2))


@given(exponents, exponents)
def test_order_keys_and_mono_helpers(m1, m2):
    assert grevlex_key(m1) == _nested_grevlex(m1)
    for order in (MonomialOrder("grevlex"), MonomialOrder("lex"),
                  MonomialOrder("block", 1), MonomialOrder("block", 3),
                  MonomialOrder("block", 5)):
        ring, key = PolyRing(GF32003, _FOUR, order), tuple_key(order)
        p1, p2 = ring.monomial(m1), ring.monomial(m2)
        assert (p1 < p2) == (key(m1) < key(m2)) and (p1 == p2) == (m1 == m2)
        assert p1 + p2 == ring.monomial(mono_mul(m1, m2))
        assert ring.lcm(p1, p2) == ring.monomial(mono_lcm(m1, m2))
        assert ring.divides(p1, p2) == mono_divides(m1, m2)
        assert (p1 + p2) - p2 == p1 and ring.divides(p2, p1 + p2)
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
    monos = [m for m, _ in product.terms]
    assert all(m1 > m2 for m1, m2 in zip(monos, monos[1:]))
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
    assert R.zero.is_zero() and R.one.terms == ((0, RATIONALS.one),)


def test_prime_characteristic_is_below_2_31():
    # the bound keeps _is_prime's trial division under about 23k divisions
    assert FieldSpec(2**31 - 1).characteristic == 2**31 - 1
    with pytest.raises(ValueError, match=r"^characteristic must be below 2\^31, got 2147483659$"):
        FieldSpec(2**31 + 11)
    sieve = [False, False] + [True] * (10**5 - 2)
    for n in range(2, 317):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, 10**5, n))
    assert [n for n in range(10**5) if _is_prime(n)] == [n for n in range(10**5) if sieve[n]]


# --- packed monomials against exponent tuples ------------------------------

def _vectors(n, bound):
    """Exponent vectors in n variables of total degree at most bound, from
    small ones to ones at the bound."""
    def cap(e):
        total = sum(e)
        return tuple(x * bound // total for x in e) if total > bound else tuple(e)

    return st.one_of(
        st.tuples(*[st.integers(0, 4)] * n),
        st.lists(st.integers(0, bound), min_size=n, max_size=n).map(cap),
    )


_PACKING_RINGS = st.sampled_from(KERNEL_RINGS + SMALL_PRIME_RINGS)


@given(_PACKING_RINGS.flatmap(lambda ring: st.tuples(
    st.just(ring), _vectors(ring.nvars, MAX_DEGREE), _vectors(ring.nvars, MAX_DEGREE))))
@example((KERNEL_RINGS[0], (MAX_DEGREE, 0, 0), (0, 0, MAX_DEGREE)))
@example((KERNEL_RINGS[1], (0, MAX_DEGREE, 0), (MAX_DEGREE, 0, 0)))
@example((KERNEL_RINGS[2], (1, 0, MAX_DEGREE - 1), (MAX_DEGREE, 0, 0)))
def test_packing_round_trip_and_order(case):
    ring, e1, e2 = case
    key = tuple_key(ring.order)
    p1, p2 = ring.monomial(e1), ring.monomial(e2)
    assert ring.exponents(p1) == e1 and ring.degree(p1) == sum(e1)
    # degree reads only the order's positive digits, of a quotient too
    assert ring.degree(p1 - p2) == sum(ring.exponents(p1 - p2)) == sum(e1) - sum(e2)
    assert 0 <= p1 < 1 << ring.position_shift
    assert (p1 < p2) == (key(e1) < key(e2))
    assert (p1 == p2) == (e1 == e2)


@given(_PACKING_RINGS.flatmap(lambda ring: st.tuples(
    st.just(ring), *[_vectors(ring.nvars, MAX_DEGREE // 2)] * 3)))
def test_packed_product_divisibility_and_lcm(case):
    ring, e1, e2, e3 = case
    p1, p2, p3 = (ring.monomial(e) for e in (e1, e2, e3))
    assert p1 + p2 == ring.monomial(mono_mul(e1, e2))
    assert ring.lcm(p1, p2) == ring.monomial(mono_lcm(e1, e2))
    assert ring.divides(p1, p2) == mono_divides(e1, e2)
    if mono_divides(e1, e2):
        assert p2 - p1 == ring.monomial(mono_div(e2, e1))
    # multiplying by p3 keeps the order and the divisibility
    key = tuple_key(ring.order)
    assert (p1 + p3 < p2 + p3) == (key(e1) < key(e2))
    assert ring.divides(p1 + p3, p2 + p3) == mono_divides(e1, e2)


@given(_PACKING_RINGS.flatmap(lambda ring: st.tuples(
    st.just(ring), *[_vectors(ring.nvars, MAX_DEGREE // 2)] * 2,
    st.integers(0, 40), st.integers(0, 40))))
def test_module_terms_are_position_over_term(case):
    ring, e1, e2, i1, i2 = case
    shift, key = ring.position_shift, tuple_key(ring.order)
    t1 = ring.monomial(e1) - (i1 << shift)
    t2 = ring.monomial(e2) - (i2 << shift)
    # the smaller position wins, then the monomial order
    assert (t1 < t2) == ((-i1, key(e1)) < (-i2, key(e2)))
    assert t1 & ((1 << shift) - 1) == ring.monomial(e1) and -(t1 >> shift) == i1
    assert ring.divides(t1, t2) == (i1 == i2 and mono_divides(e1, e2))
    # a monomial times a module term keeps its position
    assert t2 + ring.monomial(e1) == ring.monomial(mono_mul(e1, e2)) - (i2 << shift)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_degree_bound_raises(ring):
    top = (MAX_DEGREE,) + (0,) * (ring.nvars - 1)
    assert ring.exponents(ring.monomial(top)) == top
    with pytest.raises(ValueError, match="exceeds the bound"):
        ring.monomial((MAX_DEGREE + 1,) + (0,) * (ring.nvars - 1))
    with pytest.raises(ValueError):
        ring.monomial((-1,) + (0,) * (ring.nvars - 1))
    x, y = ring.gens[:2]
    assert (x ** MAX_DEGREE).lm() == ring.monomial(top)
    with pytest.raises(ValueError, match="exceeds the bound"):
        (x * y) ** (MAX_DEGREE // 2 + 1)
    for text in (f"x^{MAX_DEGREE + 1}", f"x^{MAX_DEGREE} * y", f"(x*y)^{MAX_DEGREE // 2} * x^2"):
        with pytest.raises(ValueError, match="exceeds the bound"):
            ring.parse(text)


@given(_PACKING_RINGS.flatmap(lambda ring: st.tuples(
    st.just(ring), _vectors(ring.nvars, MAX_DEGREE), _vectors(ring.nvars, MAX_DEGREE))))
def test_monomials_made_past_the_bound_raise(case):
    """A product or an lcm with a key digit past MAX_DEGREE raises instead
    of carrying into the next digit or into the position bits."""
    ring, e1, e2 = case
    key, one, shift = tuple_key(ring.order), ring.field.one, ring.position_shift
    p1, p2 = ring.monomial(e1), ring.monomial(e2)
    f, g = ring.from_dict({p1: one}), ring.from_dict({p2: one})

    def module_product():
        ((t, _),) = sum_of_products(ring, [(g.terms, ((p1 - (3 << shift), one),))])
        assert -(t >> shift) == 3
        return t & ((1 << shift) - 1)

    for e, make in ((mono_mul(e1, e2), lambda: (f * g).lm()),
                    (mono_mul(e1, e2), lambda: f.mul_term(p2, one).lm()),
                    (mono_mul(e1, e2), module_product),
                    (mono_lcm(e1, e2), lambda: ring.lcm(p1, p2))):
        if max(map(abs, key(e))) > MAX_DEGREE:
            with pytest.raises(ValueError, match="exceeds the bound"):
                make()
        else:
            assert ring.exponents(make()) == e
