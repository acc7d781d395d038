"""Buchberger, normal forms, and module (syzygy) computations."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from residua import groebner
from residua.corpus import FAMILIES, generate_instance
from residua.field import GF32003
from residua.groebner import (
    AugmentedBasis,
    NotAMemberError,
    ResourceLimitError,
    _divisor,
    _terms,
    _vector,
    minimal_subset,
    normal_form,
    reduced_groebner,
    set_step_limit,
    syzygies,
)
from residua.ideals import Ideal, colon, min_gens
from residua.koszul import KoszulComplex
from residua.ring import MonomialOrder, PolyRing

from conftest import (
    KERNEL_RINGS,
    coefficients,
    in_kernel_ring,
    large_fractions,
    polynomials,
    random_homogeneous,
    seeded_rng,
)
from oracles import (
    fraction_remainder,
    from_exponents,
    mono_div,
    mono_divides,
    module_member,
    oracle_member,
    oracle_remainder,
    reference_minimal_subset,
    spoly,
    truncated_syzygies,
)


@pytest.fixture(autouse=True)
def _step_budget():
    set_step_limit(200000)
    yield
    set_step_limit(None)


def test_gb_contains_spoly_reduction(R2):
    # S(x^2+y^2, x*y) = y^3 up to scalar, so y^3 must enter the basis
    gens = [R2.parse("x^2 + y^2"), R2.parse("x*y")]
    G = reduced_groebner(gens)
    y3 = R2.parse("y^3")
    assert any(g.monic() == y3 for g in G)


def test_reduced_gb_canonical(R2):
    gens = [R2.parse("x^2 + y^2"), R2.parse("x*y")]
    G = reduced_groebner(gens)
    assert sorted(str(g) for g in G) == ["x*y", "x^2 + y^2", "y^3"]
    # scrambled, scaled input gives the identical reduced basis
    G2 = reduced_groebner([gens[1].scale(R2.field.element(7)), gens[0].scale(R2.field.element(-3))])
    assert list(G) == list(G2)


def test_all_spairs_reduce_to_zero(R3):
    rng = seeded_rng("spairs")
    for _ in range(5):
        gens = [random_homogeneous(R3, rng.choice([1, 2]), rng) for _ in range(3)]
        G = reduced_groebner(gens)
        basis = list(G)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(spoly(basis[i], basis[j]), basis).is_zero()


def test_normal_form_matches_truncation_oracle(R2):
    gens = [R2.parse("x^2 + y^2"), R2.parse("x*y")]
    G = reduced_groebner(gens)
    f = R2.parse("x^2*y + y^3")
    assert normal_form(f, G) == oracle_remainder(f, gens, 4)


def test_membership_agrees_with_oracle(R2):
    gens = [R2.parse("x^2 + y^2"), R2.parse("x*y")]
    G = reduced_groebner(gens)
    for text in ("y^3", "x^3", "x^2*y", "y^2", "x + y"):
        f = R2.parse(text)
        assert normal_form(f, G).is_zero() == oracle_member(f, gens)


def test_express_in_terms(R2):
    gens = [R2.parse("x^2"), R2.parse("x*y"), R2.parse("y^2")]
    polys = [R2.parse("x^3 + x*y^2"), R2.parse("x*y"), R2.zero]
    B = AugmentedBasis([(g,) for g in gens])
    rows = B.express(polys)
    assert len(rows) == len(polys)
    for f, coeffs in zip(polys, rows):
        acc = R2.zero
        for c, g in zip(coeffs, gens):
            acc = acc + c * g
        assert acc == f
    assert B.express([]) == []


def test_express_in_terms_rejects_nonmember(R2):
    B = AugmentedBasis([(R2.parse("x^2"),), (R2.parse("y^2"),)])
    with pytest.raises(NotAMemberError):
        B.express([R2.parse("x^2"), R2.parse("x*y")])


def dot(vec, polys):
    """sum(c * p) over the components c of vec and the polys p."""
    return sum((c * p for c, p in zip(vec, polys)), polys[0].ring.zero)


def test_syzygy_check_fires_on_a_tampered_basis(R2):
    B = AugmentedBasis([(R2.parse("x"),), (R2.parse("y"),)])
    assert len(B.syzygies()) == 1
    # double the last coefficient of the syzygy (y, -x): y*x - 2*x*y != 0
    shift = R2.position_shift
    k = next(k for k, e in enumerate(B.basis) if -(e[0][0] >> shift) >= B.rank)
    *head, (t, c) = B.basis[k]
    B.basis[k] = (*head, (t, R2.field.add(c, c)))
    with pytest.raises(RuntimeError, match="syzygy identity violated"):
        B.syzygies()


def test_expression_check_fires_on_a_tampered_basis(R2):
    gens = [R2.parse("x^2"), R2.parse("x*y"), R2.parse("y^2")]
    f = R2.parse("x^3 + x*y^2")
    B = AugmentedBasis([(g,) for g in gens])
    assert dot(B.express([f])[0], gens) == f
    # double the coordinates past position 0 of every element led at 0, so
    # that the remainder expresses 2f instead of f (position-0 terms are
    # the non-negative ones)
    F = R2.field
    B.basis[:] = [
        tuple((t, F.add(c, c) if t < 0 else c) for t, c in e) if e[0][0] >= 0 else e
        for e in B.basis
    ]
    B.divisors[:] = [_divisor(F, e) for e in B.basis]
    with pytest.raises(RuntimeError, match="expression identity violated"):
        B.express([f])


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
@given(data=st.data())
def test_module_terms_are_the_components_in_position_order(ring, data):
    # position over term: the components' terms concatenated, with no sort,
    # are strictly descending canonical terms, and _vector splits them back
    vec = tuple(data.draw(st.lists(polynomials(ring), min_size=1, max_size=4)))
    offset = data.draw(st.integers(0, 3))
    terms = _terms(vec, offset)
    assert all(a > b for (a, _), (b, _) in zip(terms, terms[1:]))
    assert _vector(ring, terms, offset, len(vec)) == vec


def test_module_member_negative(R2):
    gens = [R2.parse("x^2"), R2.parse("x*y"), R2.parse("y^2")]
    syz = syzygies([(g,) for g in gens])
    not_a_syzygy = (R2.one, R2.zero, R2.zero)
    assert not module_member(not_a_syzygy, syz)


def test_step_limit_enforced(R3):
    rng = seeded_rng("limit")
    gens = [random_homogeneous(R3, 2, rng) for _ in range(3)]
    set_step_limit(1)
    with pytest.raises(ResourceLimitError):
        reduced_groebner(gens)


def test_redundant_generators_cost_no_spairs(R2):
    # x^2*y arrives after x^2 and y^2 and reduces to zero before it makes a
    # pair; the one pair left, (x^2, y^2), has coprime leads
    set_step_limit(0)
    G = reduced_groebner([R2.parse("x^2"), R2.parse("y^2"), R2.parse("x^2*y")])
    assert sorted(R2.exponents(g.lm()) for g in G) == [(0, 2), (2, 0)]


def test_step_limit_enforced_on_modules(R3):
    rng = seeded_rng("module-limit")
    gens = [random_homogeneous(R3, 2, rng) for _ in range(3)]
    f = R3.gens[0] * gens[0]
    rank_one = [(g,) for g in gens]
    set_step_limit(1)
    with pytest.raises(ResourceLimitError, match="^exceeded 1 S-pair reductions$"):
        syzygies(rank_one)
    with pytest.raises(ResourceLimitError, match="^exceeded 1 S-pair reductions$"):
        AugmentedBasis(rank_one).express([f])
    with pytest.raises(ResourceLimitError, match="^exceeded 1 S-pair reductions$"):
        minimal_subset([(f,)], (0,), rank_one)


def test_gb_of_random_ideals_is_groebner(R3):
    rng = seeded_rng("gbprop")
    for trial in range(3):
        gens = [random_homogeneous(R3, 2, rng) for _ in range(2)]
        G = reduced_groebner(gens)
        # generators reduce to zero against their own basis
        for g in gens:
            assert normal_form(g, list(G)).is_zero()


# --- kernel invariants -----------------------------------------------------

def forms(ring, degree):
    monos = [m for m in product(range(degree + 1), repeat=ring.nvars) if sum(m) == degree]
    return st.dictionaries(
        st.sampled_from(monos), coefficients(ring.field), min_size=1, max_size=3
    ).map(lambda d: from_exponents(ring, d))


def _reference_normal_form(f, G):
    """Division by repeated subtraction of whole polynomials, with the
    divisibility and quotients of exponent tuples."""
    ring = f.ring
    F, expo = ring.field, ring.exponents
    rem, p = ring.zero, f
    while not p.is_zero():
        m, c = p.terms[0]
        for g in G:
            if mono_divides(expo(g.lm()), expo(m)):
                q = ring.monomial(mono_div(expo(m), expo(g.lm())))
                p = p - g.mul_term(q, F.mul(c, F.inv(g.lc())))
                break
        else:
            rem = rem + ring.from_dict({m: c})
            p = p - ring.from_dict({m: c})
    return rem


_R = KERNEL_RINGS[0]


@given(in_kernel_ring(lambda ring: (
    st.lists(polynomials(ring, max_degree=2, max_terms=3), min_size=1, max_size=3),
    polynomials(ring),
)))
# both leads divide x; dividing by the first leaves -y, by the second +y
@example((_R, [_R.parse("x + y"), _R.parse("x - y")], _R.parse("x")))
def test_normal_form_matches_repeated_subtraction(case):
    ring, G, f = case
    G = [g for g in G if not g.is_zero()]
    assert normal_form(f, G).terms == _reference_normal_form(f, G).terms


_QQ_RINGS = [ring for ring in KERNEL_RINGS if not ring.field.characteristic]
_Q = _QQ_RINGS[0]


@given(st.sampled_from(_QQ_RINGS).flatmap(lambda ring: st.tuples(
    st.lists(st.one_of(
        polynomials(ring, max_degree=2, max_terms=3),
        polynomials(ring, max_degree=2, max_terms=3, coeffs=large_fractions()),
    ), max_size=4),
    st.one_of(polynomials(ring, max_terms=6),
              polynomials(ring, max_terms=6, coeffs=large_fractions())),
)))
# y^2 leaves the remainder at den 1; dividing x*z by 3x + y then scales
# the live terms by 3, which must not touch y^2
@example(([_Q.parse("3*x + y")], _Q.parse("y^2 + x*z")))
@example(([_Q.parse("6*x - 4*y"), _Q.parse("9*y^2 + 2*z^2")], _Q.parse("x*y^2 + 5/7*y*z^2")))
def test_normal_form_over_qq_matches_fraction_division(case):
    G, f = case
    r = normal_form(f, G)
    assert r == fraction_remainder(f, G)
    assert all(type(c) is Fraction for _, c in r.terms)


@given(in_kernel_ring(lambda ring: (
    st.lists(st.integers(1, 2).flatmap(lambda d: forms(ring, d)), min_size=1, max_size=2),
    polynomials(ring),
)))
def test_normal_form_agrees_with_oracle(case):
    ring, gens, f = case
    assert normal_form(f, reduced_groebner(gens)) == oracle_remainder(f, gens, 3)


_X, _Y = _R.gens[:2]


@given(in_kernel_ring(lambda ring: [st.lists(
    st.integers(1, 2).flatmap(lambda d: forms(ring, d)), min_size=2, max_size=4)]))
# the two Koszul-type syzygies of the square monomials generate
@example((_R, [_X**2, _X * _Y, _Y**2]))
def test_syzygies_generate_every_syzygy(case):
    ring, gens = case
    syz = syzygies([(g,) for g in gens])
    for vec in syz:
        assert dot(vec, gens).is_zero()
    bound = 2 * max(g.total_degree() for g in gens)
    for vec in truncated_syzygies(gens, bound):
        assert module_member(vec, syz)


@given(in_kernel_ring(lambda ring: (
    st.lists(st.integers(1, 2).flatmap(lambda d: forms(ring, d)), min_size=1, max_size=3),
    st.lists(st.lists(polynomials(ring, max_degree=1, max_terms=2), min_size=3, max_size=3),
             max_size=2),
    st.randoms(use_true_random=False),
)))
def test_reduced_basis_ignores_redundant_generators_and_order(case):
    # appended combinations reduce to zero on arrival, and the reduced
    # basis is canonical whatever order the generators come in
    ring, gens, multipliers, rnd = case
    combos = [sum((c * g for c, g in zip(cs, gens)), ring.zero) for cs in multipliers]
    mixed = gens + combos
    rnd.shuffle(mixed)
    assert reduced_groebner(mixed).elements == reduced_groebner(gens).elements


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_minimal_subset_matches_membership_reference(family, seed):
    I = generate_instance(family, seed).I
    rank_one = [(g,) for g in I.generators]
    assert minimal_subset(rank_one, (0,)) == reference_minimal_subset(rank_one, (0,))
    x = min_gens(I)
    degrees = [g.total_degree() for g in x]
    syz = syzygies([(g,) for g in x])
    assert minimal_subset(syz, degrees) == reference_minimal_subset(syz, degrees)
    # Koszul cycles modulo the boundaries, as in homology_lifts
    K = KoszulComplex(I.ring, x)
    for i in range(1, K.n + 1):
        basis = K.basis(i)
        z = syzygies(K.differential_columns(i))
        shifts = [sum(degrees[j - 1] for j in S) for S in basis]
        span = [e.to_module_element(basis) for e in K.boundary_elements(i)]
        assert minimal_subset(z, shifts, span) == reference_minimal_subset(z, shifts, span)


def test_divisors_are_built_once_per_basis_element(monkeypatch):
    # each element that joins a basis gets its divisor once, when it joins,
    # and each element of a reduced basis once, when it is reduced: a basis
    # that grows, is read by express, or is the start of a colon run keeps
    # the divisors it has
    inst = generate_instance("hb2", 0)
    I, a = inst.I, inst.a
    x = min_gens(I)
    a.groebner()
    built, joined = [], []
    divisor, monic = groebner._divisor, groebner._monic
    monkeypatch.setattr(groebner, "_divisor", lambda F, t: built.append(t) or divisor(F, t))
    monkeypatch.setattr(groebner, "_monic", lambda F, t: joined.append(t) or monic(F, t))
    B = AugmentedBasis([(g,) for g in x])
    assert len(built) == len(joined) == len(B.basis) == len(B.divisors)
    B.express([g for g in a.generators if not g.is_zero()])
    syz = B.syzygies()
    assert len(built) == len(B.basis)
    kept = minimal_subset(syz, [g.total_degree() for g in x])
    assert kept and len(built) == len(joined)
    # a fresh divisor ideal, so the colon is not a memo hit
    J = colon(a, Ideal(I.ring, I.generators))
    assert len(joined) > len(B.basis) and len(built) == len(joined) + len(J.groebner())
    J.contains(x[0])
    assert len(built) == len(joined) + len(J.groebner())


def test_monomials_past_the_bound_raise_in_the_engine():
    # under lex a reduction raises the degree: x^20 by x - y^2000 ends at
    # y^40000, whose digit would carry into the x digit and read as x^4
    L = PolyRing(GF32003, ("x", "y"), MonomialOrder("lex"))
    x, y = L.gens
    with pytest.raises(ValueError, match="exceeds the bound"):
        normal_form(x**20, [L.parse("x - y^2000")])
    assert normal_form(x**2, [L.parse("x - y^2000")]) == y**4000
    # under grevlex a product, an S-pair lcm and a module lcm of degree
    # 40000 raise; under lex the same product is in range
    R = PolyRing(GF32003, ("x", "y", "z"))
    x, y, z = R.gens
    for make in (lambda: x**20000 * y**20000,
                 lambda: reduced_groebner([x**20000 + z, y**20000 + z]),
                 lambda: syzygies([(x**20000, z), (y**20000, z)])):
        with pytest.raises(ValueError, match="exceeds the bound"):
            make()
    x, y = L.gens
    assert L.exponents((x**20000 * y**20000).lm()) == (20000, 20000)
