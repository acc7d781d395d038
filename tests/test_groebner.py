"""Buchberger, normal forms, and module (syzygy) computations."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from residua import groebner
from residua.corpus import FAMILIES, generate_instance
from residua.field import GF32003, RATIONALS, FieldSpec
from residua.groebner import (
    AugmentedBasis,
    NonHomogeneousError,
    NotAMemberError,
    ResourceLimitError,
    _dividend,
    _divisor,
    _element,
    _reduce,
    _terms,
    _vector,
    minimal_subset,
    normal_form,
    reduced_groebner,
    set_step_limit,
)
from residua.ideals import Ideal, colon, min_gens
from residua.koszul import KoszulComplex
from residua.ring import MonomialOrder, Polynomial, PolyRing

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
                assert normal_form(spoly(basis[i], basis[j]), G).is_zero()


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
    gens = [(R2.parse("x"),), (R2.parse("y"),)]
    assert len(AugmentedBasis(gens).syzygies()) == 1
    # the syzygies are read off the divisors and checked once, on the
    # first read, so tamper before it: double the last coefficient of the
    # syzygy (y, -x), and y*x - 2*x*y != 0
    B = AugmentedBasis(gens)
    shift = R2.position_shift
    k = next(k for k, (lead, _, _) in enumerate(B.divisors) if -(lead >> shift) >= B.rank)
    lead, lc, (*head, (t, c)) = B.divisors[k]
    B.divisors[k] = (lead, lc, (*head, (t, R2.field.add(c, c))))
    with pytest.raises(RuntimeError, match="syzygy identity violated"):
        B.syzygies()


def test_syzygies_are_read_and_checked_once(R2, monkeypatch):
    # every call hands out a new list of the same syzygies; the identity
    # check runs on the first read only
    B = AugmentedBasis([(R2.parse("x^2"),), (R2.parse("x*y"),), (R2.parse("y^2"),)])
    checks = []
    combination = groebner._combination
    monkeypatch.setattr(groebner, "_combination",
                        lambda c, g: checks.append(len(c)) or combination(c, g))
    first, second = B.syzygies(), B.syzygies()
    assert first == second and first is not second and len(checks) == len(first)
    first.clear()
    assert B.syzygies() == second
    minimal = B.minimal_syzygies()
    assert minimal == B.minimal_syzygies() and len(minimal) == 2
    assert len(checks) == len(second)


def test_expression_check_fires_on_a_tampered_basis(R2):
    gens = [R2.parse("x^2"), R2.parse("x*y"), R2.parse("y^2")]
    f = R2.parse("x^3 + x*y^2")
    B = AugmentedBasis([(g,) for g in gens])
    assert dot(B.express([f])[0], gens) == f
    # double the coordinates past position 0 of the divisor of every
    # element led at 0, so that the remainder expresses 2f instead of f
    # (position-0 terms are the non-negative ones)
    F = R2.field
    B.divisors[:] = [
        (lead, lc, tuple((t, F.add(c, c) if t < 0 else c) for t, c in tail))
        if lead >= 0 else (lead, lc, tail)
        for lead, lc, tail in B.divisors
    ]
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
    syz = AugmentedBasis([(g,) for g in gens]).syzygies()
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
    span = rank_one
    set_step_limit(1)
    with pytest.raises(ResourceLimitError, match="^exceeded 1 S-pair reductions$"):
        AugmentedBasis(rank_one).syzygies()
    with pytest.raises(ResourceLimitError, match="^exceeded 1 S-pair reductions$"):
        AugmentedBasis(rank_one).express([f])
    # the span's generators and each candidate are runs of their own, each
    # reducing the pairs up to the largest degree of the candidates: the
    # three quadrics and x*y, outside their span, make pairs of degree at
    # most 3, that of f, that need more than one
    x, y, z = R3.gens
    with pytest.raises(ResourceLimitError, match="^exceeded 1 S-pair reductions$"):
        minimal_subset([(x * y,), (f,)], (0,), span)
    set_step_limit(0)
    # alone, x*y makes no pair of degree at most 2, its own, and neither
    # does the span: two quadrics make pairs of degree 3 or more
    assert minimal_subset([(x * y,)], (0,), span) == [(x * y,)]
    # f and x*f lie in the span of gens[0] and z^5: z^5 lies above 4, the
    # degree of x*f, and is dropped, and gens[0] alone makes no pair; each
    # candidate reduces to zero on arrival, before it makes a pair
    assert minimal_subset([(x * f,), (f,)], (0,), [(gens[0],), (z**5,)]) == []


def test_gb_of_random_ideals_is_groebner(R3):
    rng = seeded_rng("gbprop")
    for trial in range(3):
        gens = [random_homogeneous(R3, 2, rng) for _ in range(2)]
        G = reduced_groebner(gens)
        # generators reduce to zero against their own basis
        for g in gens:
            assert normal_form(g, G).is_zero()


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


def _remainder(f, G):
    """The remainder of f on division by the sequence G of polynomials, by
    the division kernel that `normal_form` runs, with the divisors built
    here."""
    ring = f.ring
    divisors = [_divisor(ring.field, g.terms) for g in G if g.terms]
    return Polynomial(ring, _reduce(ring, _dividend(ring, f.terms), divisors))


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
    assert _remainder(f, G).terms == _reference_normal_form(f, G).terms


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
    r = _remainder(f, G)
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
    syz = AugmentedBasis([(g,) for g in gens]).syzygies()
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


def _check_minimal_subset_against_reference(I):
    """minimal_subset on the generators of I, on their syzygies and on the
    Koszul cycles modulo the boundaries keeps what the from-scratch
    membership reference keeps."""
    rank_one = [(g,) for g in I.generators]
    assert minimal_subset(rank_one, (0,)) == reference_minimal_subset(rank_one, (0,))
    x = min_gens(I)
    degrees = [g.total_degree() for g in x]
    syz = AugmentedBasis([(g,) for g in x]).syzygies()
    assert minimal_subset(syz, degrees) == reference_minimal_subset(syz, degrees)
    # Koszul cycles modulo the boundaries, as in homology_lifts: both take
    # the span B_i = im d_(i+1) as its generators, the columns of d_(i+1)
    K = KoszulComplex(I.ring, x)
    for i in range(1, K.n + 1):
        basis = K.basis(i)
        z = AugmentedBasis(K.differential_columns(i)).syzygies()
        shifts = [sum(degrees[j - 1] for j in S) for S in basis]
        boundaries = K.differential_columns(i + 1)
        assert (minimal_subset(z, shifts, boundaries)
                == reference_minimal_subset(z, shifts, boundaries))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_minimal_subset_matches_membership_reference(family, seed):
    _check_minimal_subset_against_reference(generate_instance(family, seed).I)


# the orders and fields of the test above, apart from its grevlex over GF(32003)
OTHER_ORDERS_AND_FIELDS = [
    (order, field)
    for order in (MonomialOrder(), MonomialOrder("lex"), MonomialOrder("block", 1))
    for field in (GF32003, RATIONALS, FieldSpec(101))
][1:]


@pytest.mark.parametrize("order, field", OTHER_ORDERS_AND_FIELDS, ids=str)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_minimal_subset_matches_reference_in_other_orders_and_fields(family, seed,
                                                                     order, field):
    # the truncated pass is exact for homogeneous elements under any
    # monomial order: the corpus I's generators, read in another ring
    I = generate_instance(family, seed).I
    ring = PolyRing(field, I.ring.variables, order)
    _check_minimal_subset_against_reference(
        Ideal(ring, [ring.parse(str(g)) for g in I.generators]))


def test_min_gens_of_generic_quadrics_reduces_no_spair():
    # the candidates all have degree 2 and every pair of theirs degree 3 or
    # more, so the truncated pass queues none: each candidate is reduced
    # once
    rng = seeded_rng("generic-quadrics")
    R = PolyRing(GF32003, ("x", "y", "z"))
    gens = [random_homogeneous(R, 2, rng, density=1.0) for _ in range(3)]
    set_step_limit(0)
    assert min_gens(Ideal(R, gens)) == [g.monic() for g in gens]


def test_minimal_subset_rejects_non_homogeneous_elements(R3):
    x, y, z = R3.gens
    with pytest.raises(NonHomogeneousError, match=r"^non-homogeneous generator y\^2 \+ x$"):
        minimal_subset([(x * y,), (x + y * y,)], (0,))
    # homogeneous under the weights, though not as a pair of polynomials
    assert minimal_subset([(x * y, z)], (0, 1)) == [(x * y, z)]
    with pytest.raises(NonHomogeneousError, match=r"under the weights \(0, 2\)$"):
        minimal_subset([(x * y, z)], (0, 2))


def _check_boundary_basis(I, rng):
    """The run over the columns of d_(i+1) that minimal_subset starts
    from at degree i, truncated at D, the largest shifted degree of the
    syzygies of d_i, and at two above the largest degree of a column:
    every generator of B_i = im d_(i+1) of degree at most the bound, and
    every homogeneous R-combination of them of degree at most the bound,
    reduces to zero by its divisors, and each element they stand for,
    monic, lies in B_i by a from-scratch membership test and has degree
    at most the bound.  With no column at or below D the run keeps
    nothing."""
    ring = I.ring
    x = min_gens(I)
    gd = [g.total_degree() for g in x]
    K = KoszulComplex(ring, x)
    for i in range(1, K.n):
        boundaries = K.differential_columns(i + 1)
        rank = len(K.basis(i))
        shifts = [sum(gd[j - 1] for j in S) for S in K.basis(i)]
        degrees = [sum(gd[j - 1] for j in T) for T in K.basis(i + 1)]
        z = AugmentedBasis(K.differential_columns(i)).syzygies()
        top = max(c.total_degree() + w for s in z for c, w in zip(s, shifts)
                  if not c.is_zero())
        for bound in (top, max(degrees) + 2):
            divisors = groebner._groebner(ring, [], [_terms(b) for b in boundaries],
                                          truncation=(shifts, bound))
            if min(degrees) > bound:
                assert divisors == []
                continue

            def reduces_to_zero(vec):
                return not _reduce(ring, _dividend(ring, _terms(vec)), divisors)

            assert all(reduces_to_zero(b) for b, d in zip(boundaries, degrees) if d <= bound)
            for _ in range(3):
                target = rng.randint(min(degrees), bound)
                coeffs = [random_homogeneous(ring, target - d, rng) if d <= target
                          else ring.zero for d in degrees]
                combo = tuple(sum((c * b[k] for c, b in zip(coeffs, boundaries)), ring.zero)
                              for k in range(rank))
                assert reduces_to_zero(combo)
            for d in divisors:
                g = _element(ring.field, d)
                assert g[0][1] == ring.field.one
                vec = _vector(ring, g, 0, rank)
                assert module_member(vec, boundaries)
                # nothing above the bound joins, not even a column
                assert max(c.total_degree() + w for c, w in zip(vec, shifts)
                           if not c.is_zero()) <= bound


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(2))
def test_boundary_basis_is_a_basis_of_the_boundaries(family, seed):
    _check_boundary_basis(generate_instance(family, seed).I,
                          seeded_rng("boundary-basis", family, seed))


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(101)], ids=str)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(2))
def test_boundary_basis_in_other_fields(family, seed, field):
    # the corpus I read in the field's ring, as in the test of minimal_subset
    # in other orders and fields
    I = generate_instance(family, seed).I
    ring = PolyRing(field, I.ring.variables, I.ring.order)
    _check_boundary_basis(Ideal(ring, [ring.parse(str(g)) for g in I.generators]),
                          seeded_rng("boundary-basis", family, seed, field))


def test_divisors_are_built_once_per_basis_element(monkeypatch):
    # each element that joins a basis gets its divisor once, when it joins,
    # and each element of a reduced basis once, when it is reduced: a basis
    # that grows, is read by express, or is the start of a colon run keeps
    # the divisors it has
    inst = generate_instance("hb2", 0)
    I, a = inst.I, inst.a
    x = min_gens(I)
    a.groebner()
    built, grown = [], []
    divisor, engine = groebner._divisor, groebner._groebner
    monkeypatch.setattr(groebner, "_divisor", lambda F, t: built.append(t) or divisor(F, t))

    def counted(ring, divisors, new, *rest, **options):
        # the number of elements that join the basis in this run
        size = len(divisors)
        engine(ring, divisors, new, *rest, **options)
        grown.append(len(divisors) - size)
        return divisors

    monkeypatch.setattr(groebner, "_groebner", counted)
    B = AugmentedBasis([(g,) for g in x])
    assert len(built) == sum(grown) == len(B.divisors)
    B.express([g for g in a.generators if not g.is_zero()])
    syz = B.syzygies()
    assert len(built) == len(B.divisors)
    kept = minimal_subset(syz, [g.total_degree() for g in x])
    assert kept and len(built) == sum(grown)
    # a fresh divisor ideal, so the colon is not a memo hit
    J = colon(a, Ideal(I.ring, I.generators))
    assert sum(grown) > len(B.divisors) and len(built) == sum(grown) + len(J.groebner())
    J.contains(x[0])
    assert len(built) == sum(grown) + len(J.groebner())


def test_monomials_past_the_bound_raise_in_the_engine():
    # under lex a reduction raises the degree: x^20 by x - y^2000 ends at
    # y^40000, whose digit would carry into the x digit and read as x^4
    L = PolyRing(GF32003, ("x", "y"), MonomialOrder("lex"))
    x, y = L.gens
    with pytest.raises(ValueError, match="exceeds the bound"):
        normal_form(x**20, reduced_groebner([L.parse("x - y^2000")]))
    assert normal_form(x**2, reduced_groebner([L.parse("x - y^2000")])) == y**4000
    # under grevlex a product, an S-pair lcm and a module lcm of degree
    # 40000 raise; under lex the same product is in range
    R = PolyRing(GF32003, ("x", "y", "z"))
    x, y, z = R.gens
    for make in (lambda: x**20000 * y**20000,
                 lambda: reduced_groebner([x**20000 + z, y**20000 + z]),
                 lambda: AugmentedBasis([(x**20000, z), (y**20000, z)]).syzygies()):
        with pytest.raises(ValueError, match="exceeds the bound"):
            make()
    x, y = L.gens
    assert L.exponents((x**20000 * y**20000).lm()) == (20000, 20000)
