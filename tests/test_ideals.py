"""Ideal operations: colon, equality, dimension/height, minimal
generators, and the G_s condition."""

from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from residua import corpus, groebner, ideals
from residua.corpus import generate_instance
from residua.field import GF32003, RATIONALS
from residua.ideals import (
    Ideal,
    NonHomogeneousError,
    colon,
    dimension,
    groebner_inside,
    height,
    ideal_equal,
    ideal_sum,
    min_gens,
    mu,
)
from residua.fitting import check_Gs, minors
from residua.groebner import GroebnerBasis, ResourceLimitError, _divisor, set_step_limit
from residua.ring import PolyRing

from conftest import (
    in_kernel_ring,
    memo_entries,
    parse_ideal,
    polynomials,
    random_homogeneous,
    seeded_rng,
)
from oracles import (
    monomial_colon,
    oracle_colon_degree_piece,
    oracle_degree_piece,
    oracle_member,
    reference_colon,
)


def _monomial_ideal(ring, exponents):
    return Ideal(ring, [ring.from_dict({ring.monomial(m): ring.field.one}) for m in exponents])


def _monomial_ideal_pairs():
    """(ring, exponents of a first, exponents of a second monomial ideal)
    in 2 or 3 variables."""
    def draw(nvars):
        exponents = st.lists(
            st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=3
        )
        return st.tuples(st.just(PolyRing(GF32003, ("x", "y", "z")[:nvars])),
                         exponents, exponents)

    return st.integers(2, 3).flatmap(draw)


@given(_monomial_ideal_pairs())
# (x^2, y^2) : (x, y) = (x^2, x*y, y^2)
@example((PolyRing(GF32003, ("x", "y")), [(2, 0), (0, 2)], [(1, 0), (0, 1)]))
def test_colon_matches_monomial_oracle(case):
    ring, ms_a, ms_i = case
    result = colon(_monomial_ideal(ring, ms_a), _monomial_ideal(ring, ms_i))
    assert result == _monomial_ideal(ring, monomial_colon(ms_a, ms_i))


def _colon_pair(family, seed):
    """(a, I) of a seeded corpus instance over GF(32003), or for family
    "qq" a pair of general quadrics in an hb2 ideal over QQ."""
    if family != "qq":
        inst = generate_instance(family, seed)
        return inst.a, inst.I
    ring = PolyRing(RATIONALS, ("x", "y", "z"))
    x, y, z = ring.gens
    I = minors(ring, [[x, y + z], [y, x + z.scale(2)], [z, x - y]], 2)
    f = I.generators
    return Ideal(ring, (f[0] + f[1].scale(3), f[1] + f[2].scale(5))), I


@pytest.mark.parametrize(
    "family, seed", [("hb2", 0), ("hb2", 1), ("hb2", 2), ("ci", 0), ("ci", 1), ("ci", 2), ("qq", 0)]
)
def test_colon_is_maximal(family, seed):
    # every graded piece of a : I up to degree 4 has the dimension the
    # linear-algebra oracle gives, so the colon is neither too small nor too big
    a, I = _colon_pair(family, seed)
    gens = colon(a, I).generators
    for d in range(5):
        expected = oracle_colon_degree_piece(a.generators, I.generators, d)
        assert oracle_degree_piece(gens, d) == expected


def _instance_pair(family, seed, field, monkeypatch):
    """(a generators, I) of a seeded corpus instance, drawn over `field`."""
    make_ring = corpus._make_ring
    monkeypatch.setattr(corpus, "_make_ring",
                        lambda nvars: PolyRing(field, make_ring(nvars).variables))
    inst = generate_instance(family, seed)
    assert inst.ring.field == field
    return inst.a_gens, Ideal(inst.ring, inst.I.generators)


@pytest.mark.parametrize("field", [GF32003, RATIONALS], ids=["gf", "qq"])
@pytest.mark.parametrize("family", ["ci", "hb2", "aci", "power"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_colon_and_intersect_match_the_syzygy_path(family, seed, field, monkeypatch):
    # over every subset of a, the empty one included
    a_gens, I = _instance_pair(family, seed, field, monkeypatch)
    ring = I.ring
    for size in range(len(a_gens) + 1):
        for idx in combinations(a_gens, size):
            a = Ideal(ring, idx)
            J = colon(a, I)
            assert J.groebner().elements == reference_colon(a, I).groebner().elements


@given(in_kernel_ring(lambda ring: [
    st.lists(polynomials(ring, max_degree=2, max_terms=3), min_size=1, max_size=3),
    st.lists(polynomials(ring, max_degree=2, max_terms=3).filter(lambda f: not f.is_zero()),
             min_size=1, max_size=2),
]))
def test_colon_and_intersect_hand_over_their_reduced_basis(case):
    # the basis that comes with the colon is the one its generators give,
    # with the divisors of its elements
    ring, a_gens, i_gens = case
    a, I = Ideal(ring, a_gens), Ideal(ring, i_gens)
    result = colon(a, I)
    assert "groebner" in result._memo or not result.generators
    gb = result.groebner()
    assert gb.elements == result.generators
    assert gb.elements == Ideal(ring, result.generators).groebner().elements
    assert gb.divisors == [_divisor(ring.field, g.terms) for g in gb]


def test_colon_and_intersect_check_every_generator(R3, monkeypatch):
    # the last generator handed over, 1, is not in a : I
    a, I = _hb2_pair(R3)
    last_coordinates = ideals.last_coordinates

    def with_a_non_member(basis, row):
        gb = last_coordinates(basis, row)
        return GroebnerBasis(R3, gb.elements + (R3.one,),
                             gb.divisors + [_divisor(R3.field, R3.one.terms)])

    monkeypatch.setattr(ideals, "last_coordinates", with_a_non_member)
    with pytest.raises(RuntimeError, match="colon"):
        colon(a, I)
    assert not memo_entries(I, "colon")


def test_colon_is_one_module_run(R3, monkeypatch):
    a, I = _hb2_pair(R3)
    a.groebner()
    runs = []
    engine = groebner._groebner

    def counted(ring, divisors, new, product_criterion=False):
        runs.append("ideal" if product_criterion else "module")
        return engine(ring, divisors, new, product_criterion)

    monkeypatch.setattr(groebner, "_groebner", counted)
    J = colon(a, I)
    assert len(I.generators) == 3 and runs == ["module"]
    # the colon comes with its reduced basis
    J.groebner()
    assert runs == ["module"]
    colon(Ideal(R3, a.generators), I)
    assert runs == ["module"]


def test_colon_by_the_zero_ideal_is_the_unit_ideal(R2):
    # with no nonzero generator of I the row is (1), so a : 0 = R
    a = parse_ideal(R2, "x^2", "y")
    for I in (Ideal(R2, []), Ideal(R2, [R2.zero])):
        assert colon(a, I).is_unit()
    assert colon(Ideal(R2, []), Ideal(R2, [])).is_unit()


def test_colon_socle(R2):
    # f * (x,y) in m^2 exactly when f in m
    result = colon(parse_ideal(R2, "x^2", "x*y", "y^2"), parse_ideal(R2, "x", "y"))
    assert ideal_equal(result, parse_ideal(R2, "x", "y"))


def test_colon_random_containment(R3):
    rng = seeded_rng("colon")
    for _ in range(3):
        gens = [random_homogeneous(R3, 2, rng) for _ in range(2)]
        I = Ideal(R3, gens)
        J = colon(I, parse_ideal(R3, "x", "y"))
        # defining property: J * (x, y) is contained in I
        for p in J.generators:
            assert I.contains(p * R3.parse("x"))
            assert I.contains(p * R3.parse("y"))


def test_ideal_equal_sum(R2):
    lhs = ideal_sum(parse_ideal(R2, "x^2", "y^2"), parse_ideal(R2, "x*y"))
    rhs = colon(parse_ideal(R2, "x^2", "y^2"), parse_ideal(R2, "x", "y"))
    assert ideal_equal(lhs, rhs)


def test_eq_is_ideal_equality(R2, R3):
    I = parse_ideal(R2, "x", "y")
    assert I == parse_ideal(R2, "y", "x")
    assert I == parse_ideal(R2, "y", "x^2 + x*y", "x", "x*y")
    assert I != parse_ideal(R2, "x", "y^2")
    assert I != parse_ideal(R3, "x", "y")   # another ring: unequal, not an error
    assert I != ("x", "y")
    with pytest.raises(TypeError):
        hash(I)


def _hb2_pair(ring):
    """(a, I): two general quadrics a inside a height-2 perfect ideal I."""
    rng = seeded_rng("memo")
    matrix = [[random_homogeneous(ring, 1, rng) for _ in range(2)] for _ in range(3)]
    I = minors(ring, matrix, 2)
    x = I.generators
    a = Ideal(ring, (x[0] + x[1].scale(3), x[1] + x[2].scale(5)))
    return a, I


def test_colon_memo_returns_same_object(R3):
    a, I = _hb2_pair(R3)
    first = colon(a, I)
    # keyed on the generator tuple of a, not on the ideal object a
    assert colon(Ideal(R3, a.generators), I) is first
    fresh = colon(Ideal(R3, a.generators), Ideal(R3, I.generators))
    assert fresh is not first
    assert fresh.groebner().elements == first.groebner().elements


def test_colon_memo_is_per_divisor(R2):
    a = parse_ideal(R2, "x^2", "y^2")
    I = parse_ideal(R2, "x", "y")
    assert ideal_equal(colon(a, I), parse_ideal(R2, "x^2", "x*y", "y^2"))
    assert ideal_equal(colon(a, parse_ideal(R2, "x")), parse_ideal(R2, "x", "y^2"))
    # an equal divisor with other generators keeps a memo of its own
    assert ideal_equal(colon(a, parse_ideal(R2, "y", "x", "x + y")), colon(a, I))
    assert colon(a, Ideal(R2, I.generators)) is not colon(a, I)


def test_colon_memo_skips_interrupted_runs(R3, monkeypatch):
    a, I = _hb2_pair(R3)
    previous = set_step_limit(1)
    try:
        with pytest.raises(ResourceLimitError):
            colon(a, I)
    finally:
        set_step_limit(previous)
    assert not memo_entries(I, "colon")
    expected = colon(Ideal(R3, a.generators), Ideal(R3, I.generators))
    assert colon(a, I).groebner().elements == expected.groebner().elements

    # interrupted after the module run has returned, in the soundness check
    J = Ideal(R3, I.generators)

    def interrupted(f, G):
        raise ResourceLimitError("interrupted")

    monkeypatch.setattr(ideals, "normal_form", interrupted)
    with pytest.raises(ResourceLimitError):
        colon(a, J)
    assert not memo_entries(J, "colon")


def test_memo_keeps_what_has_returned(R2):
    I = parse_ideal(R2, "x", "y")
    calls = []

    def interrupted():
        calls.append("interrupted")
        raise ResourceLimitError("interrupted")

    # a compute that raises leaves no entry, and the next call computes again
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            I.memo("probe", interrupted)
    assert calls == ["interrupted", "interrupted"]
    assert "probe" not in I._memo

    # a compute that asks for another key of the same ideal leaves both
    def inner():
        calls.append("inner")
        return 1

    def outer():
        calls.append("outer")
        return I.memo("inner", inner) + 1

    assert I.memo("probe", outer) == 2
    assert calls[2:] == ["outer", "inner"]
    assert I._memo["probe"] == 2 and I._memo["inner"] == 1

    # a value already present is returned without calling compute
    def unexpected():
        raise AssertionError("computed a kept value")

    assert I.memo("probe", unexpected) == 2 and I.memo("inner", unexpected) == 1
    assert len(calls) == 4
    # so a fresh ideal handed its reduced basis runs no engine for it
    basis = I.groebner()
    J = Ideal(R2, basis.elements)
    assert J.memo("groebner", lambda: basis) is basis
    assert J.groebner() is basis


def test_min_gens_returns_a_new_list(R2):
    I = parse_ideal(R2, "x", "y", "x^2 + x*y")
    first = min_gens(I)
    expected = list(first)
    first.clear()
    assert min_gens(I) == expected
    assert min_gens(I) is not min_gens(I)
    assert mu(I) == 2


def test_groebner_inside(R3):
    # an ideal inside I whose leads come to cover I's is I: its run stops
    # there and it is handed I's basis itself; one strictly inside keeps
    # the basis of its completed run
    I = parse_ideal(R3, "x^2 - y*z", "x*y", "y^2 - x*z")
    J = parse_ideal(R3, "y^2 - x*z", "x^2 - y*z + x*y", "x*y")
    assert groebner_inside(J, I) is I.groebner()
    assert J.groebner() is I.groebner()
    K = parse_ideal(R3, "x*y", "y^2 - x*z")
    assert groebner_inside(K, I).elements == groebner.reduced_groebner(R3, K.generators).elements
    assert groebner_inside(K, I).elements != I.groebner().elements


def test_dimension_and_height(R2):
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    assert dimension(I) == 0
    assert height(I) == 2


def test_dimension_of_principal(R3):
    assert dimension(parse_ideal(R3, "x")) == 2
    assert height(parse_ideal(R3, "x")) == 1


def test_dimension_unit_ideal(R2):
    assert dimension(Ideal(R2, [R2.one])) == -1
    assert height(Ideal(R2, [R2.one])) == 2


def test_dimension_zero_ideal(R2):
    assert dimension(Ideal(R2, ())) == 2
    assert height(Ideal(R2, ())) == 0


def test_min_gens_drops_redundant(R2):
    I = parse_ideal(R2, "x", "y", "x^2 + x*y")
    gens = min_gens(I)
    assert len(gens) == 2
    assert ideal_equal(Ideal(R2, gens), parse_ideal(R2, "x", "y"))


def test_mu_of_hilbert_burch(R3):
    rng = seeded_rng("hb")
    matrix = [[random_homogeneous(R3, 1, rng) for _ in range(2)] for _ in range(3)]
    I = minors(R3, matrix, 2)
    assert mu(I) == 3
    # no minor lies in the ideal of the other two
    gens = list(I.generators)
    for i in range(3):
        others = Ideal(R3, [g for j, g in enumerate(gens) if j != i])
        assert not others.contains(gens[i])


def test_mu_requires_homogeneous(R2):
    with pytest.raises(NonHomogeneousError, match=r"^non-homogeneous generator x\^2 \+ y$"):
        mu(parse_ideal(R2, "x^2 + y"))


def test_check_Gs_vacuous_in_two_vars(R2):
    assert check_Gs(parse_ideal(R2, "x^2", "x*y", "y^2"), 2)


def test_check_Gs_m_squared_three_vars(R3):
    # I = (x,y)^2 in k[x,y,z]: mu = 3 at the height-2 prime (x,y), so the
    # G_3 bound mu(I_p) <= dim R_p fails there (3 > 2)
    I = parse_ideal(R3, "x^2", "x*y", "y^2")
    assert check_Gs(I, 2)
    assert not check_Gs(I, 3)


def test_contains_ideal(R2):
    big = parse_ideal(R2, "x", "y")
    small = parse_ideal(R2, "x^2", "x*y", "y^2")
    assert big.contains_ideal(small)
    assert not small.contains_ideal(big)


def test_contains_agrees_with_oracle(R2):
    gens = [R2.parse("x^2"), R2.parse("x*y + y^2")]
    I = Ideal(R2, gens)
    for text in ("x^3", "x^2*y", "y^3", "x*y", "x^2 + y^2"):
        f = R2.parse(text)
        assert I.contains(f) == oracle_member(f, gens)
