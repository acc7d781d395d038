"""Fitting ideals of cyclic quotients I/a via [A|B] presentations."""

import gc
import weakref
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from residua import fitting, groebner
from residua.corpus import FAMILIES, generate_instance
from residua.fitting import (
    NotASubidealError,
    _syzygy_rows,
    check_Gs,
    fitt0_quotient,
    fitting_ideal,
    minors,
    presentation_of_quotient,
)
from residua.groebner import AugmentedBasis, ResourceLimitError, set_step_limit
from residua.ideals import (
    Ideal,
    NonHomogeneousError,
    augmented_basis,
    colon,
    dimension,
    height,
    height_reaches,
    ideal_equal,
    ideal_sum,
    min_gens,
    mu,
)
from residua.ring import PolyRing, RingMismatchError
from residua.koszul import KoszulComplex, fitt0_via_Z1, homology_lifts, kitt, kitt_via_cycles

from conftest import (
    memo_entries,
    parse_ideal,
    polynomials,
    random_homogeneous,
    rings_and_coefficients,
    seeded_rng,
)
from oracles import reference_Gs, reference_det


def test_minors_of_koszul_style_matrix(R2):
    y, x = R2.parse("y"), R2.parse("x")
    matrix = [
        [y, x, R2.zero],
        [-x, R2.zero, y],
    ]
    result = minors(R2, matrix, 2)
    assert ideal_equal(result, parse_ideal(R2, "x^2", "x*y", "y^2"))


def test_minors_degenerate_sizes(R2):
    matrix = [[R2.parse("x")]]
    assert ideal_equal(minors(R2, matrix, 1), parse_ideal(R2, "x"))
    # r larger than the matrix: no minors, zero ideal
    assert minors(R2, matrix, 2).is_zero()
    # r = 0: empty product, unit ideal
    assert minors(R2, matrix, 0).is_unit()


def test_minors_reject_a_ragged_matrix(R2):
    # a longer later row used to lose its extra entries, a shorter one
    # raised IndexError
    x, y = R2.gens
    for matrix in ([[x], [y, x * y]], [[x, y], [x * y]]):
        with pytest.raises(ValueError, match="non-rectangular"):
            minors(R2, matrix, 1)


@given(st.data())
def test_minors_match_leibniz_determinants(data):
    ring, coeffs = data.draw(rings_and_coefficients())
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    entries = polynomials(ring, max_degree=2, max_terms=3, coeffs=coeffs)
    matrix = [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    r = data.draw(st.integers(1, min(nrows, ncols)))
    dets = (
        reference_det(ring, [[matrix[i][j] for j in cols] for i in rows])
        for rows in combinations(range(nrows), r)
        for cols in combinations(range(ncols), r)
    )
    assert minors(ring, matrix, r).generators == tuple(d for d in dets if not d.is_zero())


def test_presentation_shape_maximal_ideal(R2):
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x^2", "y^2")
    pres = presentation_of_quotient(I, a)
    assert len(pres) == 2
    # one Koszul syzygy plus one column per generator of a
    assert len(pres[0]) == 3
    gens = list(I.generators)
    for j in range(len(pres[0])):
        col = [row[j] for row in pres]
        combo = sum((c * g for c, g in zip(col, gens)), R2.zero)
        assert a.contains(combo)


def test_presentation_shape_m_squared(R2):
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    a = parse_ideal(R2, "x^2", "y^2")
    pres = presentation_of_quotient(I, a)
    assert len(pres) == 3
    assert len(pres[0]) == 4


def test_presentation_rejects_non_subideal(R2):
    with pytest.raises(NotASubidealError):
        presentation_of_quotient(parse_ideal(R2, "x"), parse_ideal(R2, "y"))


def test_fitt0_maximal_ideal_case(R2):
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x^2", "y^2")
    assert ideal_equal(fitt0_quotient(I, a), parse_ideal(R2, "x^2", "x*y", "y^2"))


def test_fitt0_m_squared_case(R2):
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    a = parse_ideal(R2, "x^2", "y^2")
    assert ideal_equal(fitt0_quotient(I, a), parse_ideal(R2, "x", "y"))


def test_fitt0_of_trivial_quotient(R2):
    I = parse_ideal(R2, "x", "y")
    assert fitt0_quotient(I, I).is_unit()


def test_fitt0_contained_in_colon(R3):
    # Fitt_0(I/a) always lands inside a:I
    I = parse_ideal(R3, "x*y", "x*z", "y*z")
    a = parse_ideal(R3, "x*y", "x*z")
    J = colon(a, I)
    F = fitt0_quotient(I, a)
    assert J.contains_ideal(F)


def test_fitting_ideal_chain(R2):
    # Fitt_0 <= Fitt_1 <= ... and Fitt_n = (1) for a 2-generated quotient
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x^2", "y^2")
    f0 = fitting_ideal_of(I, a, 0)
    f1 = fitting_ideal_of(I, a, 1)
    f2 = fitting_ideal_of(I, a, 2)
    assert f1.contains_ideal(f0)
    assert f2.contains_ideal(f1)
    assert f2.is_unit()


def fitting_ideal_of(I, a, j):
    pres = presentation_of_quotient(I, a)
    return minors(I.ring, pres, len(pres) - j)


def test_fitting_ideal_of_ideal_itself(R2):
    # Fitt_1 of the module I = (x, y): 1-minors of the syzygy column = (x, y)
    I = parse_ideal(R2, "x", "y")
    assert ideal_equal(fitting_ideal(I, 1), I)


@pytest.mark.parametrize("family", FAMILIES)
def test_check_Gs_matches_its_definition(family):
    # G_1 holds for a nonzero ideal; G_4 fails in at most three variables,
    # where the unit ideal reads height nvars < 4
    for seed in range(10):
        I = generate_instance(family, seed).I
        outcomes = [reference_Gs(I, s) for s in range(1, 5)]
        assert [check_Gs(I, s) for s in range(1, 5)] == outcomes
        assert outcomes[0] and not outcomes[-1]


def test_height_reaches_matches_the_full_height():
    # the stop reads ht J >= h off the leads of a partial basis; checked
    # against nvars - dim(R/J) of the complete one (nvars for the unit
    # ideal, as `height` reads it) on the ideals Fitt_j(I) + I that G_s
    # asks about, in two and three variables
    nvars = set()
    for family in FAMILIES:
        for seed in range(4):
            I = generate_instance(family, seed).I
            n = I.ring.nvars
            nvars.add(n)
            for j in range(n + 1):
                J = ideal_sum(fitting_ideal(I, j), I)
                full = n if J.is_unit() else n - dimension(J)
                assert [height_reaches(J, h) for h in range(n + 2)] == \
                    [full >= h for h in range(n + 2)]
    assert nvars == {2, 3}


def test_check_Gs_matches_its_definition_below_and_past_nvars(R2, R3):
    # x * (x, y, z) has height 1, so only j = 0 is settled by ht I; in two
    # variables s = 3, 4 exceed nvars, where a proper ideal has
    # Fitt_j(I) = (1) for j >= mu(I) but reads height nvars < j + 1
    for I in (parse_ideal(R3, "x^2", "x*y", "x*z"), parse_ideal(R2, "x", "y"),
              parse_ideal(R2, "x^2", "x*y", "y^2")):
        assert [check_Gs(I, s) for s in range(1, 5)] == [reference_Gs(I, s) for s in range(1, 5)]
    m = parse_ideal(R2, "x", "y")
    assert check_Gs(m, 2) and not check_Gs(m, 3)


@pytest.mark.parametrize("family", FAMILIES)
def test_height_ladder_through_fitting_ideals(family):
    # Supp(I/a_sub) = V(a_sub : I) = V(Fitt_0(I/a_sub)) (Eisenbud,
    # Commutative Algebra, Prop. 20.7), so both have one height
    for seed in range(3, 9):
        inst = generate_instance(family, seed)
        I, a_gens = inst.I, inst.a_gens
        for size in range(1, len(a_gens) + 1):
            for idx in combinations(range(len(a_gens)), size):
                a_sub = Ideal(I.ring, tuple(a_gens[i] for i in idx))
                assert height(colon(a_sub, I)) == height(fitt0_quotient(I, a_sub))


def maximal_minors_ideal(ring, m, seed):
    """The m x m minors of a seeded (m+1) x m matrix of linear forms: a
    Hilbert-Burch ideal with m + 1 generators and m syzygies when it has
    height 2 (Eisenbud, Commutative Algebra, Thm 20.15)."""
    rng = seeded_rng("maximal-minors", m, seed)
    matrix = [[random_homogeneous(ring, 1, rng, density=1.0) for _ in range(m)]
              for _ in range(m + 1)]
    I = minors(ring, matrix, m)
    assert mu(I) == m + 1 and height(I) == 2
    return I


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_minimal_syzygy_count_matches_theory(family, seed):
    # a complete intersection of g forms has the C(g, 2) Koszul relations as
    # minimal syzygies; the three-generated height-2 families have two
    I = generate_instance(family, seed).I
    expected = comb(len(I.generators), 2) if family == "ci" else 2
    assert len(_syzygy_rows(I)[0]) == expected


@pytest.mark.parametrize("m", [3, 4])
def test_minimal_syzygy_count_of_maximal_minors(R3, m):
    assert len(_syzygy_rows(maximal_minors_ideal(R3, m, 0))[0]) == m


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_fitting_ideals_match_the_unpruned_syzygy_matrix(family, seed):
    I = generate_instance(family, seed).I
    x = min_gens(I)
    syz = AugmentedBasis(I.ring, 1, [(g,) for g in x]).syzygies()
    rows = [[z[i] for z in syz] for i in range(len(x))]
    for j in range(len(x) + 1):
        assert ideal_equal(fitting_ideal(I, j), minors(I.ring, rows, len(x) - j))


def test_check_Gs_on_five_by_four_maximal_minors(R3):
    # unpruned, its 14 syzygy columns give C(5, 4) * C(14, 4) = 5005 4 x 4 submatrices
    I = maximal_minors_ideal(R3, 4, 0)
    previous = set_step_limit(20000)
    try:
        assert check_Gs(I, 3)
    finally:
        set_step_limit(previous)


def test_check_Gs_keeps_one_height_per_j(monkeypatch, R3):
    # I lies in Fitt_j(I) + I, so every j < ht I = 2 passes with no minor
    # taken: s = 2 takes no Fitting ideal and s = 3 only Fitt_2(I)
    I = generate_instance("hb2", 0).I
    assert height(I) == 2
    asked = []
    original = fitting.fitting_ideal

    def counted(ideal, j):
        asked.append(j)
        return original(ideal, j)

    expected = {s: check_Gs(Ideal(I.ring, I.generators), s) for s in (2, 3)}
    monkeypatch.setattr(fitting, "fitting_ideal", counted)
    assert check_Gs(I, 2) == expected[2]
    assert asked == []
    assert check_Gs(I, 3) == expected[3]
    # asked again, s = 3 reads its outcome from the memo
    assert check_Gs(I, 3) == expected[3]
    assert asked == [2]
    assert memo_entries(I, "G_s") == {2: expected[3]}

    # a height run interrupted by the step budget keeps no entry for its j.
    # A run that settles height j+1 may stop before any S-pair reduction
    # (Fitt_2 of a 4 x 3 Hilbert-Burch ideal does), so the budget stops
    # one that must complete: Fitt_3(J) + J of a 5 x 4 Hilbert-Burch ideal
    # J has height 3 < 4, once J's height, syzygies and j = 2 are in its memo
    J = maximal_minors_ideal(R3, 4, 0)
    assert check_Gs(J, 3)
    _syzygy_rows(J)
    previous = set_step_limit(0)
    try:
        with pytest.raises(ResourceLimitError):
            check_Gs(J, 4)
    finally:
        set_step_limit(previous)
    assert memo_entries(J, "G_s") == {2: True}
    assert not check_Gs(J, 4)
    assert memo_entries(J, "G_s") == {2: True, 3: False}


def test_syzygies_computed_once_per_ideal(monkeypatch):
    inst = generate_instance("hb2", 0)
    I, a = inst.I, inst.a
    calls = []
    original = AugmentedBasis.syzygies

    def counted(self):
        calls.append(len(self.gens))
        return original(self)

    monkeypatch.setattr(AugmentedBasis, "syzygies", counted)
    check_Gs(I, 2)
    fitting_ideal(I, 1)
    presentation_of_quotient(I, a)
    fitt0_quotient(I, a)
    assert len(calls) == 1


def test_augmented_basis_built_once_per_ideal(monkeypatch):
    built = []
    original = AugmentedBasis.__init__

    def counted(self, ring, rank, gens):
        gens = tuple(gens)
        built.append(gens)
        original(self, ring, rank, gens)

    inst = generate_instance("hb2", 0)
    I, a = inst.I, inst.a
    x = min_gens(I)
    monkeypatch.setattr(AugmentedBasis, "__init__", counted)
    # the homology of K(x) builds the augmented basis of d_1 alone: for hb2
    # n - ht I = 1, and above it Z_i = B_i needs no basis; d_1's, whose
    # columns are x again, becomes I's when a route is given the homology,
    # so no route and no Fitting ideal builds another
    K = KoszulComplex(I.ring, x)
    H = homology_lifts(K)
    assert K.n - height(I) == 1
    assert built == [tuple(K.differential_columns(1))]
    built.clear()
    kitt(a, I, H)
    kitt_via_cycles(a, I, H)
    fitt0_via_Z1(a, I, H)
    fitt0_quotient(I, a)
    check_Gs(I, 2)
    fitting_ideal(I, 1)
    presentation_of_quotient(I, a)
    assert built == []
    assert augmented_basis(I) is H.d1

    # a route that computes the homology itself starts from I's basis, and
    # builds no other
    fresh = generate_instance("hb2", 0)
    J, b = fresh.I, fresh.a
    augmented_basis(J)
    assert built == [tuple((g,) for g in x)]
    built.clear()
    kitt(b, J)
    assert built == []

    bases = []
    original_groebner = groebner._groebner

    def counted_groebner(ring, divisors, new, *rest, **options):
        bases.append(len(new))
        return original_groebner(ring, divisors, new, *rest, **options)

    monkeypatch.setattr(groebner, "_groebner", counted_groebner)
    check_Gs(I, 2)
    assert bases == []


def test_zetas_computed_once_per_generator_tuple(monkeypatch):
    inst = generate_instance("hb2", 0)
    I, a = inst.I, inst.a
    H = homology_lifts(KoszulComplex(I.ring, min_gens(I)))
    expressed = []
    original = AugmentedBasis.express

    def counted(self, polys):
        polys = tuple(polys)
        expressed.append(polys)
        return original(self, polys)

    monkeypatch.setattr(AugmentedBasis, "express", counted)
    K = kitt(a, I, H)
    K_cycles = kitt_via_cycles(a, I, H)
    F = fitt0_via_Z1(a, I, H)
    # the presentation of I/a reads the same expressions of a
    assert ideal_equal(fitt0_quotient(I, a), F)
    assert len(expressed) == 1
    # another generator tuple for the same ideal a is computed afresh
    b = Ideal(I.ring, tuple(reversed(a.generators)))
    assert ideal_equal(kitt(b, I, H), K)
    assert len(expressed) == 2
    assert ideal_equal(kitt_via_cycles(b, I, H), K_cycles)
    assert ideal_equal(fitt0_via_Z1(b, I, H), F)
    assert len(expressed) == 2
    assert list(memo_entries(I, "zetas")) == [a.generators, b.generators]


def test_zetas_not_kept_when_a_check_fails(R2):
    I = parse_ideal(R2, "x^2", "x*y")
    outside = parse_ideal(R2, "x^2", "y^2")
    for route in (kitt, kitt_via_cycles, fitt0_via_Z1):
        for _ in range(2):
            with pytest.raises(NotASubidealError):
                route(outside, I)
    assert memo_entries(I, "zetas") == {}
    elsewhere = parse_ideal(PolyRing(R2.field, ("u", "v")), "u^2")
    for route in (kitt, kitt_via_cycles, fitt0_via_Z1):
        with pytest.raises(RingMismatchError):
            route(elsewhere, I)
    with pytest.raises(RingMismatchError):
        fitt0_quotient(I, elsewhere)
    assert memo_entries(I, "zetas") == {}
    J = parse_ideal(R2, "x^2 + y", "x*y")
    with pytest.raises(NonHomogeneousError):
        kitt(parse_ideal(R2, "x*y"), J)
    assert memo_entries(J, "zetas") == {}


def test_zetas_memo_keeps_no_complex_alive(monkeypatch):
    inst = generate_instance("hb2", 0)
    I, a = inst.I, inst.a
    made = []
    original = KoszulComplex.__init__

    def tracked(self, ring, gens):
        original(self, ring, gens)
        made.append(weakref.ref(self))

    monkeypatch.setattr(KoszulComplex, "__init__", tracked)
    kitt(a, I)
    kitt_via_cycles(a, I)
    fitt0_via_Z1(a, I)
    gc.collect()
    # fitt0_via_Z1 takes the minors of the presentation, with no complex
    assert memo_entries(I, "zetas") and len(made) == 2
    assert all(ref() is None for ref in made)
