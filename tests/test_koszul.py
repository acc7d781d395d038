"""Koszul complexes, homology lifts, and the Kitt ideal."""

import gc
import weakref
from itertools import combinations

import pytest

from residua import corpus
from residua.corpus import FAMILIES
from residua.field import GF32003, RATIONALS, FieldSpec
from residua.fitting import _syzygy_rows, expressions, fitt0_quotient
from residua.groebner import AugmentedBasis
from residua.ideals import Ideal, NonHomogeneousError, colon, height, ideal_equal, min_gens
from residua.koszul import (
    KoszulComplex,
    fitt0_via_Z1,
    homology_lifts,
    kitt,
    kitt_via_cycles,
)
from residua.residual import random_combination
from residua.ring import PolyRing

from conftest import (
    parse_ideal,
    random_homogeneous,
    seeded_rng,
)
from oracles import (
    d_squared_is_zero,
    exterior,
    koszul_homology_dim,
    module_member,
    reference_cycle_products,
    reference_minimal_subset,
    reference_wedge,
)


def test_wedge_antisymmetry(R2):
    e1 = {(1,): R2.one}
    e2 = {(2,): R2.one}
    assert reference_wedge(e1, e2) == {S: -p for S, p in reference_wedge(e2, e1).items()}
    assert reference_wedge(e1, e1) == {}


def test_wedge_associativity(R3):
    rng = seeded_rng("wedge")
    elems = []
    for _ in range(3):
        elems.append({(i,): random_homogeneous(R3, 1, rng) for i in range(1, 4)})
    u, v, w = elems
    assert reference_wedge(reference_wedge(u, v), w) == reference_wedge(u, reference_wedge(v, w))


def test_differential_signs(R2):
    x, y = R2.gens
    K = KoszulComplex(R2, [x, y])
    # the column of e_12 over the basis e_1, e_2
    (column,) = K.differential_columns(2)
    assert column == (-y, x)


def test_d_squared_zero_small(R2):
    x, y = R2.gens
    K = KoszulComplex(R2, [x * x, x * y, y * y])
    for i in range(2, K.n + 1):
        assert d_squared_is_zero(K, i)


def test_d_squared_zero_random_n4(R3):
    rng = seeded_rng("dsq")
    gens = [random_homogeneous(R3, rng.choice([1, 2]), rng) for _ in range(4)]
    K = KoszulComplex(R3, gens)
    for i in range(2, 5):
        assert d_squared_is_zero(K, i)


def test_homology_m_squared(R2):
    # K(x^2, xy, y^2) over k[x,y]: depth sensitivity forces H_i = 0 for
    # i > n - grade = 1; H_1 needs two generators
    x, y = R2.gens
    K = KoszulComplex(R2, [x * x, x * y, y * y])
    H = homology_lifts(K)
    assert len(H.lifts[1]) == 2
    for i in range(2, 4):
        assert H.lifts[i] == []


def test_homology_dims_match_rank_oracle(R2):
    x, y = R2.gens
    K = KoszulComplex(R2, [x * x, x * y, y * y])
    # H_2 and H_3 vanish in every graded degree up to 6
    for i in (2, 3):
        for d in range(7):
            assert koszul_homology_dim(K, i, d) == 0
    # H_1 is nonzero exactly in degrees 3 and 4 (dims 2 and 1)
    assert [koszul_homology_dim(K, 1, d) for d in range(7)] == [0, 0, 0, 2, 1, 0, 0]


def test_homology_regular_sequence(R2):
    x, y = R2.gens
    H = homology_lifts(KoszulComplex(R2, [x, y]))
    assert H.lifts[1] == [] and H.lifts[2] == []


def test_homology_lifts_rejects_non_homogeneous_generators(R3):
    # "minimal" means nothing for the lifts of non-homogeneous generators
    x, y, z = R3.gens
    with pytest.raises(NonHomogeneousError):
        homology_lifts(KoszulComplex(R3, [x * y, x + y * y, x * z + y]))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_degree_one_cycles_are_the_presentation_columns(family, seed):
    # Z_1 is generated by the minimal syzygies of min_gens(I), the columns
    # A of the presentation of I/a, computed once on I's augmented basis
    I = corpus.generate_instance(family, seed).I
    x = min_gens(I)
    H = homology_lifts(KoszulComplex(I.ring, x))
    cycles = H.cycle_gens[1]
    assert cycles == list(zip(*_syzygy_rows(I)))
    # the degree-1 lifts are picked among them
    assert all(h in cycles for h in H.lifts[1])


def test_kitt_worked_example(R2):
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x^2", "y^2")
    result = kitt(a, I)
    assert ideal_equal(result, parse_ideal(R2, "x^2", "x*y", "y^2"))
    assert ideal_equal(result, colon(a, I))


def test_kitt_via_cycles_worked_example(R2):
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x^2", "y^2")
    assert ideal_equal(kitt_via_cycles(a, I), parse_ideal(R2, "x^2", "x*y", "y^2"))


def test_kitt_m_squared(R2):
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    a = parse_ideal(R2, "x^2", "y^2")
    result = kitt(a, I)
    assert ideal_equal(result, colon(a, I))
    assert ideal_equal(result, kitt_via_cycles(a, I))


def test_kitt_sandwich(R3):
    I = parse_ideal(R3, "x*y", "x*z", "y*z")
    a = parse_ideal(R3, "x*y", "x*z")
    K = kitt(a, I)
    assert K.contains_ideal(fitt0_quotient(I, a))
    assert colon(a, I).contains_ideal(K)


def test_fitt0_via_Z1(R2):
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x^2", "y^2")
    assert ideal_equal(fitt0_via_Z1(a, I), parse_ideal(R2, "x^2", "x*y", "y^2"))
    assert ideal_equal(fitt0_via_Z1(a, I), fitt0_quotient(I, a))


def test_fitt0_via_Z1_zero_subideal(R2):
    # a = (0): only cycle products contribute, recovering Fitt_0(I)
    I = parse_ideal(R2, "x", "y")
    a = Ideal(R2, ())
    assert ideal_equal(fitt0_via_Z1(a, I), fitt0_quotient(I, a))


def test_kitt_and_fitt0_of_the_zero_module(R2):
    # I = a = 0: I/a is the zero module, whose Fitt_0 is (1), and the Kitt
    # ideal, which holds Fitt_0(I/a) + a, is (1) too
    zero = Ideal(R2, ())
    for result in (kitt(zero, zero), kitt_via_cycles(zero, zero), fitt0_via_Z1(zero, zero),
                   fitt0_quotient(zero, zero)):
        assert result.is_unit()
    H = homology_lifts(KoszulComplex(R2, ()))
    assert H.cycle_gens.keys() == H.lifts.keys() == {0}


def test_complex_is_freed_after_use(R2):
    # nothing process-wide may keep a complex, its ring or its generators alive
    K = KoszulComplex(R2, parse_ideal(R2, "x^2", "x*y", "y^2").generators)
    homology_lifts(K)
    ref = weakref.ref(K)
    del K
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("family, seed", [("hb2", 1), ("hb2", 3), ("aci", 1)])
def test_kitt_routes_refuse_a_homology_on_other_generators(family, seed):
    # the zetas are written in min_gens(I), so the cycles and lifts must be
    # too: a homology of the same generators scaled by 2, 3, 4, or
    # reversed, made every route return an ideal outside a : I
    inst = corpus.generate_instance(family, seed)
    a, I = Ideal(inst.ring, inst.a_gens), inst.I
    x = min_gens(I)
    F = I.ring.field
    scaled = [g.scale(F.element(c)) for g, c in zip(x, (2, 3, 4))]
    routes = (kitt, kitt_via_cycles, fitt0_via_Z1)
    for gens in (scaled, x[::-1]):
        H = homology_lifts(KoszulComplex(I.ring, gens))
        for route in routes:
            with pytest.raises(ValueError, match="min_gens"):
                route(a, Ideal(I.ring, I.generators), H)
    # the homology of K(min_gens I) gives what each route computes alone
    H = homology_lifts(KoszulComplex(I.ring, x))
    for route in routes:
        given = route(a, Ideal(I.ring, I.generators), H)
        assert given.generators == route(a, Ideal(I.ring, I.generators)).generators
    assert ideal_equal(fitt0_via_Z1(a, I, H), fitt0_quotient(I, a))
    colon_ideal = colon(a, I)
    assert colon_ideal.contains_ideal(kitt(a, I, H))
    assert colon_ideal.contains_ideal(kitt_via_cycles(a, I, H))


# --- Gamma * Z from the cycle generators, against every product of cycles ---

# GF(32003), a second prime and QQ
CROSS_FIELDS = (GF32003, FieldSpec(101), RATIONALS)


def _gamma_z_by_products(a, I, z1_only=False, max_factors=None):
    """The degree-n component of Gamma * Z by its definition: the e_1..e_n
    coefficient of every Gamma monomial (a product of distinct zetas) times
    every product of cycle generators of the complementary degree, all
    multiplied by `reference_wedge`, with at most max_factors factors
    (default n, every product).  With z1_only, the products of Z_1's
    generators alone, whose component is Fitt_0(I/a).  Repeated
    coefficients are kept once."""
    ring, x = I.ring, min_gens(I)
    n = len(x)
    _a_gens, coeffs = expressions(I, a)
    zetas = [exterior(n, 1, cs) for cs in coeffs]
    cycles = homology_lifts(KoszulComplex(ring, x)).cycle_gens
    degrees = (1,) if z1_only else range(1, n + 1)
    products = reference_cycle_products(
        ring, [exterior(n, i, z) for i in degrees for z in cycles.get(i, [])], n,
        max_factors or n)
    full = tuple(range(1, n + 1))
    gens = []
    for k in range(min(len(zetas), n) + 1):
        for idx in combinations(range(len(zetas)), k):
            gamma = {(): ring.one}
            for j in idx:
                gamma = reference_wedge(gamma, zetas[j])
            gens += [reference_wedge(gamma, p).get(full, ring.zero) for p in products
                     if len(next(iter(p))) == n - k]
    return Ideal(ring, list(dict.fromkeys(gens)))


# inputs beside the families: variables, generators of I, s, and the most
# factors a product of cycles takes in the reference (None: n).  The first
# has lifts in degrees 1-3; the third has n = 7 and lifts up to degree 5
# that meet Gamma in degrees 4 and 5, and its every product of cycles, 24036
# of them, made the test take 80 s over the three fields, so it takes
# products of two; the principal ideal pairs Z_0 with Gamma_n (k = n) and
# has no Z_1 to pair at k = 0; the zero ideal pairs Z_0 = R alone (k = n = 0)
PAIRING_INPUTS = {
    "x^2, x*y, x*z, y^2, y*z": (("x", "y", "z"), ("x^2", "x*y", "x*z", "y^2", "y*z"), 2, None),
    "x*y, x*z, x*w, y*z": (("x", "y", "z", "w"), ("x*y", "x*z", "x*w", "y*z"), 2, None),
    "(x, y)(x, y, z, w)": (("x", "y", "z", "w"),
                           ("x^2", "x*y", "x*z", "x*w", "y^2", "y*z", "y*w"), 3, 2),
    "x^2": (("x", "y"), ("x^2",), 1, None),
    "0": (("x", "y"), (), 0, None),
}


@pytest.mark.parametrize("field", CROSS_FIELDS, ids=str)
@pytest.mark.parametrize("source", FAMILIES + tuple(PAIRING_INPUTS))
def test_kitt_via_cycles_matches_cycle_products(monkeypatch, field, source):
    # the family's I drawn over the field, with a made of s = 2 and 3
    # random combinations of min_gens(I), one degree up once s >= mu(I),
    # or a fixed I with its own s; kitt (the lifts) and kitt_via_cycles
    # (the cycles) must both span Gamma * Z, and Gamma times the products
    # of Z_1 must be Fitt_0(I/a) as the presentation gives it
    rng = seeded_rng("kitt-via-cycles", source, field)
    if source in PAIRING_INPUTS:
        variables, gens, s, max_factors = PAIRING_INPUTS[source]
        R = PolyRing(field, variables)
        I, sizes = Ideal(R, [R.parse(g) for g in gens]), (s,)
    else:
        monkeypatch.setattr(corpus, "_make_ring",
                            lambda nvars: PolyRing(field, ("x", "y", "z")[:nvars]))
        for _ in range(corpus.MAX_DRAWS):
            drawn = corpus._DRAW[source](rng)
            if drawn is not None:
                break
        assert drawn is not None, f"no {source} draw within {corpus.MAX_DRAWS}"
        I, sizes, max_factors = drawn[0], (2, 3), None
    x = min_gens(I)
    top = max((g.total_degree() for g in x), default=0)
    for s in sizes:
        degree = top if s < len(x) else top + 1
        a = Ideal(I.ring, [random_combination(I.ring, x, degree, rng) for _ in range(s)])
        expected = _gamma_z_by_products(a, I, max_factors=max_factors)
        assert ideal_equal(kitt_via_cycles(a, I), expected)
        assert ideal_equal(kitt(a, I), expected)
        assert ideal_equal(_gamma_z_by_products(a, I, z1_only=True), fitt0_quotient(I, a))


@pytest.mark.parametrize("field", CROSS_FIELDS, ids=str)
def test_kitt_via_cycles_worked_examples_match_cycle_products(field):
    R = PolyRing(field, ("x", "y"))
    a = parse_ideal(R, "x^2", "y^2")
    for I in (parse_ideal(R, "x", "y"), parse_ideal(R, "x^2", "x*y", "y^2")):
        assert ideal_equal(kitt_via_cycles(a, I), _gamma_z_by_products(a, I))


# --- depth sensitivity: no homology above n - ht I ---

# the variables and generators of two powers of the maximal ideal
POWERS = {"(x, y)^3": (("x", "y"), ("x^3", "x^2*y", "x*y^2", "y^3")),
          "(x, y, z)^2": (("x", "y", "z"), ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2"))}


def _ideal(field, source):
    """The seed-0 corpus I of a family read over the field, or a power of
    the maximal ideal: n - ht I is 0 for ci, 1 for the other families,
    2 for (x, y)^3 and 3 for (x, y, z)^2."""
    if source in POWERS:
        variables, gens = POWERS[source]
        R = PolyRing(field, variables)
        return Ideal(R, [R.parse(g) for g in gens])
    I = corpus.generate_instance(source, 0).I
    ring = PolyRing(field, I.ring.variables, I.ring.order)
    return Ideal(ring, [ring.parse(str(g)) for g in I.generators])


@pytest.mark.parametrize("field", CROSS_FIELDS, ids=str)
@pytest.mark.parametrize("source", FAMILIES + tuple(POWERS))
def test_lifts_match_the_full_per_differential_path(field, source):
    # every degree by the augmented basis of its differential: Z_i from
    # its syzygies (at i = 1 the minimal ones, as homology_lifts keeps
    # them), the lifts from the membership reference over the columns of
    # d_(i+1); above n - ht I the reference keeps none, and the cycle
    # generators, there the columns of d_(i+1), generate the same Z_i
    I = _ideal(field, source)
    x = min_gens(I)
    K = KoszulComplex(I.ring, x)
    H = homology_lifts(K)
    gd = [g.total_degree() for g in x]
    for i in range(1, K.n + 1):
        basis = K.basis(i)
        d_i = AugmentedBasis(I.ring, len(K.basis(i - 1)), K.differential_columns(i))
        z = d_i.minimal_syzygies() if i == 1 else d_i.syzygies()
        shifts = [sum(gd[j - 1] for j in S) for S in basis]
        expected = reference_minimal_subset(z, shifts, K.differential_columns(i + 1))
        assert H.lifts[i] == expected
        if i > K.n - height(I):
            assert expected == []
        cycles = H.cycle_gens[i]
        syzygies = d_i.syzygies()
        assert all(module_member(c, syzygies) for c in cycles)
        assert all(module_member(s, cycles) for s in syzygies)


@pytest.mark.parametrize("family", FAMILIES)
def test_homology_vanishes_above_n_minus_height(family):
    # the theorem the lifts rest on, by ranks of graded pieces: H_i = 0 in
    # every degree up to that of e_1..e_n plus one for i > n - ht I, and
    # H_(n - ht I) is not (grade = n - max{i : H_i != 0})
    I = corpus.generate_instance(family, 0).I
    K = KoszulComplex(I.ring, min_gens(I))
    top = K.n - height(I)
    degrees = range(sum(g.total_degree() for g in K.gens) + 2)
    for i in range(top + 1, K.n + 1):
        assert all(koszul_homology_dim(K, i, d) == 0 for d in degrees)
    assert any(koszul_homology_dim(K, top, d) for d in degrees)


@pytest.mark.parametrize("field", CROSS_FIELDS, ids=str)
def test_homology_of_the_unit_ideal(field):
    # ht (1) = nvars, as in `height`: every degree takes the shortcut, and
    # Z_1 is still the minimal syzygies of the generators
    R = PolyRing(field, ("x", "y"))
    x, one = R.gens[0], R.one
    scalar = [(one,)]
    H = homology_lifts(KoszulComplex(R, [one]))
    assert [H.cycle_gens, H.lifts] == [{0: scalar, 1: []}, {0: scalar, 1: []}]
    H = homology_lifts(KoszulComplex(R, [one, x]))
    assert [H.cycle_gens, H.lifts] == [
        {0: scalar, 1: [(x, -one)], 2: []}, {0: scalar, 1: [], 2: []}]
