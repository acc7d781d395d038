"""Koszul complexes, homology lifts, and the Kitt ideal."""

import gc
import weakref
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from residua.fitting import fitt0_quotient
from residua.ideals import Ideal, colon, ideal_equal
from residua.koszul import (
    ExteriorElement,
    KoszulComplex,
    fitt0_via_Z1,
    homology_lifts,
    kitt,
    kitt_via_cycles,
)

from conftest import (
    parse_ideal,
    polynomials,
    random_homogeneous,
    rings_and_coefficients,
    seeded_rng,
)
from oracles import koszul_homology_dim, reference_wedge


def test_wedge_antisymmetry(R2):
    e1 = ExteriorElement(R2, 3, 1, {(1,): R2.one})
    e2 = ExteriorElement(R2, 3, 1, {(2,): R2.one})
    assert (e1.wedge(e2) + e2.wedge(e1)).is_zero()
    assert e1.wedge(e1).is_zero()


def test_wedge_associativity(R3):
    rng = seeded_rng("wedge")
    elems = []
    for _ in range(3):
        coeffs = {
            (i,): random_homogeneous(R3, 1, rng) for i in range(1, 4)
        }
        elems.append(ExteriorElement(R3, 3, 1, coeffs))
    u, v, w = elems
    lhs = u.wedge(v).wedge(w)
    rhs = u.wedge(v.wedge(w))
    assert (lhs + (-rhs)).is_zero()


def test_exterior_keys_are_increasing_subsets_of_the_rank(R2):
    # a repeated index or one outside 1..n is no basis element of rank n;
    # accepted, the second made e_1 ^ e_5 = e_15 in rank 2
    x = R2.gens[0]
    for key in ((1, 1), (5,), (0,), (2, 1)):
        with pytest.raises(ValueError, match="bad subset key"):
            ExteriorElement(R2, 2, len(key), {key: x})
    assert ExteriorElement(R2, 2, 2, {(1, 2): x}).coefficient((1, 2)) == x


def test_wedge_keeps_first_occurrence_order(R2):
    x, y = R2.gens
    u = ExteriorElement(R2, 3, 1, {(2,): x, (1,): y})
    v = ExteriorElement(R2, 3, 1, {(3,): x, (1,): y})
    # (2) ^ (3), (2) ^ (1), (1) ^ (3): e_23 first, e_12 before e_13
    assert list(u.wedge(v).coeffs.items()) == [((2, 3), x * x), ((1, 2), -(x * y)),
                                               ((1, 3), x * y)]


def _exterior_elements(ring, n, degree, coeffs):
    """Degree-`degree` elements on e_1..e_n, keys in drawn order."""
    return st.dictionaries(
        st.sampled_from(list(combinations(range(1, n + 1), degree))),
        polynomials(ring, max_degree=2, max_terms=3, coeffs=coeffs),
    ).map(lambda d: ExteriorElement(ring, n, degree, d))


@given(st.data())
def test_wedge_matches_pairwise_reference(data):
    ring, coeffs = data.draw(rings_and_coefficients())
    n = data.draw(st.integers(1, 4))
    d1 = data.draw(st.integers(0, n))
    d2 = data.draw(st.integers(0, n - d1))
    u = data.draw(_exterior_elements(ring, n, d1, coeffs))
    v = data.draw(_exterior_elements(ring, n, d2, coeffs))
    got = u.wedge(v)
    expected = reference_wedge(u, v)
    assert got.degree == d1 + d2
    # same keys in the same (first-occurrence) order, same coefficients
    assert list(got.coeffs.items()) == list(expected.items())
    p = ring.field.characteristic
    for c in got.coeffs.values():
        if p:
            assert all(type(x) is int and 0 < x < p for _, x in c.terms)
        else:
            assert all(type(x) is Fraction and x for _, x in c.terms)


def test_differential_signs(R2):
    x, y = R2.gens
    K = KoszulComplex(R2, [x, y])
    img = K.differential_image((1, 2))
    assert img.coefficient((2,)) == x
    assert img.coefficient((1,)) == -y


def test_d_squared_zero_small(R2):
    x, y = R2.gens
    K = KoszulComplex(R2, [x * x, x * y, y * y])
    for i in range(2, K.n + 1):
        for S in K.basis(i):
            img = K.differential_image(S)
            acc = ExteriorElement.zero(R2, K.n, i - 2)
            for T, p in img.coeffs.items():
                acc = acc + K.differential_image(T).scale(p)
            assert acc.is_zero()


def test_d_squared_zero_random_n4(R3):
    rng = seeded_rng("dsq")
    gens = [random_homogeneous(R3, rng.choice([1, 2]), rng) for _ in range(4)]
    K = KoszulComplex(R3, gens)
    for i in range(2, 5):
        for S in K.basis(i):
            img = K.differential_image(S)
            acc = ExteriorElement.zero(R3, 4, i - 2)
            for T, p in img.coeffs.items():
                acc = acc + K.differential_image(T).scale(p)
            assert acc.is_zero()


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


def test_complex_is_freed_after_use(R2):
    # nothing process-wide may keep a complex, its ring or its generators alive
    K = KoszulComplex(R2, parse_ideal(R2, "x^2", "x*y", "y^2").generators)
    homology_lifts(K)
    ref = weakref.ref(K)
    del K
    gc.collect()
    assert ref() is None
