"""Shared fixtures and hypothesis strategies for the residua test suite."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import settings, strategies as st

from residua import GF32003, RATIONALS, FieldSpec, Ideal, MonomialOrder, PolyRing

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def R2():
    """GF(32003)[x, y] under grevlex."""
    return PolyRing(GF32003, ("x", "y"))


@pytest.fixture
def R3():
    return PolyRing(GF32003, ("x", "y", "z"))


@pytest.fixture
def Q2():
    return PolyRing(RATIONALS, ("x", "y"))


def parse_ideal(ring, *texts):
    return Ideal(ring, [ring.parse(t) for t in texts])


# --- hypothesis strategies -------------------------------------------------

def monomials(nvars, max_degree=3):
    """Exponent tuples; sampled from the list rather than filtered, which
    would reject most draws."""
    return st.sampled_from([
        m for m in product(range(max_degree + 1), repeat=nvars) if sum(m) <= max_degree
    ])


def coefficients(field):
    """Nonzero field elements: any residue mod p, or small fractions over QQ."""
    if field.characteristic:
        return st.integers(min_value=1, max_value=field.characteristic - 1)
    return st.builds(
        lambda sign, num, den: Fraction(sign * num, den),
        st.sampled_from((1, -1)), st.integers(1, 20), st.integers(1, 6),
    )


def large_fractions():
    """Nonzero rationals with numerators up to 10^6 and denominators up to 10^4."""
    return st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**4))


def polynomials(ring, max_degree=3, max_terms=4, coeffs=None):
    """Polynomials with coefficients from `coeffs` (default `coefficients`)."""
    def build(pairs):
        return ring.from_dict({ring.monomial(m): ring.field.element(c) for m, c in pairs})

    return st.lists(
        st.tuples(monomials(ring.nvars, max_degree),
                  coefficients(ring.field) if coeffs is None else coeffs),
        min_size=0,
        max_size=max_terms,
    ).map(build)


# one three-variable ring per field and monomial order, for kernel invariants
KERNEL_RINGS = tuple(
    PolyRing(field, ("x", "y", "z"), order)
    for field in (GF32003, RATIONALS)
    for order in (
        MonomialOrder("grevlex"),
        MonomialOrder("lex"),
        MonomialOrder("block", 1),
        MonomialOrder("block", 2),
    )
)


# small primes, where many integer coefficients cancel to 0 mod p
SMALL_PRIME_RINGS = tuple(
    PolyRing(FieldSpec(p), ("x", "y", "z"), MonomialOrder(kind))
    for p in (2, 3, 7) for kind in ("grevlex", "lex")
)


def rings_and_coefficients():
    """(ring, coefficient strategy): a ring of KERNEL_RINGS or
    SMALL_PRIME_RINGS with `coefficients`, or a QQ ring of KERNEL_RINGS with
    `large_fractions`."""
    return st.one_of(
        st.sampled_from(KERNEL_RINGS + SMALL_PRIME_RINGS).map(
            lambda ring: (ring, coefficients(ring.field))),
        st.sampled_from([r for r in KERNEL_RINGS if r.field == RATIONALS]).map(
            lambda ring: (ring, large_fractions())),
    )


def in_kernel_ring(build):
    """A ring from KERNEL_RINGS followed by the values of the strategies
    `build(ring)` returns."""
    return st.sampled_from(KERNEL_RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), *build(ring))
    )


def random_homogeneous(ring, degree, rng, density=0.8):
    """Seeded random homogeneous form (test-data helper, not a strategy)."""
    d = {}
    for expo in product(range(degree + 1), repeat=ring.nvars):
        if sum(expo) == degree and rng.random() < density:
            d[ring.monomial(expo)] = ring.field.element(
                rng.randint(1, ring.field.characteristic - 1))
    if not d:
        d[ring.monomial((degree,) + (0,) * (ring.nvars - 1))] = ring.field.one
    return ring.from_dict(d)


def seeded_rng(*parts):
    return random.Random(":".join(str(p) for p in parts))
