"""Seeded corpus families of residual-intersection instances.

ci    complete intersections (2-3 variables)
hb2   height-2 perfect ideals from 3x2 matrices of linear forms (mu = 3)
aci   almost complete intersections (coordinate-changed (xy, xz, yz))
power (x, y)^2 in two variables with general quadrics
"""

from __future__ import annotations

import random
from itertools import product as iter_product

from .field import FieldSpec, DEFAULT_PRIME
from .ring import PolyRing, Polynomial
from .ideals import Ideal, colon, height, min_gens, mu
from .fitting import minors
from .residual import (
    GenericityError,
    ResidualInstance,
    _random_scalar,
    generic_generators,
)

FAMILIES = ("ci", "hb2", "aci", "power")
MAX_VARS = 6
MAX_DRAWS = 25  # draws generate_instance makes before it gives up


class GenerationError(RuntimeError):
    pass


def _make_ring(nvars: int, characteristic=DEFAULT_PRIME) -> PolyRing:
    if nvars > MAX_VARS:
        raise ValueError(f"variable count capped at {MAX_VARS}")
    names = ("x", "y", "z", "w", "u", "v")[:nvars]
    return PolyRing(FieldSpec(characteristic), names)


def _random_form(ring, degree, rng) -> Polynomial:
    """Random homogeneous form with every monomial present (nonzero coeffs)."""
    monos = [
        expo
        for expo in iter_product(range(degree + 1), repeat=ring.nvars)
        if sum(expo) == degree
    ]
    d = {}
    for expo in monos:
        d[ring.monomial(expo)] = _random_scalar(ring, rng)
    return ring.from_dict(d)


def _linear_form(ring, rng) -> Polynomial:
    return _random_form(ring, 1, rng)


def substitute(p: Polynomial, images) -> Polynomial:
    """Evaluate p at the given images of the ring variables."""
    ring = images[0].ring
    acc = ring.zero
    for m, c in p.terms:
        term = ring.constant(c)
        for img, e in zip(images, p.ring.exponents(m)):
            if e:
                term = term * img ** e
        acc = acc + term
    return acc


def _random_coordinate_change(ring, rng):
    """Images of the variables under a random invertible linear substitution."""
    n = ring.nvars
    F = ring.field
    while True:
        rows = [[_random_scalar(ring, rng) if rng.random() < 0.7 else F.zero
                 for _ in range(n)] for _ in range(n)]
        mat = [[ring.constant(c) for c in row] for row in rows]
        det = minors(ring, mat, n)
        if not det.is_zero():
            break
    gens = ring.gens
    return [
        sum((g.scale(rows[i][j]) for j, g in enumerate(gens)), ring.zero)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# family builders: return (I, s) or None on a bad draw
# ---------------------------------------------------------------------------

def _draw_ci(rng):
    nv = rng.choice([2, 3])
    ring = _make_ring(nv)
    g = rng.choice([2, nv])
    gens = [_random_form(ring, rng.choice([1, 2]), rng) for _ in range(g)]
    I = Ideal(ring, gens)
    if height(I) != g or mu(I) != g:
        return None
    s = rng.randint(g, min(3, nv))
    return I, s


def _draw_hb2(rng):
    ring = _make_ring(3)
    matrix = [[_linear_form(ring, rng) for _ in range(2)] for _ in range(3)]
    I = minors(ring, matrix, 2)
    if mu(I) != 3 or height(I) != 2:
        return None
    s = rng.choice([2, 3])
    return I, s


def _draw_aci(rng):
    ring = _make_ring(3)
    images = _random_coordinate_change(ring, rng)
    x, y, z = ring.gens
    base = [x * y, x * z, y * z]
    gens = [substitute(p, images) for p in base]
    I = Ideal(ring, gens)
    if mu(I) != 3 or height(I) != 2:
        return None
    s = rng.choice([2, 3])
    return I, s


def _draw_power(rng):
    ring = _make_ring(2)
    x, y = ring.gens
    I = Ideal(ring, [x * x, x * y, y * y])
    return I, 2


_DRAW = {"ci": _draw_ci, "hb2": _draw_hb2, "aci": _draw_aci, "power": _draw_power}


def generate_instance(family: str, seed: int) -> ResidualInstance:
    """One pre-validated residual instance (retrying seeds internally)."""
    if family not in _DRAW:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    # string seeds hash deterministically across processes (tuples do not)
    rng = random.Random(f"residua:{family}:{seed}")
    for _ in range(MAX_DRAWS):
        drawn = _DRAW[family](rng)
        if drawn is None:
            continue
        I, s = drawn
        sub_seed = rng.randrange(1 << 30)
        # with s >= mu(I), degree-matched combinations regenerate I itself,
        # so bump the target degree until a is a proper subideal
        maxdeg = max(g.total_degree() for g in min_gens(I))
        degree = None if s < mu(I) else maxdeg + 1
        try:
            a_gens = generic_generators(I, s, seed=sub_seed, degree=degree)
        except GenericityError:
            continue
        # a lies in I, so a = I exactly when a : I is the unit ideal; the
        # height ladder has already computed that colon on I, and its top
        # rung has already asked for height >= s
        if colon(Ideal(I.ring, a_gens), I).is_unit():
            continue
        return ResidualInstance(
            I.ring, I, tuple(a_gens), s, seed=seed, family_tag=family
        )
    raise GenerationError(
        f"family {family!r} produced no valid instance within {MAX_DRAWS} draws"
    )


def generate_corpus(family: str, count: int, seed: int = 0) -> list:
    return [generate_instance(family, seed + i) for i in range(count)]
