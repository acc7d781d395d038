"""Ideal-level operations: sum, colon, equality, dimension, height and
minimal generators.

The colon is computed by elimination in a free module (Greuel and
Pfister, *A Singular Introduction to Commutative Algebra*, §1.8), in one
run that extends a known Gröbner basis (`groebner.last_coordinates`):
a : I for I = (f_1, …, f_m) is the ideal of the r with (0, …, 0, r) in
a^m + R·(f_1, …, f_m, 1).  The reduced basis of a, copied to each of the
positions 0..m−1, is already a Gröbner basis of a^m, and under position
over term, where the smaller position wins, the basis elements led at
the last position are zero at every other one.  The run hands back their
reduced basis, which becomes both the generators and the cached basis of
the result, so no second run rebuilds it.  Every generator of the result
is checked against the definition before it is returned.

An `Ideal` keeps what depends only on it, or on it and another ideal's
generators, in one memo (`Ideal.memo`); each module documents the keys it
owns.  Here: `"groebner"`, the reduced basis; `"min-gens"`; `"height"`;
`"augmented"`, the augmented basis of `min_gens(I)` (`augmented_basis`,
or d_1's, lent by `koszul`); and `("colon", a.generators)`, the colon
a : I with I as divisor.  `fitting` keeps `("zetas", a.generators)` and
`("G_s", j)`; `koszul` keeps no key of its own.
"""

from __future__ import annotations

from .ring import Polynomial, PolyRing, RingMismatchError
from .groebner import (
    AugmentedBasis,
    GroebnerBasis,
    NonHomogeneousError,
    last_coordinates,
    minimal_subset,
    normal_form,
    reduced_groebner,
)


class Ideal:
    """The ideal of `ring` generated by `generators` (kept in the given order).

    `==` is ideal equality (same ring, same reduced basis), so ideals are
    unhashable."""

    __slots__ = ("ring", "generators", "_memo")

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        self.generators = tuple(generators)
        if any(g.ring != ring for g in self.generators):
            raise RingMismatchError("generator from a different ring")
        self._memo = {}

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and ideal_equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"Ideal({self.ring!r}, {self.generators!r})"

    def memo(self, key, compute):
        """The value kept under `key`, else `compute()`, kept under `key` once
        it has returned (a compute that raises keeps nothing).  Keys name an
        invariant and its argument, arguments by exact generator tuples,
        never by ideal objects.  Nothing assigns `ring` or `generators`
        after construction, so a kept value is exactly what recomputing it
        would give, and repeated calls share one object; it lives as long
        as the ideal, and nothing is kept at module level.  A value already
        kept is returned without calling `compute`: that is how a fresh
        result is handed its reduced basis."""
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = compute()
        return value

    # -- canonical form ------------------------------------------------------

    def groebner(self) -> GroebnerBasis:
        """Reduced Gröbner basis, kept under "groebner"."""
        return self.memo("groebner", lambda: reduced_groebner(self.ring, self.generators))

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.groebner()).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def is_zero(self) -> bool:
        return len(self.groebner()) == 0

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb.elements[0] == self.ring.one

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    """I + J, generated by the generators of I followed by those of J; when
    one side has no generators the sum is the other side itself, with
    whatever it has cached."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal_sum across rings")
    if not I.generators:
        return J
    if not J.generators:
        return I
    return Ideal(I.ring, I.generators + J.generators)


def colon(a: Ideal, I: Ideal) -> Ideal:
    """The quotient ideal a : I = {r : r·I ⊆ a}, the r with (0, …, 0, r) in
    a^m + R·(f_1, …, f_m, 1) over the generators f of I, memoized on I by
    the generator tuple of a; r·f ∈ a is checked for every generator r.
    With no nonzero f the row is (1), so a : 0 = R."""
    if a.ring != I.ring:
        raise RingMismatchError("colon across rings")
    return I.memo(("colon", a.generators), lambda: _colon(a, I))


def _colon(a: Ideal, I: Ideal) -> Ideal:
    gens = [g for g in I.generators if not g.is_zero()]
    basis = a.groebner()
    quotient = last_coordinates(basis, (*gens, a.ring.one))
    for r in quotient:
        for f in gens:
            if not normal_form(r * f, basis).is_zero():
                raise RuntimeError("internal: colon generator times I outside a")
    result = Ideal(a.ring, quotient.elements)
    result.memo("groebner", lambda: quotient)
    return result


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I.ring != J.ring:
        raise RingMismatchError("ideal_equal across rings")
    return I.groebner().elements == J.groebner().elements


def groebner_inside(J: Ideal, I: Ideal) -> GroebnerBasis:
    """`J.groebner()` for J inside I, which the caller has checked.  The
    run stops as soon as its leads divide every lead of I's reduced
    basis: then in(J) = in(I), and an ideal inside another with the same
    initial ideal is that ideal (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, Ch. 2), so J's reduced basis is I's own,
    the same object.  A run that completes gives J's own basis."""
    target = I.groebner()
    offset, mask, want = J.ring.divisibility
    uncovered = [g.lm() + offset for g in target]

    def covers(leads):
        m = leads[-1]
        uncovered[:] = [u for u in uncovered if (u - m) & mask != want]
        return not uncovered

    def compute():
        basis = reduced_groebner(J.ring, J.generators, covers)
        return target if basis is None else basis

    return J.memo("groebner", compute)


# ---------------------------------------------------------------------------
# dimension theory
# ---------------------------------------------------------------------------

def lead_dimension(ring: PolyRing, leads) -> int:
    """Krull dimension of R modulo the monomial ideal of the leading
    monomials `leads`, those of a Gröbner basis of an ideal I, so that of
    R/I: the size of the largest variable subset that no lead is supported
    inside.  A constant lead (I the unit ideal) leaves no subset but the
    empty one, so 0."""
    # the variable sets of the leading monomials, as bit masks
    supports = [sum(1 << i for i, e in enumerate(ring.exponents(m)) if e) for m in leads]
    best = 0
    for mask in range(1 << ring.nvars):
        size = mask.bit_count()
        # S is independent iff no leading monomial is supported inside S
        if size > best and all(s & ~mask for s in supports):
            best = size
    return best


def dimension(I: Ideal) -> int:
    """Krull dimension of R/I (`lead_dimension` of its reduced basis).
    The unit ideal reports -1."""
    if I.is_unit():
        return -1
    return lead_dimension(I.ring, [g.lm() for g in I.groebner().elements])


def height_reaches(J: Ideal, h: int) -> bool:
    """height(J) >= h for a nonzero J, read off the leads of a partial
    Gröbner basis G of J: <lm G> lies inside in(J), so
    ht J >= nvars - lead_dimension(lm G), and the run stops as soon as
    that reaches h.  A run that completes has read ht J off the leads of
    a complete basis, short of h."""
    ring = J.ring
    return reduced_groebner(ring, J.generators,
                            lambda leads: ring.nvars - lead_dimension(ring, leads) >= h) is None


def height(I: Ideal) -> int:
    """Codimension; the polynomial ring is catenary and equidimensional,
    so height = nvars - dim(R/I).  Unit ideal reports the variable count."""
    return I.memo("height", lambda: I.ring.nvars if I.is_unit()
                  else I.ring.nvars - dimension(I))


# ---------------------------------------------------------------------------
# minimal generators
# ---------------------------------------------------------------------------

def min_gens(I: Ideal) -> list:
    """A minimal homogeneous generating sequence, monic, by graded Nakayama
    (`minimal_subset`, which raises NonHomogeneousError on a
    non-homogeneous generator); a new list on every call."""
    def compute():
        kept = minimal_subset(I.ring, [(g,) for g in I.generators if not g.is_zero()], (0,))
        return tuple(e[0].monic() for e in kept)

    return list(I.memo("min-gens", compute))


def mu(I: Ideal) -> int:
    return len(min_gens(I))


def augmented_basis(I: Ideal) -> AugmentedBasis:
    """The augmented basis of min_gens(I), built once and kept on I."""
    return I.memo("augmented",
                  lambda: AugmentedBasis(I.ring, 1, ((g,) for g in min_gens(I))))
