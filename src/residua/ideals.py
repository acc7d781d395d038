"""Ideal-level operations: sum, intersection, colon, equality, dimension,
height and minimal generators.

Intersection and colon are computed by elimination in a free module
(Greuel and Pfister, *A Singular Introduction to Commutative Algebra*,
§1.8), each in one run that extends a known Gröbner basis
(`groebner.last_coordinates`): a : I for I = (f_1, …, f_m) is the ideal of
the r with (0, …, 0, r) in a^m + R·(f_1, …, f_m, 1), and I ∩ J is that of
the r with (0, r) in J·e_0 + R·(f, f) over the generators f of I.  The
reduced basis of a, copied to each of the positions 0..m−1, is already a
Gröbner basis of a^m, and under position over term, where the smaller
position wins, the basis elements led at the last position are zero at
every other one.  The run hands back their reduced basis, which becomes
both the generators and the cached basis of the result, so no second
run rebuilds it.  Every generator of either result is checked against
the definition before it is returned.

An `Ideal` caches the work that depends only on it: its reduced Gröbner
basis, `min_gens(I)`, `height(I)`, the augmented basis of `min_gens(I)`
(`augmented_basis`, which serves its syzygies and the expression of
elements of I in terms of it); filled in by `fitting`, the minimal
syzygies of `min_gens(I)` and `height(Fitt_j(I) + I)` per j; and, keyed
by the exact generator tuple of `a`, every colon `a : I` computed with it
as the divisor and, filled in by `fitting.expressions`, the nonzero
generators of `a` with their expressions in `min_gens(I)`, which the
presentation of I/a and the zetas of the Kitt routes both read.  The
caches live on the ideal and die with it; nothing is cached at module
level.  An entry is stored only once its computation has returned, and
nothing assigns `ring` or `generators` after construction, so a cached
value is exactly what recomputing it from the same generators would
give: outputs cannot change, and repeated inputs share one result object.
"""

from __future__ import annotations

from .ring import Polynomial, PolyRing, RingMismatchError
from .groebner import (
    AugmentedBasis,
    GroebnerBasis,
    last_coordinates,
    minimal_subset,
    normal_form,
    reduced_groebner,
)


class NonHomogeneousError(ValueError):
    pass


class Ideal:
    """The ideal of `ring` generated by `generators` (kept in the given order).

    `==` is ideal equality (same ring, same reduced basis), so ideals are
    unhashable."""

    __slots__ = ("ring", "generators", "_gb", "_min_gens", "_height", "_augmented",
                 "_syzygies", "_fitting_heights", "_colons", "_zetas")

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            gens.append(g)
        self.generators = tuple(gens)
        self._gb = None
        self._min_gens = None
        self._height = None
        self._augmented = None
        self._syzygies = None
        self._fitting_heights = {}
        self._colons = {}
        self._zetas = {}

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and ideal_equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"Ideal({self.ring!r}, {self.generators!r})"

    # -- canonical form ------------------------------------------------------

    def groebner(self) -> GroebnerBasis:
        """Reduced Gröbner basis; computed once and cached."""
        if self._gb is None:
            self._gb = (reduced_groebner(self.generators) if self.generators
                        else GroebnerBasis(self.ring, (), []))
        return self._gb

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


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, the r with (0, r) in J·e_0 + R·(f, f) over the generators f
    of I; every generator is checked to lie in I and in J."""
    if I.ring != J.ring:
        raise RingMismatchError("intersect across rings")
    f = [g for g in I.generators if not g.is_zero()]
    if not f or J.is_zero():
        return Ideal(I.ring, ())
    meet = last_coordinates(J.groebner(), [(h, h) for h in f])
    for h in meet:
        if not (I.contains(h) and J.contains(h)):
            raise RuntimeError("internal: intersection generator outside I or J")
    result = Ideal(I.ring, meet.elements)
    result._gb = meet
    return result


def colon(a: Ideal, I: Ideal) -> Ideal:
    """The quotient ideal a : I = {r : r·I ⊆ a}, the r with (0, …, 0, r) in
    a^m + R·(f_1, …, f_m, 1) over the generators f of I, memoized on I by
    the generator tuple of a; r·f ∈ a is checked for every generator r."""
    if a.ring != I.ring:
        raise RingMismatchError("colon across rings")
    result = I._colons.get(a.generators)
    if result is not None:
        return result
    gens = [g for g in I.generators if not g.is_zero()]
    if not gens:
        raise ValueError("colon by the zero ideal")
    basis = a.groebner()
    quotient = last_coordinates(basis, [(*gens, a.ring.one)])
    for r in quotient:
        for f in gens:
            if not normal_form(r * f, basis).is_zero():
                raise RuntimeError("internal: colon generator times I outside a")
    result = Ideal(a.ring, quotient.elements)
    result._gb = quotient
    I._colons[a.generators] = result
    return result


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I.ring != J.ring:
        raise RingMismatchError("ideal_equal across rings")
    return I.groebner().elements == J.groebner().elements


# ---------------------------------------------------------------------------
# dimension theory
# ---------------------------------------------------------------------------

def dimension(I: Ideal) -> int:
    """Krull dimension of R/I: the largest variable subset independent
    modulo the leading-term ideal.  The unit ideal reports -1."""
    if I.is_unit():
        return -1
    # the variable sets of the leading monomials, as bit masks
    supports = [sum(1 << i for i, e in enumerate(I.ring.exponents(g.lm())) if e)
                for g in I.groebner().elements]
    best = 0
    for mask in range(1 << I.ring.nvars):
        size = mask.bit_count()
        # S is independent iff no leading monomial is supported inside S
        if size > best and all(s & ~mask for s in supports):
            best = size
    return best


def height(I: Ideal) -> int:
    """Codimension; the polynomial ring is catenary and equidimensional,
    so height = nvars - dim(R/I).  Unit ideal reports the variable count."""
    if I._height is None:
        I._height = I.ring.nvars if I.is_unit() else I.ring.nvars - dimension(I)
    return I._height


# ---------------------------------------------------------------------------
# minimal generators
# ---------------------------------------------------------------------------

def min_gens(I: Ideal) -> list:
    """A minimal homogeneous generating sequence, monic, by graded Nakayama
    (`minimal_subset`); a new list on every call."""
    if I._min_gens is None:
        gens = [g for g in I.generators if not g.is_zero()]
        for g in gens:
            if not g.is_homogeneous():
                raise NonHomogeneousError(f"non-homogeneous generator {g}")
        kept = minimal_subset([(g,) for g in gens], (0,))
        I._min_gens = tuple(e[0].monic() for e in kept)
    return list(I._min_gens)


def mu(I: Ideal) -> int:
    return len(min_gens(I))


def augmented_basis(I: Ideal) -> AugmentedBasis:
    """The augmented basis of min_gens(I), built once and kept on I; the
    zero ideal, with no generators, raises ValueError."""
    if I._augmented is None:
        I._augmented = AugmentedBasis((g,) for g in min_gens(I))
    return I._augmented
