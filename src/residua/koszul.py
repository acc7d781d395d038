"""Koszul complexes: differentials, cycle and homology generators with
lifts, and the Kitt ideal via both of its constructions (homology lifts,
and cycles with the Gamma subalgebra generated by the zeta elements of a).

A chain of degree i is a vector over `KoszulComplex.basis(i)`, the form
the module engine reads and returns: the columns of d_i, the cycle
generators and the lifts are all such vectors.  Exterior elements appear
only where the Kitt routes wedge.  Only the homology that can be nonzero
is computed: over a polynomial ring H_i = 0 for i > n - ht I (depth
sensitivity), so there Z_i = B_i is generated by the columns of d_(i+1),
with no Gröbner run, and has no lifts.  At or below n - ht I the
syzygies of d_i's augmented basis generate Z_i (by Schreyer's theorem,
though they are no Gröbner basis of it), and the lifts are picked
from them modulo the boundaries, which `minimal_subset` takes as the
columns of d_(i+1) and reads only up to the lifts' degree.  At degree 1
the cycle generators, and the candidates for the lifts, are d_1's
minimal syzygies, the columns A of the presentation of I/a in `fitting`.
The columns of d_1 are min_gens(I), so d_1's augmented basis is I's own
(`ideals.augmented_basis`), and a homology handed to a Kitt route must
be that of K(min_gens I).  Each coefficient of an exterior product is one
`ring.sum_of_products`, so the layer adds no polynomials.  The zetas of
(a, I) depend only on the generators of a and on I, so all three Kitt
routes, and the presentation of I/a in `fitting`, share their
coefficient lists through I's memo (`fitting.expressions`), and the
routes share the Gamma monomials of the zetas through the same memo."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .ring import Polynomial, PolyRing
from .groebner import AugmentedBasis, minimal_subset
from .ideals import Ideal, augmented_basis, lead_dimension, min_gens
from .fitting import expressions


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------

class ExteriorElement:
    """Homogeneous degree-i element of the exterior algebra on e_1..e_n,
    a map from strictly increasing i-subsets of {1..n} to nonzero
    polynomials; any other key raises ValueError."""

    __slots__ = ("ring", "n", "degree", "coeffs")

    def __init__(self, ring: PolyRing, n: int, degree: int, coeffs: dict):
        self.ring = ring
        self.n = n
        self.degree = degree
        self.coeffs = {S: p for S, p in coeffs.items() if not p.is_zero()}
        for S in self.coeffs:
            if (len(S) != degree or list(S) != sorted(set(S))
                    or S and not 0 < S[0] <= S[-1] <= n):
                raise ValueError(f"bad subset key {S} for degree {degree} in rank {n}")

    @classmethod
    def scalar(cls, ring, n, poly: Polynomial):
        return cls(ring, n, 0, {(): poly})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, subset) -> Polynomial:
        return self.coeffs.get(tuple(subset), self.ring.zero)

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        """The exterior product; each coefficient is one sum of products over
        the disjoint (S, T) that merge to its subset, keys in order of first
        occurrence."""
        if self.n != other.n or self.ring != other.ring:
            raise ValueError("ambient rank mismatch in wedge")
        pairs = {}
        for S, p in self.coeffs.items():
            set_S = set(S)
            negated = None
            for T, q in other.coeffs.items():
                if not set_S.isdisjoint(T):
                    continue
                # sign: parity of #{(s, t) in S x T : s > t}
                if sum(1 for s in S for t in T if s > t) % 2:
                    if negated is None:
                        negated = (-p).terms
                    f = negated
                else:
                    f = p.terms
                pairs.setdefault(tuple(sorted(S + T)), []).append((f, q.terms))
        ring = self.ring
        out = {U: ring.sum_of_products(fg) for U, fg in pairs.items()}
        return ExteriorElement(ring, self.n, self.degree + other.degree, out)


def _subsets(n: int, i: int) -> tuple:
    """The basis e_S of K_i in rank n: the i-subsets S of 1..n, increasing,
    in lexicographic order."""
    return tuple(combinations(range(1, n + 1), i))


def _exterior(ring: PolyRing, n: int, i: int, vec) -> ExteriorElement:
    """The vector vec over the basis of K_i as an exterior element."""
    return ExteriorElement(ring, n, i, dict(zip(_subsets(n, i), vec)))


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

class KoszulComplex:
    """K(x_1..x_n; R) with d(e_S) = sum_{j in S} (-1)^{pos(j,S)+1} x_j e_{S-j}."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = tuple(gens)
        self.n = len(self.gens)

    def basis(self, i: int):
        return _subsets(self.n, i)

    def differential_columns(self, i: int):
        """Columns of d_i, d(e_S) for S in basis(i), as vectors over
        basis(i-1).  Each S - j occurs once, so each entry is one signed
        generator or zero, with no sum."""
        index = {T: r for r, T in enumerate(self.basis(i - 1))}
        zero = self.ring.zero
        cols = []
        for S in self.basis(i):
            col = [zero] * len(index)
            for pos, j in enumerate(S):
                g = self.gens[j - 1]
                col[index[S[:pos] + S[pos + 1:]]] = -g if pos % 2 else g
            cols.append(tuple(col))
        return cols


# cycle_gens: i -> list of vectors over basis(i) generating Z_i: (1,) at
# i = 0, at i = 1 the minimal syzygies of the generators (the columns A in
# `fitting`), above n - ht the columns of d_(i+1), which generate Z_i = B_i
# there, and in between the syzygies of d_i;
# lifts: i -> the cycle generators, trimmed, whose classes minimally
# generate H_i (none above n - ht);
# d1: the augmented basis of d_1, whose columns are the generators again,
# kept so that a Kitt route given this homology can lend it to I as I's
# own augmented basis
HomologyData = namedtuple("HomologyData", "cycle_gens lifts d1")


def homology_lifts(K: KoszulComplex) -> HomologyData:
    """Cycle generators per degree plus lifts: the cycles that
    `minimal_subset` keeps with the boundaries as span and e_S weighted by
    the sum of deg x_j over j in S, so that their classes minimally
    generate the homology (ties by input order); none above n - ht, where
    the homology is zero.  The generators of K must be homogeneous:
    NonHomogeneousError otherwise."""
    return _homology(K, AugmentedBasis(K.ring, 1, K.differential_columns(1)))


def _homology(K: KoszulComplex, d1) -> HomologyData:
    """`homology_lifts`, given the augmented basis d1 of d_1.  Over a
    polynomial ring grade = height, so by depth sensitivity H_i = 0 for
    i > n - g, g the height of the ideal of the generators (Bruns and
    Herzog, *Cohen-Macaulay Rings*, Thm 1.6.17).  g is read off the leads
    of d1's elements led at position 0, a Gröbner basis of that ideal,
    with `ideals.lead_dimension`; the unit ideal gets g = nvars, as in
    `height`.  Above n - g, Z_i = B_i is generated by the columns of
    d_(i+1), and there are no lifts, with no Gröbner run.  At or below
    it, Z_i is generated by the syzygies of d_i's augmented basis, whose
    run pairs no two of them (Schreyer's theorem), and the lifts are what
    `minimal_subset` keeps of them with the columns of d_(i+1) as span.
    At i = 1, at every n - g, Z_1 is generated by d1's minimal syzygies; when no column of d_2 lies at or below their
    largest shifted degree, graded Nakayama keeps them all, so they are
    the lifts with no run.  minimal_subset raises NonHomogeneousError
    unless the generators of K are homogeneous."""
    n, ring = K.n, K.ring
    cycles, lifts = {0: [(ring.one,)]}, {0: [(ring.one,)]}
    grade = ring.nvars - lead_dimension(ring, [lead for lead, _, _ in d1.divisors if lead >= 0])
    gd = [g.total_degree() for g in K.gens]

    def degree(vec, weights):
        # the shifted degree of a homogeneous vector, -1 for zero
        return next((c.total_degree() + w for c, w in zip(vec, weights) if not c.is_zero()), -1)

    for i in range(1, n + 1):
        boundaries = K.differential_columns(i + 1)
        if i == 1:
            z = d1.minimal_syzygies()
        elif i <= n - grade:
            z = AugmentedBasis(ring, len(K.basis(i - 1)), K.differential_columns(i)).syzygies()
        else:
            z = boundaries
        cycles[i] = z
        if i > n - grade:
            lifts[i] = []
            continue
        shifts = [sum(gd[j - 1] for j in S) for S in K.basis(i)]
        if i == 1:
            top = max((degree(s, shifts) for s in z), default=-1)
            boundaries = [b for b in boundaries if degree(b, shifts) <= top]
        lifts[i] = minimal_subset(ring, z, shifts, boundaries) if i > 1 or boundaries else z
    return HomologyData(cycles, lifts, d1)


# ---------------------------------------------------------------------------
# the Kitt ideal
# ---------------------------------------------------------------------------

def _wedges(ring, n, elems, count):
    """The nonzero wedge products of `count` of the degree-one elements
    `elems`, over strictly increasing index tuples (odd-degree squares
    vanish); the Gamma monomials when `elems` are the zetas."""
    if count == 0:
        return [ExteriorElement.scalar(ring, n, ring.one)]
    out = []
    for idx in combinations(range(len(elems)), count):
        acc = elems[idx[0]]
        for j in idx[1:]:
            acc = acc.wedge(elems[j])
            if acc.is_zero():
                break
        if not acc.is_zero():
            out.append(acc)
    return out


def _setup(a: Ideal, I: Ideal, homology):
    """(n, the nonzero generators of a, the Gamma monomials, the homology)
    for x = min_gens(I) and n = len(x).  The Gamma monomials, by degree
    0..min(s, n), are the wedge products of the zetas: the degree-one
    elements sum_i c_i e_i with a_j = sum_i c_i x_i, for the coefficient
    lists c that `fitting.expressions` keeps on I.  They are kept in I's
    memo under ("gammas", a.generators) once they have returned.
    A given homology must be that of K(x), since the zetas are written in
    x: its d_1 built on any other sequence, even x scaled or reordered,
    raises ValueError.  It lends I its augmented basis when I has none;
    without one, the homology of K(x) is computed from I's augmented
    basis, on a complex that dies with the call.  `min_gens` raises
    NonHomogeneousError unless I is homogeneous."""
    x = min_gens(I)
    n = len(x)
    if homology is not None:
        if [g for (g,) in homology.d1.gens] != x:
            raise ValueError("the homology given is not that of K(min_gens(I))")
        I.memo("augmented", lambda: homology.d1)
    a_gens, coeffs = expressions(I, a)

    def gamma_monomials():
        zetas = tuple(_exterior(I.ring, n, 1, c) for c in coeffs)
        return {d: _wedges(I.ring, n, zetas, d) for d in range(min(len(zetas), n) + 1)}

    gammas = I.memo(("gammas", a.generators), gamma_monomials)
    if homology is None:
        homology = _homology(KoszulComplex(I.ring, x), augmented_basis(I))
    return n, a_gens, gammas, homology


def _top_coefficients(n, gammas, elems) -> list:
    """The nonzero e_1..e_n coefficients of gamma ^ z, for each z of elems in
    order and each Gamma monomial gamma of the complementary degree n - deg z."""
    full = tuple(range(1, n + 1))
    out = []
    for z in elems:
        for gamma in gammas.get(n - z.degree, []):
            c = gamma.wedge(z).coefficient(full)
            if not c.is_zero():
                out.append(c)
    return out


def kitt(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """The Kitt ideal from homology lifts:
    Kitt * e_top = a * e_top + sum over i of Gamma_{n-i} * H~_i, over all
    lifts (Gamma stops at degree min(s, n), and lifts at n - ht I, above
    which `homology_lifts` computes none)."""
    n, a_gens, gammas, H = _setup(a, I, homology)
    lifts = [_exterior(I.ring, n, i, h) for i, hs in H.lifts.items() for h in hs]
    return Ideal(I.ring, list(a_gens) + _top_coefficients(n, gammas, lifts))


def kitt_via_cycles(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """The Kitt ideal as the degree-n component of Gamma * Z, which is
    the sum over i = 0..n of Gamma_(n-i) ^ Z_i.  Z is closed under ^ and
    the cycle generators of degree i generate Z_i as an R-module, so a
    product of cycles is an R-combination of the generators of its degree
    and adds nothing: the generators alone give the whole component."""
    n, _a_gens, gammas, H = _setup(a, I, homology)
    cycles = [_exterior(I.ring, n, i, z) for i in range(n + 1) for z in H.cycle_gens[i]]
    return Ideal(I.ring, _top_coefficients(n, gammas, cycles))


def fitt0_via_Z1(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """Degree-n span of Gamma times products of Z_1 generators; equals
    Fitt_0(I/a)."""
    n, _a_gens, gammas, H = _setup(a, I, homology)
    z1 = [_exterior(I.ring, n, 1, z) for z in H.cycle_gens.get(1, [])]
    products = []
    for size in range(min(len(z1), n) + 1):
        products += _wedges(I.ring, n, z1, size)
    return Ideal(I.ring, _top_coefficients(n, gammas, products))
