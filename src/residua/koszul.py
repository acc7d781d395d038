"""Koszul complexes: differentials, cycle and homology generators with
lifts, and the Kitt ideal via both of its constructions (homology lifts,
and cycles with the Gamma subalgebra generated by the zeta elements of a).

A chain of degree i is a vector over `KoszulComplex.basis(i)`, the form
the module engine reads and returns: the columns of d_i, the cycle
generators and the lifts are all such vectors.  Only the homology that
can be nonzero is computed: over a polynomial ring H_i = 0 for
i > n - ht I (depth sensitivity), so there Z_i = B_i is generated by the
columns of d_(i+1), with no Gröbner run, and has no lifts.  At or below
n - ht I the syzygies of d_i's augmented basis generate Z_i (by
Schreyer's theorem, though they are no Gröbner basis of it), and the
lifts are picked from them modulo the boundaries, which `minimal_subset`
takes as the columns of d_(i+1) and reads only up to the lifts' degree.
At degree 1 the cycle generators, and the candidates for the lifts, are
d_1's minimal syzygies, the columns A of the presentation of I/a in
`fitting`.  The columns of d_1 are min_gens(I), so d_1's augmented basis
is I's own (`ideals.augmented_basis`), and a homology handed to a Kitt
route must be that of K(min_gens I).

The routes need no exterior algebra.  The Gamma monomial
zeta_J = zeta_(j1) ^ ... ^ zeta_(jk) has on e_S the minor det C[S, J] of
the n x s matrix C whose columns are the zetas, so by Laplace expansion
the top coefficient of zeta_J ^ z, for a chain z of degree n - k, is one
signed pairing of z with the k x k minors of C (`_top_coefficients`),
each minor `fitting._det`'s and each pairing one `ring.sum_of_products`.
The Fitt_0 route is the ideal of n x n minors of [Z_1 | C], which is the
presentation [A | B] of I/a column for column, so it is
`fitting.fitt0_quotient`, with no matrix and no homology of its own.  The
zetas of (a, I) depend only on the generators of a and on I, so the Kitt
routes and the presentation of I/a share their coefficient lists
through I's memo under ("zetas", a.generators) (`fitting.expressions`);
this module keeps no memo key of its own, and lends I the augmented
basis of a homology it is given."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .ring import PolyRing
from .groebner import AugmentedBasis, _shifted_degree, minimal_subset
from .ideals import Ideal, augmented_basis, lead_dimension, min_gens
from .fitting import _det, expressions, fitt0_quotient


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

def _subsets(n: int, i: int) -> tuple:
    """The basis e_S of K_i in rank n: the i-subsets S of 1..n, increasing,
    in lexicographic order."""
    return tuple(combinations(range(1, n + 1), i))


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
    At i = 1, at every n - g, Z_1 is generated by d1's minimal syzygies;
    when no column of d_2 lies at or below their largest shifted degree, graded Nakayama keeps them all, so they are
    the lifts with no run.  minimal_subset raises NonHomogeneousError
    unless the generators of K are homogeneous."""
    n, ring = K.n, K.ring
    cycles, lifts = {0: [(ring.one,)]}, {0: [(ring.one,)]}
    grade = ring.nvars - lead_dimension(ring, [lead for lead, _, _ in d1.divisors if lead >= 0])
    gd = [g.total_degree() for g in K.gens]
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
            top = max((_shifted_degree(ring, s, shifts) for s in z), default=-1)
            boundaries = [b for b in boundaries if _shifted_degree(ring, b, shifts) <= top]
        lifts[i] = minimal_subset(ring, z, shifts, boundaries) if i > 1 or boundaries else z
    return HomologyData(cycles, lifts, d1)


# ---------------------------------------------------------------------------
# the Kitt ideal
# ---------------------------------------------------------------------------


def _lend(I: Ideal, homology) -> list:
    """x = min_gens(I), once a given homology is checked to be that of
    K(x), since the zetas are written in x: its d_1 built on any other
    sequence, even x scaled or reordered, raises ValueError.  It lends I
    its augmented basis when I has none.  `min_gens` raises
    NonHomogeneousError unless I is homogeneous."""
    x = min_gens(I)
    if homology is not None:
        if [g for (g,) in homology.d1.gens] != x:
            raise ValueError("the homology given is not that of K(min_gens(I))")
        I.memo("augmented", lambda: homology.d1)
    return x


def _setup(a: Ideal, I: Ideal, homology):
    """(n, the nonzero generators of a, the coefficient lists of the
    zetas, the homology) for x = min_gens(I) and n = len(x), a given
    homology checked and lent by `_lend`.  The zetas are the degree-one
    chains sum_i c_i e_i with a_j = sum_i c_i x_i, for the coefficient
    lists c that `fitting.expressions` keeps on I.  Without a homology,
    that of K(x) is computed from I's augmented basis, on a complex that
    dies with the call."""
    x = _lend(I, homology)
    a_gens, coeffs = expressions(I, a)
    if homology is None:
        homology = _homology(KoszulComplex(I.ring, x), augmented_basis(I))
    return len(x), a_gens, coeffs, homology


def _top_coefficients(ring, n, coeffs, chains) -> list:
    """The nonzero e_1..e_n coefficients of zeta_J ^ z for each chain z, a
    vector over basis(i) in `chains` (a dict from i to such vectors), in
    order, and each k-subset J of the zetas, k = n - i, in `combinations`
    order; none for k > s, the number of zetas.  The Gamma monomial
    zeta_J has on e_S the minor det C[S, J] of the n x s matrix C whose
    columns are the zetas, so by Laplace expansion the coefficient is the
    sum over T in basis(i) of eps(T^c, T) det C[T^c, J] z_T, with
    eps(S, T) the parity of #{(s, t) in S x T : s > t}: one sum of
    products, over minors from `fitting._det` that the call memoizes.
    For k = 0 it is z's one entry."""
    rows = [[c[r] for c in coeffs] for r in range(n)]
    memo = {}
    out = []
    for i, vectors in chains.items():
        Js = list(combinations(range(len(coeffs)), n - i))
        if not Js:
            continue
        # the rows T^c of each T in basis(i), 0-based, and whether eps is odd
        frame = []
        for T in combinations(range(n), i):
            Tc = tuple(r for r in range(n) if r not in T)
            frame.append((Tc, sum(1 for s in Tc for t in T if s > t) % 2))
        for z in vectors:
            signed = [(Tc, (-zT if odd else zT).terms)
                      for (Tc, odd), zT in zip(frame, z) if not zT.is_zero()]
            for J in Js:
                pairs = []
                for Tc, zT in signed:
                    minor = _det(ring, rows, Tc, J, memo) if J else ring.one
                    if not minor.is_zero():
                        pairs.append((minor.terms, zT))
                c = ring.sum_of_products(pairs)
                if not c.is_zero():
                    out.append(c)
    return out


def kitt(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """The Kitt ideal from homology lifts:
    Kitt * e_top = a * e_top + sum over i of Gamma_(n-i) ^ H~_i, over all
    lifts (Gamma stops at degree min(s, n), and lifts at n - ht I, above
    which `homology_lifts` computes none).  Each lift z of degree i meets
    each Gamma monomial zeta_J of degree n - i in the top coefficient
    sum_T eps(T^c, T) det C[T^c, J] z_T, the Laplace expansion of
    zeta_J ^ z along the minors of the zetas' matrix C
    (`_top_coefficients`)."""
    n, a_gens, coeffs, H = _setup(a, I, homology)
    return Ideal(I.ring, list(a_gens) + _top_coefficients(I.ring, n, coeffs, H.lifts))


def kitt_via_cycles(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """The Kitt ideal as the degree-n component of Gamma * Z, which is
    the sum over i = 0..n of Gamma_(n-i) ^ Z_i.  Z is closed under ^ and
    the cycle generators of degree i generate Z_i as an R-module, so a
    product of cycles is an R-combination of the generators of its degree
    and adds nothing: the generators alone give the whole component, each
    paired with the Gamma monomials by Laplace expansion as in `kitt`."""
    n, _a_gens, coeffs, H = _setup(a, I, homology)
    return Ideal(I.ring, _top_coefficients(I.ring, n, coeffs, H.cycle_gens))


def fitt0_via_Z1(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """Degree-n span of Gamma times products of Z_1 generators; equals
    Fitt_0(I/a).  By Laplace expansion the top coefficient of
    zeta_J ^ z_K is, up to sign, the n x n minor of [Z_1 | C] on the
    columns K and J, C the zetas' matrix, so the span is the ideal of
    n x n minors of [Z_1 | C].  Z_1's generators are d_1's minimal
    syzygies, the columns A of the presentation [A | B] of I/a, and C is
    B, column for column, so the span is `fitting.fitt0_quotient(I, a)`;
    a given homology is checked and lends its d_1 (`_lend`), and none is
    computed."""
    _lend(I, homology)
    return fitt0_quotient(I, a)
