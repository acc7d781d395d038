"""Koszul complexes: exterior algebra elements, differentials, cycle and
homology generators with lifts, and the Kitt ideal via both of its
constructions (homology lifts, and products of cycles with the Gamma
subalgebra generated by the zeta elements of a).

Each coefficient of an exterior product is one `ring.sum_of_products`
over the signed pairs of coefficients that meet in it.  The zetas of
(a, I) depend only on the generators of a and on I, so all three Kitt
routes, and the presentation of I/a in `fitting`, share their
coefficient lists through a cache on I (`fitting.expressions`)."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .ring import Polynomial, PolyRing
from .groebner import minimal_subset, syzygies
from .ideals import Ideal, min_gens
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
    def zero(cls, ring, n, degree):
        return cls(ring, n, degree, {})

    @classmethod
    def scalar(cls, ring, n, poly: Polynomial):
        return cls(ring, n, 0, {(): poly})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, subset) -> Polynomial:
        return self.coeffs.get(tuple(subset), self.ring.zero)

    def __add__(self, other):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("degree/rank mismatch in exterior addition")
        out = dict(self.coeffs)
        for S, p in other.coeffs.items():
            out[S] = out.get(S, self.ring.zero) + p
        return ExteriorElement(self.ring, self.n, self.degree, out)

    def __neg__(self):
        return ExteriorElement(
            self.ring, self.n, self.degree, {S: -p for S, p in self.coeffs.items()}
        )

    def scale(self, poly: Polynomial):
        return ExteriorElement(
            self.ring, self.n, self.degree, {S: p * poly for S, p in self.coeffs.items()}
        )

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

    def to_module_element(self, basis) -> tuple:
        """The coefficients of e_S for S in basis, in that order."""
        return tuple(self.coeffs.get(S, self.ring.zero) for S in basis)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for S in sorted(self.coeffs):
            label = "e_" + "".join(str(j) for j in S) if S else "1"
            parts.append(f"({self.coeffs[S]})*{label}")
        return " + ".join(parts)


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
        return tuple(combinations(range(1, self.n + 1), i))

    def differential_image(self, subset) -> ExteriorElement:
        """d(e_S) as an exterior element of degree |S| - 1."""
        out = {}
        S = tuple(subset)
        for pos, j in enumerate(S, start=1):
            rest = tuple(k for k in S if k != j)
            term = self.gens[j - 1]
            if pos % 2 == 0:
                term = -term
            out[rest] = out.get(rest, self.ring.zero) + term
        return ExteriorElement(self.ring, self.n, len(S) - 1, out)

    def differential_columns(self, i: int):
        """Columns of d_i as free-module elements over basis(i-1)."""
        rows = self.basis(i - 1)
        cols = []
        for S in self.basis(i):
            img = self.differential_image(S)
            cols.append(img.to_module_element(rows))
        return cols

    def boundary_elements(self, i: int):
        """Generators of B_i, i.e. d(e_S) for |S| = i+1 (empty for i = n)."""
        return [self.differential_image(S) for S in self.basis(i + 1)]


# cycle_gens: i -> list of ExteriorElement generating Z_i;
# lifts: i -> trimmed cycle generators representing H_i
HomologyData = namedtuple("HomologyData", "cycle_gens lifts")


def homology_lifts(K: KoszulComplex) -> HomologyData:
    """Cycle generators per degree plus lifts: the cycles that
    `minimal_subset` keeps with the boundaries as span and e_S weighted by
    the sum of deg x_j over j in S, so that their classes minimally
    generate the homology (ties by input order)."""
    n = K.n
    one = ExteriorElement.scalar(K.ring, n, K.ring.one)
    cycles, lifts = {0: [one]}, {0: [one]}
    gd = [g.total_degree() for g in K.gens]
    for i in range(1, n + 1):
        basis = K.basis(i)
        z = syzygies(K.differential_columns(i))
        cycles[i] = [ExteriorElement(K.ring, n, i, dict(zip(basis, s))) for s in z]
        shifts = [sum(gd[j - 1] for j in S) for S in basis]
        span = [e.to_module_element(basis) for e in K.boundary_elements(i)]
        lifts[i] = [ExteriorElement(K.ring, n, i, dict(zip(basis, v)))
                    for v in minimal_subset(z, shifts, span)]
    return HomologyData(cycles, lifts)


# ---------------------------------------------------------------------------
# the Kitt ideal
# ---------------------------------------------------------------------------

def _setup(a: Ideal, I: Ideal):
    """The Koszul complex on min_gens(I), the nonzero generators of a and
    their zetas: the degree-one elements sum_i c_i e_i with a_j = sum_i c_i x_i.
    The coefficient lists c are those `fitting.expressions` keeps on I;
    the complex and the zetas are rebuilt on each call.  `min_gens` raises
    NonHomogeneousError unless I is homogeneous."""
    x = min_gens(I)
    a_gens, coeffs = expressions(I, a)
    zetas = tuple(
        ExteriorElement(I.ring, len(c), 1, {(i + 1,): ci for i, ci in enumerate(c)})
        for c in coeffs
    )
    return KoszulComplex(I.ring, x), a_gens, zetas


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


def _top_coefficients(ring, n, zetas, elems) -> list:
    """The nonzero e_1..e_n coefficients of gamma ^ z, for each z of elems in
    order and each Gamma monomial gamma of the complementary degree n - deg z."""
    full = tuple(range(1, n + 1))
    gammas = {d: _wedges(ring, n, zetas, d) for d in range(min(len(zetas), n) + 1)}
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
    lifts (Gamma stops at degree min(s, n), and lifts at n - ht I)."""
    K, a_gens, zetas = _setup(a, I)
    H = homology if homology is not None else homology_lifts(K)
    lifts = [h for hs in H.lifts.values() for h in hs]
    return Ideal(I.ring, list(a_gens) + _top_coefficients(I.ring, K.n, zetas, lifts))


def _cycle_products(ring, n, generators, max_degree):
    """All wedge products (with repetition) of cycle generators with at
    most n factors and total degree <= max_degree, plus the empty product."""
    one = ExteriorElement.scalar(ring, n, ring.one)
    out = [one]

    def extend(start, acc, factors):
        for k in range(start, len(generators)):
            z = generators[k]
            if acc.degree + z.degree > max_degree:
                continue
            nxt = acc.wedge(z)
            if nxt.is_zero():
                continue
            out.append(nxt)
            if factors + 1 < n:
                extend(k, nxt, factors + 1)

    extend(0, one, 0)
    return out


def kitt_via_cycles(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """The Kitt ideal as the degree-n component of Gamma * Z (products of
    the Gamma subalgebra with the cycle subalgebra)."""
    K, _a_gens, zetas = _setup(a, I)
    n = K.n
    H = homology if homology is not None else homology_lifts(K)
    z_gens = [z for i in range(1, n + 1) for z in H.cycle_gens[i]]
    products = _cycle_products(I.ring, n, z_gens, n)
    return Ideal(I.ring, _top_coefficients(I.ring, n, zetas, products))


def fitt0_via_Z1(a: Ideal, I: Ideal, homology: HomologyData = None) -> Ideal:
    """Degree-n span of Gamma times products of Z_1 generators; equals
    Fitt_0(I/a)."""
    K, _a_gens, zetas = _setup(a, I)
    n = K.n
    H = homology if homology is not None else homology_lifts(K)
    z1 = H.cycle_gens.get(1, [])
    products = []
    for size in range(min(len(z1), n) + 1):
        products += _wedges(I.ring, n, z1, size)
    return Ideal(I.ring, _top_coefficients(I.ring, n, zetas, products))
