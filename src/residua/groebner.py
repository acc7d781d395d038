"""One Buchberger engine for ideals and for submodules of free modules.

The engine, one pair loop (`_groebner`) and one division loop (`_reduce`),
works on canonical tuples of (term, coefficient) pairs, strictly
descending, lead first.  A term is one int (see `ring`): a monomial, or a
module term m - i * 2^K for the monomial m at position i, so the integer
order is position over term, the smaller position winning (Greuel and
Pfister, *A Singular Introduction to Commutative Algebra*, §1.8), and a
position-0 term is the monomial itself.  Ideals and modules share one
term kind: integer `+` multiplies a term by a monomial, one subtraction,
offset and mask (`PolyRing.divisibility`) tests divisibility and gives
the quotient, and leads in different positions neither divide each other
nor form a pair.  A module element is a tuple of polynomials, component i
at position i, so its canonical terms are its components' terms
concatenated in position order (`_terms`), and `_vector` splits them
back.  Syzygies, colons and intersections are module computations.

`_groebner` extends a Gröbner basis, kept as two parallel lists: its
monic canonical term tuples and their integer divisors, each divisor
built once, when its element joins.  Each new element waits in the pair
heap under the monomial of its lead, ahead of the pairs with that key,
and is reduced by the basis of the moment when it is popped: a nonzero
remainder joins the basis, monic, with its pairs, and a zero one is
dropped before it makes any.  So a redundant input generator costs one
division and no S-pair, and a basis grows from what is new instead of
being rebuilt: `minimal_subset` keeps one basis of its span,
`AugmentedBasis` serves both the syzygies of a sequence and the
expression of elements in terms of it, and `last_coordinates` eliminates
all but the last position of a free module in one run: the basis of an
ideal copied to each of the first k positions is already a Gröbner basis
of theirs (its divisors are the ideal basis's, shifted), so only the
pairs the rows bring in are reduced, and because smaller positions win,
the elements it leads at the last position are zero at every other one.
Colons and intersections of ideals are read off them.

Pairs are taken by the normal selection strategy, least lcm first, ties
broken by (i, j); a pair's key is the monomial part of its lcm, so module
pairs in different positions interleave by their monomials.  The chain
criterion holds for both kinds: a pair (i, j) is skipped when another
lead divides its lcm and the pairs (i, k) and (j, k) are done (Gebauer and
Möller, "On an installation of Buchberger's algorithm", 1988).  The
product criterion (coprime leads) holds only for ideals, whose
S-polynomial then reduces to zero by the Koszul relation between the two;
module elements have no such relation, so only ideal runs apply it.

Division keeps the dividend as a dict of live terms plus a heap of
negated terms, after Monagan and Pearce: the leading term pops off the
heap, only the divisor's tail times the quotient term is subtracted, a
term is pushed only when it first appears, and a popped term whose
coefficient has cancelled is skipped.  Coefficients are integers
throughout.  Each divisor is the integer unit multiple of a basis element
that `FieldSpec.divisor_terms` gives: primitive with a positive lead over
QQ, monic over GF(p).  Over QQ the live coefficients share one
denominator den, and a step is a fraction-free pseudo-division: with
g = gcd(c, lc) for the popped coefficient c and the divisor's lead
coefficient lc, live <- (lc/g)·live - (c/g)·m·tail and den <- (lc/g)·den.
A remainder term leaves as c / den with the den in force when it is
popped; later steps rescale live, not the terms already popped.  Over
GF(p) the live coefficients are plain ints, reduced mod p only when a
term is popped, and a term has cancelled when its coefficient is 0 mod p.
Remainder terms come out in descending order, so they need no final
sort.  The divisor is always the first element of G whose lead divides,
and an S-pair is built from the two divisors, so every remainder is the
one plain repeated subtraction gives, up to a unit, and every basis,
made monic as its elements arrive, is unchanged.  A `GroebnerBasis`
builds its divisors once, for all the normal forms taken against it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .ring import Polynomial, PolyRing, RingMismatchError, PAST_BOUND, sum_of_products


class NotAMemberError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """Raised when the engine exceeds its configured step budget."""


_step_limit = None


def set_step_limit(limit):
    """Set a global cap on S-pair reductions per Buchberger run (None = off);
    returns the cap it replaces.  Only S-pair reductions count: reducing an
    arriving input element by the basis is not a step.  A colon or an
    intersection is one budgeted module run (`last_coordinates`)."""
    global _step_limit
    previous, _step_limit = _step_limit, limit
    return previous


class GroebnerBasis:
    """A Gröbner basis: `elements`, a tuple of polynomials of `ring`
    (`normal_form` also wraps a plain divisor sequence in one).  Equal and
    hashed by (ring, elements).  `divisors()` is built once."""

    __slots__ = ("ring", "elements", "_divisors")

    def __init__(self, ring: PolyRing, elements: tuple):
        self.ring, self.elements, self._divisors = ring, elements, None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.elements) == (other.ring, other.elements)

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        return f"GroebnerBasis(ring={self.ring!r}, elements={self.elements!r})"

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def divisors(self) -> list:
        """The (lead, lc, tail) integer divisors of the nonzero elements."""
        if self._divisors is None:
            F = self.ring.field
            self._divisors = [_divisor(F, g.terms) for g in self.elements if g.terms]
        return self._divisors


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class _Dividend:
    """A polynomial or module element under division, with integer
    coefficients.

    `live` maps every term not yet popped to its integer coefficient (0,
    or 0 mod p, once it has cancelled); `heap` holds each of those terms
    once, negated, so the leading term pops first.  Over QQ the terms
    stand for live / den; over GF(p) den stays 1, and a coefficient is
    reduced mod p only when its term is popped.
    """

    __slots__ = ("live", "heap", "p", "den", "bounds")

    def __init__(self, ring, terms, den=1):
        self.live = dict(terms)
        self.heap = [-t for t in self.live]
        heapify(self.heap)
        self.p, self.den, self.bounds = ring.field.characteristic, den, ring.bounds

    def pop(self):
        """Remove the leading term and return (term, integer coefficient),
        reduced mod p over GF(p); None when no nonzero term is left."""
        live, heap, p = self.live, self.heap, self.p
        while heap:
            t = -heappop(heap)
            c = live.pop(t)
            if p:
                c %= p
            if c:
                return t, c
        return None

    def sub_multiple(self, tail, q, c, lc):
        """Cancel the popped term c * q * lead by the divisor (lead, lc,
        tail), all integers, q a monomial: with g = gcd(c, lc), live <-
        (lc/g)·live - (c/g)·q·tail and den <- (lc/g)·den, which takes
        (c/den)/lc · q · divisor off the value.  Terms popped before keep
        the den they were popped with; no product may lie above a popped
        term."""
        live, heap = self.live, self.heap
        offset, mask, want = self.bounds
        if lc != 1:
            g = gcd(c, lc)
            scale, c = lc // g, c // g
            if scale != 1:
                self.den *= scale
                for t in live:
                    live[t] *= scale
        for t, tc in tail:
            t += q
            old = live.get(t)
            if old is None:
                if (t + offset) & mask != want:
                    raise ValueError(PAST_BOUND)
                live[t] = -c * tc
                heappush(heap, -t)
            else:
                live[t] = old - c * tc


def _dividend(ring, terms) -> _Dividend:
    """Canonical terms with field coefficients, under division."""
    return _Dividend(ring, *ring.field.integer_terms(terms))


def _divisor(F, terms) -> tuple:
    """(lead, lc, tail) of nonzero canonical terms, in the integer form of
    `FieldSpec.divisor_terms` (a monic element over GF(p) is its own)."""
    d = F.divisor_terms(terms)
    return d[0][0], d[0][1], d[1:]


def _monic(F, terms) -> tuple:
    """The canonical terms scaled so the leading coefficient is one."""
    inv = F.inv(terms[0][1])
    return tuple((t, F.mul(c, inv)) for t, c in terms)


def _reduce(ring: PolyRing, p: _Dividend, divisors) -> tuple:
    """Remainder terms, descending, with field coefficients, of the
    dividend p on division by the (lead, lc, tail) integer divisors; each
    step uses the first divisor whose lead divides."""
    offset, mask, want = ring.divisibility
    ratio = ring.field.ratio
    rem = []
    while (term := p.pop()) is not None:
        t, c = term
        u = t + offset
        for lead, lc, tail in divisors:
            if (u - lead) & mask == want:
                p.sub_multiple(tail, t - lead, c, lc)
                break
        else:
            rem.append((t, ratio(c, p.den)))
    return tuple(rem)


def _groebner(ring: PolyRing, G: list, divisors: list, new, product_criterion=False) -> list:
    """Extend the Gröbner basis G of monic canonical term tuples, with
    `divisors` its integer divisors, both in place, to one of G and the
    canonical term tuples `new` (normal selection strategy) and return G.
    A new element is queued under its lead, ahead of S-pairs with that
    key; popped, it is reduced by G, and a nonzero remainder joins G while
    a zero one is dropped.  `product_criterion` is for ideals only."""
    F, lcm_of = ring.field, ring.lcm
    offset, mask, want = ring.divisibility
    shift = ring.position_shift
    monomial = (1 << shift) - 1
    leads = [d[0] for d in divisors]
    new = [t for t in new if t]
    heap = [(t[0][0] & monomial, -1, k) for k, t in enumerate(new)]
    heapify(heap)
    pending = set()

    def insert(r):
        g = _monic(F, r)
        G.append(g)
        divisors.append(_divisor(F, g))
        lead = g[0][0]
        leads.append(lead)
        j = len(G) - 1
        place, m = lead >> shift, lead & monomial
        for i in range(j):
            if leads[i] >> shift == place:
                heappush(heap, (lcm_of(leads[i] & monomial, m), i, j))
                pending.add((i, j))

    steps = 0
    while heap:
        key, i, j = heappop(heap)
        if i < 0:
            r = _reduce(ring, _dividend(ring, new[j]), divisors)
            if r:
                insert(r)
            continue
        pending.discard((i, j))
        lm_i, lm_j = leads[i], leads[j]
        lcm = key + (lm_i & ~monomial)      # the lcm at the pair's position
        # product criterion, coprime leads: ideals only
        if product_criterion and lcm == lm_i + lm_j:
            continue
        # chain criterion
        skip = False
        u = lcm + offset
        for k, lm_k in enumerate(leads):
            if k == i or k == j:
                continue
            if (u - lm_k) & mask == want:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue

        steps += 1
        if _step_limit is not None and steps > _step_limit:
            raise ResourceLimitError(f"exceeded {_step_limit} S-pair reductions")
        # the S-pair of the two divisors: their leads cancel at lcm
        _, lc_i, tail_i = divisors[i]
        _, lc_j, tail_j = divisors[j]
        s = _Dividend(ring, ())
        s.sub_multiple(tail_i, lcm - lm_i, -1, 1)    # s = (lcm / lm_i)·tail_i
        s.sub_multiple(tail_j, lcm - lm_j, lc_i, lc_j)
        r = _reduce(ring, s, divisors)
        if r:
            insert(r)
    return G


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f on division by the elements of G, a GroebnerBasis or
    a sequence of polynomials (full tail reduction)."""
    ring = f.ring
    if not isinstance(G, GroebnerBasis):
        G = GroebnerBasis(ring, tuple(G))
        if any(g.ring != ring for g in G.elements):
            raise RingMismatchError("normal_form across different rings")
    elif G.ring != ring:
        raise RingMismatchError("normal_form across different rings")
    return Polynomial(ring, _reduce(ring, _dividend(ring, f.terms), G.divisors()))


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    F = f.ring.field
    lcm = f.ring.lcm(f.lm(), g.lm())
    a = f.mul_term(lcm - f.lm(), F.inv(f.lc()))
    b = g.mul_term(lcm - g.lm(), F.inv(g.lc()))
    return a - b


def buchberger(gens) -> GroebnerBasis:
    """Gröbner basis of the ideal generated by gens (normal selection strategy).

    Deterministic for a fixed generator order.  Zero generators are dropped;
    an empty ideal yields an empty basis.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger needs at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    G = _groebner(ring, [], [], [g.terms for g in gens], product_criterion=True)
    return GroebnerBasis(ring, tuple(Polynomial(ring, g) for g in G))


def reduce_basis(G: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced Gröbner basis of the ideal of G."""
    ring = G.ring
    elems = [g.monic() for g in G.elements if not g.is_zero()]
    # minimalize: drop elements whose leading monomial is divisible by another's
    elems.sort(key=Polynomial.lm)
    minimal = []
    for g in elems:
        if not any(ring.divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    # tail-reduce each against the others: no lead divides another, and
    # every term under division lies below the lead of g, so g itself
    # never divides one, and the tail of g can be reduced by all of them
    M = GroebnerBasis(ring, tuple(minimal))
    reduced = []
    for g in minimal:
        tail = normal_form(Polynomial(ring, g.terms[1:]), M)
        reduced.append(Polynomial(ring, g.terms[:1] + tail.terms))
    reduced.sort(key=Polynomial.lm)
    return GroebnerBasis(ring, tuple(reduced))


def reduced_groebner(gens) -> GroebnerBasis:
    return reduce_basis(buchberger(gens))


# ---------------------------------------------------------------------------
# free modules
# ---------------------------------------------------------------------------

def _terms(vec, offset=0) -> tuple:
    """The canonical terms of the polynomial sequence vec, component i at
    position offset + i: position over term makes them the components'
    terms, concatenated in position order."""
    if not vec:
        return ()
    shift = vec[0].ring.position_shift
    return tuple((m - ((offset + i) << shift), c)
                 for i, p in enumerate(vec) for m, c in p.terms)


def _vector(ring, terms, offset, rank) -> tuple:
    """The polynomial sequence of length rank whose component i holds the
    canonical terms at position offset + i; the inverse of `_terms`."""
    shift = ring.position_shift
    monomial = (1 << shift) - 1
    comps = [[] for _ in range(rank)]
    for t, c in terms:
        comps[-(t >> shift) - offset].append((t & monomial, c))
    return tuple(Polynomial(ring, tuple(t)) for t in comps)


def _combination(coeffs, gens) -> tuple:
    """The canonical terms of sum(c_i * g_i) for polynomials c_i and
    polynomial sequences g_i."""
    return sum_of_products(coeffs[0].ring,
                           [(c.terms, _terms(g)) for c, g in zip(coeffs, gens)])


class AugmentedBasis:
    """The Gröbner basis of the elements gens_i + e_(rank + i) of a sequence
    gens of free-module elements, each a tuple of rank polynomials, with
    its divisors.  Its elements led past rank are the syzygies of gens,
    and a remainder past rank expresses an element of the submodule in
    terms of gens."""

    __slots__ = ("ring", "rank", "gens", "basis", "divisors")

    def __init__(self, gens):
        gens = tuple(tuple(g) for g in gens)
        if not gens:
            raise ValueError("augmented basis of an empty sequence")
        ring, rank = gens[0][0].ring, len(gens[0])
        for g in gens:
            if len(g) != rank or any(c.ring != ring for c in g):
                raise ValueError("generators must share ring and rank")
        shift, one = ring.position_shift, ring.field.one
        augmented = [_terms(g) + ((-((rank + i) << shift), one),)
                     for i, g in enumerate(gens)]
        self.ring, self.rank, self.gens = ring, rank, gens
        self.basis, self.divisors = [], []
        _groebner(ring, self.basis, self.divisors, augmented)

    def syzygies(self) -> list:
        """Generators of the syzygy module of gens; every returned s
        satisfies sum(s_i * gens_i) == 0 (verified here)."""
        ring, rank, gens = self.ring, self.rank, self.gens
        shift = ring.position_shift
        out = []
        for e in self.basis:
            if -(e[0][0] >> shift) < rank:
                continue
            s = _vector(ring, e, rank, len(gens))
            # exactness check: the defining identity must hold on the nose
            if _combination(s, gens):
                raise RuntimeError("internal: syzygy identity violated")
            out.append(s)
        return out

    def express(self, polys) -> list:
        """For rank-one gens (g_i): one coefficient list c per f in polys,
        with f = sum(c_i * g_i); raises NotAMemberError."""
        if self.rank != 1:
            raise ValueError("express needs generators of rank one")
        ring, F, n = self.ring, self.ring.field, len(self.gens)
        out = []
        for f in polys:
            nf = _reduce(ring, _dividend(ring, f.terms), self.divisors)
            if nf and nf[0][0] >= 0:
                raise NotAMemberError(f"{f} is not in the ideal of the given generators")
            coeffs = _vector(ring, ((t, F.neg(c)) for t, c in nf), 1, n)
            if _combination(coeffs, self.gens) != f.terms:
                raise RuntimeError("internal: expression identity violated")
            out.append(list(coeffs))
        return out


def syzygies(gens) -> list:
    """Generators of the syzygy module of a sequence of free-module elements."""
    return AugmentedBasis(gens).syzygies()


def ideal_syzygies(polys) -> list:
    """Syzygies of a polynomial sequence, viewed in a rank-1 free module."""
    return syzygies((p,) for p in polys)


def express_in_terms(polys, gens) -> list:
    """One coefficient list c per f in polys, with f = sum(c_i * gens_i);
    raises NotAMemberError."""
    return AugmentedBasis((g,) for g in gens).express(polys)


def last_coordinates(basis: GroebnerBasis, rows) -> list:
    """A Gröbner basis, monic, of the polynomials r with (0, …, 0, r) in the
    submodule of R^(k+1) generated by the rows, each a sequence of k+1
    polynomials, and by b·e_i for b in the monic Gröbner basis `basis` and
    i < k.  The b·e_i are already a Gröbner basis of theirs, with the
    divisors of `basis` moved to position i, so one run extends them by
    the rows; smaller positions win, so the elements it leads at position
    k are zero everywhere else."""
    ring = basis.ring
    rows = [tuple(row) for row in rows]
    k = len(rows[0]) - 1
    G, divisors = [], []
    for i in range(k):
        s = i << ring.position_shift
        G += [tuple((t - s, c) for t, c in b.terms) for b in basis]
        divisors += [(lead - s, lc, tuple((t - s, c) for t, c in tail))
                     for lead, lc, tail in basis.divisors()]
    _groebner(ring, G, divisors, [_terms(row) for row in rows])
    return [_vector(ring, e, k, 1)[0] for e in G if -(e[0][0] >> ring.position_shift) == k]


def module_member(elem, gens) -> bool:
    """Membership of elem in the submodule generated by gens, all of them
    tuples of polynomials of one rank."""
    ring = elem[0].ring
    divisors = []
    _groebner(ring, [], divisors, [_terms(g) for g in gens])
    return not _reduce(ring, _dividend(ring, _terms(elem)), divisors)


def minimal_subset(elems, weights, span=()) -> list:
    """The elements of `elems` kept by graded Nakayama: taken in order of
    shifted degree max(deg c_i + weights[i]) over their nonzero components
    c_i, ties by input position, each is kept unless it lies in the
    submodule generated by `span` and the elements kept before it.  For
    homogeneous elements the kept ones, with `span`, minimally generate
    the submodule that `span` and `elems` generate.  One Gröbner basis of
    that submodule, with its divisors, is extended by each candidate in
    turn; a candidate is kept when the basis grows."""
    def shifted_degree(elem):
        return max((c.total_degree() + w for c, w in zip(elem, weights)
                    if not c.is_zero()), default=-1)

    elems = list(elems)
    if not elems:
        return []
    ring = elems[0][0].ring
    G, divisors = [], []
    _groebner(ring, G, divisors, [_terms(s) for s in span])
    kept = []
    for elem in sorted(elems, key=shifted_degree):
        size = len(G)
        _groebner(ring, G, divisors, [_terms(elem)])
        if len(G) > size:
            kept.append(elem)
    return kept
