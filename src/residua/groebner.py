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
back.  Syzygies and colons are module computations.  Every entry point
is given its ring, so an empty sequence is the zero ideal or module.

`_groebner` extends a Gröbner basis, kept in one form: the list of the
integer divisors (lead, lc, tail) of its elements, each built once,
straight from the remainder that joins.  Each new element waits in the
pair heap under the monomial of its lead, ahead of the pairs with that
key, and is reduced by the basis of the moment when it is popped: a
nonzero remainder joins the basis, as its divisor, with its pairs, and a
zero one is dropped before it makes any.  So a redundant input generator
costs one division and no S-pair, and a basis grows from what is new
instead of being rebuilt: `minimal_subset` extends one basis of its span
by each candidate in turn, `AugmentedBasis` serves the syzygies of a
sequence (all of them, and a minimal set, each read off once) and the
expression of elements in terms of it, and `last_coordinates` eliminates
all but the last position of a free module in one run: the basis of an
ideal copied to each of the first k positions is already a Gröbner basis
of theirs (its divisors are the ideal basis's, shifted), so only the
pairs the added row brings in are reduced, and because smaller positions
win, the elements it leads at the last position are zero at every other
one and are a Gröbner basis of the ideal they make there.  The colon of
two ideals is read off them.

A run may be truncated at a degree: `minimal_subset` tests homogeneous
candidates for membership, and a test in degree at most D reads only the
pairs of degree at most D (the degree of a pair's lcm plus the weight of
its position), so the run never queues the others, and drops a new
element of degree above D as it arrives, since every pair it could make
lies above D too.  So a span given by its generators, such as the
columns of a Koszul differential, costs only its part up to degree D.
The basis is then a Gröbner basis up to degree D, never a reduced one,
and never leaves the run.

A run may stop at a goal (`groebner_until`): a predicate on the leads of
the basis, asked each time an element joins, ends the run as soon as it
holds, so reductions that could only confirm it are skipped (Traverso,
"Hilbert functions and the Buchberger algorithm", 1996).  Every partial
basis G of an ideal J has <lm G> ⊆ in(J), so a goal that stays true as
leads are added holds of in(J) once it holds of lm G.  Two goals use it,
each exact.  If J ⊆ I and in(J) = in(I), then J = I (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 2): once the leads of
a basis of J divide every lead of I's, J is I and its reduced basis is
I's.  And ht J = nvars − dim R/in(J) ≥ nvars − dim R/<lm G>, so a run
may stop once the leads show a wanted height.  A run that completes has
asked its goal of a full basis's leads, so the goal fails for J.

A run's output becomes a reduced basis once, in `_reduced`, which builds
the divisors of the reduced elements into the `GroebnerBasis` it returns.
`reduced_groebner` and `last_coordinates` both end in it, so a colon comes
with its reduced basis, never rebuilt from itself.

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
throughout.  Each divisor that joins a basis is the integer unit multiple
of its element that `FieldSpec.divisor_terms` gives: primitive with a
positive lead over QQ, monic over GF(p).  Over QQ the live coefficients
share one denominator den, and a step is a fraction-free pseudo-division:
with g = gcd(c, lc) for the popped coefficient c and the divisor's lead
coefficient lc, live <- (lc/g)·live - (c/g)·m·tail and den <- (lc/g)·den.
A remainder term leaves as c / den with the den in force when it is
popped; later steps rescale live, not the terms already popped.  Over
GF(p) the live coefficients are plain ints, reduced mod p only when a
term is popped, and a term has cancelled when its coefficient is 0 mod p;
every divisor is monic there, so the gcd rescale never runs, and a
remainder term leaves as the residue it was popped as.  `_reduce` pops,
tests divisors and subtracts inline, with no method call per term.
Remainder terms come out in descending order, so they need no final
sort.  The divisor is always the first element of G whose lead divides,
and a step reads only its lead and the ratios c/lc of its terms, so
every remainder is the same field values whatever unit multiple a
divisor holds.

Every division enters `_reduce` the same way, as a dict of integer
coefficients over one den, and `_reduce` range-checks those terms as it
heaps them, as it does each term a step makes, so no caller checks them.
An input or a normal form is put over its common denominator
(`_dividend`); an S-pair's integers are made in `_groebner`, as the one
step that divides q_i·divisor_i by divisor_j (q = lcm / lead): with
g = gcd(lc_i, lc_j), live = (lc_j/g)·q_i·tail_i - (lc_i/g)·q_j·tail_j
over den = lc_j/g.  So its remainder is the plain repeated subtraction's
up to a unit, and the element that joins gets the same divisor.  A basis
element is made monic only where it leaves the engine, in `_element`:
its integer tail over the den lc, reduced by the minimal divisors for a
reduced basis (`_reduced`) and by none for a syzygy.  A `GroebnerBasis`
carries the divisors of its elements, for all the normal forms taken
against it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .ring import Polynomial, PolyRing, RingMismatchError, PAST_BOUND, sum_of_products


class NotAMemberError(ValueError):
    pass


class NonHomogeneousError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """Raised when the engine exceeds its configured step budget."""


_step_limit = None


def set_step_limit(limit):
    """Set a global cap on S-pair reductions per Buchberger run (None = off);
    returns the cap it replaces.  Only S-pair reductions count: reducing an
    arriving input element by the basis is not a step.  A colon is one
    budgeted module run (`last_coordinates`)."""
    global _step_limit
    previous, _step_limit = _step_limit, limit
    return previous


class GroebnerBasis:
    """A reduced Gröbner basis, as `_reduced` makes it: `elements`, a tuple
    of polynomials of `ring` in increasing order of their leads, and
    `divisors`, their integer divisors, built once with them."""

    __slots__ = ("ring", "elements", "divisors")

    def __init__(self, ring: PolyRing, elements: tuple, divisors: list):
        self.ring, self.elements, self.divisors = ring, elements, divisors

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _dividend(ring, terms) -> tuple:
    """(live, den) of canonical terms with field coefficients, for `_reduce`:
    a new dict of their integer coefficients over the common den."""
    ints, den = ring.field.integer_terms(terms)
    return dict(ints), den


def _divisor(F, terms) -> tuple:
    """(lead, lc, tail) of nonzero canonical terms, in the integer form of
    `FieldSpec.divisor_terms` (a monic element over GF(p) is its own)."""
    d = F.divisor_terms(terms)
    return d[0][0], d[0][1], d[1:]


def _element(ring, divisor, divisors=()) -> tuple:
    """The monic canonical terms of the basis element whose integer divisor
    is (lead, lc, tail), its tail reduced by `divisors`: the tail is the
    integer tail over the denominator lc (over GF(p) a divisor is monic,
    lc = 1)."""
    lead, lc, tail = divisor
    return ((lead, ring.field.one),) + _reduce(ring, dict(tail), lc, divisors)


def _reduce(ring: PolyRing, live: dict, den: int, divisors) -> tuple:
    """Remainder terms, descending, with field coefficients, of the dividend
    live / den on division by the (lead, lc, tail) integer divisors: `live`
    maps terms to integer coefficients (over GF(p) den is 1, and a
    coefficient is reduced mod p only when its term is popped), and is used
    up.  Every term is range-checked as it enters, handed in or made.  A
    step uses the first divisor whose lead divides the popped term c·t:
    with g = gcd(c, lc) and q = t / lead, live <- (lc/g)·live - (c/g)·q·tail
    and den <- (lc/g)·den; terms popped before keep the den they were
    popped with."""
    offset, mask, want = ring.divisibility
    b_offset, b_mask, b_want = ring.bounds
    char = ring.field.characteristic
    heap = []
    for t in live:
        if (t + b_offset) & b_mask != b_want:
            raise ValueError(PAST_BOUND)
        heap.append(-t)
    heapify(heap)
    get = live.get
    rem = []
    while heap:
        t = -heappop(heap)
        c = live.pop(t)
        if char:
            c %= char
        if not c:
            continue
        u = t + offset
        for lead, lc, tail in divisors:
            if (u - lead) & mask == want:
                q = t - lead
                if lc != 1:
                    g = gcd(c, lc)
                    scale, c = lc // g, c // g
                    if scale != 1:
                        den *= scale
                        for s in live:
                            live[s] *= scale
                for s, tc in tail:
                    s += q
                    old = get(s)
                    if old is None:
                        if (s + b_offset) & b_mask != b_want:
                            raise ValueError(PAST_BOUND)
                        live[s] = -c * tc
                        heappush(heap, -s)
                    else:
                        live[s] = old - c * tc
                break
        else:
            rem.append((t, c if char else Fraction(c, den)))
    return tuple(rem)


def _groebner(ring: PolyRing, divisors: list, new, product_criterion=False,
              truncation=None, stop=None) -> list:
    """Extend the Gröbner basis G held as the integer divisors `divisors`,
    in place, to one of G and the canonical term tuples `new` (normal
    selection strategy) and return `divisors`.  A new element is queued
    under its lead, ahead of S-pairs with that key; popped, it is reduced
    by G, and a nonzero remainder joins G as its divisor while a zero one
    is dropped.  `product_criterion` is for ideals only.
    `truncation`, (weights, bound), drops every new element and leaves
    out every pair whose degree, the degree of its lead's or its lcm's
    monomial plus the weight of its position, is above bound: for
    elements homogeneous under the weights, G is then a Gröbner basis up
    to degree bound, and an element of degree at most bound lies in the
    submodule exactly when it reduces to zero by G.
    `stop`, a predicate on the list of G's leads, is asked each time an
    element joins, its lead last; once it holds the run returns None,
    with G a partial basis."""
    F, lcm_of, degree = ring.field, ring.lcm, ring.degree
    offset, mask, want = ring.divisibility
    shift = ring.position_shift
    monomial = (1 << shift) - 1
    leads = [d[0] for d in divisors]
    new = [t for t in new if t]
    if truncation is not None:
        weights, bound = truncation
        # a new element above the bound makes only pairs above it
        new = [t for t in new
               if degree(t[0][0] & monomial) + weights[-(t[0][0] >> shift)] <= bound]
    heap = [(t[0][0] & monomial, -1, k) for k, t in enumerate(new)]
    heapify(heap)
    pending = set()

    steps = 0
    while heap:
        key, i, j = heappop(heap)
        if i < 0:
            live, den = _dividend(ring, new[j])
        else:
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
            # the S-pair of the two divisors, their leads cancelled at lcm:
            # the one step that divides q_i·divisor_i by divisor_j (q = lcm / lead)
            _, lc_i, tail_i = divisors[i]
            _, lc_j, tail_j = divisors[j]
            g = gcd(lc_i, lc_j)
            den, c = lc_j // g, lc_i // g
            q = lcm - lm_i
            live = {t + q: den * tc for t, tc in tail_i}
            get = live.get
            q = lcm - lm_j
            for t, tc in tail_j:
                t += q
                live[t] = get(t, 0) - c * tc
        r = _reduce(ring, live, den, divisors)
        if not r:
            continue
        divisors.append(_divisor(F, r))
        lead = r[0][0]
        leads.append(lead)
        j = len(leads) - 1
        place, m = lead >> shift, lead & monomial
        for i in range(j):
            if leads[i] >> shift == place:
                key = lcm_of(leads[i] & monomial, m)
                if truncation is not None and degree(key) + weights[-place] > bound:
                    continue
                heappush(heap, (key, i, j))
                pending.add((i, j))
        if stop is not None and stop(leads):
            return None
    return divisors


def _reduced(ring: PolyRing, divisors: list) -> GroebnerBasis:
    """The reduced Gröbner basis of what the Gröbner basis held as the
    integer divisors `divisors` generates: the elements whose lead no other
    lead divides, in increasing order of their leads, each made monic and
    its tail reduced by all of them as they are (no kept lead divides
    another, and a tail lies below its own lead), by `_element`."""
    leads = [d[0] for d in divisors]
    kept = sorted((i for i, lead in enumerate(leads)
                   if not any(ring.divides(m, lead) for m in leads if m != lead)),
                  key=leads.__getitem__)
    minimal = [divisors[i] for i in kept]
    elements, reduced = [], []
    for d in minimal:
        terms = _element(ring, d, minimal)
        elements.append(Polynomial(ring, terms))
        reduced.append(_divisor(ring.field, terms))
    return GroebnerBasis(ring, tuple(elements), reduced)


def reduced_groebner(ring: PolyRing, gens) -> GroebnerBasis:
    """The reduced Gröbner basis of the ideal of `ring` generated by gens,
    a sequence of its polynomials (empty for the zero ideal): one engine
    run (normal selection strategy), zero generators dropped, then
    `_reduced`."""
    return groebner_until(ring, gens, None)


def groebner_until(ring: PolyRing, gens, goal) -> GroebnerBasis:
    """The reduced Gröbner basis of the ideal J of `ring` that gens
    generate, as `reduced_groebner` gives it, or None as soon as `goal`
    holds: a predicate on the leads of the partial Gröbner basis G of J
    that the run has built, asked each time an element joins G, with its
    lead last (None asks nothing).  Every such G has <lm G> inside in(J),
    so a goal that stays true as leads are added holds of in(J) once it
    holds; and a run that returns a basis asked it last of a complete
    basis's leads, so the goal fails for in(J), unless no element joined
    (J = 0).  A generator of another ring raises RingMismatchError."""
    terms = []
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generator from a different ring")
        terms.append(g.terms)
    divisors = _groebner(ring, [], terms, product_criterion=True, stop=goal)
    return None if divisors is None else _reduced(ring, divisors)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by the reduced Gröbner basis G (full
    tail reduction), by the divisors G carries."""
    ring = f.ring
    if G.ring != ring:
        raise RingMismatchError("normal_form across different rings")
    return Polynomial(ring, _reduce(ring, *_dividend(ring, f.terms), G.divisors))


# ---------------------------------------------------------------------------
# free modules
# ---------------------------------------------------------------------------

def _terms(ring, vec, offset=0) -> tuple:
    """The canonical terms of the sequence vec of polynomials of `ring`,
    component i at position offset + i: position over term makes them the
    components' terms, concatenated in position order."""
    shift = ring.position_shift
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


def _combination(ring, coeffs, gens) -> tuple:
    """The canonical terms of sum(c_i * g_i) for polynomials c_i and
    polynomial sequences g_i of `ring`."""
    return sum_of_products(ring, [(c.terms, _terms(ring, g)) for c, g in zip(coeffs, gens)])


class AugmentedBasis:
    """The Gröbner basis of the elements gens_i + e_(rank + i) of a sequence
    gens of free-module elements, each a tuple of rank polynomials of
    `ring`, held as its integer divisors.  Its elements led past rank are
    the syzygies of gens, the others, cut at rank, a Gröbner basis of the
    submodule that gens generate (the zero module when gens is empty), and
    a remainder past rank expresses an element of that submodule in terms
    of gens."""

    __slots__ = ("ring", "rank", "gens", "divisors", "_syzygies", "_minimal")

    def __init__(self, ring: PolyRing, rank: int, gens):
        gens = tuple(tuple(g) for g in gens)
        for g in gens:
            if len(g) != rank or any(c.ring != ring for c in g):
                raise ValueError("generators must have the given ring and rank")
        shift, one = ring.position_shift, ring.field.one
        augmented = [_terms(ring, g) + ((-((rank + i) << shift), one),)
                     for i, g in enumerate(gens)]
        self.ring, self.rank, self.gens = ring, rank, gens
        self._syzygies = self._minimal = None
        self.divisors = _groebner(ring, [], augmented)

    def syzygies(self) -> list:
        """Generators of the syzygy module of gens, a new list on every
        call; every one satisfies sum(s_i * gens_i) == 0, verified once,
        when they are first read off the basis."""
        if self._syzygies is None:
            ring, rank, gens = self.ring, self.rank, self.gens
            shift = ring.position_shift
            out = []
            for d in self.divisors:
                if -(d[0] >> shift) < rank:
                    continue
                s = _vector(ring, _element(ring, d), rank, len(gens))
                # exactness check: the defining identity must hold on the nose
                if _combination(ring, s, gens):
                    raise RuntimeError("internal: syzygy identity violated")
                out.append(s)
            self._syzygies = tuple(out)
        return list(self._syzygies)

    def minimal_syzygies(self) -> list:
        """For rank-one gens (g_i): the syzygies that `minimal_subset`
        keeps with e_i weighted by deg g_i, which for homogeneous gens
        minimally generate the syzygy module.  Computed once; a new list on
        every call."""
        if self._minimal is None:
            weights = [g.total_degree() for (g,) in self.gens]
            self._minimal = tuple(minimal_subset(self.ring, self.syzygies(), weights))
        return list(self._minimal)

    def express(self, polys) -> list:
        """For rank-one gens (g_i): one coefficient list c per f in polys,
        with f = sum(c_i * g_i); raises NotAMemberError."""
        if self.rank != 1:
            raise ValueError("express needs generators of rank one")
        ring, F, n = self.ring, self.ring.field, len(self.gens)
        out = []
        for f in polys:
            nf = _reduce(ring, *_dividend(ring, f.terms), self.divisors)
            if nf and nf[0][0] >= 0:
                raise NotAMemberError(f"{f} is not in the ideal of the given generators")
            coeffs = _vector(ring, ((t, F.neg(c)) for t, c in nf), 1, n)
            if _combination(ring, coeffs, self.gens) != f.terms:
                raise RuntimeError("internal: expression identity violated")
            out.append(list(coeffs))
        return out


def _moved(terms, s) -> tuple:
    """The canonical terms with s added to each term: s = -i·2^K moves them
    i positions on, and i·2^K moves them back."""
    return tuple((t + s, c) for t, c in terms)


def last_coordinates(basis: GroebnerBasis, row) -> GroebnerBasis:
    """The reduced Gröbner basis of the ideal of the polynomials r with
    (0, …, 0, r) in the submodule of R^(k+1) generated by `row`, a
    sequence of k+1 polynomials, and by b·e_i for b in the reduced Gröbner
    basis `basis` and i < k; for the colon a : I, `row` is
    (f_1, …, f_k, 1) over the generators f of I and `basis` that of a.
    The b·e_i are already a Gröbner basis of theirs, with the divisors of
    `basis` moved to position i, so one run extends them by the row;
    smaller positions win, so the elements it leads at position k are zero
    everywhere else, and moved back to position 0 they are a Gröbner basis
    of that ideal."""
    ring, shift = basis.ring, basis.ring.position_shift
    k = len(row) - 1
    divisors = []
    for i in range(k):
        s = i << shift
        divisors += [(lead - s, lc, _moved(tail, -s)) for lead, lc, tail in basis.divisors]
    _groebner(ring, divisors, [_terms(ring, row)])
    s = k << shift
    return _reduced(ring, [(lead + s, lc, _moved(tail, s))
                           for lead, lc, tail in divisors if -(lead >> shift) == k])


def minimal_subset(ring: PolyRing, elems, weights, span=()) -> list:
    """The elements of `elems`, free-module elements over `ring`, kept by
    graded Nakayama: taken in order of shifted degree, deg c + weights[i]
    for every term c of a component c_i, ties by input position, each is
    kept unless it lies in the submodule generated by the span and the
    elements kept before it.
    Every element must be homogeneous under the weights (one shifted
    degree for all its terms), or NonHomogeneousError is raised; the kept
    ones, with the span, then minimally generate the submodule that the
    span and `elems` generate.  `span` is a sequence of generators of the
    span, free-module elements of the same rank, homogeneous under the
    weights too; the default is the zero module.

    One truncated run makes a basis of the span, and it is extended by
    each candidate in turn; a candidate is kept when the basis grows.
    Every run is truncated at the largest shifted degree D of the
    candidates: a generator of the span above D is dropped, and a pair of
    degree above D is never queued, since no candidate's membership test
    reads it (Kreuzer and Robbiano, *Computational Commutative Algebra 2*,
    §4.5)."""
    elems = list(elems)
    degree = ring.degree

    def shifted_degree(elem):
        found = {degree(m) + w for c, w in zip(elem, weights) for m, _ in c.terms}
        if len(found) > 1:
            text = ", ".join(map(str, elem))
            if any(weights):
                text = f"({text}) under the weights {weights}"
            raise NonHomogeneousError(f"non-homogeneous generator {text}")
        return found.pop() if found else -1

    degrees = [shifted_degree(e) for e in elems]
    truncation = (weights, max(degrees, default=-1))
    divisors = []
    if span:
        _groebner(ring, divisors, [_terms(ring, s) for s in span], truncation=truncation)
    kept = []
    for k in sorted(range(len(elems)), key=degrees.__getitem__):
        size = len(divisors)
        _groebner(ring, divisors, [_terms(ring, elems[k])], truncation=truncation)
        if len(divisors) > size:
            kept.append(elems[k])
    return kept
