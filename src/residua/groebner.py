"""Buchberger engine for ideals and submodules of free modules.

Scalar side: normal forms, Buchberger with normal selection strategy and
the product/chain criteria, reduced (canonical) bases, elimination.
Module side: position-over-term Gröbner bases used for syzygies,
membership of module elements, and expressing a polynomial in terms of
generators via the augmented-module technique.

Division (`normal_form`, `divide_exact` and the module normal form) keeps
the dividend as a dict of live terms plus a heap of negated order keys,
after Monagan and Pearce: the leading term pops off the heap, only the
divisor's tail times the quotient term is subtracted, a monomial is pushed
only when it first appears, and a popped monomial whose coefficient has
cancelled is skipped.  Remainder and quotient terms come out in
descending order, so they need no final sort.  The divisor is always the
first element of G whose leading monomial divides, so remainders, and
with them every basis, are the same as by plain repeated subtraction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from heapq import heappop, heappush

from .ring import (
    Polynomial,
    PolyRing,
    MonomialOrder,
    RingMismatchError,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class NotAMemberError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """Raised when the engine exceeds its configured step budget."""


_step_limit = None


def set_step_limit(limit):
    """Set a global cap on S-pair reductions per Buchberger run (None = off);
    returns the cap it replaces."""
    global _step_limit
    previous, _step_limit = _step_limit, limit
    return previous


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolyRing
    elements: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# scalar engine
# ---------------------------------------------------------------------------

class _Dividend:
    """A polynomial or module element under division.

    `live` maps every monomial not yet popped to its coefficient (zero once
    it has cancelled); `heap` holds each of those monomials once, keyed on
    its negated order key, so the leading term pops first.
    """

    __slots__ = ("live", "heap", "neg_key", "field", "zero", "mul")

    def __init__(self, terms, neg_key, field, mul=mono_mul):
        self.live = dict(terms)
        self.heap = [(neg_key(m), m) for m in self.live]
        heapq.heapify(self.heap)
        self.neg_key = neg_key
        self.field = field
        self.zero = field.zero
        self.mul = mul

    def pop(self):
        """Remove and return the leading (monomial, coefficient), or None."""
        live, heap, zero = self.live, self.heap, self.zero
        while heap:
            m = heappop(heap)[1]
            c = live.pop(m)
            if c != zero:
                return m, c
        return None

    def sub_multiple(self, tail, q_m, q_c):
        """Subtract q_c * q_m * tail; no product may lie above a popped monomial."""
        live, heap, neg_key, mul, F = self.live, self.heap, self.neg_key, self.mul, self.field
        for tm, tc in tail:
            m = mul(tm, q_m)
            old = live.get(m)
            if old is None:
                live[m] = F.neg(F.mul(tc, q_c))
                heappush(heap, (neg_key(m), m))
            else:
                live[m] = F.sub(old, F.mul(tc, q_c))


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f on division by the elements of G (full tail reduction)."""
    elements = G.elements if isinstance(G, GroebnerBasis) else tuple(G)
    ring = f.ring
    for g in elements:
        if g.ring != ring:
            raise RingMismatchError("normal_form across different rings")
    F = ring.field
    lead = [(g.lm(), g.lc(), g.terms[1:]) for g in elements if not g.is_zero()]
    p = _Dividend(f.terms, ring.order.neg_key, F)
    rem = []
    while (term := p.pop()) is not None:
        m, c = term
        for lm_g, lc_g, tail in lead:
            if mono_divides(lm_g, m):
                p.sub_multiple(tail, mono_div(m, lm_g), F.div(c, lc_g))
                break
        else:
            rem.append(term)
    return Polynomial(ring, tuple(rem))


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    ring = f.ring
    F = ring.field
    lm_g, lc_g, tail = g.lm(), g.lc(), g.terms[1:]
    quot = []
    p = _Dividend(f.terms, ring.order.neg_key, F)
    while (term := p.pop()) is not None:
        m, c = term
        if not mono_divides(lm_g, m):
            raise NotAMemberError(f"inexact division of {f} by {g}")
        q_m, q_c = mono_div(m, lm_g), F.div(c, lc_g)
        quot.append((q_m, q_c))
        p.sub_multiple(tail, q_m, q_c)
    return Polynomial(ring, tuple(quot))


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    F = f.ring.field
    lcm = mono_lcm(f.lm(), g.lm())
    a = f.mul_term(mono_div(lcm, f.lm()), F.inv(f.lc()))
    b = g.mul_term(mono_div(lcm, g.lm()), F.inv(g.lc()))
    return a - b


def buchberger(gens, max_steps=None) -> GroebnerBasis:
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
    if max_steps is None:
        max_steps = _step_limit

    G = [g.monic() for g in gens if not g.is_zero()]
    if not G:
        return GroebnerBasis(ring, ())

    leads = [g.lm() for g in G]
    heap = []
    pending = set()

    def push_pairs(j):
        for i in range(j):
            lcm = mono_lcm(leads[i], leads[j])
            heapq.heappush(heap, (ring.key(lcm), i, j))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    steps = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lm_i, lm_j = leads[i], leads[j]
        lcm = mono_lcm(lm_i, lm_j)
        # product criterion: coprime leading monomials
        if lcm == mono_mul(lm_i, lm_j):
            continue
        # chain criterion
        skip = False
        for k, lm_k in enumerate(leads):
            if k in (i, j):
                continue
            if mono_divides(lm_k, lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue

        steps += 1
        if max_steps is not None and steps > max_steps:
            raise ResourceLimitError(f"exceeded {max_steps} S-pair reductions")
        r = normal_form(spoly(G[i], G[j]), G)
        if not r.is_zero():
            G.append(r.monic())
            leads.append(r.lm())
            push_pairs(len(G) - 1)

    return GroebnerBasis(ring, tuple(G))


def reduce_basis(G: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced Gröbner basis of the ideal of G."""
    ring = G.ring
    elems = [g.monic() for g in G.elements if not g.is_zero()]
    # minimalize: drop elements whose leading monomial is divisible by another's
    elems.sort(key=lambda g: ring.key(g.lm()))
    minimal = []
    for g in elems:
        if not any(mono_divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    # tail-reduce each against the others
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda g: ring.key(g.lm()))
    return GroebnerBasis(ring, tuple(reduced))


def reduced_groebner(gens, max_steps=None) -> GroebnerBasis:
    return reduce_basis(buchberger(gens, max_steps=max_steps))


def eliminate(gens, k: int):
    """Generators of (gens) ∩ k[x_{k+1},..]; computed with a block order."""
    if not gens:
        return []
    ring = gens[0].ring
    if not 0 <= k < ring.nvars:
        raise ValueError(f"cannot eliminate {k} of {ring.nvars} variables")
    if k == 0:
        return list(gens)
    elim_ring = ring.with_order(MonomialOrder("block", k))
    lifted = [elim_ring.from_dict(dict(g.terms)) for g in gens]
    gb = reduced_groebner([g for g in lifted if not g.is_zero()] or [elim_ring.zero])
    kept = []
    for g in gb.elements:
        if all(all(e == 0 for e in m[:k]) for m, _ in g.terms):
            kept.append(ring.from_dict(dict(g.terms)))
    return kept


# ---------------------------------------------------------------------------
# free modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeModuleElement:
    ring: PolyRing
    rank: int
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.rank:
            raise ValueError("component count must equal rank")

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def dot(self, polys) -> Polynomial:
        acc = self.ring.zero
        for c, p in zip(self.components, polys):
            acc = acc + c * p
        return acc

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


# Internally a module element is a dict {(position, monomial): coefficient}
# while it is built, and a canonical tuple of ((position, monomial),
# coefficient) terms, strictly descending, once it is a basis element.
# Term order: dominant positions (pos < dominant) beat the rest; within a
# block, position-over-term extending the ring order (smaller position wins).

def _m_neg_key(ring, dominant):
    """Negated module order key, for the division heap and for sorting."""
    ring_neg_key = ring.order.neg_key

    def neg_key(pm):
        pos, m = pm
        return (-(pos < dominant), pos, *ring_neg_key(m))
    return neg_key


def _pm_mul(pm, mono):
    return (pm[0], mono_mul(pm[1], mono))


def _to_dict(elem: FreeModuleElement) -> dict:
    d = {}
    for pos, poly in enumerate(elem.components):
        for m, c in poly.terms:
            d[(pos, m)] = c
    return d


def _from_dict(ring, rank, d) -> FreeModuleElement:
    comps = [dict() for _ in range(rank)]
    for (pos, m), c in d.items():
        comps[pos][m] = c
    return FreeModuleElement(ring, rank, tuple(ring.from_dict(c) for c in comps))


def _m_monic(ring, terms):
    """The canonical terms scaled so the leading coefficient is one."""
    F = ring.field
    inv = F.inv(terms[0][1])
    return tuple((pm, F.mul(c, inv)) for pm, c in terms)


def _m_divisor(b):
    """(lead (position, monomial), lead coefficient, tail) of canonical terms."""
    return b[0][0], b[0][1], b[1:]


def _m_nf(p: _Dividend, divisors) -> tuple:
    """Remainder terms, descending, of the dividend p against the divisors
    ((lead position, lead monomial), lead coefficient, tail) in order."""
    F = p.field
    rem = []
    while (term := p.pop()) is not None:
        (pos, m), c = term
        for (bpos, bm), bc, tail in divisors:
            if bpos == pos and mono_divides(bm, m):
                p.sub_multiple(tail, mono_div(m, bm), F.div(c, bc))
                break
        else:
            rem.append(term)
    return tuple(rem)


def _m_remainder(ring, terms, basis, dominant) -> tuple:
    """Remainder terms of the module terms against a module Gröbner basis."""
    p = _Dividend(terms, _m_neg_key(ring, dominant), ring.field, _pm_mul)
    return _m_nf(p, [_m_divisor(b) for b in basis])


def _module_groebner(ring, elements, dominant):
    """Gröbner basis, as monic canonical term tuples, of the dict elements."""
    neg_key = _m_neg_key(ring, dominant)
    F = ring.field
    max_steps = _step_limit

    G = [_m_monic(ring, tuple(sorted(e.items(), key=lambda t: neg_key(t[0]))))
         for e in elements if e]
    if not G:
        return []
    divisors = [_m_divisor(b) for b in G]

    heap = []

    def push_pairs(j):
        (pj, mj) = G[j][0][0]
        for i in range(j):
            (pi, mi) = G[i][0][0]
            if pi != pj:
                continue
            lcm = mono_lcm(mi, mj)
            heapq.heappush(heap, (ring.key(lcm), i, j))

    for j in range(len(G)):
        push_pairs(j)

    steps = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        (pi, mi) = G[i][0][0]
        (pj, mj) = G[j][0][0]
        lcm = mono_lcm(mi, mj)
        q_i = mono_div(lcm, mi)
        s = _Dividend(((_pm_mul(pm, q_i), c) for pm, c in G[i]), neg_key, F, _pm_mul)
        s.sub_multiple(G[j], mono_div(lcm, mj), F.one)
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise ResourceLimitError(f"exceeded {max_steps} module S-pair reductions")
        r = _m_nf(s, divisors)
        if r:
            G.append(_m_monic(ring, r))
            divisors.append(_m_divisor(G[-1]))
            push_pairs(len(G) - 1)
    return G


def syzygies(gens) -> list:
    """Generators of the syzygy module of a sequence of free-module elements.

    Every returned s satisfies sum(s_i * gens_i) == 0 (verified here).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("syzygies of an empty sequence")
    ring = gens[0].ring
    rank = gens[0].rank
    for g in gens:
        if g.ring != ring or g.rank != rank:
            raise ValueError("generators must share ring and rank")
    m = len(gens)
    aug = []
    for i, g in enumerate(gens):
        d = _to_dict(g)
        d[(rank + i, (0,) * ring.nvars)] = ring.field.one
        aug.append(d)
    gb = _module_groebner(ring, aug, dominant=rank)
    out = []
    for e in gb:
        pos, _ = e[0][0]
        if pos >= rank:
            tail = {(p - rank, mm): c for (p, mm), c in e}
            if any(p < 0 for (p, _mm) in tail):
                continue
            syz = _from_dict(ring, m, tail)
            # exactness check: the defining identity must hold on the nose
            acc = [ring.zero] * rank
            for idx, coeff in enumerate(syz.components):
                for r_idx, comp in enumerate(gens[idx].components):
                    acc[r_idx] = acc[r_idx] + coeff * comp
            if any(not a.is_zero() for a in acc):
                raise RuntimeError("internal: syzygy identity violated")
            out.append(syz)
    return out


def ideal_syzygies(polys) -> list:
    """Syzygies of a polynomial sequence, viewed in a rank-1 free module."""
    ring = polys[0].ring
    gens = [FreeModuleElement(ring, 1, (p,)) for p in polys]
    return syzygies(gens)


def express_in_terms(f: Polynomial, gens) -> list:
    """Coefficients c with f = sum(c_i * gens_i); raises NotAMemberError."""
    gens = list(gens)
    if not gens:
        raise ValueError("cannot express in terms of an empty sequence")
    ring = f.ring
    m = len(gens)
    aug = []
    for i, g in enumerate(gens):
        d = {(0, mm): c for mm, c in g.terms}
        d[(1 + i, (0,) * ring.nvars)] = ring.field.one
        aug.append(d)
    gb = _module_groebner(ring, aug, dominant=1)
    nf = _m_remainder(ring, (((0, mm), c) for mm, c in f.terms), gb, 1)
    if any(pos == 0 for (pos, _mm), _c in nf):
        raise NotAMemberError(f"{f} is not in the ideal of the given generators")
    F = ring.field
    tail = {(p - 1, mm): F.neg(c) for (p, mm), c in nf}
    coeffs = _from_dict(ring, m, tail).components
    check = ring.zero
    for c, g in zip(coeffs, gens):
        check = check + c * g
    if check != f:
        raise RuntimeError("internal: expression identity violated")
    return list(coeffs)


def module_member(elem: FreeModuleElement, gens) -> bool:
    """Membership of elem in the submodule generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if elem.is_zero():
        return True
    if not gens:
        return False
    ring = elem.ring
    rank = elem.rank
    gb = _module_groebner(ring, [_to_dict(g) for g in gens], dominant=rank)
    return not _m_remainder(ring, _to_dict(elem).items(), gb, rank)
