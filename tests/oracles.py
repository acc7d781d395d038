"""Independent oracles used to derive expected values.

These deliberately avoid the Gröbner engine: membership and remainders
come from row-reducing the finite-dimensional space spanned by monomial
multiples of the generators up to a degree bound, graded pieces of a
colon from the kernel of multiplication into such truncated quotients,
monomial colon and intersection from exponent-vector arithmetic,
Koszul homology dimensions from ranks of truncated differential matrices,
d o d = 0 from the columns of the differentials (`d_squared_is_zero`),
and the cycle subalgebra from every product of cycle generators
(`reference_cycle_products`).
Division and products over QQ have plain-Fraction references on dicts
(`fraction_remainder`, `fraction_product`); exterior products and
determinants have term-by-term references (`reference_wedge`, the
pairwise loop, and `reference_det`, the Leibniz sum over permutations).
`spoly` is the S-polynomial by its definition, for checking that a
basis is a Gröbner basis.  Three exceptions use the engine by another
route than the code under test: the syzygy references for colon and
intersection; the graded-Nakayama reference, which uses the engine only
through `module_member`, one Gröbner basis of the submodule computed
from scratch per test; and `reference_Gs`, G_s by its definition, one
height for every j < s with none skipped.

The oracles work on exponent tuples, ordered by the flat tuple keys
below (`tuple_key`), and meet the packed monomials of the code under test
only through `PolyRing.monomial` and `PolyRing.exponents`; the packing
tests check the packed ints against these keys and tuple helpers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iter_product

from residua.fitting import fitting_ideal
from residua.groebner import AugmentedBasis, _dividend, _groebner, _reduce, _terms
from residua.ideals import Ideal, height, ideal_sum
from residua.koszul import ExteriorElement


# ---------------------------------------------------------------------------
# monomials as exponent tuples, and the flat tuple keys of the orders
# ---------------------------------------------------------------------------

def grevlex_key(m):
    return (sum(m), *(-e for e in reversed(m)))


def lex_key(m):
    return tuple(m)


def block_key(k, m):
    # the first part always has k + 1 entries, so the flat tuple compares
    # exactly as the pair (grevlex key of m[:k], grevlex key of m[k:])
    return grevlex_key(m[:k]) + grevlex_key(m[k:])


def tuple_key(order):
    """The flat tuple key of a MonomialOrder on exponent tuples: a larger
    key is a larger monomial."""
    if order.kind == "grevlex":
        return grevlex_key
    if order.kind == "lex":
        return lex_key
    return lambda m: block_key(order.block, m)


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mono_div(m1, m2):
    return tuple(a - b for a, b in zip(m1, m2))


def mono_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def mono_lcm(m1, m2):
    return tuple(max(a, b) for a, b in zip(m1, m2))


def monomials_up_to(ring, degree):
    """All exponent tuples of total degree <= degree, descending in the
    ring order."""
    monos = [
        expo
        for expo in iter_product(range(degree + 1), repeat=ring.nvars)
        if sum(expo) <= degree
    ]
    monos.sort(key=tuple_key(ring.order), reverse=True)
    return monos


def monomials_of_degree(ring, degree):
    return [m for m in monomials_up_to(ring, degree) if sum(m) == degree]


def _row_reduce(field, rows):
    """In-place row echelon over the field; pivots on the leftmost column.
    Returns list of (pivot_col, row)."""
    pivots = []
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            if row[col] != field.zero:
                factor = row[col]
                for k in range(col, len(row)):
                    row[k] = field.element(row[k] - factor * prow[k])
        lead = next((k for k, c in enumerate(row) if c != field.zero), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [field.mul(c, inv) for c in row]
        pivots.append((lead, row))
    pivots.sort(key=lambda pr: pr[0])
    return pivots


def _reduce_vector(field, vec, pivots):
    vec = list(vec)
    for col, prow in pivots:
        if vec[col] != field.zero:
            factor = vec[col]
            for k in range(col, len(vec)):
                vec[k] = field.element(vec[k] - factor * prow[k])
    return vec


def _poly_vector(p, columns, index):
    """The coefficients of p at the exponent tuples `columns`."""
    ring = p.ring
    vec = [ring.field.zero] * len(columns)
    for m, c in p.terms:
        vec[index[ring.exponents(m)]] = c
    return vec


def truncated_span(gens, bound):
    """Row-reduced basis of span{m * g : deg(m * g) <= bound} with columns,
    exponent tuples, ordered by the ring's monomial order, descending."""
    ring = gens[0].ring
    columns = monomials_up_to(ring, bound)
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        room = bound - g.total_degree()
        if room < 0:
            continue
        for m in monomials_up_to(ring, room):
            prod = g.mul_term(ring.monomial(m), ring.field.one)
            if prod.total_degree() <= bound:
                rows.append(_poly_vector(prod, columns, index))
    pivots = _row_reduce(ring.field, rows)
    return columns, index, pivots


def from_exponents(ring, d):
    """The polynomial with coefficient d[m] at each exponent tuple m."""
    return ring.from_dict({ring.monomial(m): c for m, c in d.items()})


def oracle_remainder(f, gens, bound):
    """Remainder of f against the truncated span; for homogeneous gens and
    bound >= deg f this is the canonical representative modulo the ideal."""
    ring = f.ring
    columns, index, pivots = truncated_span(gens, bound)
    vec = _reduce_vector(ring.field, _poly_vector(f, columns, index), pivots)
    return from_exponents(ring, {m: c for m, c in zip(columns, vec) if c != ring.field.zero})


def fraction_remainder(f, divisors):
    """Remainder of f on division by the polynomials `divisors`, in plain
    Fraction arithmetic on dicts: the largest term (by the ring's key) is
    cancelled by the first divisor whose lead divides it, or moved to the
    remainder.  Divisors need not be monic; zero ones are skipped."""
    ring = f.ring
    key, expo = tuple_key(ring.order), ring.exponents
    p = {expo(m): Fraction(c) for m, c in f.terms}
    divs = [{expo(m): Fraction(c) for m, c in g.terms} for g in divisors if g.terms]
    divs = [(max(g, key=key), g) for g in divs]
    rem = {}
    while p:
        m = max(p, key=key)
        for lead, g in divs:
            if all(a <= b for a, b in zip(lead, m)):
                q = tuple(b - a for a, b in zip(lead, m))
                factor = p[m] / g[lead]
                for gm, gc in g.items():
                    t = tuple(a + b for a, b in zip(gm, q))
                    value = p.get(t, 0) - factor * gc
                    if value:
                        p[t] = value
                    else:
                        p.pop(t, None)
                break
        else:
            rem[m] = p.pop(m)
    return from_exponents(ring, {m: ring.field.element(c) for m, c in rem.items()})


def fraction_product(f, g) -> dict:
    """f * g as {packed monomial: coefficient}: every pair of terms
    multiplied in plain Fraction arithmetic on exponent tuples, summed,
    mapped into the field, zeros dropped."""
    ring = f.ring
    acc = {}
    for m1, c1 in f.terms:
        for m2, c2 in g.terms:
            m = mono_mul(ring.exponents(m1), ring.exponents(m2))
            acc[m] = acc.get(m, 0) + Fraction(c1) * Fraction(c2)
    F = ring.field
    out = {ring.monomial(m): F.element(c) for m, c in acc.items()}
    return {m: c for m, c in out.items() if c != F.zero}


def reference_wedge(u, v) -> dict:
    """u ^ v as {subset: polynomial}: every disjoint pair (S, T) of keys adds
    the product p * q, negated for an odd number of pairs s > t in S x T,
    to the coefficient of the merged subset; keys in order of first
    occurrence, zero coefficients dropped."""
    out = {}
    for S, p in u.coeffs.items():
        for T, q in v.coeffs.items():
            if set(S) & set(T):
                continue
            term = p * q
            if sum(1 for s in S for t in T if s > t) % 2:
                term = -term
            merged = tuple(sorted(S + T))
            out[merged] = out.get(merged, u.ring.zero) + term
    return {U: c for U, c in out.items() if not c.is_zero()}


def _inversions(perm) -> int:
    return sum(1 for i, a in enumerate(perm) for b in perm[i + 1:] if a > b)


def reference_det(ring, matrix):
    """The determinant of a square matrix of polynomials by the Leibniz
    formula: the signed products of the entries (i, perm[i]) over all
    permutations."""
    total = ring.zero
    for perm in permutations(range(len(matrix))):
        term = ring.one
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total - term if _inversions(perm) % 2 else total + term
    return total


def reference_Gs(I, s) -> bool:
    """G_s by its definition: height(Fitt_j(I) + I) >= j + 1 for every
    j < s, each height taken, with no j settled in advance."""
    return all(height(ideal_sum(fitting_ideal(I, j), I)) >= j + 1 for j in range(s))


def oracle_member(f, gens, bound=None):
    """Membership of f in the ideal of homogeneous gens, componentwise by
    degree (exact for homogeneous ideals)."""
    ring = f.ring
    if f.is_zero():
        return True
    if bound is None:
        bound = f.total_degree()
    by_degree = {}
    for m, c in f.terms:
        by_degree.setdefault(ring.degree(m), {})[m] = c
    for d, terms in by_degree.items():
        comp = ring.from_dict(terms)
        if not oracle_remainder(comp, gens, d).is_zero():
            return False
    return True


def oracle_degree_piece(gens, degree):
    """Dimension of the degree-d piece of the ideal of homogeneous gens."""
    ring = gens[0].ring
    columns, _, pivots = truncated_span(gens, degree)
    return sum(1 for col, _ in pivots if sum(columns[col]) == degree)


def oracle_colon_degree_piece(a_gens, i_gens, degree):
    """Dimension of the degree-d piece of a : I for homogeneous a and I: the
    kernel of R_d -> sum_i (R/a)_{d + deg f_i}, r -> (r * f_i mod a)_i."""
    ring = a_gens[0].ring
    field = ring.field
    unknowns = monomials_of_degree(ring, degree)
    images = [[] for _ in unknowns]
    for f in i_gens:
        if f.is_zero():
            continue
        columns, index, pivots = truncated_span(a_gens, degree + f.total_degree())
        for image, m in zip(images, unknowns):
            vec = _poly_vector(f.mul_term(ring.monomial(m), field.one), columns, index)
            image.extend(_reduce_vector(field, vec, pivots))
    rows = [list(row) for row in zip(*images)]
    return len(_kernel_basis(field, rows, len(unknowns)))


# ---------------------------------------------------------------------------
# monomial-ideal colon and intersection by exponent arithmetic
# ---------------------------------------------------------------------------

def _mono_colon_single(a_monos, f):
    """(a) : (f) for monomial generators: exponentwise max(a_i - f, 0)."""
    out = []
    for a in a_monos:
        out.append(tuple(max(e - g, 0) for e, g in zip(a, f)))
    return _minimalize(out)


def _minimalize(monos):
    kept = []
    for m in sorted(set(monos), key=lambda mm: (sum(mm), mm)):
        if not any(all(k <= e for k, e in zip(ker, m)) for ker in kept):
            kept.append(m)
    return kept


def monomial_intersect(ms1, ms2):
    """(ms1) ∩ (ms2) for monomial ideals given by exponent vectors: the
    pairwise lcms, minimalized."""
    out = [tuple(max(a, b) for a, b in zip(m1, m2)) for m1 in ms1 for m2 in ms2]
    return _minimalize(out)


def monomial_colon(a_monos, i_monos):
    """(a) : (I) for monomial ideals given by exponent vectors."""
    result = None
    for f in i_monos:
        piece = _mono_colon_single(a_monos, f)
        result = piece if result is None else monomial_intersect(result, piece)
    return _minimalize(result)


# ---------------------------------------------------------------------------
# colon and intersection read off syzygies
# ---------------------------------------------------------------------------

def reference_intersect(I, J):
    """I ∩ J generated by sum(c_i * f_i) over the syzygies (c, d) of the
    generators (f_1..f_r, g_1..g_t) of I and J."""
    f = [g for g in I.generators if not g.is_zero()]
    g = [h for h in J.generators if not h.is_zero()]
    if not f or not g:
        return Ideal(I.ring, ())
    meet = (sum((c * h for c, h in zip(syz, f)), I.ring.zero)
            for syz in AugmentedBasis(I.ring, 1, ((h,) for h in f + g)).syzygies())
    return Ideal(I.ring, [h for h in meet if not h.is_zero()])


def reference_colon(a, I):
    """a : I as the intersection of the principal colons a : (f), each
    generated by the first coordinates of the syzygies of (f, a_1..a_k)."""
    a_gens = [g for g in a.generators if not g.is_zero()]
    result = None
    for f in (g for g in I.generators if not g.is_zero()):
        syzygies = AugmentedBasis(a.ring, 1, ((h,) for h in [f] + a_gens)).syzygies()
        firsts = (syz[0] for syz in syzygies)
        piece = Ideal(a.ring, [c for c in firsts if not c.is_zero()])
        result = piece if result is None else reference_intersect(result, piece)
    return result


# ---------------------------------------------------------------------------
# truncated syzygies by linear algebra
# ---------------------------------------------------------------------------

def truncated_syzygies(gens, bound):
    """All syzygy vectors (c_1..c_m) with deg(c_i * g_i) <= bound, found by
    solving the linear system sum c_i g_i = 0 over monomial coefficients.
    Returns component tuples."""
    ring = gens[0].ring
    field = ring.field
    unknowns = []  # (gen_index, monomial)
    for i, g in enumerate(gens):
        room = bound - g.total_degree()
        if room < 0:
            continue
        for m in monomials_up_to(ring, room):
            unknowns.append((i, m))
    columns = monomials_up_to(ring, bound)
    col_index = {m: k for k, m in enumerate(columns)}
    # matrix: rows = target monomials, cols = unknowns
    rows = [[field.zero] * len(unknowns) for _ in columns]
    for u, (i, m) in enumerate(unknowns):
        for gm, gc in gens[i].terms:
            r = col_index[mono_mul(m, ring.exponents(gm))]
            rows[r][u] = field.element(rows[r][u] + gc)
    kernel = _kernel_basis(field, rows, len(unknowns))
    out = []
    for vec in kernel:
        comps = [dict() for _ in gens]
        for u, c in enumerate(vec):
            if c != field.zero:
                i, m = unknowns[u]
                comps[i][m] = c
        out.append(tuple(from_exponents(ring, d) for d in comps))
    return out


def _kernel_basis(field, rows, ncols):
    pivots = _row_reduce(field, rows)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for col, prow in reversed(pivots):
            # prow is monic at col; back-substitute
            acc = field.zero
            for k in range(col + 1, ncols):
                acc = field.element(acc + prow[k] * vec[k])
            vec[col] = field.neg(acc)
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Koszul homology dimensions from truncated differentials
# ---------------------------------------------------------------------------

def koszul_homology_dim(K, i, degree):
    """dim_k of the degree-d graded piece of H_i(x; R), from ranks of the
    graded pieces of d_i and d_{i+1}."""
    ring = K.ring
    field = ring.field
    gd = [g.total_degree() for g in K.gens]

    def shifted_basis(j):
        out = []
        for S in K.basis(j):
            shift = sum(gd[t - 1] for t in S)
            if degree >= shift:
                out.extend((S, m) for m in monomials_of_degree(ring, degree - shift))
        return out

    def graded_matrix(j):
        # map K_j -> K_{j-1} restricted to total degree `degree`
        rows_basis = shifted_basis(j - 1)
        cols_basis = shifted_basis(j)
        index = {b: k for k, b in enumerate(rows_basis)}
        columns = dict(zip(K.basis(j), K.differential_columns(j)))
        mat = [[field.zero] * len(cols_basis) for _ in rows_basis]
        for c, (S, m) in enumerate(cols_basis):
            for T, p in zip(K.basis(j - 1), columns[S]):
                for pm, pc in p.terms:
                    r = index[(T, mono_mul(ring.exponents(pm), m))]
                    mat[r][c] = field.element(mat[r][c] + pc)
        return mat, len(cols_basis)

    def rank(mat):
        if not mat or not mat[0]:
            return 0
        return len(_row_reduce(field, mat))

    if i > K.n or i < 0:
        return 0
    if i == 0:
        mat1, _ = graded_matrix(1)
        return len(monomials_of_degree(ring, degree)) - rank(mat1)
    mat_i, ncols_i = graded_matrix(i)
    dim_ker = ncols_i - rank(mat_i)
    rank_next = 0
    if i < K.n:
        mat_n, _ = graded_matrix(i + 1)
        rank_next = rank(mat_n)
    return dim_ker - rank_next


def d_squared_is_zero(K, i) -> bool:
    """d_(i-1)(d_i(e_S)) = 0 for every S in K.basis(i), from the columns:
    each column of d_i combines the columns of d_(i-1), product by
    product."""
    inner = K.differential_columns(i - 1)
    zero = K.ring.zero
    for col in K.differential_columns(i):
        for r in range(len(K.basis(i - 2))):
            if not sum((p * c[r] for p, c in zip(col, inner)), zero).is_zero():
                return False
    return True


def reference_cycle_products(ring, n, generators, max_degree):
    """Every wedge product, with repetition, of the cycle generators with
    at most n factors and total degree <= max_degree, plus the empty
    product: the products that span the cycle subalgebra Z by definition,
    where `koszul.kitt_via_cycles` takes the generators of each Z_i alone."""
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


# ---------------------------------------------------------------------------
# S-polynomials, module membership, and graded Nakayama by one membership
# test per candidate
# ---------------------------------------------------------------------------

def spoly(f, g):
    """The S-polynomial of f and g: the monic multiples of both at the lcm
    of their leads, subtracted."""
    F = f.ring.field
    lcm = f.ring.lcm(f.lm(), g.lm())
    a = f.mul_term(lcm - f.lm(), F.inv(f.lc()))
    b = g.mul_term(lcm - g.lm(), F.inv(g.lc()))
    return a - b


def module_member(elem, gens) -> bool:
    """Membership of elem in the submodule generated by gens, all of them
    tuples of polynomials of one rank: the remainder of elem on division
    by a Gröbner basis of gens, computed from scratch, is zero."""
    ring = elem[0].ring
    divisors = _groebner(ring, [], [_terms(ring, g) for g in gens])
    return not _reduce(ring, *_dividend(ring, _terms(ring, elem)), divisors)


def reference_minimal_subset(elems, weights, span=()):
    """What `groebner.minimal_subset` keeps, by its definition: in order of
    shifted degree, ties by input position, each element that is not a
    `module_member` of `span` plus the elements kept before it.  Each test
    computes its Gröbner basis from scratch."""
    def shifted_degree(elem):
        return max((c.total_degree() + w for c, w in zip(elem, weights)
                    if not c.is_zero()), default=-1)

    span = list(span)
    kept = []
    for elem in sorted(elems, key=shifted_degree):
        if not module_member(elem, span):
            kept.append(elem)
            span.append(elem)
    return kept
