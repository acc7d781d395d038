"""Presentation matrices, Fitting ideals and the G_s condition.

The quotient I/a is presented by [A|B]: the columns A of a minimal
generating set of the syzygies of a minimal generating sequence x_1..x_n
of I, followed by one column per generator a_j of a recording
a_j = sum c_ij x_i.  Fitt_0(I/a) is then the ideal of n x n minors.  The
Fitting ideals of I itself, and with them G_s, are minors of A alone;
`_syzygy_rows` is the one place that builds A.  Its columns are the
minimal syzygies of I's augmented basis (`ideals.augmented_basis`),
computed once there: those of the least degree kept as they are, by
graded Nakayama, and the others picked by `minimal_subset`.  The Koszul
homology of x takes the same ones as the cycle generators of Z_1, and
the zetas of a as the columns B, so `koszul.fitt0_via_Z1`, the minors
of [Z_1 | C], is `fitt0_quotient` itself.
Fitting ideals do not depend on the presentation, so pruning A to a
minimal set changes none of them, only the number of minors taken.
G_s asks ht(Fitt_j(I) + I) >= j+1 for j < s; for j < ht I that holds
with no minor taken, since I lies in Fitt_j(I) + I.
"""

from __future__ import annotations

from itertools import combinations

from .ring import PolyRing, RingMismatchError
from .groebner import NotAMemberError
from .ideals import Ideal, augmented_basis, height, height_reaches, ideal_sum


class NotASubidealError(ValueError):
    pass


def _det(ring, rows, row_idx, col_idx, memo):
    """Determinant of the nonempty submatrix on row_idx x col_idx: a
    one-row minor is its entry, a larger one a memoized cofactor expansion
    along the first row, summed as one sum of products over the nonzero
    entries whose minor is nonzero."""
    if len(row_idx) == 1:
        return rows[row_idx[0]][col_idx[0]]
    key = (row_idx, col_idx)
    if key in memo:
        return memo[key]
    r = row_idx[0]
    rest = row_idx[1:]
    pairs = []
    for pos, c in enumerate(col_idx):
        entry = rows[r][c]
        if entry.is_zero():
            continue
        sub = _det(ring, rows, rest, col_idx[:pos] + col_idx[pos + 1:], memo)
        if sub.is_zero():
            continue
        pairs.append(((-entry if pos % 2 else entry).terms, sub.terms))
    result = memo[key] = ring.sum_of_products(pairs)
    return result


def minors(ring: PolyRing, matrix, r: int) -> Ideal:
    """Ideal of r x r minors; r <= 0 gives (1), r > min(dims) gives (0).
    A matrix whose rows differ in length raises ValueError."""
    rows = [tuple(row) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("minors of a non-rectangular matrix")
    if r <= 0:
        return Ideal(ring, (ring.one,))
    if r > min(nrows, ncols):
        return Ideal(ring, ())
    memo = {}
    gens = []
    for row_idx in combinations(range(nrows), r):
        for col_idx in combinations(range(ncols), r):
            d = _det(ring, rows, row_idx, col_idx, memo)
            if not d.is_zero():
                gens.append(d)
    return Ideal(ring, gens)


def _syzygy_rows(I: Ideal) -> list:
    """Rows, one per x_i of x = min_gens(I), of the matrix A whose columns
    minimally generate the syzygies of x: the minimal syzygies of I's
    augmented basis, computed once there.  The zero ideal has no rows."""
    basis = augmented_basis(I)
    syz = basis.minimal_syzygies()
    return [[s[i] for s in syz] for i in range(len(basis.gens))]


def expressions(I: Ideal, a: Ideal) -> tuple:
    """(a_gens, coefficient lists): the nonzero generators of a and, for
    each, its c with a_j = sum c_i x_i over x = min_gens(I).  Kept in I's
    memo under ("zetas", a.generators) once the expressions have returned;
    a generator outside I, which `express` finds as it reduces it, raises
    NotASubidealError."""
    if a.ring != I.ring:
        raise RingMismatchError("expressions across rings")

    def compute():
        a_gens = tuple(g for g in a.generators if not g.is_zero())
        try:
            coeffs = augmented_basis(I).express(a_gens)
        except NotAMemberError:
            raise NotASubidealError("a is not contained in I") from None
        return a_gens, tuple(tuple(c) for c in coeffs)

    return I.memo(("zetas", a.generators), compute)


def presentation_of_quotient(I: Ideal, a: Ideal) -> tuple:
    """The rows, one per x_i of min_gens(I), of the [A|B] presentation of
    I/a; `expressions` checks that a lies in I."""
    _a_gens, columns = expressions(I, a)
    rows = _syzygy_rows(I)
    for coeffs in columns:
        for row, c in zip(rows, coeffs):
            row.append(c)
    return tuple(tuple(row) for row in rows)


def fitt0_quotient(I: Ideal, a: Ideal) -> Ideal:
    """Fitt_0(I/a); the zero module (a = I = 0 included) yields (1)."""
    pres = presentation_of_quotient(I, a)
    return minors(I.ring, pres, len(pres))


def fitting_ideal(I: Ideal, j: int) -> Ideal:
    """Fitt_j(I) from the syzygy presentation of min_gens(I); (1) once
    j >= mu(I), the zero ideal included."""
    rows = _syzygy_rows(I)
    return minors(I.ring, rows, len(rows) - j)


def check_Gs(I: Ideal, s: int) -> bool:
    """G_s via heights of Fitting ideals of I:
    height(Fitt_j(I) + I) >= j+1 for 0 <= j <= s-1.  For j < ht I this is
    settled by I being inside Fitt_j(I) + I, so only j >= ht I takes
    minors; for each of them `height_reaches` stops the basis run of
    Fitt_j(I) + I once its leads show height j+1, and whether they do is
    kept in I's memo under ("G_s", j)."""
    if I.is_unit() or I.is_zero():
        raise ValueError("G_s needs I to be a proper nonzero ideal")
    for j in range(height(I), s):
        if not I.memo(("G_s", j),
                      lambda: height_reaches(ideal_sum(fitting_ideal(I, j), I), j + 1)):
            return False
    return True
