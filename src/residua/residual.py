"""General-generator selection with verification, residual-intersection
predicates, the right-hand-side formula builder, and theorem harnesses."""

from __future__ import annotations

import random
import time
from itertools import combinations

from .ring import Polynomial, PolyRing
from .ideals import (
    Ideal,
    colon,
    groebner_inside,
    height,
    ideal_sum,
    min_gens,
    mu,
)
from .fitting import check_Gs, fitt0_quotient
from .koszul import kitt

# depth-type hypotheses we cannot compute; asserted per corpus family
FAMILY_ASSERTIONS = {
    "ci": ["strongly Cohen-Macaulay (complete intersection)"],
    "hb2": ["licci (height-2 perfect ideal)", "residually S2 (licci)"],
    "aci": ["AN_s^- (almost complete intersection, generically CI)"],
    "power": ["strongly Cohen-Macaulay (power of a maximal ideal in 2 vars)"],
    "custom": [],
}


class GenericityError(RuntimeError):
    """Random general-element selection failed its height-ladder check."""


class HypothesisError(ValueError):
    """A computed hypothesis of the requested theorem fails."""


class ResidualInstance:
    """An instance: the ideal I of `ring`, the generators `a_gens` of a, and s."""

    __slots__ = ("ring", "I", "a_gens", "s", "seed", "family_tag")

    def __init__(self, ring: PolyRing, I: Ideal, a_gens: tuple, s: int, seed: int = 0,
                 family_tag: str = "custom"):
        self.ring, self.I, self.a_gens, self.s = ring, I, a_gens, s
        self.seed, self.family_tag = seed, family_tag

    @property
    def a(self) -> Ideal:
        return Ideal(self.ring, self.a_gens)

    def describe(self) -> dict:
        return {
            "ring": str(self.ring),
            "I": [str(g) for g in self.I.generators],
            "a": [str(g) for g in self.a_gens],
            "s": self.s,
            "seed": self.seed,
            "family": self.family_tag,
        }


class VerificationReport:
    """The outcome of `verify`; `verdict` is equal, lhs-strictly-larger or
    incomparable."""

    __slots__ = ("instance", "theorem_id", "lhs_gb", "rhs_gb", "verdict",
                 "hypothesis_checks", "seed", "timing")

    def __init__(self, instance: dict, theorem_id: str, lhs_gb: list, rhs_gb: list,
                 verdict: str, hypothesis_checks: list = None, seed: int = 0,
                 timing: float = 0.0):
        self.instance, self.theorem_id = instance, theorem_id
        self.lhs_gb, self.rhs_gb, self.verdict = lhs_gb, rhs_gb, verdict
        self.hypothesis_checks = [] if hypothesis_checks is None else hypothesis_checks
        self.seed, self.timing = seed, timing

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "theorem": self.theorem_id,
            "lhs": self.lhs_gb,
            "rhs": self.rhs_gb,
            "verdict": self.verdict,
            "hypotheses": [
                {"name": name, "status": status} for name, status in self.hypothesis_checks
            ],
            "seed": self.seed,
            "timing_seconds": round(self.timing, 4),
        }


# ---------------------------------------------------------------------------
# general elements
# ---------------------------------------------------------------------------

def _random_scalar(ring, rng):
    """A random nonzero field element (1..100 over QQ); corpus generation
    draws its coefficients with it too."""
    F = ring.field
    if F.characteristic == 0:
        return F.element(rng.randint(1, 100))
    return F.element(rng.randint(1, F.characteristic - 1))


def _random_monomial(ring, degree, rng) -> int:
    expo = [0] * ring.nvars
    for _ in range(degree):
        expo[rng.randrange(ring.nvars)] += 1
    return ring.monomial(expo)


def random_combination(ring, polys, target_degree, rng) -> Polynomial:
    """Random degree-matched combination sum(lambda_j * m_j * f_j)."""
    acc = ring.zero
    for f in polys:
        gap = target_degree - f.total_degree()
        if gap < 0:
            continue
        m = _random_monomial(ring, gap, rng)
        acc = acc + f.mul_term(m, _random_scalar(ring, rng))
    return acc


# sequences generic_generators draws before it raises GenericityError
GENERIC_RETRIES = 8


def _subset_colon(I: Ideal, a_gens, idx) -> Ideal:
    """(a_subset):I, the subset given by its indices into a_gens."""
    return colon(Ideal(I.ring, tuple(a_gens[i] for i in idx)), I)


def height_ladder_ok(a_gens, I: Ideal) -> bool:
    """Height ladder: height((a_subset):I) >= |subset| for every subset.

    No height exceeds nvars (Krull), so s > nvars fails before any colon,
    and otherwise the ladder takes at most 2^nvars - 1 colons."""
    s = len(a_gens)
    if s > I.ring.nvars:
        return False
    for size in range(1, s + 1):
        for idx in combinations(range(s), size):
            J = _subset_colon(I, a_gens, idx)
            # an intermediate rung with unit colon means I already sits
            # inside a proper sub-sequence: degenerate, not general position
            if size < s and J.is_unit():
                return False
            if height(J) < size:
                return False
    return True


def generic_generators(I: Ideal, s: int, seed=0, degree=None) -> list:
    """Seeded random general elements of I, verified by the height ladder;
    raises GenericityError after exhausting the retry budget.

    The combinations are degree-matched at max deg of min_gens(I) unless a
    larger `degree` is requested (needed when s >= mu(I), where matched
    scalar combinations would regenerate I itself).  No height exceeds
    nvars, so s > nvars is refused before any draw."""
    if s == 0:
        return []
    if s < 0:
        raise ValueError("s must be non-negative")
    ring = I.ring
    if s > ring.nvars:
        raise GenericityError(
            f"s={s} exceeds nvars={ring.nvars}, and no sequence longer than nvars "
            f"passes the height ladder (no height exceeds nvars)"
        )
    rng = random.Random(seed)
    f = min_gens(I)
    if not f:
        raise ValueError("I has no nonzero generator, so it has no general elements")
    target = degree if degree is not None else max(g.total_degree() for g in f)
    for _attempt in range(GENERIC_RETRIES):
        a_gens = []
        ok = True
        for _ in range(s):
            g = random_combination(ring, f, target, rng)
            if g.is_zero():
                ok = False
                break
            a_gens.append(g)
        if ok and height_ladder_ok(a_gens, I):
            return a_gens
    raise GenericityError(
        f"no generating sequence passed the height ladder after {GENERIC_RETRIES} attempts "
        f"(s={s}, I={I})"
    )


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_residual(a: Ideal, I: Ideal, s: int) -> bool:
    return height(colon(a, I)) >= s


# ---------------------------------------------------------------------------
# the formula
# ---------------------------------------------------------------------------

def rhs_formula(I: Ideal, a_gens, subset_size: int) -> Ideal:
    """Fitt_0(I/a) plus the sum of (a_subset):I over all strictly increasing
    index subsets of the given size; size 0 means Fitt_0(I/a) + a."""
    s = len(a_gens)
    if subset_size > s:
        raise ValueError(f"subset size {subset_size} exceeds s = {s}")
    a = Ideal(I.ring, a_gens)
    result = fitt0_quotient(I, a)
    if subset_size == 0:
        return ideal_sum(result, a)
    return _add_colons(result, I, a_gens, subset_size)


def _add_colons(result: Ideal, I: Ideal, a_gens, size: int) -> Ideal:
    """result plus (a_subset):I over the strictly increasing index subsets
    of the given size, in lexicographic order."""
    for idx in combinations(range(len(a_gens)), size):
        result = ideal_sum(result, _subset_colon(I, a_gens, idx))
    return result


# ---------------------------------------------------------------------------
# the theorems
# ---------------------------------------------------------------------------

class Theorem:
    """One theorem's row.  `subset_size(mu, ht, s)` is the size of the index
    subsets whose colons (a_subset):I the right-hand side sums, or None
    when the right-hand side is the Kitt ideal; the sum starts from
    Fitt_0(I/a) when `adds_fitt0`, else from the zero ideal.  `hypotheses`
    are the theorem's own (name, test) lines: a test maps (mu, ht, s) to
    a bool, and None marks a line that is asserted, not computed."""

    __slots__ = ("subset_size", "adds_fitt0", "hypotheses")

    def __init__(self, subset_size, adds_fitt0: bool, hypotheses: tuple):
        self.subset_size, self.adds_fitt0, self.hypotheses = subset_size, adds_fitt0, hypotheses


_EXT1 = ("Ext^1(I/I^2, R/I) = 0", None)
_THM25 = Theorem(lambda n, g, s: max(0, min(n - 2, s)), True,
                 (("s >= mu(I)-2", lambda n, g, s: s >= n - 2),))

THEOREMS = {
    "thm25": _THM25,
    "cor31": Theorem(lambda n, g, s: 0, True,
                     (("complete intersection", lambda n, g, s: n == g),)),
    "cor32": Theorem(lambda n, g, s: 0, True,
                     (("almost complete intersection", lambda n, g, s: n == g + 1),)),
    "cor33": Theorem(lambda n, g, s: min(g, s), True,
                     (("mu(I) = g+2", lambda n, g, s: n == g + 2),
                      ("s >= g", lambda n, g, s: s >= g))),
    # the sum of the links alone, with no Fitting term
    "thm34": Theorem(lambda n, g, s: g, False,
                     (("s = g+1", lambda n, g, s: s == g + 1), _EXT1)),
    "cor35": Theorem(lambda n, g, s: min(g, s), True,
                     (("mu(I) = g+3", lambda n, g, s: n == g + 3),
                      ("s >= g+1", lambda n, g, s: s >= g + 1), _EXT1)),
    # the statement of Theorem 4.7 is not at hand, and until it can be read
    # the code reads it as Theorem 2.5: the same row, so the same check
    "thm47": _THM25,
    # the Kitt ideal, which holds Fitt_0(I/a) + a
    "kitt-eq": Theorem(None, True, ()),
}
THEOREM_IDS = tuple(THEOREMS)


def _theorem(theorem_id: str) -> Theorem:
    try:
        return THEOREMS[theorem_id]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem_id!r}") from None


def _subset_size(row: Theorem, I: Ideal, s: int):
    if row.subset_size is None:
        return None
    return row.subset_size(mu(I), height(I), s)


def is_tautological(theorem_id: str, I: Ideal, s: int) -> bool:
    """True when the theorem's right-hand side at this s sums the colons
    over subsets of size s: the one such subset is all of a, so the sum
    holds a:I itself and `equal` is guaranteed, proving nothing."""
    return _subset_size(_theorem(theorem_id), I, s) == s


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _hypothesis_checks(row: Theorem, inst: ResidualInstance) -> list:
    I, s = inst.I, inst.s
    n = mu(I)
    g = height(I)
    checks = [
        ("is_residual", _status(is_residual(inst.a, I, s))),
        ("height_ladder", _status(height_ladder_ok(inst.a_gens, I))),
        ("G_s", _status(check_Gs(I, s))),
    ]
    for name, test in row.hypotheses:
        checks.append((name, "asserted" if test is None else _status(test(n, g, s))))
    for name in FAMILY_ASSERTIONS.get(inst.family_tag, []):
        checks.append((name, "asserted"))
    return checks


def _right_hand_side(row: Theorem, inst: ResidualInstance) -> Ideal:
    """The theorem's right-hand side on the instance."""
    I, a_gens = inst.I, inst.a_gens
    size = _subset_size(row, I, inst.s)
    if size is None:
        return kitt(inst.a, I)
    if row.adds_fitt0:
        return rhs_formula(I, a_gens, size)
    return _add_colons(Ideal(I.ring, ()), I, a_gens, size)


def _compare(lhs: Ideal, rhs: Ideal) -> tuple:
    """(verdict, reduced basis elements of rhs): equal, lhs-strictly-larger
    or incomparable.  RHS inside LHS is checked by normal forms against
    LHS's basis; then `groebner_inside` stops RHS's run once its leads
    cover LHS's, and RHS equals LHS exactly when that happens."""
    lhs_gb = lhs.groebner().elements
    if not lhs.contains_ideal(rhs):
        return "incomparable", rhs.groebner().elements
    rhs_gb = groebner_inside(rhs, lhs).elements
    return ("equal" if rhs_gb == lhs_gb else "lhs-strictly-larger"), rhs_gb


def verify(theorem_id: str, inst: ResidualInstance) -> VerificationReport:
    """Compute LHS = a:I and the theorem's RHS, compare as ideals, and
    record hypothesis outcomes.  Computed hypothesis failures are hard
    errors; asserted ones are only reported."""
    row = _theorem(theorem_id)
    start = time.monotonic()
    checks = _hypothesis_checks(row, inst)
    failed = [name for name, status in checks if status == "fail"]
    if failed:
        raise HypothesisError(f"computed hypothesis failed: {', '.join(failed)}")

    lhs = colon(inst.a, inst.I)
    verdict, rhs_gb = _compare(lhs, _right_hand_side(row, inst))
    return VerificationReport(
        instance=inst.describe(),
        theorem_id=theorem_id,
        lhs_gb=[str(p) for p in lhs.groebner()],
        rhs_gb=[str(p) for p in rhs_gb],
        verdict=verdict,
        hypothesis_checks=checks,
        seed=inst.seed,
        timing=time.monotonic() - start,
    )
