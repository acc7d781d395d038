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
    height,
    ideal_equal,
    ideal_sum,
    min_gens,
    mu,
)
from .fitting import check_Gs, fitt0_quotient
from .koszul import kitt

THEOREM_IDS = ("thm25", "cor31", "cor32", "cor33", "thm34", "cor35", "thm47", "kitt-eq")

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


class _Record:
    """Value semantics for a slotted class: equal when every slot is, a
    repr that lists them, and unhashable (the records are mutable)."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())) + ")"


class ResidualInstance(_Record):
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


class VerificationReport(_Record):
    """The outcome of `verify`; `verdict` is equal, lhs-strictly-larger or
    incomparable."""

    __slots__ = ("instance", "theorem_id", "lhs_gb", "rhs_gb", "verdict",
                 "hypothesis_checks", "rhs_contained_in_lhs", "seed", "timing")

    def __init__(self, instance: dict, theorem_id: str, lhs_gb: list, rhs_gb: list,
                 verdict: str, hypothesis_checks: list = None,
                 rhs_contained_in_lhs: bool = False, seed: int = 0, timing: float = 0.0):
        self.instance, self.theorem_id = instance, theorem_id
        self.lhs_gb, self.rhs_gb, self.verdict = lhs_gb, rhs_gb, verdict
        self.hypothesis_checks = [] if hypothesis_checks is None else hypothesis_checks
        self.rhs_contained_in_lhs, self.seed, self.timing = rhs_contained_in_lhs, seed, timing

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
            "rhs_contained_in_lhs": self.rhs_contained_in_lhs,
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


# height_ladder_ok tests every subset when s <= LADDER_SAMPLE_LIMIT, and
# otherwise 2s sampled subsets of each size
LADDER_SAMPLE_LIMIT = 5
# sequences generic_generators draws before it raises GenericityError
GENERIC_RETRIES = 8


def height_ladder_ok(a_gens, I: Ideal, rng=None) -> bool:
    """Height ladder: height((a_subset):I) >= |subset| for every
    subset (exhaustive for s <= LADDER_SAMPLE_LIMIT, sampled otherwise)."""
    s = len(a_gens)
    ring = I.ring
    for size in range(1, s + 1):
        subsets = list(combinations(range(s), size))
        if s > LADDER_SAMPLE_LIMIT and rng is not None and len(subsets) > 2 * s:
            subsets = rng.sample(subsets, 2 * s)
        for idx in subsets:
            sub = Ideal(ring, tuple(a_gens[i] for i in idx))
            J = colon(sub, I)
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
    scalar combinations would regenerate I itself)."""
    if s == 0:
        return []
    if s < 0:
        raise ValueError("s must be non-negative")
    ring = I.ring
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
        if ok and height_ladder_ok(a_gens, I, rng):
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


def is_geometric(a: Ideal, I: Ideal, s: int) -> bool:
    J = colon(a, I)
    return height(ideal_sum(I, J)) >= s + 1


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
        sub = Ideal(I.ring, tuple(a_gens[i] for i in idx))
        result = ideal_sum(result, colon(sub, I))
    return result


def links_in_formula(I: Ideal, a_gens, g: int) -> list:
    """Per g-subset: complete-intersection check (height == g), the colon
    term, and full linkage verification a_sub:(a_sub:I) == I."""
    ring = I.ring
    out = []
    for idx in combinations(range(len(a_gens)), g):
        sub = Ideal(ring, tuple(a_gens[i] for i in idx))
        ci = height(sub) == g
        term = colon(sub, I)
        linked = False
        degenerate = term.is_unit()
        if ci and not degenerate and not term.is_zero():
            linked = ideal_equal(colon(sub, term), I)
        out.append(
            {
                "subset": list(idx),
                "link_candidate": ci,
                "colon": [str(p) for p in term.groebner().elements],
                "link_verified": linked,
                "degenerate": degenerate,
            }
        )
    return out


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def _rhs_subset_size(theorem_id: str, I: Ideal, s: int):
    """The size of the index subsets whose colons (a_subset):I the theorem's
    right-hand side sums at this s; None for kitt-eq, which has none."""
    n = mu(I)
    g = height(I)
    if theorem_id in ("thm25", "thm47"):
        return max(0, min(n - 2, s))
    if theorem_id in ("cor31", "cor32"):
        return 0
    if theorem_id in ("cor33", "cor35"):
        return min(g, s)
    if theorem_id == "thm34":
        return g
    if theorem_id == "kitt-eq":
        return None
    raise ValueError(f"unknown theorem id {theorem_id!r}")


def is_tautological(theorem_id: str, I: Ideal, s: int) -> bool:
    """True when the theorem's right-hand side at this s sums the colons
    over subsets of size s: the one such subset is all of a, so the sum
    holds a:I itself and `equal` is guaranteed, proving nothing."""
    return _rhs_subset_size(theorem_id, I, s) == s


def _rhs_for(theorem_id: str, inst: ResidualInstance):
    I, a_gens = inst.I, inst.a_gens
    size = _rhs_subset_size(theorem_id, I, inst.s)
    if theorem_id == "kitt-eq":
        return kitt(inst.a, I)
    if theorem_id == "thm34":
        # pure sum of links, no Fitting term
        return _add_colons(Ideal(I.ring, ()), I, a_gens, size)
    return rhs_formula(I, a_gens, size)


def _hypothesis_checks(theorem_id: str, inst: ResidualInstance, rng) -> list:
    I, a_gens, s = inst.I, inst.a_gens, inst.s
    n = mu(I)
    g = height(I)
    checks = []
    a = inst.a
    checks.append(("is_residual", "pass" if is_residual(a, I, s) else "fail"))
    checks.append(
        ("height_ladder", "pass" if height_ladder_ok(a_gens, I, rng) else "fail")
    )
    checks.append(("G_s", "pass" if check_Gs(I, s) else "fail"))
    if theorem_id in ("thm25", "thm47"):
        checks.append(("s >= mu(I)-2", "pass" if s >= n - 2 else "fail"))
    if theorem_id == "cor31":
        checks.append(("complete intersection", "pass" if n == g else "fail"))
    if theorem_id == "cor32":
        checks.append(("almost complete intersection", "pass" if n == g + 1 else "fail"))
    if theorem_id == "cor33":
        checks.append(("mu(I) = g+2", "pass" if n == g + 2 else "fail"))
        checks.append(("s >= g", "pass" if s >= g else "fail"))
    if theorem_id == "thm34":
        checks.append(("s = g+1", "pass" if s == g + 1 else "fail"))
        checks.append(("Ext^1(I/I^2, R/I) = 0", "asserted"))
    if theorem_id == "cor35":
        checks.append(("mu(I) = g+3", "pass" if n == g + 3 else "fail"))
        checks.append(("s >= g+1", "pass" if s >= g + 1 else "fail"))
        checks.append(("Ext^1(I/I^2, R/I) = 0", "asserted"))
    for name in FAMILY_ASSERTIONS.get(inst.family_tag, []):
        checks.append((name, "asserted"))
    return checks


def verify(theorem_id: str, inst: ResidualInstance) -> VerificationReport:
    """Compute LHS = a:I and the theorem's RHS, compare as ideals, and
    record hypothesis outcomes.  Computed hypothesis failures are hard
    errors; asserted ones are only reported."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    start = time.monotonic()
    rng = random.Random(inst.seed)
    checks = _hypothesis_checks(theorem_id, inst, rng)
    failed = [name for name, status in checks if status == "fail"]
    if failed:
        raise HypothesisError(f"computed hypothesis failed: {', '.join(failed)}")

    lhs = colon(inst.a, inst.I)
    rhs = _rhs_for(theorem_id, inst)
    lhs_gb = lhs.groebner().elements
    rhs_gb = rhs.groebner().elements
    rhs_in_lhs = all(lhs.contains(p) for p in rhs.generators)
    if lhs_gb == rhs_gb:
        verdict = "equal"
    elif rhs_in_lhs:
        verdict = "lhs-strictly-larger"
    else:
        verdict = "incomparable"
    return VerificationReport(
        instance=inst.describe(),
        theorem_id=theorem_id,
        lhs_gb=[str(p) for p in lhs_gb],
        rhs_gb=[str(p) for p in rhs_gb],
        verdict=verdict,
        hypothesis_checks=checks,
        rhs_contained_in_lhs=rhs_in_lhs,
        seed=inst.seed,
        timing=time.monotonic() - start,
    )
