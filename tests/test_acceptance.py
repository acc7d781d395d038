"""Acceptance gate: one test (and one pass/fail line) per criterion.

Each test asserts the mathematical property *and* its wall-clock budget;
run with -v for the per-criterion lines, -s to see the timing prints.
"""

import time
from itertools import product

import pytest

from residua.corpus import _DRAW, MAX_DRAWS, generate_corpus
from residua.field import GF32003
from residua.fitting import fitt0_quotient
from residua.ideals import Ideal, colon, height, ideal_equal, min_gens, mu
from residua.koszul import KoszulComplex, fitt0_via_Z1, homology_lifts, kitt, kitt_via_cycles
from residua.residual import (
    GenericityError,
    ResidualInstance,
    generic_generators,
    is_tautological,
    verify,
)
from residua.ring import PolyRing

from conftest import parse_ideal, seeded_rng
from oracles import d_squared_is_zero, oracle_member


def report(criterion, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status} in {elapsed:.2f}s (budget {budget:.0f}s){tail}")
    assert ok, f"criterion {criterion} failed{tail}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def R2():
    return PolyRing(GF32003, ("x", "y"))


@pytest.fixture(scope="module")
def ci_corpus():
    return generate_corpus("ci", 20, seed=100)


@pytest.fixture(scope="module")
def hb2_corpus():
    return generate_corpus("hb2", 10, seed=200)


@pytest.fixture(scope="module")
def mixed_corpus(ci_corpus, hb2_corpus):
    return (
        list(ci_corpus)
        + list(hb2_corpus)
        + generate_corpus("aci", 3, seed=300)
        + generate_corpus("power", 2, seed=400)
    )


def test_criterion_1_worked_colon_fitting_identity(R2):
    start = time.monotonic()
    a = parse_ideal(R2, "x^2", "y^2")
    I = parse_ideal(R2, "x", "y")
    target = parse_ideal(R2, "x^2", "x*y", "y^2")
    J = colon(a, I)
    from residua.ideals import ideal_sum

    rhs = ideal_sum(fitt0_quotient(I, a), a)
    ok = ideal_equal(J, target) and ideal_equal(rhs, target)
    report(1, ok, time.monotonic() - start, 1.0)


def test_criterion_2_thm25_worked_instance(R2):
    start = time.monotonic()
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    a_gens = (R2.parse("x^2"), R2.parse("y^2"))
    inst = ResidualInstance(R2, I, a_gens, 2, family_tag="power")
    rep = verify("thm25", inst)
    expected = parse_ideal(R2, "x", "y")
    ok = rep.verdict == "equal" and ideal_equal(colon(inst.a, I), expected)
    report(2, ok, time.monotonic() - start, 1.0)


def test_criterion_3_cor31_sweep(ci_corpus):
    start = time.monotonic()
    assert not any(is_tautological("cor31", inst.I, inst.s) for inst in ci_corpus)
    verdicts = [verify("cor31", inst).verdict for inst in ci_corpus]
    ok = len(verdicts) >= 20 and all(v == "equal" for v in verdicts)
    report(3, ok, time.monotonic() - start, 60.0, f"{len(verdicts)} instances")


def test_criterion_4_thm25_and_kitt_eq_on_hb2(hb2_corpus):
    start = time.monotonic()
    s_values = {inst.s for inst in hb2_corpus}
    ok = len(hb2_corpus) >= 10 and s_values == {2, 3}
    assert not any(is_tautological(theorem, inst.I, inst.s)
                   for inst in hb2_corpus for theorem in ("thm25", "kitt-eq"))
    for inst in hb2_corpus:
        ok = ok and verify("thm25", inst).verdict == "equal"
        ok = ok and verify("kitt-eq", inst).verdict == "equal"
    report(4, ok, time.monotonic() - start, 300.0, f"s values {sorted(s_values)}")


def test_criterion_5_kitt_consistency(mixed_corpus):
    start = time.monotonic()
    ok = True
    for inst in mixed_corpus:
        a, I = inst.a, inst.I
        K = kitt(a, I)
        F = fitt0_quotient(I, a)
        J = colon(a, I)
        ok = ok and K.contains_ideal(F) and J.contains_ideal(K)
        ok = ok and ideal_equal(K, kitt_via_cycles(a, I))
        ok = ok and ideal_equal(fitt0_via_Z1(a, I), F)
        if not ok:
            break
    report(5, ok, time.monotonic() - start, 300.0, f"{len(mixed_corpus)} instances")


def test_criterion_6_membership_oracle_equivalence():
    start = time.monotonic()
    rng = seeded_rng("criterion6")
    disagreements = 0
    checks = 0
    for trial in range(50):
        nvars = rng.choice([2, 3])
        ring = PolyRing(GF32003, ("x", "y", "z")[:nvars])
        gens = [_random_form(ring, rng.choice([1, 2]), rng) for _ in range(rng.choice([2, 3]))]
        I = Ideal(ring, gens)
        for _ in range(20):
            f = _random_poly(ring, 3, rng)
            checks += 1
            if I.contains(f) != oracle_member(f, gens):
                disagreements += 1
    ok = checks == 1000 and disagreements == 0
    report(6, ok, time.monotonic() - start, 120.0, f"{checks} checks, {disagreements} disagreements")


def test_criterion_7_koszul_structure(ci_corpus, hb2_corpus):
    start = time.monotonic()
    rng = seeded_rng("criterion7")
    ring = PolyRing(GF32003, ("x", "y", "z"))
    ok = True
    # d o d = 0 on random complexes with up to 4 generators
    for n in (2, 3, 4):
        gens = [_random_form(ring, rng.choice([1, 2]), rng) for _ in range(n)]
        K = KoszulComplex(ring, gens)
        for i in range(2, n + 1):
            ok = ok and d_squared_is_zero(K, i)
    # depth sensitivity: H_i = 0 above n - height(I) on corpus members
    for inst in list(ci_corpus)[:5] + list(hb2_corpus)[:5]:
        gens = min_gens(inst.I)
        K = KoszulComplex(inst.ring, gens)
        H = homology_lifts(K)
        bound = len(gens) - height(inst.I)
        for i in range(bound + 1, len(gens) + 1):
            ok = ok and H.lifts[i] == []
    report(7, ok, time.monotonic() - start, 60.0)


def test_criterion_8_genericity_robustness():
    start = time.monotonic()
    rng = seeded_rng("criterion8")
    successes = 0
    failures = 0
    total = 100
    for trial in range(total):
        family = "hb2" if trial % 2 else "ci"
        for _ in range(MAX_DRAWS):
            drawn = _DRAW[family](rng)
            if drawn is not None:
                break
        assert drawn is not None, f"no {family} draw within {MAX_DRAWS}"
        I, s = drawn
        degree = None
        if s >= mu(I):
            degree = max(g.total_degree() for g in min_gens(I)) + 1
        try:
            a_gens = generic_generators(I, s, seed=rng.randrange(1 << 30), degree=degree)
        except GenericityError:
            failures += 1
            continue
        # a returned sequence must genuinely be inside I with s members
        assert len(a_gens) == s and all(I.contains(g) for g in a_gens)
        successes += 1
    ok = successes + failures == total and successes >= 95
    report(8, ok, time.monotonic() - start, 300.0, f"{successes}/{total} succeeded")


# --- small seeded polynomial helpers (no dependence on the engine) ---------

def _random_form(ring, degree, rng):
    d = {}
    for expo in product(range(degree + 1), repeat=ring.nvars):
        if sum(expo) == degree and rng.random() < 0.8:
            d[ring.monomial(expo)] = ring.field.element(rng.randint(1, 32002))
    if not d:
        d[ring.monomial((degree,) + (0,) * (ring.nvars - 1))] = ring.field.one
    return ring.from_dict(d)


def _random_poly(ring, max_degree, rng):
    d = {}
    for _ in range(rng.randint(1, 4)):
        expo = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(ring.nvars)] += 1
        d[ring.monomial(expo)] = ring.field.element(rng.randint(1, 32002))
    return ring.from_dict(d)
