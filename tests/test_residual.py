"""Generic-element selection, residual predicates, the RHS formula, and the
verification harness."""

import random
from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from residua import groebner, residual
from residua.corpus import FAMILIES, generate_corpus, generate_instance
from residua.field import GF32003
from residua.fitting import fitt0_quotient
from residua.groebner import reduced_groebner
from residua.ideals import Ideal, colon, height, ideal_equal, min_gens, mu
from residua.instances import format_instance, parse_instance
from residua.koszul import KoszulComplex, fitt0_via_Z1, homology_lifts, kitt, kitt_via_cycles
from residua.ring import PolyRing
from residua.residual import (
    THEOREM_IDS,
    THEOREMS,
    GenericityError,
    HypothesisError,
    ResidualInstance,
    generic_generators,
    height_ladder_ok,
    is_residual,
    is_tautological,
    rhs_formula,
    verify,
    _compare,
    _right_hand_side,
)

from conftest import parse_ideal


def test_generic_generators_maximal_ideal(R2):
    I = parse_ideal(R2, "x", "y")
    a_gens = generic_generators(I, 2, seed=5)
    assert len(a_gens) == 2
    assert all(I.contains(g) for g in a_gens)
    assert height(colon(Ideal(R2, a_gens[:1]), I)) >= 1
    assert height(colon(Ideal(R2, a_gens), I)) >= 2


def test_generic_generators_deterministic(R2):
    I = parse_ideal(R2, "x", "y")
    assert generic_generators(I, 2, seed=11) == generic_generators(I, 2, seed=11)
    assert generic_generators(I, 2, seed=11) != generic_generators(I, 2, seed=12)


def test_genericity_failure_is_reported(R2):
    # a:(x) always contains nothing of height 2 worth, so s = 2 must fail
    I = parse_ideal(R2, "x")
    with pytest.raises(GenericityError):
        generic_generators(I, 2, seed=0)
    # s = 12 > nvars = 3 draws no sequence that can pass
    with pytest.raises(GenericityError):
        parse_instance("vars = x, y, z\nI = x^2, x*y, x*z, y^2, y*z, z^2\ns = 12\n")


@pytest.mark.parametrize("s", [4, 10**6])
def test_generation_refuses_s_above_nvars_before_drawing(R3, monkeypatch, s):
    # no height exceeds nvars = 3, so no sequence of s > 3 elements can pass
    # the height ladder: the refusal comes before the first draw, whatever s
    draws = []
    monkeypatch.setattr(residual, "random_combination",
                        lambda *args: draws.append(args) or R3.zero)
    I = parse_ideal(R3, "x^2", "x*y", "y^2")
    with pytest.raises(GenericityError, match=rf"^s={s} exceeds nvars=3, .*height ladder"):
        generic_generators(I, s, seed=0)
    assert draws == []


def test_generic_generators_s_zero(R2):
    assert generic_generators(parse_ideal(R2, "x", "y"), 0) == []


def test_height_ladder(R2):
    I = parse_ideal(R2, "x", "y")
    good = (R2.parse("x^2"), R2.parse("y^2"))
    assert height_ladder_ok(good, I)
    bad = (R2.parse("x^2"), R2.parse("x*y"))  # (x^2, x*y):(x,y) has height 1
    assert not height_ladder_ok(bad, I)
    # no height exceeds nvars = 2, so s = 3 fails before any colon
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    assert not height_ladder_ok(good + (R2.parse("x^2 + x*y"),), I)
    assert [key for key in I._memo if key[0] == "colon"] == []


def test_verify_takes_every_ladder_colon_whatever_the_seed(monkeypatch):
    # I = (x, y, z, w, u, v) and a = six seeded linear forms: at s = 6
    # the ladder asks all 63 subset colons, sizes ascending and
    # each size in lexicographic order, and draws nothing: two seeds ask
    # the same colons and report the same lines; cor31's right-hand side
    # Fitt_0(I/a) + a takes no subset colon of its own
    R6 = PolyRing(GF32003, ("x", "y", "z", "w", "u", "v"))
    I = Ideal(R6, R6.gens)
    rng = random.Random(0)
    a_gens = tuple(R6.parse(" + ".join(f"{rng.randint(1, 100)}*{v}" for v in R6.variables))
                   for _ in range(6))
    every = [idx for size in range(1, 7) for idx in combinations(range(6), size)]
    asked = []
    subset_colon = residual._subset_colon
    monkeypatch.setattr(residual, "_subset_colon",
                        lambda I, a_gens, idx: asked.append(idx) or subset_colon(I, a_gens, idx))
    outcomes = []
    for seed in (0, 1):
        asked.clear()
        report = verify("cor31", ResidualInstance(I, a_gens, seed=seed, family_tag="ci"))
        assert asked == every
        outcomes.append((report.hypothesis_checks, report.verdict))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "equal"
    assert [status for _, status in outcomes[0][0]] == ["pass"] * 4 + ["asserted"]


def test_is_residual(R2):
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x^2", "y^2")
    assert is_residual(a, I, 2)


def test_is_residual_principal(R2):
    I = parse_ideal(R2, "x", "y")
    a = parse_ideal(R2, "x")
    assert is_residual(a, I, 1)


def test_rhs_formula_size_zero(R2):
    I = parse_ideal(R2, "x", "y")
    a_gens = (R2.parse("x^2"), R2.parse("y^2"))
    rhs = rhs_formula(I, a_gens, 0)
    assert ideal_equal(rhs, parse_ideal(R2, "x^2", "x*y", "y^2"))


def test_rhs_formula_m_squared(R2):
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    a_gens = (R2.parse("x^2"), R2.parse("y^2"))
    rhs = rhs_formula(I, a_gens, 1)
    assert ideal_equal(rhs, parse_ideal(R2, "x", "y"))


def test_rhs_formula_bad_size(R2):
    with pytest.raises(ValueError):
        rhs_formula(parse_ideal(R2, "x", "y"), (R2.parse("x^2"),), 2)


def test_verify_thm25_worked_instance(R2):
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    a_gens = (R2.parse("x^2"), R2.parse("y^2"))
    inst = ResidualInstance(I, a_gens, family_tag="power")
    report = verify("thm25", inst)
    assert report.verdict == "equal"
    assert sorted(report.lhs_gb, key=str) == sorted(report.rhs_gb, key=str)
    assert ("is_residual", "pass") in report.hypothesis_checks


def test_verify_kitt_eq(R2):
    I = parse_ideal(R2, "x", "y")
    a_gens = (R2.parse("x^2"), R2.parse("y^2"))
    inst = ResidualInstance(I, a_gens, family_tag="ci")
    report = verify("kitt-eq", inst)
    assert report.verdict == "equal"


def test_verify_cor31(R2):
    I = parse_ideal(R2, "x", "y")
    a_gens = (R2.parse("x^2"), R2.parse("y^2"))
    inst = ResidualInstance(I, a_gens, family_tag="ci")
    report = verify("cor31", inst)
    assert report.verdict == "equal"
    d = report.to_dict()
    assert d["verdict"] == "equal"
    assert {"name", "status"} <= set(d["hypotheses"][0])


def _routes(inst):
    """The Kitt routes as perfbench's kitt-routes workload runs them
    (`perfbench/workloads.routes_op`): the homology first, shared by all."""
    I, a = inst.I, inst.a
    H = homology_lifts(KoszulComplex(I.ring, min_gens(I)))
    kitt(a, I, H)
    kitt_via_cycles(a, I, H)
    fitt0_via_Z1(a, I, H)
    fitt0_quotient(I, a)


def test_no_engine_run_repeats_its_input(monkeypatch):
    # every Gröbner run that starts from an empty basis, keyed by its input
    # term tuples, runs once over one generation and one verify, or one
    # pass of the Kitt routes: a = I is rejected on the colon a : I that
    # the height ladder has memoized; check_Gs reads ht I from I's memo and
    # takes Fitting ideals only from j = ht I on, so it never builds
    # Fitt_j(I) + I for j < ht I; the homology of K(min_gens(I))
    # shares d_1's augmented basis with I, and the degree-1 lifts are d_1's
    # minimal syzygies, with no second run, when no boundary lies at or
    # below their degree
    runs = Counter()
    engine = groebner._groebner

    def counting(ring, divisors, new, **options):
        # keyed apart: runs with an input term off position 0 (a negative
        # int), and runs by the keyword options they are given, so that a
        # one-generator min_gens run (truncation) is not an ideal run
        # (stop) on the same generator
        new = list(new)
        if not divisors and new:
            module = any(t < 0 for terms in new for t, _ in terms)
            runs[ring, tuple(new), module, tuple(sorted(options))] += 1
        return engine(ring, divisors, new, **options)

    monkeypatch.setattr(groebner, "_groebner", counting)
    # cor32 reads the size-0 right-hand side Fitt_0(I/a) + a, thm34 the
    # colons alone
    for family, run in (("hb2", partial(verify, "thm25")), ("hb2", partial(verify, "kitt-eq")),
                        ("hb2", partial(verify, "cor32")), ("aci", partial(verify, "thm34")),
                        ("hb2", _routes)):
        runs.clear()
        run(generate_instance(family, 3))
        assert runs
        assert [key for key, count in runs.items() if count > 1] == []


def test_verify_rejects_failed_computed_hypothesis(R2):
    # I is not a complete intersection, so cor31's mu = height check fails
    I = parse_ideal(R2, "x^2", "x*y", "y^2")
    a_gens = (R2.parse("x^2"), R2.parse("y^2"))
    inst = ResidualInstance(I, a_gens)
    with pytest.raises(HypothesisError):
        verify("cor31", inst)


# the outcome of every theorem on the seed-0 instance of each family: its
# verdict, or the computed hypotheses that fail
SEED0_OUTCOMES = {
    "ci": {"cor32": ["almost complete intersection"], "cor33": ["mu(I) = g+2"],
           "thm34": ["s = g+1"], "cor35": ["mu(I) = g+3", "s >= g+1"]},
    # thm34 is an open finding: every computed hypothesis passes, yet the
    # sum of the links is strictly inside a : I; pinned as it stands
    "hb2": {"cor31": ["complete intersection"], "cor33": ["mu(I) = g+2"],
            "thm34": "lhs-strictly-larger", "cor35": ["mu(I) = g+3"]},
    "aci": {"cor31": ["complete intersection"], "cor33": ["mu(I) = g+2"],
            "thm34": ["s = g+1"], "cor35": ["mu(I) = g+3", "s >= g+1"]},
}
SEED0_OUTCOMES["power"] = SEED0_OUTCOMES["aci"]


@pytest.mark.parametrize("family", sorted(SEED0_OUTCOMES))
def test_every_theorem_on_the_seed0_instance(family):
    inst = generate_instance(family, 0)
    reports = {}
    for theorem in THEOREM_IDS:
        expected = SEED0_OUTCOMES[family].get(theorem, "equal")
        if isinstance(expected, list):
            with pytest.raises(HypothesisError) as exc:
                verify(theorem, inst)
            assert str(exc.value) == f"computed hypothesis failed: {', '.join(expected)}"
        else:
            reports[theorem] = verify(theorem, inst).to_dict()
            assert reports[theorem]["verdict"] == expected
    # thm47 is read as thm25: one document but for its theorem and timing
    for doc in (reports["thm25"], reports["thm47"]):
        del doc["theorem"], doc["timing_seconds"]
    assert reports["thm47"] == reports["thm25"]


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_reports_the_full_bases(family):
    # the right-hand side's run stops once its leads cover those of a : I;
    # the report holds what runs with no stop give, and the verdict of the
    # three-way rule on them
    for seed in range(6):
        fresh = generate_instance(family, seed)
        lhs = reduced_groebner(fresh.ring, colon(fresh.a, fresh.I).generators).elements
        for theorem in THEOREM_IDS:
            try:
                report = verify(theorem, generate_instance(family, seed))
            except HypothesisError:
                continue
            rhs = _right_hand_side(THEOREMS[theorem], fresh)
            rhs_gb = reduced_groebner(fresh.ring, rhs.generators).elements
            if rhs_gb == lhs:
                verdict = "equal"
            elif Ideal(fresh.ring, lhs).contains_ideal(rhs):
                verdict = "lhs-strictly-larger"
            else:
                verdict = "incomparable"
            assert report.lhs_gb == [str(p) for p in lhs]
            assert report.rhs_gb == [str(p) for p in rhs_gb]
            assert report.verdict == verdict


def test_verify_comparison_cases(R2):
    # hb2 seed 0, thm34: the sum of the links lies strictly inside a : I,
    # so its leads never cover a : I's and the run completes
    inst = generate_instance("hb2", 0)
    report = verify("thm34", inst)
    assert report.verdict == "lhs-strictly-larger"
    assert report.rhs_gb == [str(p) for p in reduced_groebner(
        inst.ring, _right_hand_side(THEOREMS["thm34"], generate_instance("hb2", 0)).generators)]
    assert report.rhs_gb != report.lhs_gb
    # a = I: s = 3 = mu(I) degree-matched general elements generate I, so
    # a : I = (1), which a unit lead of the right-hand side covers
    a_gens = tuple(generic_generators(inst.I, 3, seed=0))
    assert ideal_equal(Ideal(inst.ring, a_gens), inst.I)
    for theorem in ("thm25", "kitt-eq"):
        report = verify(theorem, ResidualInstance(inst.I, a_gens))
        assert report.lhs_gb == report.rhs_gb == ["1"]
        assert report.verdict == "equal"
    # a right-hand side outside the left: incomparable, with its own basis
    x, y = R2.gens
    assert _compare(Ideal(R2, (x,)), Ideal(R2, (y,))) == ("incomparable", (y,))
    assert _compare(Ideal(R2, (x, y)), Ideal(R2, (y,))) == ("lhs-strictly-larger", (y,))
    assert _compare(Ideal(R2, (x, y)), Ideal(R2, (y + x, x))) == ("equal", (y, x))


def test_verify_unknown_theorem(R2):
    inst = ResidualInstance(parse_ideal(R2, "x", "y"), (R2.parse("x^2"),))
    with pytest.raises(ValueError):
        verify("thm99", inst)


# --- instance files --------------------------------------------------------

INSTANCE_TEXT = """\
field = GF(32003)
vars = x, y
order = grevlex
I = x^2, x*y, y^2
a = x^2, y^2
family = power
seed = 3
"""


def test_parse_instance_roundtrip():
    inst = parse_instance(INSTANCE_TEXT)
    assert inst.s == 2
    assert inst.family_tag == "power"
    again = parse_instance(format_instance(inst))
    assert ideal_equal(again.I, inst.I)
    assert again.a_gens == inst.a_gens


def test_parse_instance_generic_s():
    text = INSTANCE_TEXT.replace("a = x^2, y^2", "s = 2")
    inst = parse_instance(text)
    assert len(inst.a_gens) == 2
    assert all(inst.I.contains(g) for g in inst.a_gens)


def test_parse_instance_rejects_bad_input():
    from residua.instances import InstanceParseError, InstanceValidationError

    with pytest.raises(InstanceParseError):
        parse_instance("vars = x, y\n")  # missing I and a/s
    with pytest.raises(InstanceParseError):
        parse_instance(INSTANCE_TEXT + "bogus = 1\n")
    with pytest.raises(InstanceValidationError):
        parse_instance(INSTANCE_TEXT.replace("a = x^2, y^2", "a = x"))


# --- corpus ---------------------------------------------------------------

def test_is_tautological_when_the_subset_size_is_s(R3):
    # mu = 4 and g = 2: thm25 and thm47 sum colons over subsets of size
    # min(mu - 2, s), cor33 and cor35 of size min(g, s), thm34 of size g
    I = parse_ideal(R3, "x^2", "x*y", "y^2", "x*z")
    assert (mu(I), height(I)) == (4, 2)
    expected = {
        1: {"thm25", "thm47", "cor33", "cor35"},
        2: {"thm25", "thm47", "cor33", "cor35", "thm34"},
        3: set(),
    }
    for s, tautological in expected.items():
        assert {t for t in THEOREM_IDS if is_tautological(t, I, s)} == tautological
    # the pair that rhs_formula builds at s = 2 holds a : I by construction
    a_gens = tuple(generic_generators(I, 2, seed=0))
    a = Ideal(R3, a_gens)
    assert rhs_formula(I, a_gens, 2).contains_ideal(colon(a, I))
    with pytest.raises(ValueError):
        is_tautological("thm99", I, 2)


def test_generate_instance_deterministic():
    a = generate_instance("power", 0)
    b = generate_instance("power", 0)
    assert format_instance(a) == format_instance(b)


def test_generate_corpus_families():
    for family in ("ci", "power"):
        for inst in generate_corpus(family, 2, seed=1):
            assert is_residual(inst.a, inst.I, inst.s)
            assert not ideal_equal(inst.a, inst.I)


def test_generate_instance_unknown_family():
    with pytest.raises(ValueError):
        generate_instance("nope", 0)
