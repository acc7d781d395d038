"""The four benchmark workloads: seeded input selection, set-up, timed ops
and output checks.

Inputs come from a recorded pool (`pool.json`, written by `record.py`):
per corpus family and instance seed it holds the draw's `s`, the work of
each op on that seed (used only to rank seeds) and the digests of the
outputs.  A run draws a stratified sample from the pool: for every slot
group of the workload, the eligible seeds are sorted by recorded work and
cut into equal strata, and the run's `--seed` picks one seed from the
middle eighth of each stratum.
Every run therefore does about the same amount of work on different
inputs, and every output has a recorded digest to be checked against.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
POOL_PATH = BENCH_DIR / "pool.json"

THEOREMS = ("thm25", "kitt-eq")
CLI_CHILD = BENCH_DIR / "cli_child.py"


def digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# ops (shared with record.py so recorded digests come from the same code);
# program functions are imported at call time so that, once the tracer is
# installed, the calls go through its wrappers
# ---------------------------------------------------------------------------

def generate(family: str, seed: int):
    from residua.corpus import generate_instance

    return generate_instance(family, seed)


def _format(inst) -> str:
    from residua.instances import format_instance

    return format_instance(inst)


def instance_digest(inst) -> str:
    return digest([_format(inst)])


def verify_op(inst, theorem: str):
    from residua.residual import verify

    return verify(theorem, inst)


def bases_digest(lhs, rhs) -> str:
    """Digest of two reduced bases given as generator strings."""
    return digest(list(lhs) + ["|"] + list(rhs))


def routes_op(inst):
    """The Kitt routes on one instance, sharing one homology computation.

    Returns (failed identities, Kitt ideal, Fitt_0 ideal)."""
    from residua.fitting import fitt0_quotient
    from residua.ideals import ideal_equal, min_gens
    from residua.koszul import (
        KoszulComplex,
        fitt0_via_Z1,
        homology_lifts,
        kitt,
        kitt_via_cycles,
    )

    a, I = inst.a, inst.I
    H = homology_lifts(KoszulComplex(I.ring, min_gens(I)))
    K = kitt(a, I, H)
    K_cycles = kitt_via_cycles(a, I, H)
    F_z1 = fitt0_via_Z1(a, I, H)
    F = fitt0_quotient(I, a)
    bad = []
    if not ideal_equal(K, K_cycles):
        bad.append("kitt != kitt_via_cycles")
    if not ideal_equal(F, F_z1):
        bad.append("fitt0_quotient != fitt0_via_Z1")
    if not K.contains_ideal(F):
        bad.append("Fitt_0 not inside Kitt")
    return bad, K, F


def routes_digest(K, F) -> str:
    return bases_digest(
        [str(p) for p in K.groebner().elements], [str(p) for p in F.groebner().elements]
    )


def cli_instance_text(seed: int):
    """An hb2 instance file over QQ: I is the ideal of 2x2 minors of a
    3x2 matrix of linear forms with small integer coefficients, and `s`
    leaves the choice of `a` to the CLI.  Returns (text, s)."""
    from residua.field import FieldSpec
    from residua.fitting import minors
    from residua.ideals import height, mu
    from residua.ring import PolyRing

    ring = PolyRing(FieldSpec(0), ("x", "y", "z"))
    rng = random.Random(f"perfbench:cli-qq:{seed}")

    def linear_form():
        return sum((v.scale(rng.randint(1, 9)) for v in ring.gens), ring.zero)

    while True:
        I = minors(ring, [[linear_form() for _ in range(2)] for _ in range(3)], 2)
        if mu(I) == 3 and height(I) == 2:
            break
    s = rng.choice([2, 3])
    text = (
        "field = QQ\nvars = x, y, z\norder = grevlex\n"
        f"I = {', '.join(str(g) for g in I.generators)}\n"
        f"s = {s}\nfamily = hb2\nseed = {seed}\n"
    )
    return text, s


def cli_op(path: Path, theorem: str, trace_to: Path = None):
    """`residua verify THEOREM FILE` in a fresh interpreter."""
    if trace_to is None:
        cmd = [sys.executable, "-m", "residua.cli", "verify", theorem, str(path)]
    else:
        cmd = [sys.executable, str(CLI_CHILD), str(trace_to), "verify", theorem, str(path)]
    return subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120
    )


def cli_document(proc):
    """The JSON document a CLI run printed, or None."""
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def layer_probe(out_dir: Path):
    """One cheap op through every traced layer on a fixed power instance
    (about 0.1 s), run at the start of each traced run so that every
    layer's metrics are measured on every workload."""
    import residua.cli
    from residua.groebner import set_step_limit

    inst = generate("power", 0)
    routes_op(inst)
    verify_op(inst, "thm25")
    path, doc = out_dir / "probe-instance.txt", out_dir / "probe-verify.json"
    path.write_text(_format(inst))
    residua.cli.main(["verify", "thm25", str(path), "--out", str(doc)])
    set_step_limit(None)    # the CLI sets a process-wide limit; undo it
    path.unlink()
    doc.unlink()


# ---------------------------------------------------------------------------
# seeded stratified selection
# ---------------------------------------------------------------------------

def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def stratified(rng, entries, count):
    """One entry from each of `count` equal strata of the entries sorted
    by recorded cost, taken from the middle eighth of its stratum, so
    that every seed's sample has nearly the same cost profile (the pools'
    costs are heavy-tailed); raises if the pool is too small."""
    if count > len(entries):
        raise SystemExit(
            f"pool holds {len(entries)} eligible seeds, {count} needed; "
            "lower --seconds or extend the pool with record.py"
        )
    ranked = sorted(entries, key=lambda e: (e["cost"], e["seed"]))
    n = len(ranked)
    half = n // (16 * count)
    picks = []
    for i in range(count):
        mid = (2 * i + 1) * n // (2 * count)
        picks.append(rng.choice(ranked[mid - half:mid + half + 1]))
    return picks


class Workload:
    """A workload is `units` repetitions of a fixed slot composition.

    `groups` lists (pool section, family, allowed s values, slots per
    unit).  A run's ops run in passes that fill `--seconds`; the first
    `min_passes` passes should take about `share` of it.  The number of
    units follows from those and `unit_s`, the timed seconds one unit took
    on a 2-core Xeon VM under Python 3.11 when the benchmark was defined
    (between its quiet and its loaded periods).  A given `--seconds`
    therefore always selects the same amount of input, whatever the speed
    of the program.  Units are split into `rounds`; each round sets up its
    own inputs, so set-up is measured several times in a run."""

    name = ""
    why = ""
    groups = ()
    cost_key = ""      # the pool field that ranks seeds into strata
    unit_s = 1.0
    min_passes = 2
    share = 0.7
    rounds = 3
    uses_children = False

    def __init__(self, pool: dict, seed: int, seconds: float):
        self.units = max(1, round(seconds * self.share / (self.min_passes * self.unit_s)))
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        per_group = []
        for section, family, s_values, per_unit in self.groups:
            entries = [
                dict(e, seed=int(k), family=family)
                for k, e in pool[section][family].items()
                if e["s"] in s_values and self.cost_key in e
            ]
            for e in entries:
                e["cost"] = e[self.cost_key]
            per_group.append((stratified(rng, entries, per_unit * self.units), per_unit))
        # unit u takes strata u, u + units, ... so each unit spans the cost range
        units = []
        for u in range(self.units):
            slots = []
            for picks, per_unit in per_group:
                slots.extend(picks[u + k * self.units] for k in range(per_unit))
            units.append(slots)
        n_rounds = min(self.rounds, self.units)
        self.round_inputs = [
            [e for unit in units[r::n_rounds] for e in unit] for r in range(n_rounds)
        ]
        self.n_ops = sum(len(self.ops_of(e)) for r in self.round_inputs for e in r)

    def ops_of(self, entry):
        return [None]

    def setup(self, entries):
        """Prepare one round's inputs; returns a list of (entry, input)
        and a list of check failures."""
        return [(e, None) for e in entries], []

    def run_op(self, entry, prepared, variant, trace_to=None):
        """Run one op; returns (timed seconds, check failure or None,
        degenerate-input message or None)."""
        raise NotImplementedError

    def teardown(self, rounds):
        """Release the inputs of every round."""


def generate_checked(entries):
    """Set-up shared by the in-process workloads: generate each entry's
    instance and check it against its recorded digest."""
    prepared, bad = [], []
    for e in entries:
        inst = generate(e["family"], e["seed"])
        d = instance_digest(inst)
        if d != e["instance"]:
            bad.append(f"{e['family']} seed {e['seed']}: generated instance digest {d}")
        prepared.append((e, inst))
    return prepared, bad


class Hb2Verify(Workload):
    name = "hb2-verify"
    why = ("in-process verify thm25 and kitt-eq on hb2 instances; "
           "colon inputs repeat about 3x, so a colon memo or cached invariants show here")
    # two s = 2 instances per s = 3 one: the median op is a short s = 2
    # verify, which the machine's slow spells move less than a long one
    groups = (("families", "hb2", (3,), 1), ("families", "hb2", (2,), 2))
    cost_key = "verify_work"
    unit_s = 1.8
    share = 0.47

    def ops_of(self, entry):
        return THEOREMS

    def setup(self, entries):
        return generate_checked(entries)

    def run_op(self, entry, inst, theorem, trace_to=None):
        t0 = time.perf_counter()
        report = verify_op(inst, theorem)
        dt = time.perf_counter() - t0
        where = f"hb2 seed {entry['seed']} {theorem}"
        if report.verdict != "equal":
            return dt, f"{where}: verdict {report.verdict}", None
        if bases_digest(report.lhs_gb, report.rhs_gb) != entry[theorem]:
            return dt, f"{where}: digest mismatch", None
        return dt, None, None


class CorpusGen(Workload):
    name = "corpus-gen"
    why = ("generate_instance over ci and hb2 seeds with retries; "
           "colon inputs are mostly distinct, so a memo shows no gain and kernel gains do")
    groups = (("families", "ci", (2, 3), 1), ("families", "hb2", (2, 3), 1))
    cost_key = "gen_work"
    unit_s = 0.6

    def run_op(self, entry, _prepared, _variant, trace_to=None):
        t0 = time.perf_counter()
        inst = generate(entry["family"], entry["seed"])
        dt = time.perf_counter() - t0
        if instance_digest(inst) != entry["instance"]:
            return dt, f"{entry['family']} seed {entry['seed']}: instance digest mismatch", None
        return dt, None, None


class KittRoutes(Workload):
    name = "kitt-routes"
    why = ("homology_lifts then kitt, kitt_via_cycles, fitt0_via_Z1 and fitt0_quotient; "
           "no colon, the module Groebner engine does most of the work")
    groups = (
        ("families", "hb2", (2,), 3),
        ("families", "aci", (2,), 1),
        ("families", "power", (2,), 1),
    )
    cost_key = "routes_work"
    unit_s = 0.33
    share = 0.18    # short ops: few of them, each run many times

    def setup(self, entries):
        return generate_checked(entries)

    def run_op(self, entry, inst, _variant, trace_to=None):
        t0 = time.perf_counter()
        bad, K, F = routes_op(inst)
        dt = time.perf_counter() - t0
        where = f"{entry['family']} seed {entry['seed']}"
        if bad:
            return dt, f"{where}: {', '.join(bad)}", None
        if routes_digest(K, F) != entry["routes"]:
            return dt, f"{where}: routes digest mismatch", None
        return dt, None, None


class CliQQ(Workload):
    name = "cli-qq"
    why = ("residua verify as a subprocess on QQ instance files with s = 2 or 3; "
           "pays start-up, parsing and Fraction growth on every op")
    groups = (("cli", "hb2", (2,), 1), ("cli", "hb2", (3,), 1))
    cost_key = "cost_s"
    unit_s = 1.9
    share = 0.75    # any less leaves too few ops for a tail beyond the median
    uses_children = True

    def ops_of(self, entry):
        return THEOREMS

    def setup(self, entries):
        OUT.mkdir(exist_ok=True)
        prepared = []
        for e in entries:
            text, _s = cli_instance_text(e["seed"])
            path = OUT / f"cli-qq-{os.getpid()}-{e['seed']}.txt"
            path.write_text(text)
            prepared.append((e, path))
        return prepared, []

    def teardown(self, rounds):
        for prepared in rounds:
            for _e, path in prepared:
                path.unlink(missing_ok=True)

    def run_op(self, entry, path, theorem, trace_to=None):
        t0 = time.perf_counter()
        proc = cli_op(path, theorem, trace_to)
        dt = time.perf_counter() - t0
        doc = cli_document(proc)
        where = f"cli seed {entry['seed']} s={entry['s']} {theorem}"
        if proc.returncode != 0 or doc is None:
            return dt, f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}", None
        if doc["verdict"] != "equal":
            return dt, f"{where}: verdict {doc['verdict']}", None
        if doc["lhs"] == ["1"]:
            # a : I is the unit ideal exactly when a = I: the CLI's choice of
            # general elements regenerated I instead of a proper subideal
            return dt, None, f"{where}: a = I (a : I = (1))"
        expected = entry[theorem]
        if expected is not None and bases_digest(doc["lhs"], doc["rhs"]) != expected:
            return dt, f"{where}: digest mismatch", None
        return dt, None, None


WORKLOADS = {w.name: w for w in (Hb2Verify, CorpusGen, KittRoutes, CliQQ)}
