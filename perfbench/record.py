"""Record the benchmark's input pool and output digests into pool.json.

    python3 perfbench/record.py

For every corpus family and instance seed in the pool it records the
draw's `s`, the digest of the generated instance, the digests of each op
the workloads run on it (verify bases, Kitt/Fitt_0 bases, CLI bases), and
the work each op did: its calls into the polynomial layer, counted by
the tracer, which repeat exactly (CLI ops, which run in children, record
their seconds instead).  The work serves only to rank seeds into cost
strata; the digests are the expected outputs a run checks against.
Seeds already in pool.json are kept and missing ones added; delete
pool.json to record afresh, which is only right when the program's
outputs are meant to change.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import residua  # noqa: E402,F401  (loaded before the tracer installs)
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    OUT,
    POOL_PATH,
    THEOREMS,
    bases_digest,
    cli_document,
    cli_instance_text,
    cli_op,
    generate,
    instance_digest,
    routes_digest,
    routes_op,
    verify_op,
)

POOL_SIZES = {"ci": 240, "hb2": 720, "aci": 240, "power": 150}
VERIFY_SEEDS = 360    # hb2 seeds below this also record the verify ops
CLI_POOL_SIZE = 60


def record_family(family, count, entries, tracer):
    def work(fn, *args):
        before = tracer.ring_calls()
        out = fn(*args)
        tracer.clear_spans()
        return out, tracer.ring_calls() - before

    for seed in range(count):
        if str(seed) in entries:
            continue
        inst, gen_work = work(generate, family, seed)
        e = {"s": inst.s, "instance": instance_digest(inst), "gen_work": gen_work}
        if family == "hb2" and seed < VERIFY_SEEDS:
            e["verify_work"] = 0
            for theorem in THEOREMS:
                report, w = work(verify_op, inst, theorem)
                if report.verdict != "equal":
                    raise SystemExit(f"hb2 seed {seed} {theorem}: verdict {report.verdict}")
                e[theorem] = bases_digest(report.lhs_gb, report.rhs_gb)
                e["verify_work"] += w
        if family in ("hb2", "aci", "power"):
            (bad, K, F), e["routes_work"] = work(routes_op, inst)
            if bad:
                raise SystemExit(f"{family} seed {seed}: {bad}")
            e["routes"] = routes_digest(K, F)
        entries[str(seed)] = e
        print(family, seed, e, flush=True)


def record_cli(count, entries):
    OUT.mkdir(exist_ok=True)
    for seed in range(count):
        if str(seed) in entries:
            continue
        text, s = cli_instance_text(seed)
        path = OUT / f"record-cli-{seed}.txt"
        path.write_text(text)
        e = {"s": s, "cost_s": 0.0}
        for theorem in THEOREMS:
            t0 = time.perf_counter()
            proc = cli_op(path, theorem)
            dt = time.perf_counter() - t0
            doc = cli_document(proc)
            if proc.returncode != 0 or doc is None or doc["verdict"] != "equal":
                raise SystemExit(f"cli seed {seed} {theorem}: exit {proc.returncode} {proc.stderr}")
            e["cost_s"] = round(e["cost_s"] + dt, 4)
            # degenerate draws (a = I) get no digest: they count as failed ops
            e[theorem] = None if doc["lhs"] == ["1"] else bases_digest(doc["lhs"], doc["rhs"])
        path.unlink()
        entries[str(seed)] = e
        print("cli", seed, e, flush=True)


def main():
    pool = {"families": {}, "cli": {"hb2": {}}}
    if POOL_PATH.exists():
        pool = json.loads(POOL_PATH.read_text())
    tracer = Tracer()
    tracer.install()
    for family, count in POOL_SIZES.items():
        record_family(family, count, pool["families"].setdefault(family, {}), tracer)
    record_cli(CLI_POOL_SIZE, pool["cli"]["hb2"])
    POOL_PATH.write_text(json.dumps(pool, indent=0, sort_keys=True) + "\n")
    print(f"wrote {POOL_PATH}")


if __name__ == "__main__":
    main()
