#!/usr/bin/env python3
"""Sweep a corpus family through one or more theorem checks.

Usage:
    python3 scripts/run_sweep.py --family hb2 --count 10 --theorems thm25,kitt-eq
    python3 scripts/run_sweep.py --family ci --count 20 --out sweep.json

Prints one line per (instance, theorem) with the verdict and timing, plus a
summary.  A pair whose right-hand side sums the colons over subsets of size
s holds a : I by construction (`residual.is_tautological`); it is skipped and
counted apart, never as a pass.  Exit code: 2 on any non-equal verdict,
otherwise 3 if any pair was skipped, otherwise 0.
"""

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from residua.corpus import FAMILIES, generate_corpus  # noqa: E402
from residua.residual import THEOREM_IDS, is_tautological, verify  # noqa: E402

DEFAULT_THEOREMS = {
    "ci": "cor31",
    "hb2": "thm25,kitt-eq",
    "aci": "cor32",
    "power": "thm25",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=FAMILIES, default="hb2")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--theorems", help="comma-separated theorem ids")
    ap.add_argument("--out", help="write full JSON reports here")
    args = ap.parse_args()
    if args.count < 1:
        ap.error(f"argument --count: must be at least 1, got {args.count}")

    theorems = (args.theorems or DEFAULT_THEOREMS[args.family]).split(",")
    for t in theorems:
        if t not in THEOREM_IDS:
            ap.error(f"unknown theorem {t!r}; choose from {THEOREM_IDS}")

    start = time.monotonic()
    instances = generate_corpus(args.family, args.count, seed=args.seed)
    print(f"generated {len(instances)} {args.family} instances "
          f"in {time.monotonic() - start:.1f}s")

    verdicts = Counter()
    skipped = 0
    reports = []
    for k, inst in enumerate(instances):
        for theorem in theorems:
            if is_tautological(theorem, inst.I, inst.s):
                skipped += 1
                print(f"  [{k:3d}] s={inst.s} {theorem:8s} skipped: tautological")
                continue
            rep = verify(theorem, inst)
            verdicts[rep.verdict] += 1
            reports.append(rep.to_dict())
            print(f"  [{k:3d}] s={inst.s} {theorem:8s} {rep.verdict:22s} "
                  f"{rep.timing:6.2f}s")

    print(f"\nverdicts: {dict(verdicts)}  tautological (skipped): {skipped}  "
          f"total {time.monotonic() - start:.1f}s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    if not set(verdicts) <= {"equal"}:
        return 2
    return 3 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
