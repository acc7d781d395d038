"""Command-line entry point.

residua gb|colon|fitt0|kitt FILE
residua verify THEOREM FILE
residua corpus FAMILY COUNT
with --seed, --field, --max-steps, --out.

Exit codes: 0 success, 2 verify verdict not equal, 1 any error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .groebner import ResourceLimitError, set_step_limit
from .ideals import colon
from .fitting import fitt0_quotient
from .koszul import kitt
from .instances import (
    InstanceParseError,
    InstanceValidationError,
    format_instance,
    parse_field,
    parse_instance,
)
from .corpus import FAMILIES, GenerationError, generate_corpus
from .residual import GenericityError, HypothesisError, verify

DEFAULT_MAX_STEPS = 200000


def _document(instance, theorem, lhs, rhs, verdict, hypotheses, seed, input_hash):
    return {
        "instance": instance,
        "theorem": theorem,
        "lhs": lhs,
        "rhs": rhs,
        "verdict": verdict,
        "hypotheses": hypotheses,
        "seed": seed,
        "input_hash": input_hash,
        "version": f"residua {__version__}",
    }


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path, args):
    with open(path) as fh:
        text = fh.read()
    if args.field:
        spec = parse_field(args.field)
        text = "\n".join(
            line for line in text.splitlines() if not line.strip().startswith("field")
        )
        text = f"field = {spec}\n" + text
    if args.seed is not None:
        text = "\n".join(
            line for line in text.splitlines() if not line.strip().startswith("seed")
        )
        text += f"\nseed = {args.seed}\n"
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return parse_instance(text), digest


def _gb_strings(ideal):
    return [str(p) for p in ideal.groebner().elements]


def run_command(args) -> int:
    previous = set_step_limit(args.max_steps)
    try:
        return _dispatch(args)
    finally:
        set_step_limit(previous)


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "corpus":
        instances = generate_corpus(args.family, args.count, seed=args.seed or 0)
        text = "".join(
            format_instance(inst) + "\n" for inst in instances
        )
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    inst, digest = _load_instance(args.file, args)
    if cmd == "gb":
        doc = _document(
            inst.describe(), None, _gb_strings(inst.I), None, "ok", [], inst.seed, digest
        )
        _emit(doc, args.out)
        return 0
    if cmd == "colon":
        result = colon(inst.a, inst.I)
        doc = _document(
            inst.describe(), None, _gb_strings(result), None, "ok", [], inst.seed, digest
        )
        _emit(doc, args.out)
        return 0
    if cmd == "fitt0":
        result = fitt0_quotient(inst.I, inst.a)
        doc = _document(
            inst.describe(), None, _gb_strings(result), None, "ok", [], inst.seed, digest
        )
        _emit(doc, args.out)
        return 0
    if cmd == "kitt":
        result = kitt(inst.a, inst.I)
        doc = _document(
            inst.describe(), None, _gb_strings(result), None, "ok", [], inst.seed, digest
        )
        _emit(doc, args.out)
        return 0
    if cmd == "verify":
        report = verify(args.theorem, inst)
        rd = report.to_dict()
        doc = _document(
            rd["instance"],
            rd["theorem"],
            rd["lhs"],
            rd["rhs"],
            rd["verdict"],
            rd["hypotheses"],
            rd["seed"],
            digest,
        )
        _emit(doc, args.out)
        return 0 if report.verdict == "equal" else 2
    raise ValueError(f"unknown command {cmd!r}")


_OPTION_DEFAULTS = {
    "seed": None,
    "field": None,
    "max_steps": DEFAULT_MAX_STEPS,
    "out": None,
}


def build_parser() -> argparse.ArgumentParser:
    # the shared flags use SUPPRESS so a subparser never clobbers a value
    # given before the subcommand; defaults are filled in afterwards
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--field", default=argparse.SUPPRESS, help="q for rationals or pP, e.g. p32003"
    )
    common.add_argument("--max-steps", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(prog="residua", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("gb", "colon", "fitt0", "kitt"):
        p = sub.add_parser(cmd, parents=[common])
        p.add_argument("file")
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("theorem")
    p.add_argument("file")
    p = sub.add_parser("corpus", parents=[common])
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("count", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in _OPTION_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return run_command(args)
    except ResourceLimitError as exc:
        print(f"resource-limit: {exc}", file=sys.stderr)
        return 1
    except (
        InstanceParseError,
        InstanceValidationError,
        HypothesisError,
        GenericityError,
        GenerationError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
