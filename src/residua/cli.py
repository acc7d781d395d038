"""Command-line entry point.

residua gb|colon|fitt0|kitt FILE
residua verify THEOREM FILE
residua corpus FAMILY COUNT
with --seed, --field, --max-steps, --out.

Exit codes: 0 success, 2 verify verdict not equal, 1 any error; a
command line that argparse rejects, an unknown theorem id or `--field`
on `corpus` included, exits 2 before any file is read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .field import GF32003
from .groebner import ResourceLimitError, set_step_limit
from .ideals import colon
from .fitting import fitt0_quotient
from .koszul import kitt
from .instances import format_instance, parse_field, parse_instance
from .corpus import FAMILIES, GenerationError, generate_corpus
from .residual import THEOREM_IDS, GenericityError, verify

DEFAULT_MAX_STEPS = 200000


# the subcommands that print one ideal of the instance: its reduced basis
# becomes the document's `lhs`
IDEAL_COMMANDS = {
    "gb": lambda inst: inst.I,
    "colon": lambda inst: colon(inst.a, inst.I),
    "fitt0": lambda inst: fitt0_quotient(inst.I, inst.a),
    "kitt": lambda inst: kitt(inst.a, inst.I),
}


def _write(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path, args):
    """The instance in the file under the `--field` and `--seed` overrides,
    and its input hash: the digest of the file with its `field` lines
    replaced by one naming the override, put first, and its `seed` lines
    by one put last."""
    with open(path) as fh:
        text = fh.read()
    field = parse_field(args.field) if args.field else None
    inst = parse_instance(text, field, args.seed)
    if field is not None:
        text = "\n".join(
            line for line in text.splitlines() if not line.strip().startswith("field")
        )
        text = f"field = {field}\n" + text
    if args.seed is not None:
        text = "\n".join(
            line for line in text.splitlines() if not line.strip().startswith("seed")
        )
        text += f"\nseed = {args.seed}\n"
    return inst, hashlib.sha256(text.encode()).hexdigest()[:16]


def run_command(args) -> int:
    previous = set_step_limit(args.max_steps)
    try:
        return _dispatch(args)
    finally:
        set_step_limit(previous)


def _dispatch(args) -> int:
    if args.command == "corpus":
        instances = generate_corpus(args.family, args.count, seed=args.seed or 0)
        _write("".join(format_instance(inst) + "\n" for inst in instances), args.out)
        return 0

    inst, digest = _load_instance(args.file, args)
    if args.command == "verify":
        report = verify(args.theorem, inst)
        doc = report.to_dict()
        # a timing would make the document differ between runs
        del doc["timing_seconds"]
        code = 0 if report.verdict == "equal" else 2
    else:
        code = 0
        ideal = IDEAL_COMMANDS[args.command](inst)
        doc = {
            "instance": inst.describe(),
            "theorem": None,
            "lhs": [str(p) for p in ideal.groebner().elements],
            "rhs": None,
            "verdict": "ok",
            "hypotheses": [],
            "seed": inst.seed,
        }
    doc["input_hash"] = digest
    doc["version"] = f"residua {__version__}"
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return code


_OPTION_DEFAULTS = {
    "seed": None,
    "field": None,
    "max_steps": DEFAULT_MAX_STEPS,
    "out": None,
}


def _nonnegative(text) -> int:
    """An argument that must be an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # the shared flags use SUPPRESS so a subparser never clobbers a value
    # given before the subcommand; defaults are filled in afterwards
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--field", default=argparse.SUPPRESS, help="q for rationals or pP, e.g. p32003"
    )
    common.add_argument("--max-steps", type=_nonnegative, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(prog="residua", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in IDEAL_COMMANDS:
        p = sub.add_parser(cmd, parents=[common])
        p.add_argument("file")
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("theorem", choices=THEOREM_IDS)
    p.add_argument("file")
    p = sub.add_parser("corpus", parents=[common])
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("count", type=_nonnegative)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "corpus" and hasattr(args, "field"):
        parser.error(f"argument --field: corpus draws every family over {GF32003}")
    for name, default in _OPTION_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return run_command(args)
    except ResourceLimitError as exc:
        print(f"resource-limit: {exc}", file=sys.stderr)
        return 1
    except (GenericityError, GenerationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
