"""Byte-identity of the program's outputs, pinned by SHA-256 digests.

`golden_digests.json` holds one digest per output:
- the `format_instance` text of the seed-0 corpus instance of each family;
- the exit code, stdout and stderr of `residua gb|colon|fitt0|kitt FILE`
  and of `residua verify THEOREM FILE` for every theorem id, run on that
  instance's file with its `a`, and on the same file with the `a` line
  replaced by `s = N` under `--field q`;
- for the hb2 and aci instances, the same for `gb`, `colon`, `fitt0`,
  `kitt`, `verify thm25` and `verify kitt-eq` on the file with its `a`
  rewritten with `order = lex` and with `order = block(1)`.

Only a change that is meant to change outputs regenerates the file, with

    PYTHONPATH=src python tests/test_golden.py

and it says so in CHANGES.md. Every other change leaves it as it is.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from residua.cli import IDEAL_COMMANDS, main
from residua.corpus import FAMILIES, generate_instance
from residua.instances import format_instance
from residua.residual import THEOREM_IDS

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return _sha(f"{code}\n{out.getvalue()}\n{err.getvalue()}")


ORDERS = (("lex", "lex"), ("block1", "block(1)"))
ORDER_FAMILIES = ("hb2", "aci")
ORDER_COMMANDS = [[cmd] for cmd in IDEAL_COMMANDS] + [["verify", "thm25"], ["verify", "kitt-eq"]]


def digests(directory) -> dict:
    """The digest of every pinned output; instance files go in `directory`."""
    commands = [[cmd] for cmd in IDEAL_COMMANDS] + [["verify", t] for t in THEOREM_IDS]
    out = {}
    for family in FAMILIES:
        inst = generate_instance(family, 0)
        text = format_instance(inst)
        out[f"format/{family}"] = _sha(text)
        s_text = "".join(f"s = {inst.s}\n" if line.startswith("a =") else line
                         for line in text.splitlines(keepends=True))
        for variant, body, flags in (("a", text, []), ("s-q", s_text, ["--field", "q"])):
            path = Path(directory) / f"{family}-{variant}.txt"
            path.write_text(body)
            for cmd in commands:
                out[f"{family}/{variant}/{' '.join(cmd)}"] = _run(cmd + [str(path)] + flags)
        if family not in ORDER_FAMILIES:
            continue
        for variant, order in ORDERS:
            path = Path(directory) / f"{family}-{variant}.txt"
            path.write_text(text.replace("order = grevlex\n", f"order = {order}\n"))
            for cmd in ORDER_COMMANDS:
                out[f"{family}/{variant}/{' '.join(cmd)}"] = _run(cmd + [str(path)])
    return out


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    assert [k for k in expected if actual[k] != expected[k]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(tmp), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
