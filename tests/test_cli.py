"""End-to-end CLI behavior: subcommands, JSON documents, exit codes,
deterministic corpus output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from residua import GF32003, RATIONALS, PolyRing, __version__, reduced_groebner
from residua.cli import main
from residua.corpus import generate_instance
from residua.instances import format_instance
from residua.groebner import ResourceLimitError, set_step_limit

INSTANCE = """\
field = GF(32003)
vars = x, y
order = grevlex
I = x^2, x*y, y^2
a = x^2, y^2
family = power
seed = 3
"""

CI_INSTANCE = """\
vars = x, y
I = x, y
a = x^2, y^2
family = ci
"""

# I: the 2x2 minors of [[x, y + z], [y, x + 2*z], [z, x - y]]; a: the two
# general elements that `s = 2` with seed 1 draws over QQ, written out so that
# every field verifies the same a
QQ_HB2_INSTANCE = """\
field = QQ
vars = x, y, z
I = x^2 - y^2 + 2*x*z - y*z, x^2 - x*y - y*z - z^2, x*y - y^2 - x*z - 2*z^2
a = 91*x^2 + 25*x*y - 116*y^2 - 62*x*z - 91*y*z - 269*z^2, \
42*x^2 - 17*x*y - 25*y^2 + 2*x*z - 42*y*z - 65*z^2
family = hb2
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(INSTANCE)
    return str(path)


@pytest.fixture
def ci_file(tmp_path):
    path = tmp_path / "ci.txt"
    path.write_text(CI_INSTANCE)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_gb(instance_file, capsys):
    code, doc = run_json(capsys, ["gb", instance_file])
    assert code == 0
    assert sorted(doc["lhs"]) == ["x*y", "x^2", "y^2"]
    assert doc["version"].startswith("residua ")


def test_colon(instance_file, capsys):
    code, doc = run_json(capsys, ["colon", instance_file])
    assert code == 0
    assert sorted(doc["lhs"]) == ["x", "y"]


def test_fitt0(instance_file, capsys):
    code, doc = run_json(capsys, ["fitt0", instance_file])
    assert code == 0
    assert sorted(doc["lhs"]) == ["x", "y"]


def test_kitt(instance_file, capsys):
    code, doc = run_json(capsys, ["kitt", instance_file])
    assert code == 0
    assert sorted(doc["lhs"]) == ["x", "y"]


DOCUMENT_KEYS = {
    "instance", "theorem", "lhs", "rhs", "verdict", "hypotheses", "seed",
    "input_hash", "version",
}


@pytest.mark.parametrize(
    "argv", [["gb"], ["colon"], ["fitt0"], ["kitt"], ["verify", "thm25"]]
)
def test_document_shape(instance_file, capsys, argv):
    code, doc = run_json(capsys, argv + [instance_file])
    assert code == 0
    assert set(doc) == DOCUMENT_KEYS
    assert doc["instance"] == {
        "ring": "GF(32003)[x, y] (grevlex)",
        "I": ["x^2", "x*y", "y^2"],
        "a": ["x^2", "y^2"],
        "s": 2,
        "seed": 3,
        "family": "power",
    }
    assert doc["seed"] == 3
    assert doc["input_hash"] == hashlib.sha256(INSTANCE.encode()).hexdigest()[:16]
    assert doc["version"] == f"residua {__version__}"
    if argv[0] == "verify":
        assert doc["theorem"] == "thm25"
        assert doc["verdict"] == "equal"
        assert doc["rhs"] == doc["lhs"]
        assert "timing_seconds" not in doc and "rhs_contained_in_lhs" not in doc
    else:
        assert doc["theorem"] is None
        assert doc["rhs"] is None
        assert doc["verdict"] == "ok"
        assert doc["hypotheses"] == []


def test_verify_equal_exit_zero(instance_file, capsys):
    code, doc = run_json(capsys, ["verify", "thm25", instance_file])
    assert code == 0
    assert doc["verdict"] == "equal"
    assert doc["theorem"] == "thm25"
    assert any(h["name"] == "G_s" for h in doc["hypotheses"])


def test_verify_kitt_eq(ci_file, capsys):
    code, doc = run_json(capsys, ["verify", "kitt-eq", ci_file])
    assert code == 0
    assert doc["verdict"] == "equal"


def test_verify_thm25_over_qq_and_a_prime(tmp_path, capsys):
    path = tmp_path / "qq.txt"
    path.write_text(QQ_HB2_INSTANCE)
    leads = []
    for field, flags in ((RATIONALS, []), (GF32003, ["--field", "p32003"])):
        code, doc = run_json(capsys, ["verify", "thm25", str(path), *flags])
        assert code == 0
        assert doc["verdict"] == "equal"
        assert doc["instance"]["ring"].startswith(str(field))
        ring = PolyRing(field, ("x", "y", "z"))
        leads.append([ring.parse(p).lm() for p in doc["lhs"]])
    assert leads[0] == leads[1]


def test_verify_hypothesis_error_exit_one(instance_file, capsys):
    # cor31 needs a complete intersection; (x^2, x*y, y^2) is not one
    code = main(["verify", "cor31", instance_file])
    assert code == 1
    assert "hypothesis" in capsys.readouterr().err


def test_out_flag(instance_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["colon", instance_file, "--out", str(out)])
    assert code == 0
    assert sorted(json.loads(out.read_text())["lhs"]) == ["x", "y"]


def test_shared_flag_before_subcommand(instance_file, tmp_path):
    out = tmp_path / "r.json"
    code = main(["--out", str(out), "colon", instance_file])
    assert code == 0
    assert out.exists()


def test_field_override(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(CI_INSTANCE)
    code, doc = run_json(capsys, ["colon", str(path), "--field", "q"])
    assert code == 0
    assert doc["instance"]["ring"].startswith("QQ")


def test_field_move_rejects_residues_as_a(tmp_path, capsys):
    # a corpus file names GF(32003) and its a; read over another field,
    # a's residues mod 32003 would be another a, in general outside I
    text = format_instance(generate_instance("hb2", 0))
    path = tmp_path / "hb2.txt"
    path.write_text(text)
    for field in ("q", "p7"):
        assert main(["colon", str(path), "--field", field]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --field ") and "`s = N`" in err
        assert "not contained" not in err
    # the same field is no move, and `s = N` draws a over the new field
    assert main(["colon", str(path), "--field", "p32003"]) == 0
    capsys.readouterr()
    path.write_text("".join("s = 2\n" if line.startswith("a =") else line
                            for line in text.splitlines(keepends=True)))
    code, doc = run_json(capsys, ["colon", str(path), "--field", "q"])
    assert code == 0 and doc["instance"]["ring"].startswith("QQ")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time on every `residua` run; modules that the
    # interpreter's start-up already loaded do not count
    code = ("import sys; before = set(sys.modules); import residua.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("field", ["GF(0)", "p0", "p00"])
def test_characteristic_zero_prime_spelling_rejected(tmp_path, capsys, field):
    path = tmp_path / "inst.txt"
    path.write_text(f"vars = x, y\nfield = {field}\nI = x, y\na = x^2, y^2\n")
    assert main(["colon", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 2" in err and "characteristic 0" in err
    path.write_text(CI_INSTANCE)
    assert main(["colon", str(path), "--field", field]) == 1
    assert "characteristic 0" in capsys.readouterr().err


def test_unknown_theorem_rejected_before_the_file_is_read(capsys):
    # a missing file must not hide the bad theorem id
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus", "/nonexistent/file.txt"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_missing_file_exit_one(capsys):
    assert main(["gb", "/nonexistent/file.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_instance_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("vars = x, y\nI = x +* y\na = x\n")
    assert main(["gb", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line, lineno",
    [("s = abc", 3), ("s = 2.5", 3), ("s = -1", 3), ("s = 1\nseed = q", 4)],
)
def test_bad_integer_reports_its_line(tmp_path, capsys, bad_line, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(f"vars = x, y\nI = x^2, x*y, y^2\n{bad_line}\n")
    assert main(["gb", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"line {lineno}" in err


@pytest.mark.parametrize("names", ["x, 2y", "x, x^2", "x y", ",", "x, x"])
def test_bad_vars_line_reports_its_line(tmp_path, capsys, names):
    path = tmp_path / "bad.txt"
    path.write_text(f"vars = {names}\nI = x\na = x\n")
    assert main(["colon", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 1" in err


def test_zero_ideal_has_no_general_elements(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("vars = x, y\nI = 0\ns = 1\n")
    assert main(["colon", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "I has no nonzero generator" in err


def test_max_steps_limit(instance_file, capsys):
    assert main(["colon", instance_file, "--max-steps", "1"]) == 1
    assert "resource-limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gb", "{file}", "--max-steps", "-5"],
    ["corpus", "hb2", "-2"],
    ["corpus", "hb2", "1", "--max-steps", "-1"],
    ["corpus", "hb2", "two"],
])
def test_negative_counts_rejected_when_parsed(instance_file, capsys, argv):
    # a negative budget or corpus size is a usage error: exit 2 before any work
    with pytest.raises(SystemExit) as exc:
        main([arg.format(file=instance_file) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err


@pytest.mark.parametrize("count", ["-2", "0", "two"])
def test_sweep_rejects_counts_below_one(count):
    # a sweep over no instances checks nothing: a usage error, exit 2
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_sweep.py"
    proc = subprocess.run([sys.executable, str(script), "--count", count],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument --count" in proc.stderr


def test_zero_max_steps_is_a_budget(instance_file, capsys):
    assert main(["colon", instance_file, "--max-steps", "0"]) == 1
    assert "resource-limit: exceeded 0 S-pair reductions" in capsys.readouterr().err
    assert main(["corpus", "hb2", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_max_steps_does_not_leak(instance_file, capsys):
    ring = PolyRing(GF32003, ("x", "y", "z"))
    gens = [ring.parse(t) for t in ("x^2 + y*z", "y^2 + x*z", "z^2 + x*y")]
    previous = set_step_limit(1)
    try:
        with pytest.raises(ResourceLimitError):
            reduced_groebner(gens)   # the ideal needs more than one step
    finally:
        set_step_limit(previous)
    assert main(["colon", instance_file, "--max-steps", "1"]) == 1
    capsys.readouterr()
    assert len(reduced_groebner(gens)) > len(gens)


def test_corpus_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        assert main(["corpus", "power", "2", "--out", str(path)]) == 0
        outs.append(path.read_text())
    assert outs[0] == outs[1]
    assert outs[0].count("family = power") == 2


def test_corpus_to_stdout(capsys):
    assert main(["corpus", "power", "1"]) == 0
    assert "I = " in capsys.readouterr().out
