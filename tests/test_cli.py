"""Command-line interface: exit codes, output formats, golden comparison,
and determinism."""

import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import correlpoly
from correlpoly import exact_hull, quantum
from correlpoly.cli import main

from oracles import rotated_mermin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- states ----------------------------------------------------------------

def test_states_pentagon(capsys):
    code, out = run(capsys, "states", "builtin:pentagon")
    assert code == 0
    assert out.splitlines()[0] == "11 states"


def test_states_zero_exit_code(capsys):
    code, out = run(capsys, "states", "builtin:cabello18")
    assert code == 2
    assert "0 states" in out
    assert "parity certificate" in out


@pytest.mark.parametrize("fmt", ["table", "json", "dd"])
@pytest.mark.parametrize("logic, certified", [("cabello18", True), ("yu-oh", False)])
def test_states_none_exit_2_in_every_format(capsys, fmt, logic, certified):
    # cabello18 has a parity certificate; yu-oh has no state and none
    code, out = run(capsys, "states", f"builtin:{logic}", "--format", fmt)
    assert code == 2
    if fmt == "json":
        doc = json.loads(out)
        assert doc["count"] == 0 and ("parity_certificate" in doc) == certified
    else:
        assert ("parity certificate: " in out) == certified
    assert "V-representation" not in out


def test_states_json(capsys):
    code, out = run(capsys, "states", "builtin:firefly", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5 and len(doc["states"]) == 5


def test_states_json_parity(capsys):
    code, out = run(capsys, "states", "builtin:cabello18", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["parity_certificate"]["contexts"] == 9


def test_states_check_separating(capsys):
    code, out = run(capsys, "states", "builtin:gamma3", "--check-separating")
    assert code == 0
    assert "(a1,b1)" in out and "(a7,b7)" in out
    code, out = run(capsys, "states", "builtin:pentagon", "--check-separating")
    assert "separating" in out


def test_states_dd_format(capsys):
    code, out = run(capsys, "states", "builtin:firefly", "--format", "dd")
    assert code == 0
    assert "V-representation" in out and out.count("\n 1  ") == 5


def test_states_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.logic"
    bad.write_text("nonsense\n")
    assert run(capsys, "states", str(bad))[0] == 1
    assert run(capsys, "states", "builtin:missing")[0] == 1


# --- hull -------------------------------------------------------------------

def test_hull_preset_against_golden(capsys):
    code, _ = run(capsys, "hull", "--logic", "builtin:epr-2x2",
                  "--terms", "preset:chsh-expect", "--golden", "builtin:chsh-2x2")
    assert code == 0


def test_hull_golden_canonicalizes_each_side_once(capsys, monkeypatch):
    # hull() returns the canonical form, so only the golden file needs it
    calls = []
    canonicalize = exact_hull.canonicalize
    monkeypatch.setattr(exact_hull, "canonicalize", lambda h: calls.append(h) or canonicalize(h))
    code, _ = run(capsys, "hull", "--logic", "builtin:epr-2x2",
                  "--terms", "preset:chsh-expect", "--golden", "builtin:chsh-2x2")
    assert code == 0 and len(calls) == 2


def test_hull_golden_with_equation_also_as_inequality(capsys, tmp_path):
    # a golden file may list an equation both as a linearity and as an
    # inequality (either orientation); such a row holds on the whole affine
    # hull and does not change the polytope
    golden = exact_hull.parse_dd(
        (resources.files("correlpoly.data") / "golden" / "bug-edge-expect.ine").read_text())
    (lin,) = golden.linearities
    padded = exact_hull.HRep(golden.dimension,
                             golden.inequalities + (lin, tuple(-x for x in lin)),
                             golden.linearities)
    f = tmp_path / "padded.ine"
    f.write_text(exact_hull.emit_dd(padded))
    code = main(["hull", "--logic", "builtin:specker-bug", "--terms", "preset:bug-edge-expect",
                 "--golden", str(f)])
    assert code == 0
    assert "golden match" in capsys.readouterr().err


def test_hull_facet_count(capsys):
    code, out = run(capsys, "hull", "--logic", "builtin:epr-2x2",
                    "--terms", "preset:chsh-expect")
    assert code == 0
    assert out.count("\n") - out.count("*") >= 16


def test_hull_golden_mismatch_exit_3(capsys, tmp_path):
    wrong = tmp_path / "wrong.ine"
    wrong.write_text("H-representation\nbegin\n 2 5 real\n 1 1 0 0 0\n 5 1 1 1 1\nend\n")
    code, out = run(capsys, "hull", "--logic", "builtin:epr-2x2",
                    "--terms", "preset:chsh-expect", "--golden", str(wrong))
    assert code == 3
    assert "only in computed" in out and "only in golden" in out


def test_hull_reverse(capsys, tmp_path):
    out_file = tmp_path / "kcbs.ine"
    code, _ = run(capsys, "hull", "--logic", "builtin:pentagon",
                  "--terms", "preset:pentagon-pair-expect",
                  "--output", str(out_file))
    assert code == 0
    code, out = run(capsys, "hull", "--input", str(out_file), "--reverse")
    assert code == 0
    assert "V-representation" in out


def test_hull_reverse_reversed_rows_against_golden(capsys, tmp_path):
    # the rows of epr-2x3-full.ine reversed: in that order an unsorted
    # double description ran for minutes
    golden = (resources.files("correlpoly.data") / "golden" / "epr-2x3-full.ine").read_text()
    h = exact_hull.parse_dd(golden)
    f = tmp_path / "reversed.ine"
    f.write_text(exact_hull.emit_dd(exact_hull.HRep(h.dimension, h.inequalities[::-1],
                                                    h.linearities[::-1])))
    code, _ = run(capsys, "hull", "--input", str(f), "--reverse",
                  "--golden", "builtin:epr-2x3-full")
    assert code == 0


def test_hull_reverse_requires_h_rep(capsys, tmp_path):
    f = tmp_path / "v.ext"
    f.write_text("V-representation\nbegin\n 1 2 real\n 1 0\nend\n")
    assert run(capsys, "hull", "--input", str(f), "--reverse")[0] == 1


@pytest.mark.parametrize("text, message", [
    ("H-representation\nlinearity\nbegin\n 1 2 real\n 1 0\nend\n",
     "line 2: linearity count must be an integer, got ''"),
    ("H-representation\nbegin\n 1\n 1 0\nend\n",
     "line 3: expected '<rows> <cols> <type>', got '1'"),
    ("H-representation\nbegin\n",
     "line 2: expected '<rows> <cols> <type>' after begin"),
    ("H-representation\nlinearity 1 5\nbegin\n 1 2 real\n 1 0\nend\n",
     "line 2: linearity row 5 is outside 1..1"),
    ("H-representation\nbegin\n 2 2 real\n 1 0\n\n 1 x\nend\n",
     "line 6: 'x' is not a rational number"),
    ("H-representation\nbegin\n 1 2 real\n 1 1/0\nend\n",
     "line 4: '1/0' is not a rational number"),
])
def test_hull_malformed_dd_exit_1(capsys, tmp_path, text, message):
    f = tmp_path / "f.ine"
    f.write_text(text)
    assert main(["hull", "--input", str(f), "--reverse"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_hull_huge_exponent_exit_1(capsys, tmp_path):
    # read exactly, 1e1000000000 would take hours: the exponent is bounded
    f = tmp_path / "f.ine"
    f.write_text("H-representation\nbegin\n 2 2 real\n 1e1000000000 -1\n 0 1\nend\n")
    start = time.perf_counter()
    assert main(["hull", "--input", str(f), "--reverse"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 4: '1e1000000000' has an exponent outside -4300..4300"]


@pytest.mark.parametrize("reverse", [True, False], ids=["h-to-v", "v-to-h"])
def test_hull_prints_values_of_4301_digits(capsys, tmp_path, reverse):
    # 10**4300 is past the 4300 digits that str() of an int writes
    big = 10**4300
    if reverse:
        f = tmp_path / "f.ine"
        f.write_text("H-representation\nbegin\n 2 2 real\n 0 1\n 1e4300 -1\nend\n")
    else:
        f = tmp_path / "f.ext"
        f.write_text("V-representation\nbegin\n 2 2 real\n 1 0\n 1 1e4300\nend\n")
    code, out = run(capsys, "hull", "--input", str(f), *(["--reverse"] if reverse else []))
    assert code == 0
    assert " 1" + "0" * 4300 in out
    back = exact_hull.parse_dd(out)
    if reverse:
        assert sorted(back.points) == [(0,), (big,)]
    else:
        assert sorted(back.inequalities) == [(0, 1), (big, -1)]


def test_messages_write_values_of_4301_digits(capsys, tmp_path):
    big = "1" + "0" * 4300
    f = tmp_path / "f.ext"
    f.write_text("V-representation\nbegin\n 2 2 real\n 1 0\n 1 1e4300\nend\n")
    code, out = run(capsys, "hull", "--input", str(f), "--golden", "builtin:one-var")
    assert code == 3
    assert f"  only in computed inequality: {big} -1" in out.splitlines()
    f.write_text(f"V-representation\nbegin\n 1 2 real\n {big} 0\nend\n")
    assert main(["hull", "--input", str(f)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: line 4: V-row leading marker must be 1, got {big}"]


def test_hull_token_of_too_many_digits_exit_1(capsys, tmp_path):
    f = tmp_path / "f.ine"
    tok = "1" * 4400
    f.write_text(f"H-representation\nbegin\n 2 2 real\n 0 1\n {tok} -1\nend\n")
    assert main(["hull", "--input", str(f), "--reverse"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: line 5: '{tok}' has more than 4301 digits"]


def test_hull_noncontextual(capsys):
    code, out = run(capsys, "hull", "--logic", "builtin:pentagon",
                    "--noncontextual", "--golden", "builtin:pentagon-noncontextual")
    assert code == 0


def test_hull_argument_errors(capsys):
    assert run(capsys, "hull")[0] == 1
    assert run(capsys, "hull", "--logic", "builtin:pentagon")[0] == 1


def test_hull_deterministic_output(capsys):
    _, a = run(capsys, "hull", "--logic", "builtin:pentagon",
               "--terms", "preset:bub-stairs")
    _, b = run(capsys, "hull", "--logic", "builtin:pentagon",
               "--terms", "preset:bub-stairs")
    assert a == b


def test_hull_unknown_term_atom_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.terms"
    bad.write_text("term p1 prob a1\nterm p2 prob zz\n")
    assert main(["hull", "--logic", "builtin:two-obs", "--terms", str(bad)]) == 1
    assert "line 2: unknown atom 'zz'" in capsys.readouterr().err


# --- quantum ----------------------------------------------------------------

def test_quantum_chsh(capsys):
    code, out = run(capsys, "quantum", "--preset", "chsh")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lambda_max"] - 2 * math.sqrt(2)) <= 1e-9
    assert len(doc["eigenvalues"]) == 4


def test_quantum_optimize(capsys):
    code, out = run(capsys, "quantum", "--preset", "chsh", "--optimize")
    doc = json.loads(out)
    assert abs(doc["optimized"]["lambda_max"] - 2 * math.sqrt(2)) <= 1e-6
    # the norm bound 4 is above Tsirelson's 2*sqrt(2): never reached
    assert doc["optimized"]["upper_bound"] == 4.0
    assert doc["optimized"]["certified"] is False


@pytest.mark.parametrize("seed", [0, 1])
def test_quantum_optimize_reports_evaluations(capsys, tmp_path, seed):
    # the first start is at the maximum, which is the norm bound 4: the
    # search ends after one stack of the first and the STARTS random starts
    f = tmp_path / "mermin.op"
    f.write_text(rotated_mermin(seed))
    code, out = run(capsys, "quantum", "--expr", str(f), "--optimize")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["eigenvalues"][-1] - 4) <= 1e-9
    assert abs(doc["optimized"]["lambda_max"] - 4) <= 1e-9
    assert doc["optimized"]["evaluations"] == 1 + quantum.STARTS
    assert doc["optimized"]["certified"] is True


def test_quantum_optimize_kcbs_certified(capsys):
    code, out = run(capsys, "quantum", "--preset", "kcbs", "--optimize")
    opt = json.loads(out)["optimized"]
    assert code == 0
    assert abs(opt["lambda_max"] - 5) <= 1e-9
    assert opt["upper_bound"] == 5.0
    assert opt["certified"] is True


def test_quantum_kcbs(capsys):
    code, out = run(capsys, "quantum", "--preset", "kcbs")
    doc = json.loads(out)
    assert len(doc["eigenvalues"]) == 9
    assert abs(min(doc["eigenvalues"]) + 2.49546) <= 1e-4


def test_quantum_state_projection(capsys):
    code, out = run(capsys, "quantum", "--preset", "chsh",
                    "--param", "t4=-0.7853981633974483", "--state", "psi-minus")
    doc = json.loads(out)
    assert abs(doc["projection"] + 2 * math.sqrt(2)) <= 1e-9


@pytest.mark.parametrize("param", ["a", "a=", "=1"])
def test_quantum_param_needs_name_and_value(capsys, param):
    assert main(["quantum", "--preset", "chsh", "--param", param]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --param expects NAME=VALUE, got {param!r}"]


def test_quantum_expr_file(capsys, tmp_path):
    f = tmp_path / "op.expr"
    f.write_text("sites 1\nterm 2 A@1\nbind A spin 1/2 0 0\n")
    code, out = run(capsys, "quantum", "--expr", str(f))
    doc = json.loads(out)
    assert doc["eigenvalues"] == [-1.0, 1.0]


def test_quantum_zero_eigenvalue_prints_positive_zero(capsys, tmp_path):
    f = tmp_path / "op.expr"
    f.write_text("sites 1\nterm 0 A@1\nbind A spin 1/2 0 0\n")
    code, out = run(capsys, "quantum", "--expr", str(f))
    assert code == 0 and "-0.0" not in out
    assert json.loads(out)["eigenvalues"] == [0.0, 0.0]


@pytest.mark.parametrize("terms, message", [
    # 1e308 + 1e308 overflows to an infinite entry
    ("term 1e308 A@1\nterm 1e308 A@1\n", "error: matrix has a NaN or infinite entry"),
    # finite entries of 1.7e308, eigenvalues of +-2.4e308
    ("term 1.7e308 Z@1\nterm 1.7e308 Z@1\nterm 1.7e308 X@1\nterm 1.7e308 X@1\n",
     "error: an eigenvalue exceeds the float range"),
])
def test_quantum_non_finite_exit_1(capsys, tmp_path, terms, message):
    f = tmp_path / "op.expr"
    f.write_text("sites 1\n" + terms + "bind A spin 1 0 0\nbind Z spin 1/2 0 0\n"
                 "bind X spin 1/2 1.5707963267948966 0\n")
    assert main(["quantum", "--expr", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]


def test_quantum_errors(capsys):
    assert run(capsys, "quantum")[0] == 1
    assert run(capsys, "quantum", "--preset", "nope")[0] == 1


@pytest.mark.parametrize("term", ["term 1 x@1 y@0", "term 1 x@1 y@3"])
def test_quantum_site_out_of_range_exit_1(capsys, tmp_path, term):
    f = tmp_path / "op.expr"
    f.write_text(f"sites 2\n{term}\nbind x spin 1/2 0 0\nbind y spin 1/2 0 0\n")
    assert main(["quantum", "--expr", str(f)]) == 1
    assert "line 2: site of" in capsys.readouterr().err


@pytest.mark.parametrize("text, lineno", [
    ("sites\n", 1),
    ("sites 1\nparam t\n", 2),
    ("sites 1\nterm 1 x@1\nbind x spin 1/2 0\n", 3),
    ("sites 1\nterm 1 x@1\nbind x spin\n", 3),
    ("sites 1\nterm 1 x@1\nbind x proj builtin:cabello18\n", 3),
    ("sites 1\nterm 1 x@1\nbind x spin 1/2 $t 0\n", 3),
    ("sites x\n", 1),
    ("sites 1\nparam t abc\n", 2),
    ("sites 1\nterm abc x@1\n", 2),
    ("sites 0\n", 1),
    ("sites 1\nterm 1 x@1\nsites 2\n", 3),
    ("sites 1\nparam t 0\nparam t 1\n", 3),
    ("sites 1\nbind x spin 1/2 0 0\nbind x spin 1/2 0 1\n", 3),
    ("sites 1\nterm 1 x@1 y@1\nbind x spin 1/2 0 0\nbind y spin 1/2 0 0\n", 2),
    ("sites 1\nterm 1e999 x@1\nbind x spin 1/2 0 0\n", 2),
])
def test_quantum_malformed_expr_exit_1(capsys, tmp_path, text, lineno):
    f = tmp_path / "op.expr"
    f.write_text(text)
    assert main(["quantum", "--expr", str(f)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {lineno}: ")


@pytest.mark.parametrize("expr, vec, message", [
    ("sites 1\nterm 1 A@1\nbind A proj f.vec a\n", "dim 3\nvector a 1 0\n",
     "error: line 3: f.vec line 2: expected 3 coordinates"),
    ("sites 2\nbind A spin 1/2 0 0\nterm 1 A@1 A@2\nterm 1 A@1 B@2\nterm 1 B@1 B@2\n", None,
     "error: line 4: unbound labels ['B']"),
])
def test_quantum_expr_error_names_its_line(capsys, tmp_path, expr, vec, message):
    f = tmp_path / "op.expr"
    f.write_text(expr)
    if vec is not None:
        (tmp_path / "f.vec").write_text(vec)
    assert main(["quantum", "--expr", str(f)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


# --- verify -----------------------------------------------------------------

def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "--logic", "builtin:cabello18",
                    "--vectors", "builtin:cabello18")
    assert code == 0 and "PASS" in out


def test_verify_fail_exit_4(capsys, tmp_path):
    bad = tmp_path / "bad.vec"
    lines = ["dim 3"]
    for i in range(1, 11):
        lines.append(f"vector a{i} {i} 1 0")
    bad.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "verify", "--logic", "builtin:pentagon",
                    "--vectors", str(bad))
    assert code == 4 and "FAIL" in out


def test_verify_derive(capsys):
    code, out = run(capsys, "verify", "--derive", "--vectors", "builtin:yu-oh",
                    "--dim", "3")
    assert code == 0
    assert "16 contexts over 13 atoms" in out
    assert "context z1 z2 z3" in out


def test_verify_derive_dim_mismatch(capsys):
    code, _ = run(capsys, "verify", "--derive", "--vectors", "builtin:yu-oh",
                  "--dim", "4")
    assert code == 1


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("derive", [False, True], ids=["check", "derive"])
def test_verify_rejects_nonsense_tol(capsys, tol, derive):
    # a negative tol failed every pair, nan every comparison, and inf called
    # every pair collinear: each is an input error, not a verdict
    mode = ["--derive", "--dim", "3"] if derive else ["--logic", "builtin:pentagon"]
    assert main(["verify", *mode, "--vectors", "builtin:pentagon", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: tol must be a finite number >= 0, got {float(tol)}"]


@pytest.mark.parametrize("text, lineno", [
    ("dim\nvector a 1 0 0\n", 1),
    ("dim x\n", 1),
    ("dim 0\n", 1),
    ("dim 3\nvector\n", 2),
    ("dim 3\nvector a 1/0 0 0\n", 2),
    ("dim 3\nvector a 1/2/3 0 0\n", 2),
    ("dim 3\nvector a x 0 0\n", 2),
    ("dim 3\nvector a 0 0 0\n", 2),
    ("dim 3\nvector a 1 0 0\nbasis a\n", 3),
])
def test_verify_malformed_vectors_exit_1(capsys, tmp_path, text, lineno):
    f = tmp_path / "f.vec"
    f.write_text(text)
    assert main(["verify", "--derive", "--dim", "3", "--vectors", str(f)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {lineno}: ")


# --- start cost ---------------------------------------------------------------

LAYERS = ("exact_hull", "logic_core", "quantum", "realization", "vertex_gen")

# Runs in a fresh interpreter and prints one JSON line: the exit codes, and
# after `import correlpoly.cli` and after each command, the layer modules
# executed so far and which of `watch` it has imported.  A lazy module's type
# is importlib's _LazyModule until it executes; reading the type does not
# execute it.  The numpy-free probes run with -S: a site .pth file may import
# importlib.resources, typing or more before the probe looks, which would
# hide the package importing them.
_START_PROBE = """
import sys, types
before = set(sys.modules)
watch = ("dataclasses", "importlib.resources", "inspect", "json", "numpy", "typing")

def seen():
    executed = [n for n in LAYERS if type(sys.modules[f"correlpoly.{n}"]) is types.ModuleType]
    return executed, [m for m in watch if m in sys.modules and m not in before]

from correlpoly.cli import main
report = {"import": seen(), "codes": []}
for argv in COMMANDS:
    report["codes"].append(main(argv))
    report[" ".join(argv)] = seen()
import json
print(json.dumps(report))
"""


def _fresh_python(script, *flags):
    """The stdout lines of script run in a new interpreter, started with
    flags, on this source."""
    src = str(Path(correlpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def _start_probe(commands, *flags):
    script = f"LAYERS = {LAYERS!r}\nCOMMANDS = {commands!r}\n{_START_PROBE}"
    return json.loads(_fresh_python(script, *flags)[-1])


def test_package_names_load_their_module_on_first_use():
    # `import correlpoly` executes no layer; a public name or a layer module
    # read from the package loads it, as the eager imports did
    lines = _fresh_python(
        "import sys, correlpoly\n"
        "print(sorted(m for m in sys.modules if m.startswith('correlpoly.')))\n"
        "print(correlpoly.logic_core.__name__, correlpoly.hull.__module__)\n"
        "print(all(hasattr(correlpoly, n) for n in correlpoly.__all__))\n"
        "print(hasattr(correlpoly, 'no_such_name'))\n", "-S")
    assert lines == ["[]", "correlpoly.logic_core correlpoly.exact_hull", "True", "False"]


def test_states_and_verify_do_not_import_numpy():
    # each command executes only the layers it uses, and numpy is loaded by
    # the commands that need it, not at start
    report = _start_probe([
        ["states", "builtin:cabello18"],
        ["states", "builtin:gamma3", "--check-separating"],
        ["verify", "--logic", "builtin:cabello18", "--vectors", "builtin:cabello18"],
        ["states", "builtin:firefly", "--format", "dd"],
    ], "-S")
    assert report["codes"] == [2, 0, 0, 0]
    assert report["import"] == [[], []]
    assert report["states builtin:cabello18"] == [["logic_core"], []]
    assert report["states builtin:gamma3 --check-separating"] == [["logic_core"], []]
    assert report["verify --logic builtin:cabello18 --vectors builtin:cabello18"] \
        == [["logic_core", "realization"], []]
    # the dd format writes through exact_hull, whose numpy work is in hull
    # and vertices, not in emit_dd
    assert report["states builtin:firefly --format dd"] \
        == [["exact_hull", "logic_core", "realization"], []]


def test_quantum_does_not_execute_the_exact_layers():
    # with site: numpy is installed in site-packages
    report = _start_probe([["quantum", "--preset", "chsh"]])
    assert report["codes"] == [0]
    executed, imported = report["quantum --preset chsh"]
    assert "exact_hull" not in executed and "vertex_gen" not in executed
    assert "quantum" in executed and "numpy" in imported
