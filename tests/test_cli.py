"""Command-line interface: exit codes, output formats, golden comparison,
and determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import correlpoly
from correlpoly import exact_hull, quantum
from correlpoly.cli import _digest, main

from oracles import DATA, rotated_mermin


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


def test_states_json_unseparated_pairs(capsys):
    code, out = run(capsys, "states", "builtin:gamma3", "--format", "json",
                    "--check-separating")
    assert code == 0
    pairs = json.loads(out)["unseparated_pairs"]
    assert ["a1", "b1"] in pairs and ["a7", "b7"] in pairs


def test_states_dd_format(capsys):
    code, out = run(capsys, "states", "builtin:firefly", "--format", "dd")
    assert code == 0
    assert "V-representation" in out and out.count("\n 1  ") == 5


def test_states_long_chain(capsys, tmp_path):
    # a search nesting one call per context printed a RecursionError here
    chain = tmp_path / "chain.logic"
    chain.write_text("".join(f"context a{i} a{i + 1}\n" for i in range(3000)))
    code, out = run(capsys, "states", str(chain))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 states"
    assert lines[2:] == [" ".join(str((i + k) % 2) for i in range(3001)) for k in (0, 1)]


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


_SEGMENT = {   # the segment from (0, 0) to (1, 1), and a wrong golden of each kind
    "seg.ext": "V-representation\nbegin\n 2 3 real\n 1 0 0\n 1 1 1\nend\n",
    "seg.ine": "H-representation\nlinearity 1  1\nbegin\n 3 3 real\n 0 1 -1\n 0 1 0\n 1 -1 0\nend\n",
    "wrong.ine": "H-representation\nlinearity 1  1\nbegin\n 3 3 real\n 0 1 -2\n 0 1 0\n 3 -1 0\nend\n",
    "wrong.ext": "V-representation\nbegin\n 2 3 real\n 1 0 0\n 1 2 2\nend\n",
}


@pytest.mark.parametrize("given, golden, reverse, lines", [
    ("seg.ext", "wrong.ine", [], ["only in computed linearity: 0 1 -1",
                                  "only in golden linearity: 0 1 -2",
                                  "only in computed inequality: 1 0 -1",
                                  "only in golden inequality: 3 0 -2"]),
    ("seg.ine", "wrong.ext", ["--reverse"], ["only in computed: 1 1", "only in golden: 2 2"]),
], ids=["H", "V"])
def test_hull_golden_mismatch_lines(capsys, tmp_path, given, golden, reverse, lines):
    for name, text in _SEGMENT.items():
        (tmp_path / name).write_text(text)
    code, out = run(capsys, "hull", "--input", str(tmp_path / given), *reverse,
                    "--golden", str(tmp_path / golden))
    assert code == 3
    assert out.partition("golden mismatch:\n")[2].splitlines() == ["  " + ln for ln in lines]


@pytest.mark.parametrize("given, golden, reverse, kind", [
    ("seg.ext", "seg.ext", [], "an H-representation"),
    ("seg.ine", "seg.ine", ["--reverse"], "a V-representation"),
], ids=["H", "V"])
def test_hull_golden_of_the_other_kind_exit_1(capsys, tmp_path, given, golden, reverse, kind):
    for name, text in _SEGMENT.items():
        (tmp_path / name).write_text(text)
    assert main(["hull", "--input", str(tmp_path / given), *reverse,
                 "--golden", str(tmp_path / golden)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: golden file is not {kind}"


def test_hull_forward_requires_v_rep(capsys):
    ine = resources.files("correlpoly.data") / "golden" / "chsh-2x2.ine"
    assert main(["hull", "--input", str(ine)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: forward hull expects a V-representation input"]


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


def test_hull_of_the_point_of_r0_round_trip(capsys, tmp_path):
    # the hull of the one point of R^0 is an H-representation without rows,
    # which reads back to that point
    point = tmp_path / "point.ext"
    point.write_text("V-representation\nbegin\n 1 1 real\n 1\nend\n")
    ine = tmp_path / "point.ine"
    assert run(capsys, "hull", "--input", str(point), "--output", str(ine))[0] == 0
    assert "H-representation\nbegin\n 0  1  real\nend\n" in ine.read_text()
    code, out = run(capsys, "hull", "--input", str(ine), "--reverse", "--golden", str(point))
    assert code == 0
    assert out.endswith("V-representation\nbegin\n 1  1  real\n 1\nend\n")


@pytest.mark.parametrize("name", ["empty-strip", "empty-half-strip"])
def test_hull_reverse_empty_polyhedron_exit_1(capsys, name):
    # x >= 2 and x <= 1 in R^2, alone and with y >= 0: empty, though the
    # cone of the first holds a line and that of the second a ray at t = 0
    assert main(["hull", "--input", str(DATA / f"{name}.ine"), "--reverse"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: infeasible H-representation (empty polytope)"]


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
    ("H-representation\nlinearity 2  2 2\nbegin\n 2 2 real\n 1 0\n 0 1\nend\n",
     "line 2: linearity row 2 is given twice"),
    ("H-representation\nlinearity 2 1\nbegin\n 1 2 real\n 1 0\nend\n",
     "line 2: linearity count mismatch"),
    # no rows are all of R^1 as an H-representation, but no V-representation
    ("V-representation\nbegin\n 0 2 real\nend\n",
     "line 3: row count must be a positive integer, got '0'"),
    ("H-representation\n", "missing begin"),
    ("V-representation\nlinearity 1 1\nbegin\n 1 2 real\n 1 0\nend\n",
     "line 2: linearity rows not supported in V-representation"),
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


@pytest.mark.parametrize("argv, code", [
    (["states"], 1),
    (["hull", "--bogus"], 1),
    (["frobnicate"], 1),
    (["quantum", "--preset", "chsh", "--state", "nope"], 1),
    (["verify", "--vectors", "builtin:pentagon", "--tol", "x"], 1),
    (["--help"], 0),
], ids=["states", "hull-bogus", "frobnicate", "quantum-state", "verify-tol", "help"])
def test_usage_error_exit_codes(capsys, argv, code):
    # exit 2 says that the logic admits no two-valued state, so argparse's
    # own exit code for a usage error is not passed on; its message is
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "usage: correlpoly" in captured.err
    else:
        assert captured.out.startswith("usage: correlpoly")


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


def test_hull_prob_term_with_two_atoms_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.terms"
    bad.write_text("term p1 prob a1 a2\n")
    assert main(["hull", "--logic", "builtin:epr-2x2", "--terms", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "line 1: term p1: prob takes one atom, got 2" in err


@pytest.mark.parametrize("argv, message", [
    (["hull", "--input", "x.ine", "--logic", "builtin:pentagon"], "--input does not take --logic"),
    (["hull", "--input", "x.ine", "--terms", "preset:chsh-expect"],
     "--input does not take --terms"),
    (["hull", "--input", "x.ine", "--noncontextual"], "--input does not take --noncontextual"),
    (["hull", "--logic", "builtin:pentagon", "--noncontextual", "--terms", "preset:bub-stairs"],
     "--noncontextual does not take --terms"),
    (["quantum", "--preset", "chsh", "--expr", "x.op"], "--preset does not take --expr"),
    (["verify", "--derive", "--vectors", "builtin:yu-oh", "--logic", "builtin:yu-oh"],
     "--derive does not take --logic"),
], ids=["input-logic", "input-terms", "input-noncontextual", "noncontextual-terms",
        "preset-expr", "derive-logic"])
def test_option_that_would_be_ignored_exit_1(capsys, argv, message):
    # no file is read: x.ine and x.op do not exist
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


# --- input digests ------------------------------------------------------------

def test_hull_input_digest_is_sha256_of_the_file(capsys):
    path = resources.files("correlpoly.data") / "golden" / "chsh-2x2.ine"
    code, out = run(capsys, "hull", "--input", str(path), "--reverse")
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert f"* input {path} sha256:{digest}" in out.splitlines()


@given(st.text())
@example("")
@example("Kochen–Specker ∑ ψ 𝔸\r\n")
def test_digest_is_hashlib_sha256(text):
    assert _digest(text) == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_digest_without_the_builtin_modules_falls_back_to_hashlib():
    text = "Kochen–Specker ∑ ψ"
    lines = _fresh_python(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from correlpoly.cli import _digest\n"
        f"print(_digest({text!r}))\n"
        "print('_hashlib' in sys.modules)\n", "-S")
    assert lines == [hashlib.sha256(text.encode()).hexdigest()[:16], "True"]


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


@pytest.mark.parametrize("coords", ["1" + "0" * 200 + " 0", "1e-200 0", "0 -3e-400"])
def test_quantum_proj_bind_of_a_long_or_short_vector(capsys, tmp_path, coords):
    # 2|a><a|/<a|a> - I does not depend on the length of a; the squares of
    # these coordinates are past the float range
    (tmp_path / "f.vec").write_text(f"dim 2\nvector a {coords}\n")
    f = tmp_path / "op.expr"
    f.write_text("sites 1\nterm 1 A@1\nbind A proj f.vec a\n")
    code, out = run(capsys, "quantum", "--expr", str(f))
    assert code == 0 and json.loads(out)["eigenvalues"] == pytest.approx([-1, 1], abs=1e-15)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("line, token", [
    ("param t 1e400", "1e400"), ("term -1" + "0" * 400 + " A@1", "-1" + "0" * 400),
    ("bind B spin 1/2 3" + "0" * 400 + "/7 0", "3" + "0" * 400 + "/7"),
    ("bind B spin 1/2 0 2e308", "2e308")])
def test_quantum_value_past_the_float_range_names_its_token(capsys, tmp_path, line, token):
    f = tmp_path / "op.expr"
    f.write_text(f"sites 1\nterm 1 A@1\nbind A spin 1/2 0 0\n{line}\n")
    assert main(["quantum", "--expr", str(f)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: line 4: {token!r} is too large for a float"]


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


def test_quantum_unknown_param_exit_1(capsys):
    assert main(["quantum", "--preset", "chsh", "--param", "bogus=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: unknown parameters ['bogus']"]


def test_quantum_optimize_without_free_parameter_exit_1(capsys, monkeypatch):
    # refused before cabelloT's 256 x 256 operator is built or solved
    def unused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(quantum, "realize_operator", unused)
    monkeypatch.setattr(quantum, "eigenvalues", unused)
    assert main(["quantum", "--preset", "cabelloT", "--optimize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: no free parameters to optimize"]


def test_quantum_optimize_with_projector_bind(capsys, tmp_path):
    # spin 1 at theta = t and the dichotomic observable of (1, 0, 0) share
    # their top eigenvector at t = 0, where the norm bound 1 + 1 is reached;
    # a `proj` bind's norm is the float 1.0, so the report is plain JSON
    f = tmp_path / "f.op"
    f.write_text("sites 1\nparam t 0\nterm 1 A@1\nterm 1 P@1\n"
                 "bind A spin 1 $t 0\nbind P proj builtin:pentagon a1\n")
    code, out = run(capsys, "quantum", "--expr", str(f), "--optimize")
    assert code == 0
    opt = json.loads(out)["optimized"]
    assert opt["upper_bound"] == 2.0 and opt["certified"] is True
    assert abs(opt["lambda_max"] - 2) <= 1e-9


def test_quantum_non_finite_param_exit_1(capsys):
    assert main(["quantum", "--preset", "chsh", "--param", "t1=inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: direction angles must be finite"]


@pytest.mark.parametrize("expr, message", [
    ("sites 1\nbind A spin 1/2 0 0\n", "error: expression has no terms"),
    ("sites 1\nterm 1 A@1\nterm 1 B@1\nbind A spin 1/2 0 0\nbind B spin 1 0 0\n",
     "error: site 1 has inconsistent dimensions [2, 3]"),
], ids=["no-term", "two-dimensions"])
def test_quantum_expr_shape_checked_by_its_record(capsys, tmp_path, expr, message):
    f = tmp_path / "op.expr"
    f.write_text(expr)
    assert main(["quantum", "--expr", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]


def test_quantum_expr_without_sites_exit_1(capsys, tmp_path):
    f = tmp_path / "op.expr"
    f.write_text("param t 0\n")
    assert main(["quantum", "--expr", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["error: missing sites header"]


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
    ("sites 2\nterm 1 A@1\nbind A spin 1/2 0 0\n", None,
     "error: line 2: term must cover all 2 sites"),
    ("sites 1\nterm 1 A@1\nbind A proj builtin:pentagon zz\n", None,
     "error: line 3: no vector named 'zz' in builtin:pentagon"),
    ("sites 1\nterm 1 A@1\nbind A rot 1\n", None,
     "error: line 3: expected 'bind <label> spin <j> <theta> <phi>' "
     "or 'bind <label> proj <vector-file> <atom>'"),
])
def test_quantum_expr_error_names_its_line(capsys, tmp_path, expr, vec, message):
    f = tmp_path / "op.expr"
    f.write_text(expr)
    if vec is not None:
        (tmp_path / "f.vec").write_text(vec)
    assert main(["quantum", "--expr", str(f)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("expr, vec, message", [
    # a 200001 x 200001 complex matrix would take 596 GiB
    ("sites 1\nterm 1 A@1\nbind A spin 100000 0 0\n", None,
     "error: line 3: the dimension of bind 'A' exceeds 1024"),
    # an unused bind is built too
    ("sites 1\nterm 1 A@1\nbind A spin 1/2 0 0\nbind B spin 100000 0 0\n", None,
     "error: line 4: the dimension of bind 'B' exceeds 1024"),
    # each factor has dimension 512, the term 512^2
    ("sites 2\nterm 1 A@1 A@2\nbind A spin 511/2 0 0\n", None,
     "error: line 2: the dimension of the term exceeds 1024"),
    ("sites 1\nterm 1 A@1\nbind A proj f.vec a\n", "dim 1025\nvector a " + "1 " * 1025 + "\n",
     "error: line 3: the dimension of bind 'A' exceeds 1024"),
])
def test_quantum_oversized_operator_exit_1(capsys, tmp_path, expr, vec, message):
    # rejected by the parser before any matrix is built
    f = tmp_path / "op.expr"
    f.write_text(expr)
    if vec is not None:
        (tmp_path / "f.vec").write_text(vec)
    assert main(["quantum", "--expr", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]


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
    code, out = run(capsys, "verify", "--derive", "--vectors", "builtin:yu-oh")
    assert code == 0
    assert out.splitlines()[:2] == ["logic derived", "# 16 contexts over 13 atoms"]
    assert "context z1 z2 z3" in out


@pytest.mark.parametrize("tol", [[], ["--tol", "0"], ["--tol", "1e-3"]])
def test_verify_derive_exact_vectors_past_the_float_range(capsys, tmp_path, tol):
    # a 201-digit coordinate: its square is past the float range
    f = tmp_path / "big.vec"
    f.write_text(f"dim 2\nvector a 1{'0' * 200} 0\nvector b 0 1\n")
    code, out = run(capsys, "verify", "--derive", "--vectors", str(f), *tol)
    assert code == 0
    assert out.splitlines() == ["logic derived", "# 1 contexts over 2 atoms", "context a b"]


def test_verify_derive_big_integer_beside_a_decimal(capsys, tmp_path):
    # every pair is tested exactly, so no vector has to fit the float range
    f = tmp_path / "big.vec"
    f.write_text(f"dim 2\nvector a 1{'0' * 200} 0\nvector b 0.5 1\nvector c 0 1\n")
    code, out = run(capsys, "verify", "--derive", "--vectors", str(f))
    assert code == 0
    assert out.splitlines() == ["logic derived", "# 2 contexts over 3 atoms", "context a c",
                                "context b"]


def test_verify_exact_mode_of_decimal_vectors(capsys, tmp_path):
    # 0.1 0.2 and 0.2 -0.1 are exactly orthogonal
    vec = tmp_path / "dec.vec"
    vec.write_text("dim 2\nvector a 0.1 0.2\nvector b 0.2 -0.1\n")
    logic = tmp_path / "dec.logic"
    logic.write_text("context a b\n")
    code, out = run(capsys, "verify", "--logic", str(logic), "--vectors", str(vec), "--tol", "0")
    assert code == 0 and out.splitlines() == ["PASS"]
    # specker-bug's 17-digit decimal for sqrt(2) is not sqrt(2)
    code, out = run(capsys, "verify", "--logic", "builtin:specker-bug",
                    "--vectors", "builtin:specker-bug", "--tol", "0")
    assert code == 4 and out.splitlines()[-1] == "FAIL"
    assert out.splitlines()[0] \
        == f"context 0: <a2|a3> = 14481069235364401/1{'0' * 32} is not orthogonal"


def test_verify_prints_residuals_of_any_length(capsys, tmp_path):
    # <a|b> = 10^6000 has more digits than str() writes
    f = tmp_path / "huge.vec"
    f.write_text(f"dim 2\nvector a 1{'0' * 3000} 1\nvector b 1{'0' * 3000} 0\n")
    logic = tmp_path / "ab.logic"
    logic.write_text("context a b\n")
    code, out = run(capsys, "verify", "--logic", str(logic), "--vectors", str(f))
    assert code == 4
    assert out.splitlines() == [f"context 0: <a|b> = 1{'0' * 6000} is not orthogonal",
                                "atoms a and b share a ray", "FAIL"]


def test_verify_derive_vector_orthogonal_to_no_other(capsys, tmp_path):
    f = tmp_path / "iso.vec"
    f.write_text("dim 3\nvector x 1 0 0\nvector y 0 1 0\nvector z 0 0 1\nvector d 1 1 1\n")
    code, out = run(capsys, "verify", "--derive", "--vectors", str(f))
    assert code == 0
    assert out.splitlines() == ["logic derived", "# 2 contexts over 4 atoms", "context x y z",
                                "context d"]


@pytest.mark.parametrize("vectors", [*(f"builtin:{v}" for v in (
    "cabello18", "gamma1", "gamma3", "gamma3-tkadlec", "pentagon", "specker-bug", "yu-oh")), "iso"])
def test_verify_derive_output_reads_back(capsys, tmp_path, vectors):
    # the derived logic is a logic file: verified against the same vectors,
    # a one-atom context included, it passes
    if vectors == "iso":
        vectors = tmp_path / "iso.vec"
        vectors.write_text("dim 3\nvector x 1 0 0\nvector y 0 1 0\nvector z 0 0 1\nvector d 1 1 1\n")
    code, out = run(capsys, "verify", "--derive", "--vectors", str(vectors))
    assert code == 0
    derived = tmp_path / "derived.logic"
    derived.write_text(out)
    code, out = run(capsys, "verify", "--logic", str(derived), "--vectors", str(vectors))
    assert code == 0 and out.splitlines()[-1] == "PASS"


def test_verify_prints_size_warnings_and_shared_rays(capsys, tmp_path):
    (tmp_path / "t.logic").write_text("logic t\ncontext a b\ncontext b c\n")
    (tmp_path / "t.vec").write_text("dim 3\nvector a 1 0 0\nvector b 0 1 0\nvector c 2 0 0\n")
    code, out = run(capsys, "verify", "--logic", str(tmp_path / "t.logic"),
                    "--vectors", str(tmp_path / "t.vec"))
    assert code == 4
    assert out.splitlines() == ["warning: context 0 has 2 atoms in a 3-dimensional space",
                                "warning: context 1 has 2 atoms in a 3-dimensional space",
                                "atoms a and c share a ray",
                                "FAIL"]


def test_verify_names_the_atoms_without_a_vector(capsys):
    assert main(["verify", "--logic", "builtin:yu-oh", "--vectors", "builtin:cabello18"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: realization lacks vectors for atoms ['z1', 'z2', 'z3', 'y1-', 'y1+', "
        "'y2-', 'y2+', 'y3-', 'y3+', 'h0', 'h1', 'h2', 'h3']"]


def test_verify_needs_logic_or_derive(capsys):
    assert main(["verify", "--vectors", "builtin:pentagon"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: verify needs --logic (or --derive)"]


def test_missing_input_file_exit_1(capsys, tmp_path):
    missing = tmp_path / "none.vec"
    assert main(["verify", "--derive", "--vectors", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"error: [Errno 2] No such file or directory: {str(missing)!r}"]


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("derive", [False, True], ids=["check", "derive"])
def test_verify_rejects_nonsense_tol(capsys, tol, derive):
    # a negative tol failed every pair, nan every comparison, and inf called
    # every pair collinear: each is an input error, not a verdict
    mode = ["--derive"] if derive else ["--logic", "builtin:pentagon"]
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
    assert main(["verify", "--derive", "--vectors", str(f)]) == 1
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
watch = ("_hashlib", "_sha2", "_sha256", "dataclasses", "hashlib", "importlib.resources",
         "inspect", "json", "numpy", "typing")

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


def test_package_reads_a_layer_module_without_the_command_line():
    # in an interpreter that has not imported cli, the package's __getattr__
    # imports the layer, as an eager import would
    lines = _fresh_python(
        "import sys, types, correlpoly\n"
        "m = correlpoly.exact_hull\n"
        "print(m is sys.modules['correlpoly.exact_hull'], type(m) is types.ModuleType)\n"
        "print('correlpoly.cli' in sys.modules, m.hull is correlpoly.hull)\n", "-S")
    assert lines == ["True True", "False True"]


def test_package_exports_are_the_layer_objects():
    # here rather than in a fresh interpreter, so that the test run sees
    # __getattr__ bind each name
    from correlpoly import hull
    assert hull is exact_hull.hull
    for name in correlpoly.__all__:
        vars(correlpoly).pop(name, None)     # read it through __getattr__ again
        module = getattr(correlpoly, correlpoly._MODULE_OF[name])
        assert getattr(correlpoly, name) is getattr(module, name)
        assert name in vars(correlpoly)


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
    # and vertices, not in emit_dd; its input digest comes from CPython's
    # built-in SHA-256 module, not from hashlib, which loads OpenSSL
    executed, imported = report["states builtin:firefly --format dd"]
    assert executed == ["exact_hull", "logic_core", "realization"]
    assert imported in (["_sha2"], ["_sha256"])


def test_small_hulls_do_not_import_numpy(tmp_path):
    # a double description whose insertion steps all have at most 4096
    # (positive, negative) ray pairs runs on Python ints throughout, and so
    # does the hull of a flat polytope, whose cone keeps a lineality space:
    # epr-2x3-full's terms and P1 = (1 + E1) / 2
    data = resources.files("correlpoly.data")
    golden = data / "golden"
    flat = tmp_path / "epr-2x3-flat.terms"
    flat.write_text((data / "terms" / "epr-2x3-full.terms").read_text() + "term P1 prob a1\n")
    small = [["hull", "--logic", "builtin:cabello18", "--noncontextual",
              "--golden", "builtin:cabello-contextual"],
             ["hull", "--input", str(golden / "chsh-2x2.ine"), "--reverse"],
             ["hull", "--logic", "builtin:epr-2x3", "--terms", str(flat)]]
    report = _start_probe(small, "-S")
    assert report["codes"] == [0, 0, 0]
    for argv in small:
        executed, imported = report[" ".join(argv)]
        assert "exact_hull" in executed and "numpy" not in imported
        assert not {"_hashlib", "hashlib"} & set(imported)
    # epr-2x3-full's H->V hands its cone to the numpy loop; with site: numpy
    # is installed in site-packages
    large = ["hull", "--input", str(golden / "epr-2x3-full.ine"), "--reverse"]
    report = _start_probe([large])
    assert report["codes"] == [0]
    assert "numpy" in report[" ".join(large)][1]
    assert not {"_hashlib", "hashlib"} & set(report[" ".join(large)][1])


def test_quantum_does_not_execute_the_exact_layers():
    # with site: numpy is installed in site-packages
    report = _start_probe([["quantum", "--preset", "chsh"]])
    assert report["codes"] == [0]
    executed, imported = report["quantum --preset chsh"]
    assert "exact_hull" not in executed and "vertex_gen" not in executed
    assert "quantum" in executed and "numpy" in imported
    assert "dataclasses" not in imported
    # nothing is hashed: quantum prints no input digest.  On Python 3.12
    # `random`, which numpy imports, loads _sha2 for its own seeding
    assert not {"_hashlib", "_sha256", "hashlib"} & set(imported)
