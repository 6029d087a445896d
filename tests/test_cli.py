"""Command-line interface: exit codes, output formats, golden comparison,
and determinism."""

import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import correlpoly
from correlpoly import exact_hull
from correlpoly.cli import main


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


def rotated_mermin(seed):
    """The three-qubit Mermin operator A1B1C2 + A1B2C1 + A2B1C1 - A2B2C2 with
    each party's two orthogonal settings turned by its own random orthogonal
    matrix. Turning a party's settings is a local unitary, so the maximum is
    4, and the declared angles start there; the turns make the 8x8 operators
    dense."""
    rng = np.random.default_rng(seed)
    lines = ["sites 3"]
    for party in "abc":
        turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for k in (1, 2):
            x, y, z = turn[:, k - 1]
            lines.append(f"param {party}{k}t {math.acos(max(-1.0, min(1.0, z)))!r}")
            lines.append(f"param {party}{k}p {math.atan2(y, x)!r}")
    for sign, (i, j, k) in ((8, (1, 1, 2)), (8, (1, 2, 1)), (8, (2, 1, 1)), (-8, (2, 2, 2))):
        lines.append(f"term {sign} A{i}@1 B{j}@2 C{k}@3")   # S = sigma/2 per site
    for label, party in zip("ABC", "abc"):
        for k in (1, 2):
            lines.append(f"bind {label}{k} spin 1/2 ${party}{k}t ${party}{k}p")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [0, 1])
def test_quantum_optimize_reports_evaluations(capsys, tmp_path, seed):
    # at the maximum from the start: one solve, a 16-point grid on each of the
    # 12 angles, then 22 polls of 24 neighbours (steps pi/8 .. pi/8 / 2^21)
    f = tmp_path / "mermin.op"
    f.write_text(rotated_mermin(seed))
    code, out = run(capsys, "quantum", "--expr", str(f), "--optimize")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["eigenvalues"][-1] - 4) <= 1e-9
    assert abs(doc["optimized"]["lambda_max"] - 4) <= 1e-9
    assert doc["optimized"]["evaluations"] == 1 + 12 * 16 + 22 * 24 == 721


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


def test_quantum_expr_file(capsys, tmp_path):
    f = tmp_path / "op.expr"
    f.write_text("sites 1\nterm 2 A@1\nbind A spin 1/2 0 0\n")
    code, out = run(capsys, "quantum", "--expr", str(f))
    doc = json.loads(out)
    assert doc["eigenvalues"] == [-1.0, 1.0]


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

def test_states_and_verify_do_not_import_numpy():
    # numpy is loaded by the commands that need it, not at start
    script = "\n".join([
        "import sys",
        "from correlpoly.cli import main",
        "codes = [main(['states', 'builtin:cabello18']),",
        "         main(['states', 'builtin:gamma3', '--check-separating']),",
        "         main(['states', 'builtin:firefly', '--format', 'dd']),",
        "         main(['verify', '--logic', 'builtin:cabello18', '--vectors', 'builtin:cabello18'])]",
        "print(codes, 'numpy' in sys.modules)",
    ])
    src = str(Path(correlpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[2, 0, 0, 0] False"
