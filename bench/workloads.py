"""The benchmark's workloads: seeded inputs, the CLI invocations each workload
makes, and the checks of their answers against oracles outside the program.

Paths are relative to the checkout root, the working directory of every run,
so the command echo the program prints is the same on every run of a seed.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

DATA = Path("src/correlpoly/data")
GOLDEN = DATA / "golden"

MERMIN_RUNS = 2


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expect_code: int = 0
    golden: Path | None = None  # file whose rows the output must equal
    checks: tuple = ()          # callables (stdout text) -> error or None


def _rng(workload, seed):
    # string seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


# --- seeded inputs ------------------------------------------------------------

def shuffle_dd_rows(text, rng):
    """The DD file with the rows between `begin`/`end` (after the size line)
    in a random order."""
    lines = text.splitlines()
    first = lines.index("begin") + 2
    last = lines.index("end")
    body = lines[first:last]
    rng.shuffle(body)
    return "\n".join(lines[:first] + body + lines[last:]) + "\n"


def shuffle_context_atoms(text, rng):
    """The logic file with the atoms of every `context` line in a random
    order. Contexts keep their file order, so the polytope's coordinates and
    hence its facets do not change."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "context":
            atoms = parts[1:]
            rng.shuffle(atoms)
            line = " ".join(["context"] + atoms)
        out.append(line)
    return "\n".join(out) + "\n"


def _facets(rng, input_dir):
    """exact_hull both ways on the 3322 scenario, then V->H on shuffled rows,
    which exposes the double description's sensitivity to insertion order."""
    shuffled = input_dir / "cabello-contextual-shuffled.ext"
    shuffled.write_text(shuffle_dd_rows((GOLDEN / "cabello-contextual.ext").read_text(), rng))
    return [
        Invocation(("hull", "--logic", "builtin:epr-2x3", "--terms", "preset:epr-2x3-full",
                    "--golden", "builtin:epr-2x3-full"),
                   golden=GOLDEN / "epr-2x3-full.ine"),
        Invocation(("hull", "--input", str(GOLDEN / "epr-2x3-full.ine"), "--reverse",
                    "--golden", "builtin:epr-2x3-full"),
                   golden=GOLDEN / "epr-2x3-full.ext"),
        Invocation(("hull", "--input", str(shuffled), "--golden", "builtin:cabello-contextual"),
                   golden=GOLDEN / "cabello-contextual.ine"),
    ]


def _contextual(rng, input_dir):
    """The 2^18 noncontextual sign sweep, the parity certificate, gamma3's
    states and a vector realization check."""
    logic = input_dir / "cabello18-shuffled.logic"
    logic.write_text(shuffle_context_atoms((DATA / "logics" / "cabello18.logic").read_text(), rng))
    return [
        Invocation(("hull", "--logic", str(logic), "--noncontextual",
                    "--golden", "builtin:cabello-contextual"),
                   golden=GOLDEN / "cabello-contextual.ine"),
        Invocation(("states", "builtin:cabello18"), expect_code=2,
                   checks=(state_count(0), parity_certificate_printed)),
        Invocation(("states", "builtin:gamma3", "--check-separating"),
                   checks=(state_count(82),)),
        Invocation(("verify", "--logic", "builtin:cabello18", "--vectors", "builtin:cabello18"),
                   checks=(last_line("PASS"),)),
    ]


def _spectrum(rng, input_dir):
    """One Jacobi eigensolve at n=256: O(n^3) rotation work. The preset takes
    no input, so the seed changes nothing here."""
    return [Invocation(("quantum", "--preset", "cabelloT"),
                       checks=(spectrum_matches("cabelloT"), cabelloT_invariants))]


def mermin_expr(rng):
    """The three-qubit Mermin operator A1B1C2 + A1B2C1 + A2B1C1 - A2B2C2 with
    each party's two settings turned by its own seeded rotation. Every term
    has norm 1 and a GHZ state reaches 4 with unturned settings; turning a
    party's settings is a local unitary, so the maximum is 4 whatever the
    seed. The settings start at that maximum, so the optimizer makes the same
    number of eigensolves on every seed; the rotations make the 8x8 matrices
    dense."""
    lines = ["sites 3"]
    for party in "abc":
        w, x, y, z = _unit_quaternion(rng)
        rot = ((1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
               (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
               (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)))
        for k, axis in ((1, 0), (2, 1)):  # the rotated x and y axes
            d = [row[axis] for row in rot]
            lines.append(f"param {party}{k}t {math.acos(max(-1.0, min(1.0, d[2])))!r}")
            lines.append(f"param {party}{k}p {math.atan2(d[1], d[0])!r}")
    for sign, (i, j, k) in ((8, (1, 1, 2)), (8, (1, 2, 1)), (8, (2, 1, 1)), (-8, (2, 2, 2))):
        lines.append(f"term {sign} A{i}@1 B{j}@2 C{k}@3")  # S = sigma/2 per site
    for label, party in zip("ABC", "abc"):
        for k in (1, 2):
            lines.append(f"bind {label}{k} spin 1/2 ${party}{k}t ${party}{k}p")
    return "\n".join(lines) + "\n"


def _unit_quaternion(rng):
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in q))
    return [x / norm for x in q]


def _optimize(rng, input_dir):
    """The eigensolver inside the optimizer: per-call cost at n=8 and n=4.

    Each Mermin optimization makes 721 eigensolves of a dense 8x8 matrix on
    every seed (see mermin_expr). One chsh optimization from a seeded start
    adds 241..385 evaluations at n=4. kcbs is left out: its evaluation count
    depends on the start (761..5181 evaluations, 2-43 s, over starts 0..6),
    so a run's work would depend on the seed."""
    invs = [Invocation(("quantum", "--preset", "chsh", "--optimize",
                        "--seed", str(rng.randrange(1, 2**31))),
                       checks=(optimum_near(2 * math.sqrt(2)), optimum_is_eigenvalue("chsh")))]
    for k in range(1, MERMIN_RUNS + 1):
        path = input_dir / f"mermin-{k}.op"
        path.write_text(mermin_expr(rng))
        invs.append(Invocation(("quantum", "--expr", str(path), "--optimize"),
                               checks=(start_near(4.0), optimum_near(4.0),
                                       optimum_is_eigenvalue(path))))
    return invs


# Each workload stresses layers the others bypass: facets runs exact_hull
# both ways, contextual the 2^18 sign sweep of vertex_gen, spectrum the
# eigensolver at n=256 and optimize it at n<=8. The eigensolver's two regimes
# get a workload each, so a change that wins at n=256 and loses at n=8 moves
# two bounded metrics in opposite directions.
WORKLOADS = {"facets": (_facets,), "contextual": (_contextual,), "spectrum": (_spectrum,),
             "optimize": (_optimize,)}
NAMES = tuple(WORKLOADS)


def build(workload, seed, input_dir):
    """The invocations of one workload run; writes the seeded inputs they
    read into `input_dir`."""
    input_dir.mkdir(parents=True, exist_ok=True)
    return [inv for group in WORKLOADS[workload]
            for inv in group(_rng(group.__name__.lstrip("_"), seed), input_dir)]


# --- answer checks --------------------------------------------------------------
# Each check returns None when the answer is right, else a one-line reason.

def dd_rows(text):
    """Independent reading of a DD file: (kind, inequality/point rows,
    linearity rows) as sets. H rows are scaled to coprime integers, so equal
    half-spaces compare equal whatever their scaling."""
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("*")]
    kind, lin_idx = None, set()
    i = 0
    while lines[i] != ["begin"]:
        if lines[i][0] in ("V-representation", "H-representation"):
            kind = lines[i][0][0]
        elif lines[i][0] == "linearity":
            lin_idx = {int(t) for t in lines[i][2:]}
        i += 1
    ncols = int(lines[i + 1][1])
    rows = []
    for toks in lines[i + 2:]:
        if toks == ["end"]:
            break
        if len(toks) != ncols:
            raise ValueError(f"row of {len(toks)} entries, expected {ncols}")
        row = tuple(Fraction(t) for t in toks)
        rows.append(row if kind == "V" else _coprime(row))
    ineq = frozenset(r for k, r in enumerate(rows, 1) if k not in lin_idx)
    lin = frozenset(r for k, r in enumerate(rows, 1) if k in lin_idx)
    return kind, ineq, lin


def _coprime(row):
    den = math.lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def golden_rows_match(stdout, golden_text):
    try:
        got = dd_rows(stdout)
    except (ValueError, IndexError) as exc:
        return f"output is not a DD file: {exc}"
    want = dd_rows(golden_text)
    if got == want:
        return None
    missing = len(want[1] - got[1]) + len(want[2] - got[2])
    extra = len(got[1] - want[1]) + len(got[2] - want[2])
    return f"rows differ from golden: {missing} missing, {extra} extra"


def state_count(n):
    def check(stdout):
        first = stdout.splitlines()[0] if stdout else ""
        return None if first == f"{n} states" else f"expected '{n} states', got {first!r}"
    return check


def parity_certificate_printed(stdout):
    if any(ln.startswith("parity certificate: ") for ln in stdout.splitlines()):
        return None
    return "no parity certificate printed"


def last_line(text):
    def check(stdout):
        lines = stdout.splitlines()
        got = lines[-1] if lines else ""
        return None if got == text else f"expected last line {text!r}, got {got!r}"
    return check


def _operator(source, params=None):
    # the program builds the operator; numpy's dense solver is the oracle
    # for the program's own Jacobi spectrum
    from correlpoly import quantum
    if isinstance(source, Path):
        expr = quantum.parse_operator_expr(source.read_text(), base_dir=source.parent)
    else:
        expr = quantum.load_preset_expr(source)
    return quantum.realize_operator(expr, params)


@functools.cache
def _reference_spectrum(preset):
    return np.linalg.eigvalsh(_operator(preset))


def spectrum_matches(preset, tol=1e-10):
    """Eigenvalues within `tol` of numpy.linalg.eigvalsh of the same operator
    (the tolerance of the test suite's Jacobi cross-check)."""
    def check(stdout):
        doc = json.loads(stdout)
        ref = _reference_spectrum(preset)
        got = sorted(doc["eigenvalues"])
        if len(got) != len(ref):
            return f"{len(got)} eigenvalues, expected {len(ref)}"
        worst = max(abs(a - b) for a, b in zip(got, ref))
        if worst > tol:
            return f"eigenvalue off by {worst:.3g} from eigvalsh"
        if doc["lambda_max"] != max(doc["eigenvalues"]):
            return "lambda_max is not the largest eigenvalue"
        return None
    return check


# cabelloT's spectrum as numpy.linalg.eigvalsh gives it for the operator the
# preset defines: its largest eigenvalue and its first three power sums
# (trace of H, H^2, H^3, which are integers). These do not come from the code
# under test, so an operator built wrongly but consistently still fails.
CABELLOT_LAMBDA_MAX = 6.022995686052018
CABELLOT_POWER_SUMS = (-144.0, 2450.0, -3912.0)


def cabelloT_invariants(stdout):
    evs = np.array(json.loads(stdout)["eigenvalues"])
    if len(evs) != 256:
        return f"{len(evs)} eigenvalues, expected 256"
    if abs(evs.max() - CABELLOT_LAMBDA_MAX) > 1e-9:
        return f"largest eigenvalue {evs.max()!r}, expected {CABELLOT_LAMBDA_MAX!r}"
    for k, want in enumerate(CABELLOT_POWER_SUMS, 1):
        got = float(np.sum(evs ** k))
        if abs(got - want) > 1e-6:
            return f"sum of eigenvalues^{k} is {got!r}, expected {want!r}"
    return None


def start_near(value, tol=1e-9):
    """The largest eigenvalue at the declared parameters."""
    def check(stdout):
        got = json.loads(stdout)["eigenvalues"][-1]
        return None if abs(got - value) <= tol else f"start value {got!r}, expected {value!r}"
    return check


def optimum_near(value, tol=1e-9):
    def check(stdout):
        got = json.loads(stdout)["optimized"]["lambda_max"]
        return None if abs(got - value) <= tol else f"optimum {got!r}, expected {value!r}"
    return check


def optimum_is_eigenvalue(source, tol=1e-10):
    """The reported optimum is the top eigvalsh eigenvalue of the operator
    (a preset name or an expression file) rebuilt at the reported
    parameters."""
    def check(stdout):
        opt = json.loads(stdout)["optimized"]
        top = float(np.linalg.eigvalsh(_operator(source, opt["params"]))[-1])
        return None if abs(top - opt["lambda_max"]) <= tol else (
            f"optimum {opt['lambda_max']!r} but eigvalsh gives {top!r} at its params")
    return check


def check_invocation(inv, code, stdout, stderr):
    """Every reason this invocation's answer is wrong (empty when right)."""
    errors = []
    if code != inv.expect_code:
        errors.append(f"exit code {code}, expected {inv.expect_code}")
    if "--golden" in inv.argv and "golden match" not in stderr.splitlines():
        errors.append("no 'golden match' on stderr")
    if inv.golden is not None:
        err = golden_rows_match(stdout, inv.golden.read_text())
        if err:
            errors.append(err)
    for check in inv.checks:
        try:
            err = check(stdout)
        except (KeyError, TypeError, IndexError, ValueError) as exc:  # JSON errors included
            err = f"{check.__name__}: malformed output ({exc!r})"
        if err:
            errors.append(err)
    return errors
