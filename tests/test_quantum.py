"""Quantum module: spin matrices, projector identities, singlet correlations,
the eigenvalue kernel and the spin projectors against an independent dense
solver (numpy.linalg), and operator presets against frozen spectra."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from correlpoly import cli, quantum as q

from oracles import frozen_spectrum, rotated_mermin

HALF = Fraction(1, 2)
TH = Fraction(3, 2)


def rnd_direction(rng):
    return q.Direction(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))


# --- spin matrices -----------------------------------------------------------

def test_spin_half_matrices():
    mx, my, mz = q.spin_components(HALF)
    assert np.allclose(mx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(my, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(mz, [[0.5, 0], [0, -0.5]])


def test_spin_one_matrices():
    mx, my, mz = q.spin_components(1)
    r = 1 / math.sqrt(2)
    assert np.allclose(mx, [[0, r, 0], [r, 0, r], [0, r, 0]])
    assert np.allclose(my, [[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]])
    assert np.allclose(mz, np.diag([1, 0, -1]))


def test_spin_three_half_mz():
    _, _, mz = q.spin_components(TH)
    assert np.allclose(mz, np.diag([1.5, 0.5, -0.5, -1.5]))


def test_spin_operator_entries_half():
    d = q.Direction(0.83, -1.91)
    s = q.spin_operator(HALF, d)
    t, p = d.theta, d.phi
    want = 0.5 * np.array([[math.cos(t), math.sin(t) * np.exp(-1j * p)],
                           [math.sin(t) * np.exp(1j * p), -math.cos(t)]])
    assert np.max(np.abs(s - want)) < 1e-12


@pytest.mark.parametrize("j", [HALF, 1, TH, 2, Fraction(5, 2)])
def test_spin_spectrum(j):
    rng = random.Random(int(4 * j))
    d = rnd_direction(rng)
    evs = q.eigenvalues(q.spin_operator(j, d))
    want = [float(m - j) for m in range(int(2 * j) + 1)]
    assert np.allclose(evs, want, atol=1e-12)


def test_invalid_j_rejected():
    with pytest.raises(ValueError):
        q.spin_components(Fraction(1, 3))
    with pytest.raises(ValueError):
        q.spin_components(-1)


def test_spin_components_cached_read_only():
    mats = q.spin_components(1)
    assert q.spin_components(1) is mats
    for m in mats:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 5
    assert np.allclose(mats[2], np.diag([1, 0, -1]))


# --- eigenvalues ---------------------------------------------------------------

def _dense_solver_inputs():
    """Hermitian test matrices: dense complex at the original sizes, real and
    complex at n = 1..9, a degenerate I + rank-1, and a sparse tridiagonal."""
    rng = np.random.default_rng(42)
    for n in (2, 3, 7, 12, 25):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        yield (m + m.conj().T) / 2
    for n in range(1, 10):
        m = rng.normal(size=(n, n))
        yield (m + m.T) / 2
        m = m + 1j * rng.normal(size=(n, n))
        yield (m + m.conj().T) / 2
    for u in (rng.normal(size=6), rng.normal(size=7) + 1j * rng.normal(size=7)):
        yield np.eye(u.size) + np.outer(u, u.conj())
    yield np.diag(np.arange(8.0)) + np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1)


def test_jacobi_matches_dense_solver():
    for h in _dense_solver_inputs():
        n = h.shape[0]
        want = np.linalg.eigvalsh(h)
        vals = np.array(q.eigenvalues(h))
        assert vals.shape == (n,)
        assert np.max(np.abs(vals - want)) < 1e-10
        # trace and Frobenius cross-checks
        assert abs(sum(vals) - np.trace(h).real) <= 1e-8 * max(1, abs(np.trace(h)))
        fro2 = float(np.sum(np.abs(h) ** 2))
        assert abs(sum(v * v for v in vals) - fro2) <= 1e-8 * max(1, fro2)


def _hermitian(rng, n, complex_):
    m = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0)
    return (m + m.conj().T) / 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1))
def test_stack_matches_dense_and_single(n, k, complex_, seed):
    rng = np.random.default_rng(seed)
    hs = np.array([_hermitian(rng, n, complex_) for _ in range(k)])
    listed = q.eigenvalues(hs)
    vals = np.array(listed)
    assert len(listed) == k and vals.shape == (k, n)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(hs))) <= 1e-10
    for h, got in zip(hs, vals):
        single = np.array(q.eigenvalues(h))
        assert np.max(np.abs(got - single)) <= 1e-12
        assert np.array_equal(got, single)      # bit-identical


def test_stack_members_converge_at_different_sweeps():
    # dense, diagonal, tridiagonal and zero members in one stack
    rng = np.random.default_rng(5)
    n = 8
    tri = np.diag(np.arange(n, dtype=float)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    hs = np.array([_hermitian(rng, n, True), np.diag(np.arange(n, 0, -1.0)), tri,
                   np.zeros((n, n)), _hermitian(rng, n, True)])
    vals = np.array(q.eigenvalues(hs))
    assert np.max(np.abs(vals - np.linalg.eigvalsh(hs))) <= 1e-10
    assert np.array_equal(vals[1], np.arange(1.0, n + 1))
    assert np.array_equal(vals[3], np.zeros(n))
    for h, v in zip(hs, vals):
        assert np.array_equal(v, q.eigenvalues(h))      # bit-identical


def test_stack_rejects_non_hermitian_member():
    hs = np.array([np.eye(3), np.triu(np.ones((3, 3))), np.eye(3)])
    with pytest.raises(ValueError, match="not Hermitian"):
        q.eigenvalues(hs)
    with pytest.raises(ValueError, match="square"):
        q.eigenvalues(np.zeros((2, 3, 4)))


def test_cabello_jacobi_full_spectrum():
    op = q.realize_operator(q.load_preset_expr("cabelloT"))
    evs = np.array(q.eigenvalues(op))
    assert evs.shape == (op.shape[0],)
    assert np.max(np.abs(evs - np.linalg.eigvalsh(op))) <= 1e-10


def test_jacobi_identity_and_diagonal():
    assert np.allclose(q.eigenvalues(np.eye(5)), np.ones(5))
    assert np.allclose(q.eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1, 2, 3])
    assert np.array_equal(q.eigenvalues(np.eye(5)), np.ones(5))


def _hard_inputs():
    """Matrices whose Gershgorin span is zero, whose tridiagonal form splits
    into blocks, or whose spectrum is one or two heavily repeated values."""
    rng = np.random.default_rng(3)
    h = _hermitian(rng, 12, True)
    yield np.eye(5)
    yield -2.5 * np.eye(7)
    yield np.zeros((6, 6))
    yield np.zeros((1, 1))
    for scale in (1e300, -1e300, 1e-300, -1e-300):
        yield scale * h
    u = rng.normal(size=40) + 1j * rng.normal(size=40)
    yield np.eye(40) + np.outer(u, u.conj())                 # 1 repeated 39 times
    yield np.ones((9, 9))                                     # 0 repeated 8 times
    yield np.kron(np.diag([1.0, -1.0]), np.ones((5, 5)))     # +-5, then 0 repeated 8 times
    yield np.diag([2.0, 2.0, -1.0, 2.0, -1.0, 0.0])
    blocks = np.zeros((6, 6))
    blocks[:3, :3] = _hermitian(rng, 3, False)
    blocks[3:, 3:] = _hermitian(rng, 3, False)
    yield blocks


def test_eigenvalues_hard_inputs():
    hard = list(_hard_inputs())
    for h in hard:
        want = np.linalg.eigvalsh(h)
        got = np.array(q.eigenvalues(h))
        assert np.all(np.isfinite(got)) and np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - want)) <= 1e-13 * h.shape[0] * np.max(np.abs(h))
        assert not np.signbit(got[got == 0]).any()              # never -0.0
    assert q.eigenvalues(np.zeros((3, 3))) == [0.0, 0.0, 0.0]
    assert q.eigenvalues(np.zeros((0, 0))) == []
    assert np.array_equal(q.eigenvalues(np.eye(5)), np.ones(5))
    # as one stack: each member as it is alone
    same = [h for h in hard if h.shape == (6, 6)]
    for got, h in zip(q.eigenvalues(np.array(same)), same):
        assert np.array_equal(got, q.eigenvalues(h))


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        q.eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_non_finite_rejected(bad):
    h = np.eye(3, dtype=complex)
    h[1, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        q.eigenvalues(h)
    with pytest.raises(ValueError, match="NaN or infinite"):
        q.eigenvalues(np.array([np.eye(3), h]))
    # finite entries whose spectrum is not
    with pytest.raises(ValueError, match="exceeds the float range"):
        q.eigenvalues(np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]]))


# --- projectors ----------------------------------------------------------------

@pytest.mark.parametrize("j", [HALF, 1, TH, 2, Fraction(5, 2), 3])
def test_projector_identities(j):
    rng = random.Random(int(2 * j) + 10)
    d = int(2 * j) + 1
    for _ in range(100):
        direction = rnd_direction(rng)
        fs = q.projectors(j, direction)
        s = q.spin_operator(j, direction)
        total = sum(fs)
        recon = sum((float(m) - float(j)) * f for m, f in enumerate(fs))
        assert np.max(np.abs(total - np.eye(d))) <= 1e-10
        assert np.max(np.abs(np.asarray(recon) - s)) <= 1e-10
        for a in range(d):
            assert np.max(np.abs(fs[a] @ fs[a] - fs[a])) <= 1e-10
            for b in range(a + 1, d):
                assert np.max(np.abs(fs[a] @ fs[b])) <= 1e-10


@pytest.mark.parametrize("j", [HALF, 1, TH, 2, Fraction(5, 2), 3, 4, 5, 10])
def test_projectors_match_dense_eigenvectors(j):
    # the spectrum -j..j has no repeated value, so eigh's ascending
    # eigenvectors give the projectors one by one.  The product of 2j
    # factors loses accuracy as j grows: 7e-14 at j = 4, 2e-12 at j = 5
    # and 5e-7 at j = 10 on these directions
    tol = {5: 1e-11, 10: 5e-6}.get(j, 1e-12)
    rng = random.Random(int(2 * j) + 20)
    for _ in range(8):
        direction = rnd_direction(rng)
        _, vecs = np.linalg.eigh(q.spin_operator(j, direction))
        fs = q.projectors(j, direction)
        assert len(fs) == vecs.shape[1]
        for f, u in zip(fs, vecs.T):
            assert np.max(np.abs(f - np.outer(u, u.conj()))) <= tol


def test_src_uses_no_numpy_linalg():
    # numpy.linalg is the tests' outside oracle; the program has its own
    # eigenvalue kernel and closed-form projectors
    paths = sorted(Path(q.__file__).parent.glob("*.py"))
    assert Path(q.__file__) in paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            assert not any("linalg" in n for n in names), f"{path.name}:{node.lineno}"


def test_projector_half_closed_form():
    d = q.Direction(1.2, 0.4)
    fplus = q.projectors(HALF, d)[1]
    sigma = 2 * q.spin_operator(HALF, d)
    assert np.max(np.abs(fplus - (np.eye(2) + sigma) / 2)) < 1e-12


def test_spin_one_zero_projector_at_pole():
    f0 = q.projectors(1, q.Direction(0.0, 0.0))[1]
    assert np.max(np.abs(f0 - np.diag([0, 1, 0]))) < 1e-12


# --- singlet and correlations -----------------------------------------------------

def test_singlet_components():
    r = 1 / math.sqrt(2)
    assert np.allclose(q.singlet(HALF), [0, r, -r, 0])
    assert np.allclose(q.singlet(1) * math.sqrt(3), [0, 0, 1, 0, -1, 0, 1, 0, 0])
    psi32 = q.singlet(TH) * 2
    want = np.zeros(16)
    want[3], want[6], want[9], want[12] = 1, -1, 1, -1
    assert np.allclose(psi32, want)


def test_joint_probability_uniqueness():
    d = q.Direction(0.9, 2.2)
    assert q.joint_probability(HALF, d, d, HALF, HALF) <= 1e-12
    assert q.joint_probability(1, d, d, 1, 1) <= 1e-12


def test_joint_probability_half_closed_form():
    rng = random.Random(3)
    for _ in range(50):
        t1, t2 = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
        p = rng.uniform(-math.pi, math.pi)
        got = q.joint_probability(HALF, q.Direction(t1, p), q.Direction(t2, p),
                                  HALF, HALF)
        want = 0.25 * (1 - (math.cos(t1) * math.cos(t2)
                            + math.sin(t1) * math.sin(t2)))
        assert abs(got - want) <= 1e-10


def test_joint_probability_antipodal():
    got = q.joint_probability(HALF, q.Direction(0, 0), q.Direction(math.pi, 0),
                              HALF, HALF)
    assert abs(got - 0.5) <= 1e-12


def test_joint_probabilities_sum_to_one():
    rng = random.Random(11)
    for j in (HALF, 1, TH):
        d1, d2 = rnd_direction(rng), rnd_direction(rng)
        ms = [Fraction(k) - j for k in range(int(2 * j) + 1)]
        probs = [q.joint_probability(j, d1, d2, m1, m2) for m1 in ms for m2 in ms]
        assert all(-1e-12 <= p <= 1 + 1e-12 for p in probs)
        assert abs(sum(probs) - 1) <= 1e-10


@pytest.mark.parametrize("j", [HALF, 1, TH])
def test_correlation_closed_form(j):
    rng = random.Random(int(2 * j))
    for _ in range(1000):
        d1, d2 = rnd_direction(rng), rnd_direction(rng)
        got = q.correlation(j, d1, d2)
        jj = float(j)
        want = -(jj * (jj + 1) / 3) * (
            math.cos(d1.theta) * math.cos(d2.theta)
            + math.cos(d1.phi - d2.phi) * math.sin(d1.theta) * math.sin(d2.theta))
        assert abs(got - want) <= 1e-10


def test_correlation_trace_oracle():
    # independent dense-matrix route: numpy eigendecomposition, explicit trace
    rng = random.Random(99)
    for j in (HALF, 1, TH):
        d1, d2 = rnd_direction(rng), rnd_direction(rng)
        s1 = q.spin_operator(j, d1)
        s2 = q.spin_operator(j, d2)
        psi = q.singlet(j)
        rho = np.outer(psi, psi.conj())
        want = np.trace(rho @ np.kron(s1, s2)).real
        assert abs(q.correlation(j, d1, d2) - want) <= 1e-12


def test_singlet_rotational_invariance():
    rng = random.Random(5)
    for _ in range(20):
        t1, t2 = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
        dphi = rng.uniform(-math.pi, math.pi)
        shift = rng.uniform(-math.pi, math.pi)
        a = q.correlation(1, q.Direction(t1, 0), q.Direction(t2, dphi))
        b = q.correlation(1, q.Direction(t1, shift), q.Direction(t2, dphi + shift))
        assert abs(a - b) <= 1e-9


def test_classical_correlation_and_gap():
    assert q.classical_correlation(0) == -1
    assert q.classical_correlation(math.pi / 2) == 0
    assert abs(q.delta_E(0)) <= 1e-15
    assert abs(q.delta_E(math.pi / 2)) <= 1e-15
    th = math.asin(2 / math.pi)
    eps = 1e-6
    deriv = (q.delta_E(th + eps) - q.delta_E(th - eps)) / (2 * eps)
    assert abs(deriv) <= 1e-9
    assert q.stronger_than_quantum(0.2) == -1
    assert q.stronger_than_quantum(math.pi - 0.2) == 1
    with pytest.raises(ValueError):
        q.classical_correlation(-0.1)
    with pytest.raises(ValueError):
        q.delta_E(4.0)


# --- operator expressions --------------------------------------------------------

def test_chsh_preset_at_defaults():
    op = q.realize_operator(q.load_preset_expr("chsh"))
    s = 2 * math.sqrt(2)
    assert abs(op[0, 3] + 1j * s) <= 1e-12 and abs(op[3, 0] - 1j * s) <= 1e-12
    assert np.allclose(q.eigenvalues(op), [-s, 0, 0, s], atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.floats(-math.pi, math.pi, allow_nan=False)] * 4))
def test_chsh_formula_matches_eigensolve(angles):
    expr = q.load_preset_expr("chsh")
    params = dict(zip(("t1", "t2", "t3", "t4"), angles))
    evs = q.eigenvalues(q.realize_operator(expr, params))
    want = q.chsh_eigen_formula(*angles)
    assert max(abs(a - b) for a, b in zip(evs, want)) <= 1e-9


def test_chsh_formula_degenerate():
    assert np.allclose(q.chsh_eigen_formula(0.7, 0.7, 1.0, -1.0), [-2, -2, 2, 2])


def test_kcbs_preset_spectrum():
    evs = q.eigenvalues(q.realize_operator(q.load_preset_expr("kcbs")))
    assert np.allclose(evs, frozen_spectrum("pentagon-pair-spectrum"), atol=1e-4)


def test_cabello_operator_construction():
    op = q.realize_operator(q.load_preset_expr("cabelloT"))
    assert op.shape == (256, 256)
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12
    # independent dense-solver route against the frozen spectrum; the
    # package's own eigenvalue kernel is exercised in the acceptance suite
    evs = np.linalg.eigvalsh(op)
    assert np.max(np.abs(evs - frozen_spectrum("contextual-18ray-spectrum"))) <= 5e-6


def test_build_operator_matches_kron():
    expr = q.parse_operator_expr(
        "sites 3\nterm 1/2 A@1 B@2 C@3\nterm -3 B@1 A@2 C@3\n"
        "bind A spin 1/2 0.4 1.3\nbind B spin 1/2 2.1 -0.6\nbind C spin 1 1.1 0.2\n")
    bindings = q.resolve_bindings(expr)
    want = 0
    for coeff, factors in expr.terms:   # the Kronecker products in the same order
        term = np.array([[coeff]], dtype=complex)
        for label in factors:
            term = np.kron(term, bindings[label])
        want = want + term
    assert np.array_equal(q.build_operator(expr, bindings), want)


@pytest.mark.parametrize("preset", ["chsh", "kcbs"])
def test_stacked_build_matches_single_builds(preset):
    # what maximize_bound builds: one array of values per angle, here with
    # the last angle left at its default
    expr = q.load_preset_expr(preset)
    names = expr.param_names[:-1]
    trials = np.random.default_rng(7).uniform(-math.pi, math.pi, size=(9, len(names)))
    stack = q.realize_operator(expr, dict(zip(names, trials.T)))
    d = q.realize_operator(expr).shape[0]
    assert stack.shape == (9, d, d)
    for trial, op in zip(trials, stack):
        assert np.array_equal(op, q.realize_operator(expr, dict(zip(names, trial))))


def test_build_operator_errors():
    expr = q.parse_operator_expr(
        "sites 2\nterm 1 A@1 B@2\nbind A spin 1/2 0 0\nbind B spin 1 0 0\n")
    op = q.realize_operator(expr)   # 2x3 Kronecker is fine
    assert op.shape == (6, 6)
    with pytest.raises(ValueError):
        q.parse_operator_expr("sites 2\nterm 1 A@1 B@2\nbind A spin 1/2 0 0\n")
    with pytest.raises(ValueError):
        q.parse_operator_expr("term 1 A@1\nbind A spin 1/2 0 0\n")
    mixed = q.OperatorExpr(
        1, ((1.0, ("A",)), (1.0, ("B",))),
        (("A", ("proj", np.eye(2))), ("B", ("proj", np.eye(3)))), ())
    with pytest.raises(ValueError, match="inconsistent"):
        q.build_operator(mixed, q.resolve_bindings(mixed))


def test_identity_term():
    expr = q.OperatorExpr(1, ((1.0, ("I",)),), (("I", ("proj", np.eye(4))),), ())
    assert np.allclose(q.realize_operator(expr), np.eye(4))


def test_projector_binding_normalizes():
    expr = q.parse_operator_expr(
        "sites 1\nterm 1 A@1\nbind A proj builtin:cabello18 a1\n")
    a = q.realize_operator(expr)
    assert np.allclose(a @ a, np.eye(4))       # dichotomic: A^2 = I
    assert np.allclose(np.trace(a), -2)        # one +1, three -1 eigenvalues


def test_vector_source_read_once_per_parse(monkeypatch):
    loaded = []
    load = q.load_builtin_vectors
    monkeypatch.setattr(q, "load_builtin_vectors", lambda name: loaded.append(name) or load(name))
    expr = q.load_preset_expr("cabelloT")
    assert sum(spec[0] == "proj" for _, spec in expr.binds) == 18
    assert loaded == ["cabello18"]


# --- bounds ----------------------------------------------------------------------

def test_bell_state_projections():
    expr = q.load_preset_expr("chsh")
    s = 2 * math.sqrt(2)
    cases = [("psi-minus", (0, math.pi / 2, math.pi / 4, -math.pi / 4), -s),
             ("psi-plus", (0, math.pi / 2, math.pi / 4, -math.pi / 4), s),
             ("phi-minus", (0, math.pi / 2, -math.pi / 4, math.pi / 4), -s),
             ("phi-plus", (0, math.pi / 2, -math.pi / 4, math.pi / 4), s)]
    for name, angles, want in cases:
        op = q.realize_operator(expr, dict(zip(("t1", "t2", "t3", "t4"), angles)))
        assert abs(q.project_and_bound(op, q.bell_state(name)) - want) <= 1e-9


def test_project_identity():
    for name in ("psi-minus", "phi-plus"):
        assert abs(q.project_and_bound(np.eye(4), q.bell_state(name)) - 1) <= 1e-12


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        q.project_and_bound(np.eye(3), q.bell_state("psi-plus"))


def test_maximize_single_term():
    # max over angles of E(t1, t2) = sigma.sigma correlation is 1
    expr = q.parse_operator_expr(
        "sites 2\nparam t1 0.3\nparam t2 1.1\nterm 4 A@1 B@2\n"
        "bind A spin 1/2 1.5707963267948966 $t1\n"
        "bind B spin 1/2 1.5707963267948966 $t2\n")
    best, _ = q.maximize_bound(expr)
    assert abs(best - 1) <= 1e-6


def test_maximize_deterministic():
    expr = q.load_preset_expr("chsh")
    a = q.maximize_bound(expr, seed=0)
    b = q.maximize_bound(expr, seed=0)
    assert a == b


@pytest.mark.parametrize("seed", range(11))
def test_maximize_chsh_reaches_tsirelson(seed):
    expr = q.load_preset_expr("chsh")
    opt = q.maximize_bound(expr, seed=seed)
    assert abs(opt.lambda_max - 2 * math.sqrt(2)) <= 1e-9
    top = np.linalg.eigvalsh(q.realize_operator(expr, opt.params))[-1]
    assert abs(opt.lambda_max - top) <= 1e-10
    best, params = opt
    assert (best, params) == (opt.lambda_max, opt.params)


@pytest.mark.parametrize("seed", range(31))
def test_maximize_kcbs_certified(seed):
    # the norm bound 5 is the maximum; before the multi-start, 16 of these
    # seeds stopped at the local maximum 5/sqrt(2)
    expr = q.load_preset_expr("kcbs")
    opt = q.maximize_bound(expr, seed=seed)
    assert abs(opt.lambda_max - 5) <= 1e-9
    assert opt.upper_bound == 5 and opt.certified
    top = np.linalg.eigvalsh(q.realize_operator(expr, opt.params))[-1]
    assert abs(opt.lambda_max - top) <= 1e-10


# --- the norm bound ----------------------------------------------------------------

BOUNDED = {"chsh": q.load_preset_expr("chsh"), "kcbs": q.load_preset_expr("kcbs"),
           "cabelloT": q.load_preset_expr("cabelloT"),
           "mermin": q.parse_operator_expr(rotated_mermin(0))}


@pytest.mark.parametrize("name, bound", [("chsh", 4), ("kcbs", 5), ("cabelloT", 9), ("mermin", 4)])
def test_norm_bound(name, bound):
    assert abs(q.norm_bound(BOUNDED[name]) - bound) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["chsh", "kcbs", "mermin"]),
       st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=12, max_size=12))
def test_norm_bound_holds_at_any_angles(name, angles):
    expr = BOUNDED[name]
    op = q.realize_operator(expr, dict(zip(expr.param_names, angles)))
    assert np.linalg.eigvalsh(op)[-1] <= q.norm_bound(expr) + 1e-12
