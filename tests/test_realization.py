"""Vector realizations: orthogonality verification of the bundled
(logic, vectors) pairs, and logic derivation from orthogonality cliques."""

import inspect
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from correlpoly import realization
from correlpoly.logic_core import Logic, load_builtin as load_logic, parse_logic
from correlpoly.realization import (
    Realization,
    RealVector,
    derive_logic,
    load_builtin as load_vectors,
    parse_vectors,
    verify_realization,
)

from oracles import brute_force_cliques

PAIRS = ["pentagon", "specker-bug", "gamma1", "gamma3", "gamma3-tkadlec",
         "yu-oh", "cabello18"]


@pytest.mark.parametrize("name", PAIRS)
def test_builtin_realizations_verify(name):
    logic = load_logic(name)
    real = load_vectors(name)
    report = verify_realization(logic, real)
    assert report.ok, (report.nonorthogonal, report.collinear)


def test_yu_oh_non_basis_contexts_warn():
    report = verify_realization(load_logic("yu-oh"), load_vectors("yu-oh"))
    # 12 two-atom edge contexts in a 3-dimensional space
    assert len(report.size_warnings) == 12
    assert all(size == 2 for _, size in report.size_warnings)


def test_exact_verification_of_integer_realizations():
    for name in ("pentagon", "cabello18"):
        report = verify_realization(load_logic(name), load_vectors(name), tol=0)
        assert report.ok


def test_exact_mode_reads_decimals_as_rationals():
    # specker-bug writes sqrt(2) as the 17-digit decimal 1.4142135623730951,
    # whose square is 2 + 14481069235364401/10^32: at tol=0 the pairs that
    # meet it are near orthogonal, and each residual is that exact rational
    report = verify_realization(load_logic("specker-bug"), load_vectors("specker-bug"),
                                tol=0)
    assert not report.ok and not report.collinear
    assert report.nonorthogonal[0] == (0, "a2", "a3", Fraction(14481069235364401, 10**32))
    assert all(type(d) is Fraction and 0 < d < 1e-15 for _, _, _, d in report.nonorthogonal)


def test_exact_mode_tests_decimal_pairs():
    real = parse_vectors("dim 2\nvector a 1 0\nvector b 0 1\nvector c 0.5 0.5\n")
    logic = Logic("l", ("a", "b", "c"), ((0, 1), (2,)))
    # c is (1/2, 1/2) exactly: orthogonal to neither a nor b, nor on their rays
    assert verify_realization(logic, real, tol=0).ok
    assert derive_logic(real, tol=0).contexts == ((0, 1), (2,))
    # 0.1 0.2 and 0.2 -0.1 are orthogonal as the rationals they name
    real = parse_vectors("dim 2\nvector a 0.1 0.2\nvector b 0.2 -0.1\n")
    assert verify_realization(Logic("l", ("a", "b"), ((0, 1),)), real, tol=0).ok


def _as_fractions(real):
    return Realization(real.dimension, tuple(
        RealVector(v.name, tuple(map(Fraction, v.coords))) for v in real.vectors))


@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("tol", [realization.DEFAULT_TOL, 0])
def test_int_coordinates_test_as_fractions_do(name, tol):
    # the bundled vectors hold ints (and Fractions, their decimals); as
    # Fractions, which every coordinate once was, each test gives the same
    # answer or error
    logic = load_logic(name)

    def outcome(real):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return (derive_logic(real, tol=tol),
                        verify_realization(logic, real, tol=tol))
        except ValueError as exc:
            return str(exc)

    real = load_vectors(name)
    assert outcome(real) == outcome(_as_fractions(real))


def test_real_vector_rejects_float_entries():
    assert RealVector._fields == ("name", "coords")
    assert not hasattr(RealVector("a", (1, Fraction(1, 3))), "exact")
    # no float reaches the pair test, not even a numpy scalar
    for x in (0.1 + 0.2, np.float64(0.5), -0.0):
        with pytest.raises(TypeError, match="vector a has a float entry"):
            RealVector("a", (x, 1))
    # a caller can no longer mark coordinates exact
    with pytest.raises(TypeError):
        RealVector("a", (Fraction(3, 10), 1), True)


def test_derive_takes_the_realization():
    assert tuple(inspect.signature(derive_logic).parameters) == ("real", "tol")


@pytest.mark.parametrize("tol", [realization.DEFAULT_TOL, 0, 1e-3, 1e-14])
def test_exact_vectors_past_the_float_range(tol):
    # 10^200 squared is past the float range; exact pairs never meet a
    # float.  c is orthogonal to no other vector: a context of its own
    big = 10 ** 200
    real = Realization(2, (RealVector("a", (big, 0)), RealVector("b", (0, 1)),
                           RealVector("c", (big, big)), RealVector("d", (Fraction(1, big), 0))))
    assert derive_logic(real, tol=tol).contexts == ((0, 1), (1, 3), (2,))
    report = verify_realization(Logic("l", ("a", "b", "c", "d"), ((0, 1), (1, 3), (2,))),
                                real, tol=tol)
    assert report.collinear == (("a", "d"),) and not report.nonorthogonal


def _decimal(x, exponent):
    """x, whose denominator has no prime factor but 2 and 5, as a decimal
    token: with an exponent (n e-m), or else with a point."""
    m = 0
    while (x * 10**m).denominator != 1:
        m += 1
    n = int(x * 10**m)
    return f"{n}e-{m}" if exponent else str(Decimal(n).scaleb(-m))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 3), exponent=st.booleans(), data=st.data())
def test_decimals_test_as_the_ratios_they_name(dim, exponent, data):
    # a terminating decimal is the rational p/q it names: written either way,
    # a vector set derives and verifies alike at every tolerance
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 4, 5, 8, 10, 25)))
    vecs = data.draw(st.lists(st.tuples(*[entry] * dim).filter(any),
                              min_size=dim, max_size=6))
    names = [f"v{i}" for i in range(len(vecs))]
    logic = Logic("l", tuple(names), tuple((i, i + 1) for i in range(len(vecs) - 1)))

    def outcome(write, tol):
        real = parse_vectors(f"dim {dim}\n" + "".join(
            f"vector {name} {' '.join(map(write, v))}\n" for name, v in zip(names, vecs)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # intertwining contexts
            return derive_logic(real, tol=tol), verify_realization(logic, real, tol=tol)

    for tol in (0, 0.5, realization.DEFAULT_TOL):
        assert outcome(lambda x: _decimal(x, exponent), tol) \
            == outcome(lambda x: f"{x.numerator}/{x.denominator}", tol)


def test_exact_tie_at_the_tolerance_counts():
    # a6 . a8 = 3 and |a6|^2 = |a8|^2 = 6: |cos| is exactly 1/2, which
    # tol = 0.5 admits; the float test of |<x|y>| <= tol |x| |y| rounded
    # 0.5 sqrt(6) sqrt(6) below 3
    real = load_vectors("pentagon")
    derived = derive_logic(real, tol=0.5)
    names = {tuple(derived.atoms[a] for a in c) for c in derived.contexts}
    assert {("a2", "a6", "a8"), ("a6", "a7", "a8")} <= names
    a6, a8 = (real.vectors[derived.atoms.index(n)].coords for n in ("a6", "a8"))
    assert 0.5 * sum(x * x for x in a6) ** 0.5 * sum(x * x for x in a8) ** 0.5 < 3


@pytest.mark.parametrize("tol", [-1e-10, float("nan"), float("inf"), float("-inf")])
def test_tol_must_be_finite_and_nonnegative(tol):
    real = load_vectors("pentagon")
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        verify_realization(load_logic("pentagon"), real, tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        derive_logic(real, tol=tol)


def test_perturbed_realization_fails():
    real = load_vectors("pentagon")
    text = ["dim 3"]
    for v in real.vectors:
        coords = list(v.coords)
        if v.name == "a2":
            coords[0] = Fraction(1, 10)
        text.append("vector " + v.name + " " + " ".join(str(c) for c in coords))
    bad = parse_vectors("\n".join(text))
    report = verify_realization(load_logic("pentagon"), bad)
    assert not report.ok
    assert any("a2" in (x, y) for _, x, y, _ in report.nonorthogonal)


def test_collinear_atoms_flagged():
    bad = parse_vectors(
        "dim 3\nvector x 1 0 0\nvector y 0 1 0\nvector z 0 0 1\nvector w 0 0 5\n")
    logic = parse_logic("context x y z\ncontext x y w\n")
    report = verify_realization(logic, bad)
    assert ("z", "w") in report.collinear
    assert not report.ok


# --- derivation ---------------------------------------------------------------

def _orth(u, v):
    return sum(a * b for a, b in zip(u.coords, v.coords)) == 0


def test_derive_pentagon_recovers_contexts():
    real = load_vectors("pentagon")
    logic = load_logic("pentagon")
    derived = derive_logic(real, tol=0)
    want = {frozenset(logic.atoms[a] for a in c) for c in logic.contexts}
    got = {frozenset(derived.atoms[a] for a in c) for c in derived.contexts}
    assert got == want


def test_derive_yu_oh_matches_clique_oracle():
    real = load_vectors("yu-oh")
    derived = derive_logic(real)
    got = sorted(derived.contexts)
    # exact integer orthogonality oracle over the 13 x 13 Gram matrix
    assert got == brute_force_cliques(real.vectors, _orth)
    assert len(got) == 16
    logic = load_logic("yu-oh")
    want = {frozenset(logic.atoms[a] for a in c) for c in logic.contexts}
    names = {frozenset(derived.atoms[a] for a in c) for c in derived.contexts}
    assert names == want


def test_derive_cabello18_cliques():
    # the 18 rays have 9 orthogonal pairs beyond the drawn contexts, so the
    # maximal-clique logic has extra small contexts; the size-4 cliques are
    # exactly the 9 drawn contexts
    real = load_vectors("cabello18")
    with pytest.warns(UserWarning, match="intertwine") as caught:
        derived = derive_logic(real, tol=0)
    # the warning names derive_logic, which built the logic
    assert {w.filename for w in caught} == {realization.__file__}
    logic = load_logic("cabello18")
    by_size = {}
    for c in derived.contexts:
        by_size.setdefault(len(c), []).append(
            frozenset(derived.atoms[a] for a in c))
    want = {frozenset(logic.atoms[a] for a in c) for c in logic.contexts}
    assert set(by_size[4]) == want
    assert len(derived.contexts) == 24
    assert sorted(derived.contexts) \
        == brute_force_cliques(real.vectors, _orth)


def test_derive_gamma1_adds_a13_c_clique():
    # a13 = (1,0,0) and c = (0,0,1) are orthogonal but share no drawn
    # context, so the derived logic has one 2-atom clique beyond the logic
    real = load_vectors("gamma1")
    derived = derive_logic(real)
    logic = load_logic("gamma1")
    want = {frozenset(logic.atoms[a] for a in c) for c in logic.contexts}
    got = {frozenset(derived.atoms[a] for a in c) for c in derived.contexts}
    assert got == want | {frozenset({"a13", "c"})}


def test_derive_needs_enough_vectors():
    real = load_vectors("pentagon")
    with pytest.raises(ValueError):
        derive_logic(Realization(3, real.vectors[:2]))


def test_derive_needs_no_recursion():
    # one context of 300 atoms: a search that recursed once per clique member
    # would pass the lowered limit
    script = (
        "import sys\n"
        "from correlpoly.realization import Realization, RealVector, derive_logic\n"
        "n = 300\n"
        "real = Realization(n, tuple(RealVector(f'e{i}', tuple(int(i == k) for k in range(n)))\n"
        "                            for i in range(n)))\n"
        "sys.setrecursionlimit(200)\n"
        "print(derive_logic(real).contexts == (tuple(range(n)),))\n")
    src = str(Path(realization.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.stdout == "True\n", out.stderr[-500:]


def test_derive_makes_one_dot_product_per_pair(monkeypatch):
    # 300 norms and one product for each of the 44850 pairs; a test that
    # took both norms again for every pair made 134550
    calls = 0
    dot = realization._dot

    def counted(x, y):
        nonlocal calls
        calls += 1
        return dot(x, y)

    monkeypatch.setattr(realization, "_dot", counted)
    n = 300
    real = Realization(n, tuple(RealVector(f"e{i}", tuple(int(i == k) for k in range(n)))
                                for i in range(n)))
    assert derive_logic(real).contexts == (tuple(range(n)),)
    assert calls == n + n * (n - 1) // 2 == 45150


# --- parsing ---------------------------------------------------------------------

def test_parse_vectors_mixed_entries():
    real = parse_vectors("dim 2\nvector a 1/2 -3\nvector b 0.5 1\n"
                         "vector c 1.4142135623730951 1e-400\n")
    a, b, c = (v.coords for v in real.vectors)
    assert a == (Fraction(1, 2), -3) and b == (Fraction(1, 2), 1)
    # a decimal is the rational it names, past the float range too
    assert c == (Fraction(14142135623730951, 10**16), Fraction(1, 10**400))
    # an integer token reads as an int, any other as a Fraction
    assert [[type(x) for x in v.coords] for v in real.vectors] \
        == [[Fraction, int], [Fraction, int], [Fraction, Fraction]]


def test_parse_vectors_errors():
    with pytest.raises(ValueError):
        parse_vectors("vector a 1 0\n")  # dim must come first
    with pytest.raises(ValueError):
        parse_vectors("dim 2\nvector a 1\n")  # wrong arity
    with pytest.raises(ValueError):
        parse_vectors("dim 2\nvector a 1 0\nvector a 0 1\n")  # duplicate
    with pytest.raises(ValueError):
        parse_vectors("dim 2\nvector a 0 0\n")  # zero vector
    with pytest.raises(ValueError, match="line 3: duplicate dim header"):
        parse_vectors("dim 3\nvector a 1 0 0\ndim 2\nvector b 1 0\n")
    with pytest.raises(ValueError, match="missing dim header"):
        parse_vectors("# no dim, no vector\n")
