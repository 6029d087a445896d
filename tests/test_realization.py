"""Vector realizations: orthogonality verification of the bundled
(logic, vectors) pairs, and logic derivation from orthogonality cliques."""

from fractions import Fraction

import pytest

from correlpoly.logic_core import load_builtin as load_logic
from correlpoly.realization import (
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


def test_exact_mode_rejects_float_coordinates():
    with pytest.raises(ValueError):
        verify_realization(load_logic("specker-bug"), load_vectors("specker-bug"),
                           tol=0)


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
    from correlpoly.logic_core import parse_logic
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
    derived = derive_logic(real.vectors, 3, tol=0)
    want = {frozenset(logic.atoms[a].name for a in c.atoms) for c in logic.contexts}
    got = {frozenset(derived.atoms[a].name for a in c.atoms) for c in derived.contexts}
    assert got == want


def test_derive_yu_oh_matches_clique_oracle():
    real = load_vectors("yu-oh")
    derived = derive_logic(real.vectors, 3)
    got = sorted(c.atoms for c in derived.contexts)
    # exact integer orthogonality oracle over the 13 x 13 Gram matrix
    assert got == brute_force_cliques(real.vectors, _orth)
    assert len(got) == 16
    logic = load_logic("yu-oh")
    want = {frozenset(logic.atoms[a].name for a in c.atoms) for c in logic.contexts}
    names = {frozenset(derived.atoms[a].name for a in c.atoms) for c in derived.contexts}
    assert names == want


def test_derive_cabello18_cliques():
    # the 18 rays have 9 orthogonal pairs beyond the drawn contexts, so the
    # maximal-clique logic has extra small contexts; the size-4 cliques are
    # exactly the 9 drawn contexts
    real = load_vectors("cabello18")
    derived = derive_logic(real.vectors, 4, tol=0)
    logic = load_logic("cabello18")
    by_size = {}
    for c in derived.contexts:
        by_size.setdefault(len(c.atoms), []).append(
            frozenset(derived.atoms[a].name for a in c.atoms))
    want = {frozenset(logic.atoms[a].name for a in c.atoms) for c in logic.contexts}
    assert set(by_size[4]) == want
    assert len(derived.contexts) == 24
    assert sorted(c.atoms for c in derived.contexts) \
        == brute_force_cliques(real.vectors, _orth)


def test_derive_gamma1_adds_a13_c_clique():
    # a13 = (1,0,0) and c = (0,0,1) are orthogonal but share no drawn
    # context, so the derived logic has one 2-atom clique beyond the logic
    real = load_vectors("gamma1")
    derived = derive_logic(real.vectors, 3)
    logic = load_logic("gamma1")
    want = {frozenset(logic.atoms[a].name for a in c.atoms) for c in logic.contexts}
    got = {frozenset(derived.atoms[a].name for a in c.atoms) for c in derived.contexts}
    assert got == want | {frozenset({"a13", "c"})}


def test_derive_needs_enough_vectors():
    real = load_vectors("pentagon")
    with pytest.raises(ValueError):
        derive_logic(real.vectors[:2], 3)


# --- parsing ---------------------------------------------------------------------

def test_parse_vectors_mixed_entries():
    real = parse_vectors("dim 2\nvector a 1/2 -3\nvector b 0.5 1\n")
    assert real.vectors[0].exact and real.vectors[0].coords == (Fraction(1, 2), -3)
    assert not real.vectors[1].exact


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
