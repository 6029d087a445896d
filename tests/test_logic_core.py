"""Logics and two-valued states: parsing, enumeration against an exhaustive
oracle, parity certificates, colorings, and partition logics."""

import warnings
from itertools import product

import pytest

from correlpoly import logic_core
from correlpoly.logic_core import (
    enumerate_colorings,
    enumerate_states,
    is_separating,
    load_builtin,
    parity_certificate,
    parse_logic,
    partition_logic,
)

from oracles import brute_force_states

STATE_COUNTS = {
    "firefly": 5,
    "pentagon": 11,
    "specker-bug": 14,
    "epr-2x2": 16,
    "epr-2x3": 64,
    "yu-oh": 0,
    "cabello18": 0,
    "one-obs": 2,
    "two-obs": 4,
    "three-obs": 8,
}


@pytest.mark.parametrize("name,count", sorted(STATE_COUNTS.items()))
def test_state_counts(name, count):
    assert len(enumerate_states(load_builtin(name))) == count


@pytest.mark.parametrize("name", sorted(STATE_COUNTS) + ["gamma1"])
def test_states_match_brute_force(name):
    logic = load_builtin(name)
    assert len(logic.atoms) <= 20
    got = enumerate_states(logic)
    assert got == brute_force_states(logic)
    assert got == sorted(got)  # deterministic lexicographic order


def test_gamma_extension_state_counts():
    # gamma1's 22 is derived by hand in test_criterion_1_state_counts
    # (tests/test_acceptance.py); gamma3 and gamma3-tkadlec are determinism
    # pins, not golden values
    assert len(enumerate_states(load_builtin("gamma1"))) == 22
    assert len(enumerate_states(load_builtin("gamma3"))) == 82
    assert len(enumerate_states(load_builtin("gamma3-tkadlec"))) == 24


def test_parity_certificate_cabello():
    logic = load_builtin("cabello18")
    cert = parity_certificate(logic)
    assert cert is not None
    assert cert.context_count == 9
    assert all(k % 2 == 0 for k in cert.atom_context_counts)
    assert enumerate_states(logic) == []


def test_parity_certificate_inapplicable():
    assert parity_certificate(load_builtin("pentagon")) is None
    assert parity_certificate(load_builtin("firefly")) is None


def test_pentagon_states_are_separating():
    logic = load_builtin("pentagon")
    assert is_separating(logic, enumerate_states(logic)) == []


def test_gamma3_unseparated_pairs():
    logic = load_builtin("gamma3")
    pairs = is_separating(logic, enumerate_states(logic))
    assert ("a1", "b1") in pairs
    assert ("a7", "b7") in pairs


def test_specker_bug_true_implies_false():
    # v(a1) = 1 forces v(a7) = 0 at the opposite extremal atom in every state
    logic = load_builtin("specker-bug")
    i1, i7 = logic.atoms.index("a1"), logic.atoms.index("a7")
    states = enumerate_states(logic)
    assert any(s[i1] == 1 for s in states)
    assert all(s[i7] == 0 for s in states if s[i1] == 1)


def test_yu_oh_h_property():
    # at most one of h0..h3 takes value 1 (vacuously: no states exist)
    logic = load_builtin("yu-oh")
    hs = [logic.atoms.index(n) for n in ("h0", "h1", "h2", "h3")]
    states = enumerate_states(logic)
    assert all(sum(s[i] for i in hs) <= 1 for s in states)


# --- colorings ---------------------------------------------------------------

def test_firefly_colorings_match_brute_force():
    logic = load_builtin("firefly")
    got = enumerate_colorings(logic, 3)
    want = set()
    for colors in product(range(3), repeat=len(logic.atoms)):
        if all(len({colors[a] for a in ctx}) == len(ctx)
               for ctx in logic.contexts):
            want.add(colors)
    assert got == sorted(want)  # in lexicographic order
    assert len(got) == 12


def test_colorings_up_to_permutation():
    logic = load_builtin("firefly")
    reps = enumerate_colorings(logic, 3, up_to_permutation=True)
    # the 3! color permutations act freely: 12 colorings = 2 orbits x 6
    assert len(reps) == 2
    assert len(enumerate_colorings(logic, 3)) == len(reps) * 6


def test_long_chain_needs_no_recursion():
    # 3000 contexts, each sharing one atom with the next: a search nesting a
    # call per context or per atom would pass Python's recursion limit
    chain = parse_logic("".join(f"context a{i} a{i + 1}\n" for i in range(3000)))
    alternating = [tuple((i + k) % 2 for i in range(3001)) for k in (0, 1)]
    assert enumerate_states(chain) == alternating
    assert enumerate_colorings(chain, 2) == alternating


def test_coloring_k_below_context_size_rejected():
    with pytest.raises(ValueError):
        enumerate_colorings(load_builtin("pentagon"), 2)


def test_pentagon_has_three_colorings():
    assert len(enumerate_colorings(load_builtin("pentagon"), 3,
                                   up_to_permutation=True)) > 0


# --- partition logic -----------------------------------------------------------

def test_firefly_partition_logic():
    logic = load_builtin("firefly")
    states = enumerate_states(logic)
    part = partition_logic(states, logic)
    nstates = len(states)
    for ctx in logic.contexts:
        blocks = [set(part[a]) for a in ctx]
        assert set().union(*blocks) == set(range(1, nstates + 1))
        for i in range(len(blocks)):
            for k in range(i + 1, len(blocks)):
                assert not blocks[i] & blocks[k]


def test_partition_logic_empty_states_rejected():
    logic = load_builtin("cabello18")
    with pytest.raises(ValueError):
        partition_logic([], logic)


# --- parsing and validation -----------------------------------------------------

def test_parse_logic_basic():
    logic = parse_logic("logic demo\ncontext x y z\ncontext z w\n")
    assert logic.name == "demo"
    assert list(logic.atoms) == ["x", "y", "z", "w"]
    assert len(logic.contexts) == 2


def test_parse_logic_gives_names_and_index_tuples():
    # atoms are their names in order of first appearance; a context is the
    # tuple of its atoms' indices, in the order the line lists them
    logic = parse_logic("context x y z\ncontext z w\ncontext w x\n")
    assert logic.atoms == ("x", "y", "z", "w")
    assert logic.contexts == ((0, 1, 2), (2, 3), (3, 0))


def test_parse_logic_one_atom_context():
    # as the Logic record: a vector orthogonal to no other is such a context
    logic = parse_logic("context x y z\ncontext d\n")
    assert logic.contexts == ((0, 1, 2), (3,))


def test_parse_logic_errors():
    with pytest.raises(ValueError, match="line 1: expected 'context <atom>...'"):
        parse_logic("context\n")  # no atom
    with pytest.raises(ValueError):
        parse_logic("context x x y\n")  # repeated atom
    with pytest.raises(ValueError):
        parse_logic("junk\n")
    with pytest.raises(ValueError, match="line 3: duplicate logic header"):
        parse_logic("logic a\ncontext x y\nlogic b\n")


def test_duplicate_context_rejected():
    with pytest.raises(ValueError, match="line 2: duplicate context"):
        parse_logic("context x y\ncontext y x\n")


def test_overlapping_contexts_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_logic("context x y z\ncontext x y w\n")
    assert any("intertwine" in str(w.message) for w in caught)
    # the warning names the code that built the logic
    assert {w.filename for w in caught} == {logic_core.__file__}


def test_unknown_builtin():
    with pytest.raises(ValueError):
        load_builtin("nonexistent")
