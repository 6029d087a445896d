"""Vertex generation: term evaluation at states, noncontextual sign vertices,
and the bundled scenario catalog."""

from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from correlpoly.exact_hull import canonicalize, hull
from correlpoly.logic_core import (
    enumerate_states,
    load_builtin,
    parity_certificate,
    parse_logic,
)
from correlpoly.vertex_gen import (
    gen_noncontextual_vertices,
    gen_state_vertices,
    load_preset_terms,
    parse_terms,
)

from oracles import brute_force_sign_points
from scenarios import GOLDEN, SCENARIO_RECIPES, SCENARIOS, builtin_scenario, scenario_vertices

LOGICS = sorted(f.name.removesuffix(".logic")
                for f in (resources.files("correlpoly.data") / "logics").iterdir()
                if f.name.endswith(".logic"))


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_vertices_match_golden(name):
    ours = scenario_vertices(name)
    golden, _ = builtin_scenario(name)
    assert ours.dimension == golden.dimension
    assert set(ours.points) == {tuple(map(Fraction, p)) for p in golden.points}


def test_every_golden_pair_has_a_recipe():
    ines = sorted(f.name.removesuffix(".ine") for f in GOLDEN.iterdir() if f.name.endswith(".ine"))
    assert list(SCENARIOS) == ines and len(SCENARIOS) == 19
    assert set(SCENARIO_RECIPES) == set(SCENARIOS)


def test_epr_2x2_state_rows():
    # the state a1=0,a2=1,a3=0,a4=1 yields probability row (0,1,0,1,0,0,0,1)
    logic = load_builtin("epr-2x2")
    table = load_preset_terms("bwf-prob", logic)
    v = gen_state_vertices(logic, table)
    assert (0, 1, 0, 1, 0, 0, 0, 1) in {tuple(map(int, p)) for p in v.points}
    # the all-true state maps to (1,1,1,1) under the four joint expectations
    ve = gen_state_vertices(logic, load_preset_terms("chsh-expect", logic))
    assert (1, 1, 1, 1) in {tuple(map(int, p)) for p in ve.points}


def test_pentagon_prob_row_v1():
    logic = load_builtin("pentagon")
    v = gen_state_vertices(logic, load_preset_terms("pentagon-prob", logic))
    assert (1, 0, 0, 1, 0, 1, 0, 1, 0, 0) in {tuple(map(int, p)) for p in v.points}


def test_duplicates_kept_until_hull():
    logic = load_builtin("pentagon")
    v = gen_state_vertices(logic, load_preset_terms("bub-stairs", logic))
    assert len(v.points) == 11          # one row per state
    assert len(set(v.points)) == 11


@pytest.mark.parametrize("preset", ["chsh-expect", "bwf-prob", None])
def test_vertices_are_ints(preset):
    # products of bits and signs are ints, as hull reads them; None stands
    # for the noncontextual sign vertices
    logic = load_builtin("epr-2x2")
    v = (gen_noncontextual_vertices(logic) if preset is None
         else gen_state_vertices(logic, load_preset_terms(preset, logic)))
    assert {type(x) for p in v.points for x in p} == {int}


def test_affine_consistency_prob_vs_expect():
    # E = 2p - 1 componentwise for single-atom terms, state by state
    logic = load_builtin("two-obs")
    probs = parse_terms("term p1 prob a1\nterm p2 prob a2\n", logic)
    expects = parse_terms("term E1 expect a1\nterm E2 expect a2\n", logic)
    vp = gen_state_vertices(logic, probs)
    ve = gen_state_vertices(logic, expects)
    for p, e in zip(vp.points, ve.points):
        assert tuple(2 * x - 1 for x in p) == e


def test_no_states_is_an_error_with_certificate():
    logic = load_builtin("cabello18")
    table = parse_terms("term p1 prob a1\n", logic)
    with pytest.raises(ValueError, match="parity certificate"):
        gen_state_vertices(logic, table)


# --- noncontextual vertices ----------------------------------------------------

def test_noncontextual_counts():
    assert len(gen_noncontextual_vertices(load_builtin("pentagon")).points) == 32
    assert len(gen_noncontextual_vertices(load_builtin("specker-bug")).points) == 128
    # 27 atoms, 17 contexts of full rank: the whole 2^17 cube
    assert len(gen_noncontextual_vertices(load_builtin("gamma3-tkadlec")).points) == 2 ** 17


@pytest.mark.parametrize(
    "name", [n for n in LOGICS if len(load_builtin(n).atoms) <= 16])
def test_noncontextual_match_brute_force(name):
    logic = load_builtin(name)
    v = gen_noncontextual_vertices(logic)
    assert v.dimension == len(logic.contexts)
    assert v.points == brute_force_sign_points(logic)


@pytest.mark.parametrize("name", LOGICS)
def test_all_minus_point_vs_states_and_parity(name):
    # A state's 1-atoms meet every context exactly once, so signing them -1
    # makes every context product -1.  Under a parity certificate (an odd
    # number of contexts, each atom in an even number of them) the -1 atoms
    # meet the contexts an even number of times in total, so they cannot
    # meet each of them an odd number of times.
    logic = load_builtin(name)
    all_minus = (Fraction(-1),) * len(logic.contexts)
    has_point = all_minus in set(gen_noncontextual_vertices(logic).points)
    if enumerate_states(logic):
        assert has_point
    if parity_certificate(logic):
        assert not has_point and not enumerate_states(logic)


def test_noncontextual_single_context():
    logic = parse_logic("context x y z\n")
    v = gen_noncontextual_vertices(logic)
    assert set(v.points) == {(-1,), (1,)}


def test_noncontextual_cubes():
    # pentagon and bug sweeps fill the full +-1 cube of their context space
    for name, facets in (("pentagon", 10), ("specker-bug", 14)):
        h = canonicalize(hull(gen_noncontextual_vertices(load_builtin(name))))
        assert not h.linearities
        assert len(h.inequalities) == facets
        m = len(load_builtin(name).contexts)
        want = set()
        for j in range(m):
            for sgn in (1, -1):
                row = [0] * (m + 1)
                row[0], row[j + 1] = 1, sgn
                want.add(tuple(row))
        assert set(h.inequalities) == want


# --- term tables -------------------------------------------------------------------

def test_parse_terms_errors():
    logic = load_builtin("two-obs")
    with pytest.raises(ValueError, match="line 2: duplicate term label 'x'"):
        parse_terms("term x prob a1\nterm x prob a2\n", logic)
    with pytest.raises(ValueError):
        parse_terms("term x joint_prob a1 a1\n", logic)  # repeated atom
    with pytest.raises(ValueError, match="line 1: unknown term kind 'bogus'"):
        parse_terms("term x bogus a1\n", logic)
    with pytest.raises(ValueError, match="line 2: unknown atom 'zz'"):
        parse_terms("term x prob a1\nterm y prob zz\n", logic)
    # one atom's probability or expectation: a second atom is not dropped
    with pytest.raises(ValueError, match="line 2: term y: prob takes one atom, got 2"):
        parse_terms("term x prob a1\nterm y prob a1 a2\n", logic)
    with pytest.raises(ValueError, match="line 1: term E: expect takes one atom, got 2"):
        parse_terms("term E expect a2 a1\n", logic)
    with pytest.raises(ValueError):
        gen_state_vertices(logic, parse_terms("", logic))  # empty table


def test_context_product_not_state_evaluable():
    # context products are sign-vertex coordinates, not a term kind: a table
    # naming one is refused before any state is evaluated
    logic = load_builtin("two-obs")
    with pytest.raises(ValueError, match="unknown term kind 'context_product'"):
        gen_state_vertices(logic, parse_terms("term c0 context_product 0\n", logic))


def test_unknown_scenario():
    with pytest.raises(ValueError):
        builtin_scenario("nope")


# --- randomized consistency ---------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_joint_terms_multiply(bits):
    # joint_prob/joint_expect are plain products of the per-atom values
    logic = load_builtin("epr-2x2")
    from correlpoly.logic_core import enumerate_states
    states = enumerate_states(logic)
    s = states[bits % len(states)]
    table = load_preset_terms("bwf-prob", logic)
    row = gen_state_vertices(logic, table).points[bits % len(states)]
    idx = {t.label: i for i, t in enumerate(table)}
    for (i, k) in ((1, 3), (1, 4), (2, 3), (2, 4)):
        a = logic.atoms.index(f"a{i}")
        b = logic.atoms.index(f"a{k}")
        assert row[idx[f"p{i}{k}"]] == s[a] * s[b]
