"""End-to-end acceptance checks.

One test function per acceptance criterion; run with ``pytest -v`` to get a
single pass/fail line for each.  Tolerances and time budgets are pinned in
the assertions themselves.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

import correlpoly.quantum as q
from correlpoly.exact_hull import VRep, canonicalize, hull, vertices
from correlpoly.logic_core import (
    enumerate_colorings,
    enumerate_states,
    is_separating,
    load_builtin,
    parity_certificate,
)
from correlpoly.vertex_gen import gen_noncontextual_vertices

from oracles import (Direction, brute_force_facets, brute_force_states, correlation, delta_E,
                     frozen_spectrum, projectors, spin_operator)
from scenarios import builtin_scenario, scenario_vertices


def canon_key(h):
    c = canonicalize(h)
    return frozenset(c.linearities), frozenset(c.inequalities)


def int_rows(rows):
    return {tuple(map(int, r)) for r in rows}


# --- 1: two-valued state counts ----------------------------------------------

def test_criterion_1_state_counts():
    # gamma1 is the 7 bug contexts plus {a1,c,b7} and {a7,c,b1}.  Of the 14
    # bug states, 3 have a1 = 1 (then c = b7 = 0, so b1 = 1: one extension),
    # 3 have a7 = 1 (one extension, by symmetry) and 8 have a1 = a7 = 0 (two
    # extensions: c = 1, or b1 = b7 = 1).  Total 3 + 3 + 2*8 = 22; no bug
    # state extends more than two ways, so 28 is an upper bound.
    expected = {"firefly": 5, "pentagon": 11, "specker-bug": 14,
                "gamma1": 22, "cabello18": 0}
    got = {}
    for name in expected:
        t0 = time.monotonic()
        got[name] = len(enumerate_states(load_builtin(name)))
        assert time.monotonic() - t0 < 1.0, name
    cert = parity_certificate(load_builtin("cabello18"))
    assert cert is not None
    assert cert.context_count % 2 == 1
    assert all(c % 2 == 0 for c in cert.atom_context_counts)
    assert got == expected
    # the count alone could match a different logic: check gamma1's defining
    # property, a1 true forces b1 true, on states where a1 = 1 does occur
    gamma1 = load_builtin("gamma1")
    a1, b1 = gamma1.atoms.index("a1"), gamma1.atoms.index("b1")
    states = enumerate_states(gamma1)
    assert any(s[a1] == 1 for s in states)
    assert all(s[b1] == 1 for s in states if s[a1] == 1)


# --- 2: golden hulls for the small scenarios -----------------------------------

def test_criterion_2_golden_hulls():
    shapes = {              # (inequalities, linearities) after canonicalization
        "one-var": (2, 0), "two-var-prob": (4, 0), "two-var-expect": (4, 0),
        "three-var-prob": (8, 0), "three-var-expect": (6, 0),
        "bwf-2x2": (24, 0), "chsh-2x2": (16, 0), "pentagon-prob": (11, 5),
        "pentagon-pair-expect-KCBS": (11, 0),
        "pentagon-all-pair-expect": (11, 35), "bub-stairs": (11, 0),
        "pentagon-nonintertwining": (11, 0), "bug-prob": (16, 7),
        "bug-edge-expect": (17, 1),
    }
    for name, (n_ineq, n_lin) in shapes.items():
        v, golden = builtin_scenario(name)
        t0 = time.monotonic()
        h = canonicalize(hull(v))
        assert time.monotonic() - t0 < 5.0, name
        assert (len(h.inequalities), len(h.linearities)) == (n_ineq, n_lin), name
        assert canon_key(h) == canon_key(golden), name
    # spot-checked facet rows
    _, kcbs = builtin_scenario("pentagon-pair-expect-KCBS")
    assert (3, 1, 1, 1, 1, 1) in int_rows(kcbs.inequalities)
    _, bub = builtin_scenario("bub-stairs")
    assert (2, -1, -1, -1, -1, -1) in int_rows(bub.inequalities)   # 2 - sum p >= 0
    _, nonint = builtin_scenario("pentagon-nonintertwining")
    assert (-1, 1, 1, 1, 1, 1) in int_rows(nonint.inequalities)    # sum p >= 1
    _, edge = builtin_scenario("bug-edge-expect")
    assert int_rows(canonicalize(edge).linearities) == {(0, 1, -1, 1, -1, 1, -1)}


# --- 3: large hulls -------------------------------------------------------------

def test_criterion_3_large_hulls():
    for name, facets in (("epr-2x3-full", 684), ("epr-2x3-joints", 90)):
        v = scenario_vertices(name)
        t0 = time.monotonic()
        h = canonicalize(hull(v))
        assert time.monotonic() - t0 < 180.0, name
        assert not h.linearities and len(h.inequalities) == facets, name
        _, golden = builtin_scenario(name)
        assert canon_key(h) == canon_key(golden), name

    t0 = time.monotonic()
    v = gen_noncontextual_vertices(load_builtin("cabello18"))   # GF(2) span, rank 8
    assert time.monotonic() - t0 < 10.0
    assert len(set(v.points)) == 256
    dedup = VRep(v.dimension, tuple(sorted(set(v.points))))
    t0 = time.monotonic()
    h = canonicalize(hull(dedup))
    assert time.monotonic() - t0 < 120.0
    assert not h.linearities and len(h.inequalities) == 274
    _, golden = builtin_scenario("cabello-contextual")
    assert canon_key(h) == canon_key(golden)
    back = vertices(h)
    assert len(set(back.points)) == 256
    assert set(back.points) == {tuple(map(Fraction, p)) for p in dedup.points}


# --- 4: noncontextual sign cubes -------------------------------------------------

def test_criterion_4_noncontextual_cubes():
    from importlib import resources
    from correlpoly.exact_hull import parse_dd
    for name, golden_name, (n_vert, n_facet) in (
            ("pentagon", "pentagon-noncontextual", (32, 10)),
            ("specker-bug", "bug-noncontextual", (128, 14))):
        v = gen_noncontextual_vertices(load_builtin(name))
        assert len(v.points) == n_vert, name
        h = canonicalize(hull(v))
        assert not h.linearities and len(h.inequalities) == n_facet, name
        golden = parse_dd(resources.files("correlpoly")
                          .joinpath(f"data/golden/{golden_name}.ine").read_text())
        assert canon_key(h) == canon_key(golden), name


# --- 5: quantum spectra -----------------------------------------------------------

def test_criterion_5_quantum_spectra():
    s = 2 * math.sqrt(2)

    # four-term two-site operator at its default angles (0, pi/2, pi/4, 3pi/4)
    expr = q.load_preset_expr("chsh")
    evs = q.eigenvalues(q.realize_operator(expr))
    assert np.max(np.abs(np.array(evs) - np.array([-s, 0, 0, s]))) <= 1e-9

    t0 = time.monotonic()
    best, _ = q.maximize_bound(expr)
    assert time.monotonic() - t0 < 10.0
    assert abs(best - s) <= 1e-6

    # maximally entangled two-qubit states reproduce -+2*sqrt(2)
    for name, angles, want in (
            ("psi-minus", (0, math.pi / 2, math.pi / 4, -math.pi / 4), -s),
            ("psi-plus", (0, math.pi / 2, math.pi / 4, -math.pi / 4), s),
            ("phi-minus", (0, math.pi / 2, -math.pi / 4, math.pi / 4), -s),
            ("phi-plus", (0, math.pi / 2, -math.pi / 4, math.pi / 4), s)):
        op = q.realize_operator(expr, dict(zip(("t1", "t2", "t3", "t4"), angles)))
        assert abs(q.project_and_bound(op, q.bell_state(name)) - want) <= 1e-9

    # pentagon pair-expectation operator: all 9 eigenvalues
    kcbs = q.eigenvalues(q.realize_operator(q.load_preset_expr("kcbs")))
    frozen = frozen_spectrum("pentagon-pair-spectrum")
    assert np.max(np.abs(np.array(kcbs) - np.array(frozen))) <= 1e-4

    # 256 x 256 contextuality operator via the package's own eigensolver
    t0 = time.monotonic()
    big = q.eigenvalues(q.realize_operator(q.load_preset_expr("cabelloT")))
    assert time.monotonic() - t0 < 60.0
    assert abs(min(big) - (-6.94177)) <= 1e-3
    assert abs(max(big) - 6.023) <= 1e-3


# --- 6: correlation formulas --------------------------------------------------------

def test_criterion_6_correlation_formulas():
    rng = random.Random(97)
    for j in (Fraction(1, 2), 1, Fraction(3, 2)):
        jj = float(j)
        for _ in range(1000):
            d1 = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            d2 = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            want = -(jj * (jj + 1) / 3) * (
                math.cos(d1.theta) * math.cos(d2.theta)
                + math.cos(d1.phi - d2.phi) * math.sin(d1.theta) * math.sin(d2.theta))
            assert abs(correlation(j, d1, d2) - want) <= 1e-10

    # the classical-quantum gap is stationary exactly at arcsin(2/pi):
    # bisect the central-difference derivative of delta_E
    def deriv(theta, h=1e-5):
        return (delta_E(theta + h) - delta_E(theta - h)) / (2 * h)

    lo, hi = 0.5, 0.9
    assert deriv(lo) > 0 > deriv(hi)
    while hi - lo > 2e-10:
        mid = (lo + hi) / 2
        if deriv(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2 - math.asin(2 / math.pi)) <= 1e-9


# --- 7: property suites ----------------------------------------------------------------

def _satisfies(h, p):
    return (all(r[0] + sum(a * x for a, x in zip(r[1:], p)) == 0
                for r in h.linearities)
            and all(r[0] + sum(a * x for a, x in zip(r[1:], p)) >= 0
                    for r in h.inequalities))


def _full_dim(points):
    from oracles import _rank
    d = len(points[0])
    diffs = [[Fraction(x - y) for x, y in zip(p, points[0])] for p in points[1:]]
    return _rank(diffs) == d if diffs else d == 0


def test_criterion_7_property_suites():
    # hull soundness / round-trip / order-independence on 200 random vertex
    # sets (alternating 0/1 and +-1 coordinates) in <= 8 dimensions, with the
    # brute-force facet oracle cross-checked in <= 4 dimensions
    rng = random.Random(20260823)
    oracle_checked = 0
    for i in range(200):
        values = (0, 1) if i % 2 == 0 else (-1, 1)
        d = rng.randint(1, 8)
        universe = [tuple(rng.choice(values) for _ in range(d))
                    for _ in range(40)]
        points = sorted(set(universe))[: rng.randint(d + 1, 12)]
        if len(points) < 2:
            continue
        v = VRep(d, tuple(points))
        h = hull(v)
        assert all(_satisfies(h, p) for p in points)
        back = vertices(h)
        assert set(back.points) <= {tuple(map(Fraction, p)) for p in points}
        assert canon_key(hull(back)) == canon_key(h)
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert canon_key(hull(VRep(d, tuple(shuffled)))) == canon_key(h)
        if d <= 4 and _full_dim(points):
            assert not h.linearities
            assert int_rows(canonicalize(h).inequalities) \
                == brute_force_facets(points)
            oracle_checked += 1
    assert oracle_checked >= 20

    # projector spectral identities for j in {1/2, 1, 3/2}
    for j in (Fraction(1, 2), 1, Fraction(3, 2)):
        d = int(2 * j + 1)
        for _ in range(5):
            direction = Direction(rng.uniform(0, math.pi),
                                    rng.uniform(0, 2 * math.pi))
            projs = projectors(j, direction)
            total = sum(projs)
            assert np.max(np.abs(total - np.eye(d))) <= 1e-12
            recon = sum((float(j) - k) * p
                        for k, p in enumerate(reversed(projs)))
            assert np.max(np.abs(recon - spin_operator(j, direction))) <= 1e-12
            for a, pa in enumerate(projs):
                for b, pb in enumerate(projs):
                    want = pa if a == b else np.zeros((d, d))
                    assert np.max(np.abs(pa @ pb - want)) <= 1e-12

    # backtracking state enumeration vs 2^n brute force on every built-in
    # logic with <= 20 atoms
    for name in ("one-obs", "two-obs", "three-obs", "firefly", "pentagon",
                 "specker-bug", "gamma1", "yu-oh", "cabello18", "epr-2x2",
                 "epr-2x3"):
        logic = load_builtin(name)
        assert len(logic.atoms) <= 20
        assert enumerate_states(logic) \
            == brute_force_states(logic), name


# --- 8: non-separability ------------------------------------------------------------------

def test_criterion_8_non_separability():
    t0 = time.monotonic()
    logic = load_builtin("gamma3")
    unseparated = is_separating(logic, enumerate_states(logic))
    assert ("a1", "b1") in unseparated
    assert ("a7", "b7") in unseparated

    tk = load_builtin("gamma3-tkadlec")
    colorings = enumerate_colorings(tk, 3)
    assert colorings
    ia, ib = tk.atoms.index("a7"), tk.atoms.index("b7")
    assert all(c[ia] == c[ib] for c in colorings)
    assert time.monotonic() - t0 < 30.0
