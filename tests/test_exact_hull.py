"""Exact hull engine: golden conversions, brute-force oracle agreement, and
representation-conversion properties on random vertex sets."""

import functools
import math
import random
from fractions import Fraction
from math import gcd
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from correlpoly import exact_hull
from correlpoly.exact_hull import (
    HRep,
    VRep,
    canonicalize,
    emit_dd,
    hull,
    parse_dd,
    vertices,
)

from oracles import DATA, _rank, brute_force_facets, brute_force_vertices
from scenarios import builtin_scenario


def canon_key(h):
    c = canonicalize(h)
    return frozenset(c.linearities), frozenset(c.inequalities)


# --- golden conversions -----------------------------------------------------

SMALL = [
    "one-var", "two-var-prob", "two-var-expect", "three-var-prob",
    "three-var-expect", "bwf-2x2", "chsh-2x2", "pentagon-prob",
    "pentagon-pair-expect-KCBS", "pentagon-all-pair-expect", "bub-stairs",
    "pentagon-nonintertwining", "bug-prob", "bug-edge-expect",
]


@pytest.mark.parametrize("name", SMALL)
def test_hull_matches_golden(name):
    v, golden = builtin_scenario(name)
    assert canon_key(hull(v)) == canon_key(golden)


@pytest.mark.parametrize("name", SMALL)
def test_reverse_recovers_vertex_set(name):
    v, golden = builtin_scenario(name)
    back = vertices(golden)
    # the golden V-rep may contain duplicates / interior points only for
    # degenerate listings; extreme points must be a subset and hull-equal
    assert set(back.points) <= {tuple(Fraction(x) for x in p) for p in v.points}
    assert canon_key(hull(back)) == canon_key(golden)


def test_known_facet_rows_present():
    _, kcbs = builtin_scenario("pentagon-pair-expect-KCBS")
    assert (1, *map(int, "11111")) not in kcbs.inequalities  # guard misparse
    assert (3, 1, 1, 1, 1, 1) in {tuple(map(int, r)) for r in kcbs.inequalities}
    _, bub = builtin_scenario("bub-stairs")
    assert (2, -1, -1, -1, -1, -1) in {tuple(map(int, r)) for r in bub.inequalities}
    _, nonint = builtin_scenario("pentagon-nonintertwining")
    assert (-1, 1, 1, 1, 1, 1) in {tuple(map(int, r)) for r in nonint.inequalities}


def test_bug_edge_expect_row():
    # E13 + E57 + E9,11 <= E35 + E79 + E11,1 holds with equality on every
    # state: it is the single linearity of the edge-expectation system
    _, h = builtin_scenario("bug-edge-expect")
    lins = {tuple(map(int, r)) for r in canonicalize(h).linearities}
    assert lins == {(0, 1, -1, 1, -1, 1, -1)}


# --- brute-force facet oracle (<= 4 dims) ------------------------------------

def _points_strategy(values, max_dim):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.sampled_from(values)] * d),
            min_size=d + 1, max_size=12, unique=True))


def _full_dim(points):
    d = len(points[0])
    p0 = points[0]
    diffs = [[Fraction(x - y) for x, y in zip(p, p0)] for p in points[1:]]
    return _rank(diffs) == d if diffs else d == 0


@settings(max_examples=100, deadline=None)
@given(_points_strategy((0, 1), 4))
def test_facets_match_brute_force_01(points):
    if not _full_dim(points):
        return
    h = hull(VRep(len(points[0]), tuple(points)))
    assert not h.linearities
    assert {tuple(map(int, r)) for r in canonicalize(h).inequalities} \
        == brute_force_facets(points)


@settings(max_examples=100, deadline=None)
@given(_points_strategy((-1, 1), 4))
def test_facets_match_brute_force_pm1(points):
    if not _full_dim(points):
        return
    h = hull(VRep(len(points[0]), tuple(points)))
    assert not h.linearities
    assert {tuple(map(int, r)) for r in canonicalize(h).inequalities} \
        == brute_force_facets(points)


# --- properties on random vertex sets (<= 8 dims) ----------------------------

def _satisfies(h, p):
    for row in h.linearities:
        if row[0] + sum(a * x for a, x in zip(row[1:], p)) != 0:
            return False
    for row in h.inequalities:
        if row[0] + sum(a * x for a, x in zip(row[1:], p)) < 0:
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(_points_strategy((0, 1), 8))
def test_hull_soundness_01(points):
    h = hull(VRep(len(points[0]), tuple(points)))
    assert all(_satisfies(h, p) for p in points)


@settings(max_examples=100, deadline=None)
@given(_points_strategy((-1, 1), 8))
def test_hull_soundness_pm1(points):
    h = hull(VRep(len(points[0]), tuple(points)))
    assert all(_satisfies(h, p) for p in points)


@settings(max_examples=100, deadline=None)
@given(_points_strategy((0, 1), 6))
def test_round_trip_extreme_points(points):
    v = VRep(len(points[0]), tuple(points))
    h = hull(v)
    back = vertices(h)
    # extreme points are input points, and they regenerate the same hull
    assert set(back.points) <= {tuple(map(Fraction, p)) for p in points}
    assert canon_key(hull(back)) == canon_key(h)


@settings(max_examples=60, deadline=None)
@given(_points_strategy((0, 1), 6), st.randoms(use_true_random=False))
def test_hull_order_independence(points, rnd):
    shuffled = list(points)
    rnd.shuffle(shuffled)
    a = hull(VRep(len(points[0]), tuple(points)))
    b = hull(VRep(len(points[0]), tuple(shuffled)))
    assert canon_key(a) == canon_key(b)


def _dd_inputs(points):
    """hull(points), and every constraint sequence it gave the double
    description."""
    seen = []
    real = exact_hull._dd_cone

    def spy(dim, constraints):
        seen.append((dim, list(constraints)))
        return real(dim, constraints)

    with mock.patch.object(exact_hull, "_dd_cone", spy):
        h = hull(VRep(len(points[0]), tuple(points)))
    return h, seen


# integers, and p/q values of which some are integers written as Fractions
_COORD = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
           st.tuples(*[_COORD] * d), min_size=1, max_size=9)),
       st.randoms(use_true_random=False))
def test_dd_constraint_sequence_ignores_input_order(points, rnd):
    # the same point set, permuted, with repeats, and with each integer
    # value once as an int and once as a Fraction
    twins = [tuple(Fraction(x) for x in p) for p in points]
    other = points + twins + points[:2]
    rnd.shuffle(other)
    h, seen = _dd_inputs(points)
    h2, seen2 = _dd_inputs(other)
    assert seen == seen2
    assert h == h2


@pytest.mark.parametrize("name", ["cabello-contextual", "epr-2x3-full"])
def test_shuffled_golden_hull_gets_file_order_constraints(name):
    # the benchmark's facets workload hulls seed-shuffled rows
    v, _ = builtin_scenario(name)
    points = list(v.points)
    h, seen = _dd_inputs(points)
    random.Random(7).shuffle(points)
    h2, seen2 = _dd_inputs(points)
    assert len(seen) == 1 and seen == seen2
    assert h == h2
    constraints = seen[0][1]
    assert constraints == sorted(constraints)


def test_hull_exact_rational_output():
    v, _ = builtin_scenario("bwf-2x2")
    h = hull(v)
    for row in h.inequalities + h.linearities:
        assert all(isinstance(x, (int, Fraction)) for x in row)
        assert not any(isinstance(x, float) for x in row)


# --- the adjacency test against a rank oracle --------------------------------
#
# Two extreme rays of the cone built so far are adjacent iff the processed
# constraints tight at both have rank r - 2, where r is the rank of all the
# processed constraints: the dimension of the cone modulo its lineality
# space (an equation is two opposite constraints).  The oracle below
# computes that rank by Fraction elimination from the constraint rows and
# the rays themselves: no zero-set bitset is read.

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class _Taken(list):
    """A list of constraints that appends to `taken` each one iterated out
    of it: the double description takes the rows it inserts that way.  A
    slice of it is a plain list, so the rows that _survivors looks at are
    not counted."""

    def __init__(self, rows, taken):
        super().__init__(rows)
        self.taken = taken

    def __iter__(self):
        for c in list.__iter__(self):
            self.taken.append(c)
            yield c


def _checked_dd(run):
    """run() with every insertion step of the double description checked
    against the rank oracle, on either path: the new rays must be exactly
    the combinations of the oracle's adjacent (positive, negative) pairs, in
    the order of `for ip in pos: for im in neg`, every step that pivots no
    lineality vector out must pass through that check, and the final
    lineality must be a coprime integer basis of the constraints'
    orthogonal complement.  A run that stops early must have inserted rows
    of full rank, and each survivor must be an extreme ray of the whole
    cone: in it, and tight at constraints of rank dim - 1.  Returns run()'s
    result and the number of candidate pairs whose common tight set was
    empty."""
    fed = []  # constraints handed to the double description so far
    looked = []  # how many constraints were left at each look of _survivors
    empty = steps = 0
    real_dd = exact_hull._dd_cone
    real_combinations = exact_hull._combinations
    real_int_combinations = exact_hull._int_combinations
    real_survivors = exact_hull._survivors

    def dd(dim, constraints, bounded=False):
        nonlocal steps
        fed.clear()
        looked.clear()
        steps = 0
        rays, lineality = real_dd(dim, _Taken(constraints, fed), bounded)
        if lineality is None:
            # stopped early: what was inserted is what _survivors did not see
            inserted = constraints[:len(constraints) - looked[-1]]
            assert bounded and _rank(inserted) == dim
            assert steps == len(inserted) - dim
            for r in rays:
                assert r[0] > 0 and all(type(x) is int for x in r) and gcd(*r) == 1
                assert all(_dot(c, r) >= 0 for c in constraints)
                assert _rank([c for c in constraints if _dot(c, r) == 0]) == dim - 1
            return rays, lineality
        # the lineality: a basis of coprime Python-int rows orthogonal to
        # every constraint, as many as the constraints leave free
        assert _rank(lineality) == len(lineality) == dim - _rank(fed)
        for u in lineality:
            assert all(type(x) is int for x in u) and gcd(*u) == 1
            assert all(_dot(c, u) == 0 for c in fed)
        # a constraint pivots iff it raises the rank of those before it
        assert steps == len(fed) - _rank(fed)
        return rays, lineality

    def check(rays, pos, neg, effdim, new):
        """One step: rays are the current rays, pos and neg index them."""
        nonlocal empty, steps
        steps += 1
        *rows, c = fed
        rank = _rank(rows)
        assert effdim == rank
        d = [_dot(c, r) for r in rays]
        assert pos == [i for i, x in enumerate(d) if x > 0]
        assert neg == [i for i, x in enumerate(d) if x < 0]
        tight = [{k for k, v in enumerate(rows) if _dot(v, r) == 0} for r in rays]
        expected = []
        for ip in pos:
            for im in neg:
                common = tight[ip] & tight[im]
                empty += not common
                if _rank([rows[k] for k in common]) == rank - 2:
                    w = [d[ip] * y - d[im] * x for x, y in zip(rays[ip], rays[im])]
                    g = gcd(*w)
                    expected.append(tuple(x // g for x in w))
        assert new == expected

    def combinations(R, Z, dots, pos, neg, effdim):
        newR, newZ = real_combinations(R, Z, dots, pos, neg, effdim)
        check([tuple(int(x) for x in r) for r in R.tolist()], pos.tolist(), neg.tolist(),
              effdim, [tuple(int(x) for x in r) for r in newR.tolist()])
        return newR, newZ

    def int_combinations(rays, zs, T, live, pos, neg, effdim):
        new = real_int_combinations(rays, zs, T, live, pos, neg, effdim)
        assert all(d == _dot(fed[-1], rays[s]) for s, d in pos + neg)
        alive = [s for s in range(live.bit_length()) if live >> s & 1]
        index = {s: i for i, s in enumerate(alive)}
        check([rays[s] for s in alive], [index[s] for s, _ in pos], [index[s] for s, _ in neg],
              effdim, [r for r, _ in new])
        return new

    def survivors(R, rest, big):
        looked.append(len(rest))
        return real_survivors(R, rest, big)

    with mock.patch.object(exact_hull, "_dd_cone", dd), \
            mock.patch.object(exact_hull, "_combinations", combinations), \
            mock.patch.object(exact_hull, "_int_combinations", int_combinations), \
            mock.patch.object(exact_hull, "_survivors", survivors):
        return run(), empty


def test_numpy_step_without_a_negative_ray():
    # the sum of epr-2x3-full's last two inequalities is redundant: inserted
    # after them, it cuts no ray, and the numpy loop's step has 1196 rays on
    # its positive side and none on the negative one.  That step lies past
    # the rows that first bound the polytope, so the double description runs
    # to the end on the rows vertices gives it
    _, h = builtin_scenario("epr-2x3-full")
    a, b = h.inequalities[-2:]
    redundant = HRep(h.dimension, (*h.inequalities, tuple(x + y for x, y in zip(a, b))),
                     h.linearities)
    dim, constraints = _vertices_dd_input(redundant)
    sides = []
    real_combinations = exact_hull._combinations

    def combinations(R, Z, dots, pos, neg, effdim):
        sides.append((len(pos), len(neg)))
        return real_combinations(R, Z, dots, pos, neg, effdim)

    with mock.patch.object(exact_hull, "_combinations", combinations):
        rays, lin = exact_hull._dd_cone(dim, constraints)
    assert (1196, 0) in sides
    want = vertices(h)
    assert not lin and tuple(sorted(exact_hull._points(rays))) == want.points
    assert vertices(redundant) == want


def _numpy_step_args(rays, zs, T, live, pos, neg):
    """The arguments of _combinations for the step that _int_combinations
    got these arguments for: the current rays as the rows of R, in slot
    order, their zero sets as uint64 words holding constraint 0 and not the
    constraint being inserted, as in _dd_numpy, and pos and neg as row
    indices.  R and the dot products are int64 while no product of the step
    can overflow it, and Python ints otherwise."""
    import numpy as np

    alive = [s for s in range(live.bit_length()) if live >> s & 1]
    row = {s: i for i, s in enumerate(alive)}
    k = len(T) - 1
    words = k // 64 + 1
    masks = [sum(1 << j for j in zs[s] - {k}) | 1 for s in alive]
    Z = np.array([[m >> 64 * w & (1 << 64) - 1 for w in range(words)] for m in masks],
                 dtype=np.uint64)
    dot = dict(pos + neg)
    R = [rays[s] for s in alive]
    dots = [dot.get(s, 0) for s in alive]
    big = max(map(abs, dots)) * max(abs(x) for r in R for x in r)
    dtype = np.int64 if big < 1 << 62 else object
    return (np.array(R, dtype=dtype), Z, np.array(dots, dtype=dtype),
            np.array([row[s] for s, _ in pos], dtype=np.intp),
            np.array([row[s] for s, _ in neg], dtype=np.intp))


@pytest.mark.parametrize("budget", [4, 64])
def test_numpy_step_matches_int_step(budget):
    # at every step of the Python-int phase on a pointed cone, _combinations
    # returns what _int_combinations does, in the same order.  A budget of 4
    # words counts one ray of the smaller side per block (two when the other
    # side has 2 to 4 rays and one word) and tests each candidate in a chunk
    # of its own, as one costs at least 9 words; 64 words makes both kinds
    # of block hold several
    real = exact_hull._int_combinations
    seen = {"pos <= neg": 0, "pos > neg": 0, "several count blocks": 0, "several new rays": 0}

    def int_combinations(rays, zs, T, live, pos, neg, effdim):
        new = real(rays, zs, T, live, pos, neg, effdim)
        if not pos or not neg or effdim < len(rays[pos[0][0]]):
            return new  # no pair, or a lineality left
        R, Z, dots, p, n = _numpy_step_args(rays, zs, T, live, pos, neg)
        newR, newZ = exact_hull._combinations(R, Z, dots, p, n, effdim)
        got = [(tuple(r), {j for j in range(1, 64 * Z.shape[1]) if z[j // 64] >> j % 64 & 1}
                | {len(T) - 1}) for r, z in zip(newR.tolist(), newZ.tolist())]
        assert got == new
        small, large = sorted((len(p), len(n)))
        seen["pos <= neg" if len(p) <= len(n) else "pos > neg"] += 1
        seen["several count blocks"] += small > max(1, budget // (Z.shape[1] * large))
        seen["several new rays"] += len(new) > 1
        return new

    with mock.patch.object(exact_hull, "_NUMPY_PAIRS", math.inf), \
            mock.patch.object(exact_hull, "_STEP_WORDS", budget), \
            mock.patch.object(exact_hull, "_int_combinations", int_combinations):
        for seed in range(30):
            rnd = random.Random(seed)
            d = rnd.randint(3, 5)
            points = {tuple(rnd.randint(-3, 3) for _ in range(d)) for _ in range(rnd.randint(2 * d, 14))}
            h = hull(VRep(d, tuple(points)))
            vertices(h)
    assert all(seen.values()), seen


def test_numpy_loop_traced_peak():
    # vertices(epr-2x3-full) runs the numpy loop twice: up to the step where
    # the rows inserted bound the polytope, and in the hull of the 64
    # survivors that certifies them.  Each peaked at 0.68-0.71 MiB of traced
    # allocations (numpy 2.4, Python 3.11); run to the end, the first peaked
    # at 0.78 MiB.  A step of 680 x 184 ray pairs, as the full run has, would
    # add 1 MiB with a count matrix of all of them in int64
    import tracemalloc

    _, h = builtin_scenario("epr-2x3-full")
    real = exact_hull._dd_numpy
    peaks = []

    def dd_numpy(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rays = real(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return rays

    tracemalloc.start()
    try:
        with mock.patch.object(exact_hull, "_dd_numpy", dd_numpy):
            vertices(h)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 and all(p < 1 << 20 for p in peaks), peaks


def _on_both_paths(test):
    """The test, run once with the numpy loop taking the cone at its first
    step after the lineality is empty and once with the Python-int phase
    running it to the end, so that each path, and the numpy loop's
    int64/object switch, sees the same inputs."""
    @functools.wraps(test)
    def both(*args, **kwargs):
        for limit in (-1, math.inf):
            with mock.patch.object(exact_hull, "_NUMPY_PAIRS", limit):
                test(*args, **kwargs)
    return both


def _cube_subsets(values):
    # 3 to 5 dimensions and at least 2d points: enough faces with four or
    # more rays that a test admitting a third or fourth ray goes wrong
    return st.integers(3, 5).flatmap(lambda d: st.lists(
        st.tuples(*[st.sampled_from(values)] * d), min_size=2 * d, max_size=12, unique=True))


@st.composite
def _lifted_cube_subsets(draw):
    """Subsets of {0,1}^k, k = 2 or 3, with at least 2k points, each point p
    lifted to (p, B.p + t) in R^(k+1) or R^(k+2) with integer B and t: flat
    polytopes with many facets, whose valid-inequality cone keeps a
    lineality space of dimension at least one through every step."""
    k = draw(st.integers(2, 3))
    extra = draw(st.integers(1, 2))
    cube = draw(st.lists(st.tuples(*[st.sampled_from((0, 1))] * k),
                         min_size=2 * k, max_size=8, unique=True))
    lift = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (k + 1)),
                         min_size=extra, max_size=extra))
    return [p + tuple(t + _dot(b, p) for t, *b in lift) for p in cube]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_cube_subsets((0, 1)), _cube_subsets((-1, 1)), _lifted_cube_subsets()))
@_on_both_paths
def test_adjacency_matches_rank_oracle(points):
    v = VRep(len(points[0]), tuple(points))
    h, _ = _checked_dd(lambda: hull(v))
    back, _ = _checked_dd(lambda: vertices(h))
    assert canon_key(hull(back)) == canon_key(h)


@settings(max_examples=30, deadline=None)
@given(_lifted_cube_subsets())
def test_flat_hull_never_enters_the_numpy_loop(points):
    # the lineality of a flat polytope's cone never empties, so even a
    # handoff limit of -1 keeps the whole cone on Python ints
    m = len(points[0])
    k = _rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])

    def numpy_loop(*args):
        raise AssertionError("a flat cone reached the numpy loop")

    with mock.patch.object(exact_hull, "_NUMPY_PAIRS", -1), \
            mock.patch.object(exact_hull, "_dd_numpy", numpy_loop):
        h = hull(VRep(m, tuple(points)))
    # the first k coordinates are a full-dimensional cube subset and the
    # others affine functions of them: the facets are the oracle's, padded
    # with zeros, modulo the affine hull's m - k equations
    assert len(h.linearities) == m - k
    assert all(_satisfies(HRep(m, (), h.linearities), p) for p in points)
    facets = brute_force_facets([p[:k] for p in points])
    padded = tuple(r + (0,) * (m - k) for r in facets)
    assert h == canonicalize(HRep(m, padded, h.linearities))


# An interval, a triangle with a point on an edge, and a parallelogram, each
# with facets that, in the order hull and vertices insert them, make the
# double description meet a cone of effective dimension 2, where a pair of
# rays has no common tight constraint and is adjacent iff the cone has no
# third ray.  vertices inserts the parallelogram's two parallel x-facets
# first; no square has two parallel facets that its order puts first.
LOW_DIMENSIONAL = {
    "interval": ([(0,), (3,)], [(0, 1), (3, -1)], [(0,), (3,)]),
    "triangle": ([(0, 0), (0, 1), (0, 2), (1, 0)], [(0, 1, 0), (0, 0, 1), (2, -2, -1)],
                 [(0, 0), (0, 2), (1, 0)]),
    "parallelogram": ([(0, 0), (0, 1), (1, -1), (1, 0)], [(0, 1, 0), (1, -1, 0), (0, 1, 1), (1, -1, -1)],
                      [(0, 0), (0, 1), (1, -1), (1, 0)]),
}


@pytest.mark.parametrize("name", LOW_DIMENSIONAL)
@_on_both_paths
def test_empty_common_zero_set(name):
    points, rows, extreme = LOW_DIMENSIONAL[name]
    d = len(points[0])
    assert set(rows) == brute_force_facets(points)
    h, empty_v = _checked_dd(lambda: hull(VRep(d, tuple(points))))
    assert h == HRep(d, tuple(sorted(rows)), ())
    back, empty_h = _checked_dd(lambda: vertices(HRep(d, tuple(rows), ())))
    assert set(back.points) == set(extreme)
    assert set(vertices(h).points) == set(extreme)
    assert empty_v + empty_h > 0


# --- H->V against basic solutions, and the early stop -------------------------
#
# vertices may stop its double description at the first numpy step at which
# the rows inserted bound the polytope, with the rays that satisfy every other
# row, and keeps them only if their hull's facets are input rows.

def _brute_force_answer(h):
    """What vertices(h) must give, from brute_force_vertices alone: the
    vertices, or the word its error message must hold."""
    d = h.dimension
    normals = [r[1:] for r in h.inequalities + h.linearities]
    # unit vectors that complete the normals to a basis of R^d: fixing those
    # coordinates leaves one point of each line the polyhedron holds
    fixed = []
    for j in range(d):
        unit = tuple(int(i == j) for i in range(d))
        if _rank(normals + fixed + [unit]) > _rank(normals + fixed):
            fixed.append(unit)
    if fixed:
        cut = h.linearities + tuple((0, *u) for u in fixed)
        return "line" if brute_force_vertices(d, h.inequalities, cut) else "infeasible"
    points = brute_force_vertices(d, h.inequalities, h.linearities)
    if not points:
        return "infeasible"
    # unbounded iff the recession cone holds a y with s*y_j >= 1 for some j, s
    cone = tuple((0, *r[1:]) for r in h.inequalities)
    flat = tuple((0, *r[1:]) for r in h.linearities)
    for j in range(d):
        for s in (1, -1):
            far = (-1, *(s * int(i == j) for i in range(d)))
            if brute_force_vertices(d, cone + (far,), flat):
                return "unbounded"
    return points


@st.composite
def _small_h_reps(draw):
    """Up to 7 random rows and a linearity in 1 to 3 dimensions, half of
    them inside a box: bounded, unbounded, holding a line, and empty."""
    d = draw(st.integers(1, 3))
    row = st.tuples(st.integers(-3, 3), *[st.integers(-2, 2)] * d)
    ineq = draw(st.lists(row, max_size=7))
    lin = draw(st.lists(row, max_size=1))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        ineq += [(k, *(s * int(i == j) for i in range(d))) for j in range(d) for s in (1, -1)]
    return HRep(d, tuple(ineq), tuple(lin))


@settings(max_examples=150, deadline=None)
@given(_small_h_reps())
@_on_both_paths
def test_vertices_match_brute_force(h):
    want = _brute_force_answer(h)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            vertices(h)
    else:
        assert vertices(h).points == want


def _dd_calls(run):
    """run(), and for each double description it made: whether it was
    bounded, how many constraints it got and took, and whether it stopped
    early."""
    calls = []
    real = exact_hull._dd_cone

    def dd(dim, constraints, bounded=False):
        taken = []
        rays, lin = real(dim, _Taken(constraints, taken), bounded)
        calls.append((bounded, len(constraints), len(taken), lin is None))
        return rays, lin

    with mock.patch.object(exact_hull, "_dd_cone", dd):
        return run(), calls


def test_epr_full_stops_after_35_rows():
    # all 64 vertices of epr-2x3-full are rays once t >= 0 and 34 of its 684
    # facets are inserted: the other 650 rows are never inserted, and the
    # second double description is the hull of the 64 survivors
    v, h = builtin_scenario("epr-2x3-full")
    got, calls = _dd_calls(lambda: vertices(h))
    (bounded, given, taken, early), certificate = calls
    assert bounded and early and given == 685 and taken <= 35
    assert certificate == (False, 64, 64, False)
    assert got.points == tuple(sorted(set(v.points)))


def _survivor_looks(run):
    """run() with the numpy loop taking every pointed cone, and the answers
    of _survivors and _spans it got."""
    looks, certificates = [], []
    real_survivors, real_spans = exact_hull._survivors, exact_hull._spans

    def survivors(R, rest, big):
        looks.append((list(rest), real_survivors(R, rest, big)))
        return looks[-1][1]

    def spans(rays, h):
        certificates.append(real_spans(rays, h))
        return certificates[-1]

    with mock.patch.object(exact_hull, "_NUMPY_PAIRS", -1), \
            mock.patch.object(exact_hull, "_survivors", survivors), \
            mock.patch.object(exact_hull, "_spans", spans):
        return run(), looks, certificates


def _box(d, k):
    """The rows of [0, k]^d."""
    return [(0, *(int(i == j) for i in range(d))) for j in range(d)] \
        + [(k, *(-int(i == j) for i in range(d))) for j in range(d)]


def test_cut_cube_is_refused_at_the_first_bounded_step():
    # [0,2]^3 cut by x + y + z <= 5: the box rows come first and bound it;
    # the cut is tight at none of the 7 corners that satisfy it, so the
    # pre-check refuses, and the double description makes the 3 new vertices
    h = HRep(3, tuple(_box(3, 2)) + ((5, -1, -1, -1),), ())
    got, looks, certificates = _survivor_looks(lambda: vertices(h))
    assert looks == [([(5, -1, -1, -1)], None)]
    assert certificates == []
    assert got.points == brute_force_vertices(3, h.inequalities)
    assert len(got.points) == 10


def test_certificate_that_fails_reruns_the_double_description():
    # [0,1]^4 cut by x + y + z + 2w <= 2: the cut is tight at 4 of the
    # corners that satisfy it, (1,1,0,0), (1,0,1,0), (0,1,1,0) and
    # (0,0,0,1), so the pre-check passes, but it also makes 3 vertices
    # (x, y, z, 1/2) that are not corners: the survivors' hull has a facet
    # that is not an input row, and the double description runs again
    h = HRep(4, tuple(_box(4, 1)) + ((2, -1, -1, -1, -2),), ())
    (got, calls), looks, certificates = _survivor_looks(lambda: _dd_calls(lambda: vertices(h)))
    assert len(looks) == 1 and len(looks[0][1]) == 8
    assert certificates == [False]
    assert [(b, e) for b, _, _, e in calls] == [(True, True), (False, False), (False, False)]
    assert got.points == brute_force_vertices(4, h.inequalities)
    assert len(got.points) == 11


@pytest.mark.parametrize("bogus", ["facet", "linearity"])
def test_certificate_that_disagrees_gives_the_full_answer(bogus):
    # the survivors' hull made to disagree with the input, by one facet or
    # one linearity that is not the input's: vertices returns what the
    # double description run to the end returns
    _, h = builtin_scenario("epr-2x3-full")
    want = vertices(h)
    real_hull = exact_hull.hull
    extra = (7, 1) + (0,) * (h.dimension - 1)  # no input row has offset 7

    def hull_with_extra(v):
        got = real_hull(v)
        if bogus == "facet":
            return HRep(got.dimension, got.inequalities + (extra,), got.linearities)
        return HRep(got.dimension, got.inequalities, got.linearities + (extra,))

    with mock.patch.object(exact_hull, "hull", hull_with_extra):
        got, calls = _dd_calls(lambda: vertices(h))
    assert [(b, e) for b, _, _, e in calls] == [(True, True), (False, False), (False, False)]
    assert calls[2][1:3] == (685, 685)
    assert got == want


# --- large coordinates: the int64 bound and the Python-int fallback ----------
#
# Entries near 2**61 leave no room for an int64 product, so the double
# description must run on Python ints; every answer must stay exact and come
# back as Python int / Fraction, never as a numpy scalar.

def _golden_pairs():
    root = resources.files("correlpoly.data") / "golden"
    names = sorted(f.name[:-4] for f in root.iterdir() if f.name.endswith(".ext"))
    return [(n, parse_dd((root / f"{n}.ext").read_text()),
             parse_dd((root / f"{n}.ine").read_text())) for n in names]


GOLDEN_PAIRS = _golden_pairs()


def _moved(rows, t):
    # b + a.x >= 0 on P is (b - a.t) + a.y >= 0 on P + t
    return tuple((r[0] - sum(a * x for a, x in zip(r[1:], t)), *r[1:]) for r in rows)


def _python_rows(rows):
    return all(type(x) is int or (type(x) is Fraction and type(x.numerator) is int
                                  and type(x.denominator) is int)
               for r in rows for x in r)


def test_golden_pairs_are_bundled():
    assert len(GOLDEN_PAIRS) == 19


class _Seen(Exception):
    """Raised by the spy in place of running the double description."""


def _vertices_dd_input(h):
    """The constraint sequence vertices(h) gives the double description."""
    def spy(dim, constraints, bounded=False):
        assert bounded
        raise _Seen(dim, list(constraints))

    with mock.patch.object(exact_hull, "_dd_cone", spy), pytest.raises(_Seen) as seen:
        vertices(h)
    return seen.value.args


@pytest.mark.parametrize("name, v, h", GOLDEN_PAIRS, ids=[n for n, _, _ in GOLDEN_PAIRS])
def test_vertices_dd_input_ignores_row_order(name, v, h):
    # reversed, seed-shuffled and duplicated rows: each inequality once
    # more as Fractions, each linearity once more negated
    want = _vertices_dd_input(h)
    ineq, lin = list(h.inequalities), list(h.linearities)
    variants = [HRep(h.dimension, tuple(ineq[::-1]), tuple(lin[::-1]))]
    for seed in range(3):
        rnd = random.Random(seed)
        more_ineq = ineq + [tuple(Fraction(x) for x in r) for r in ineq]
        more_lin = lin + [tuple(-x for x in r) for r in lin]
        rnd.shuffle(more_ineq)
        rnd.shuffle(more_lin)
        variants.append(HRep(h.dimension, tuple(more_ineq), tuple(more_lin)))
    for variant in variants:
        assert _vertices_dd_input(variant) == want
    key = exact_hull._row_order
    # after the homogenization row: each linearity r as the pair r, -r, then
    # the inequalities, each group in _row_order
    nlin = 2 * len(h.linearities)
    pairs, rows = want[1][1:1 + nlin], want[1][1 + nlin:]
    assert pairs[1::2] == [tuple(-x for x in r) for r in pairs[::2]]
    for group in (pairs[::2], rows):
        assert all(key(a) < key(b) for a, b in zip(group, group[1:]))
    # a translation moves only the offsets, and keeps the order of the rows
    t = tuple(2**61 + 3 * k + 1 for k in range(h.dimension))
    moved = _vertices_dd_input(HRep(h.dimension, _moved(h.inequalities, t),
                                    _moved(h.linearities, t)))
    assert [c[1:] for c in moved[1]] == [c[1:] for c in want[1]]


@pytest.mark.parametrize("name, v, golden", GOLDEN_PAIRS, ids=[n for n, _, _ in GOLDEN_PAIRS])
@_on_both_paths
def test_translation_near_2_61_is_exact(name, v, golden):
    t = tuple(2**61 + 3 * k + 1 for k in range(v.dimension))
    h = hull(v)
    moved = HRep(v.dimension, _moved(h.inequalities, t), _moved(h.linearities, t))
    points = tuple(tuple(Fraction(x) + s for x, s in zip(p, t)) for p in v.points)
    out = hull(VRep(v.dimension, points))
    assert out == canonicalize(moved)
    back = vertices(moved)
    assert back.points == tuple(sorted(set(points)))
    assert _python_rows(out.inequalities + out.linearities) and _python_rows(back.points)
    assert _python_rows(h.inequalities + h.linearities)
    assert _python_rows(vertices(golden).points)


def _full_scan_dtype(R, cvec):
    # the rule on the whole ray matrix: int64 iff max|c| * dim * B^2 < 2**62
    # with B = max(1, max|R|)
    big = max(1, int(R.max()), -int(R.min())) if len(R) else 1
    return "int64" if max(abs(x) for x in cvec) * R.shape[1] * big * big < 1 << 62 else object


def test_ray_dtype_matches_a_full_scan_at_every_step():
    # the running bound of max|R| picks, at every numpy step, the dtype that a
    # scan of the whole ray matrix picks, and needs no scan on most steps
    real = exact_hull._ray_dtype
    seen = {"int64": 0, "object": 0, "unscanned": 0}

    def ray_dtype(R, cvec, big):
        dtype, bound = real(R, cvec, big)
        assert dtype == _full_scan_dtype(R, cvec)
        assert bound >= (max(1, int(R.max()), -int(R.min())) if len(R) else 1)
        seen["int64" if dtype == "int64" else "object"] += 1
        if big is not None and bound == big and dtype == "int64":
            seen["unscanned"] += 1
        return dtype, bound

    v, h = builtin_scenario("epr-2x3-full")
    # vertices stops its double description after 35 rows: run to the end on
    # the same rows, it makes 653 numpy steps
    dim, constraints = _vertices_dd_input(h)
    with mock.patch.object(exact_hull, "_ray_dtype", ray_dtype):
        for limit in (exact_hull._NUMPY_PAIRS, -1):
            with mock.patch.object(exact_hull, "_NUMPY_PAIRS", limit):
                assert hull(v) == canonicalize(h)
                assert vertices(h).points == tuple(sorted(set(v.points)))
                rays, _ = exact_hull._dd_cone(dim, constraints)
                assert tuple(sorted(exact_hull._points(rays))) == tuple(sorted(set(v.points)))
        epr = dict(seen)
        # the translated golden rows: entries near 2**61 turn the rays into
        # Python ints
        with mock.patch.object(exact_hull, "_NUMPY_PAIRS", -1):
            for name, v, golden in GOLDEN_PAIRS:
                t = tuple(2**61 + 3 * k + 1 for k in range(v.dimension))
                moved = HRep(v.dimension, _moved(golden.inequalities, t),
                             _moved(golden.linearities, t))
                points = tuple(tuple(Fraction(x) + s for x, s in zip(p, t)) for p in v.points)
                assert hull(VRep(v.dimension, points)) == canonicalize(moved)
                assert vertices(moved).points == tuple(sorted(set(points)))
    assert epr["int64"] > 100 and epr["object"] == 0
    assert epr["unscanned"] > epr["int64"] // 2, epr
    assert seen["object"] > 0, seen
    # a bound too large for int64, left by rays that are gone, is checked
    # against the rays themselves
    import numpy as np

    R = np.array([[3, -5], [1, 2]], dtype=object)
    assert real(R, (1, -1), 2**40) == ("int64", 5)
    assert real(R, (1, -1), 7) == ("int64", 7)
    assert real(R, (2**60, 1), 7) == (object, 5)


def _random_points(seed, n, d, bits):
    rnd = random.Random(seed)
    return [tuple(rnd.randrange(1 << bits) for _ in range(d)) for _ in range(n)]


BIG = 2**62


@pytest.mark.parametrize("points", [
    [(0, 0, 0), (BIG, 1, 0), (1, BIG, 2), (3, 2, BIG),
     (BIG, BIG, BIG + 1), (BIG + 7, 5, BIG - 3), (2, BIG - 1, BIG)],
    # facet normals of these need about 80 bits: int64 products would wrap
    _random_points(1, 9, 3, 40),
    _random_points(2, 8, 4, 24),
])
@_on_both_paths
def test_large_coordinates_match_brute_force(points):
    h = hull(VRep(len(points[0]), tuple(points)))
    assert not h.linearities
    assert set(h.inequalities) == brute_force_facets(points)
    assert _python_rows(h.inequalities)
    back = vertices(h)
    assert set(back.points) <= {tuple(map(Fraction, p)) for p in points}
    assert canon_key(hull(back)) == canon_key(h)
    assert _python_rows(back.points)


# --- fraction-free affine hull (Bareiss) against the Fraction rank oracle ----

@st.composite
def _affine_point_sets(draw):
    """Points p0 + sum c_j v_j with rational p0, v_j of up to 2**61 scale,
    so that the affine dimension is at most the number of directions."""
    d = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1, 2**61]))
    coord = st.builds(Fraction, st.integers(-3 * scale, 3 * scale), st.integers(1, 5))
    p0 = draw(st.tuples(*[coord] * d))
    dirs = draw(st.lists(st.tuples(*[coord] * d), max_size=d))
    coefs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(dirs)),
                          min_size=1, max_size=8))
    return [tuple(p0[i] + sum(c * v[i] for c, v in zip(cs, dirs)) for i in range(d))
            for cs in coefs]


@settings(max_examples=80, deadline=None)
@given(_affine_point_sets())
@_on_both_paths
def test_affine_hull_matches_rank_oracle(points):
    d = len(points[0])
    rank = _rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])
    # the affine hull's equations are the lineality space of the cone the
    # double description builds; every step of it is checked
    h, _ = _checked_dd(lambda: hull(VRep(d, tuple(points))))
    assert d - len(h.linearities) == rank
    for row in h.linearities:
        assert all(row[0] + sum(a * x for a, x in zip(row[1:], p)) == 0 for p in points)
    assert all(_satisfies(h, p) for p in points)
    assert _python_rows(h.inequalities + h.linearities)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda c: st.lists(
    st.lists(st.one_of(st.integers(-2, 2), st.integers(-2**62, 2**62)), min_size=c, max_size=c),
    min_size=1, max_size=7)))
def test_echelon_matches_rank_oracle(rows):
    basis, pivots = exact_hull._echelon(rows)
    assert len(basis) == len(pivots) == _rank(rows)
    assert pivots == sorted(pivots)
    lead = {row[pc] for row, pc in zip(basis, pivots)}
    assert len(lead) <= 1 and 0 not in lead
    for row, pc in zip(basis, pivots):
        assert all(row[q] == 0 for q in pivots if q != pc)
        assert all(type(x) is int for x in row)
    # every input row lies in the span of the basis, so no division lost a
    # remainder
    for row in rows:
        assert _rank(basis + [row]) == len(basis)


# --- degenerate and error cases ----------------------------------------------

@pytest.mark.parametrize("name", ["pentagon-prob", "pentagon-all-pair-expect",
                                  "bug-prob", "bug-edge-expect"])
def test_linearity_as_two_inequalities(name):
    # an equation is two opposite inequalities: given that way, in with the
    # other inequalities, it gives the same vertices
    _, h = builtin_scenario(name)
    assert h.linearities
    split = h.inequalities + h.linearities + tuple(tuple(-x for x in r) for r in h.linearities)
    assert vertices(HRep(h.dimension, split, ())) == vertices(h)


def test_single_point_hull():
    h = hull(VRep(2, ((Fraction(1, 3), Fraction(2)),)))
    assert not h.inequalities
    assert len(h.linearities) == 2
    assert vertices(h).points == ((Fraction(1, 3), Fraction(2)),)


def test_segment_has_linearity():
    h = hull(VRep(2, ((0, 0), (1, 1))))
    assert len(h.linearities) == 1
    assert len(h.inequalities) == 2
    assert set(vertices(h).points) == {(0, 0), (1, 1)}


def test_unbounded_h_rep_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        vertices(HRep(1, ((0, 1),), ()))  # x >= 0


def test_infeasible_h_rep_rejected():
    with pytest.raises(ValueError):
        vertices(HRep(1, ((0, 1), (-1, -1), (Fraction(-3), 1)), ()))


@pytest.mark.parametrize("name", ["empty-strip", "empty-half-strip"])
def test_empty_polyhedron_is_infeasible(name):
    # x >= 2 and x <= 1 in R^2, and with y >= 0: the cone's rays and
    # lineality all have t = 0, which is emptiness, not a line or a
    # recession ray
    h = parse_dd((DATA / f"{name}.ine").read_text())
    assert brute_force_vertices(2, h.inequalities) == ()
    with pytest.raises(ValueError, match=r"^infeasible H-representation \(empty polytope\)$"):
        vertices(h)


def test_line_containing_h_rep_rejected():
    with pytest.raises(ValueError, match="line"):
        vertices(HRep(2, ((1, 1, 0), (1, -1, 0)), ()))


def test_rows_that_always_hold_are_dropped():
    # 0 >= 0, 2 >= 0 and 0 = 0 hold everywhere; the unit square stays
    square = ((0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1))
    h = HRep(2, square + ((0, 0, 0), (Fraction(2), 0, 0)), ((0, 0, 0),))
    assert vertices(h) == vertices(HRep(2, square, ()))
    assert canonicalize(h) == canonicalize(HRep(2, square, ()))
    # an inequality lying in the linearity span reduces to a zero row
    seg = HRep(2, ((0, 1, 0), (1, -1, 0), (0, 1, -1), (0, -2, 2)), ((0, 1, -1),))
    assert canonicalize(seg) == hull(VRep(2, ((0, 0), (1, 1))))
    # a zero normal with a negative constant is kept: it empties the polytope
    assert (-1, 0, 0) in canonicalize(HRep(2, ((-3, 0, 0),), ())).inequalities


# --- interchange format -------------------------------------------------------

def test_parse_emit_round_trip_h():
    _, h = builtin_scenario("bug-prob")
    again = parse_dd(emit_dd(h))
    assert canon_key(again) == canon_key(h)
    assert len(again.linearities) == len(h.linearities)


def test_parse_emit_round_trip_v():
    v, _ = builtin_scenario("pentagon-prob")
    again = parse_dd(emit_dd(v))
    assert set(again.points) == {tuple(map(Fraction, p)) for p in v.points}


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_dd("begin\n 1 2 real\n 1 0\nend\n")  # missing kind header
    with pytest.raises(ValueError):
        parse_dd("V-representation\nbegin\n 2 2 real\n 1 0\nend\n")  # short body
    with pytest.raises(ValueError):
        parse_dd("V-representation\nbegin\n 1 2 real\n 2 0\nend\n")  # marker != 1


def test_emit_comments_are_ignored_by_parse():
    v, _ = builtin_scenario("one-var")
    text = emit_dd(v, comments=("hello", "world"))
    assert text.startswith("* hello\n* world\n")
    assert parse_dd(text).points == v.points


def test_parse_fractions_and_decimals():
    rep = parse_dd("H-representation\nbegin\n 1 3 real\n 1/2 -0.25 3\nend\n")
    assert rep.inequalities == ((Fraction(1, 2), Fraction(-1, 4), Fraction(3)),)
    # integer tokens stay ints
    assert [type(x) for x in rep.inequalities[0]] == [Fraction, Fraction, int]
