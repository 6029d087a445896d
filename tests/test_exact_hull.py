"""Exact hull engine: golden conversions, brute-force oracle agreement, and
representation-conversion properties on random vertex sets."""

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
from correlpoly.vertex_gen import builtin_scenario

from oracles import _rank, brute_force_facets


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


def _checked_dd(run):
    """run() with every insertion step of the double description checked
    against the rank oracle: the new rays must be exactly the combinations
    of the oracle's adjacent (positive, negative) pairs, in the order of
    `for ip in pos: for im in neg`.  Returns run()'s result and the number
    of candidate pairs whose common tight set was empty."""
    fed = []  # constraints handed to the double description so far
    empty = 0
    real_dd, real_combinations = exact_hull._dd_cone, exact_hull._combinations

    def dd(dim, constraints):
        def feed():
            for c in constraints:
                fed.append(c)
                yield c
        return real_dd(dim, feed())

    def combinations(R, Z, dots, pos, neg, effdim):
        nonlocal empty
        newR, newZ = real_combinations(R, Z, dots, pos, neg, effdim)
        *rows, c = fed
        rank = _rank(rows)
        assert effdim == rank
        rays = [tuple(int(x) for x in r) for r in R.tolist()]
        d = [_dot(c, r) for r in rays]
        assert pos.tolist() == [i for i, x in enumerate(d) if x > 0]
        assert neg.tolist() == [i for i, x in enumerate(d) if x < 0]
        tight = [{k for k, v in enumerate(rows) if _dot(v, r) == 0} for r in rays]
        expected = []
        for ip in pos.tolist():
            for im in neg.tolist():
                common = tight[ip] & tight[im]
                empty += not common
                if _rank([rows[k] for k in common]) == rank - 2:
                    w = [d[ip] * y - d[im] * x for x, y in zip(rays[ip], rays[im])]
                    g = gcd(*w)
                    expected.append(tuple(x // g for x in w))
        assert [tuple(int(x) for x in r) for r in newR.tolist()] == expected
        return newR, newZ

    with mock.patch.object(exact_hull, "_dd_cone", dd), \
            mock.patch.object(exact_hull, "_combinations", combinations):
        return run(), empty


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
def test_adjacency_matches_rank_oracle(points):
    v = VRep(len(points[0]), tuple(points))
    h, _ = _checked_dd(lambda: hull(v))
    back, _ = _checked_dd(lambda: vertices(h))
    assert canon_key(hull(back)) == canon_key(h)


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
    def spy(dim, constraints):
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
