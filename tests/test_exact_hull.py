"""Exact hull engine: golden conversions, brute-force oracle agreement, and
representation-conversion properties on random vertex sets."""

import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

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

from oracles import brute_force_facets


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
    from oracles import _rank
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


def test_hull_exact_rational_output():
    v, _ = builtin_scenario("bwf-2x2")
    h = hull(v)
    for row in h.inequalities + h.linearities:
        assert all(isinstance(x, (int, Fraction)) for x in row)
        assert not any(isinstance(x, float) for x in row)


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


@pytest.mark.parametrize("name, v, golden", GOLDEN_PAIRS, ids=[n for n, _, _ in GOLDEN_PAIRS])
def test_translation_near_2_61_is_exact(name, v, golden):
    t = tuple(2**61 + 3 * k + 1 for k in range(v.dimension))
    h = hull(v)
    moved = HRep(v.dimension, _moved(h.inequalities, t), _moved(h.linearities, t))
    points = tuple(tuple(Fraction(x) + s for x, s in zip(p, t)) for p in v.points)
    out = hull(VRep(v.dimension, points))
    assert out == canonicalize(moved)
    # the moved rows keep h's order, hence the insertion order of vertices(h)
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


# --- degenerate and error cases ----------------------------------------------

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
