"""Exact rational convex polytope engine.

Converts between vertex (V) and facet (H) representations of convex polytopes
using the incremental double description method.  One cone computation,
_dd_cone (extreme rays and lineality of {y : c.y >= 0}), serves both ways:
hull feeds it the homogenized points, whose valid-inequality cone has the
affine hull's equations as its lineality; vertices feeds it the homogenized
rows, each equation as two opposite inequalities.  Rational input is scaled
to integer rows once; from there the work is on integers: Python ints and
bitsets until the cone is pointed and a step has more than 4096 (positive,
negative) ray pairs, which most bundled cones never reach, and numpy arrays
from there on.  A numpy step works in whole-array passes over blocks of ray
pairs, each sized so that its temporaries hold about _STEP_WORDS 64-bit
words.  An H->V conversion may stop early, once the rows inserted bound
the polytope, with the rays that satisfy the other rows: vertices keeps
them if their hull has only input rows as facets.  No floating point is
used anywhere in this module.

H-representation rows (b, a) encode the half-space b + a.x >= 0; linearity
rows encode b + a.x = 0.  This matches the "b  -A" layout of the interchange
format (A.x <= b written with the constant first and the negated coefficient
row after it).  Entries are Python ints, or Fractions where a value is not
an integer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import mul, or_

from ._record import Record
from ._text import at_line, exact_str, number, positive


class VRep(Record):
    dimension: int
    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("V-representation must contain at least one point")
        for p in self.points:
            if len(p) != self.dimension:
                raise ValueError("point length does not match dimension")


class HRep(Record):
    dimension: int
    inequalities: tuple  # tuples (b, a1, .., am): b + a.x >= 0
    linearities: tuple   # tuples (b, a1, .., am): b + a.x = 0

    def __post_init__(self):
        for row in chain(self.inequalities, self.linearities):
            if len(row) != self.dimension + 1:
                raise ValueError("row length does not match dimension + 1")


def _coprime(ints):
    """A row of ints divided by the gcd of its entries, as a tuple."""
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _normalize_row(row):
    """Scale a row of ints and Fractions to coprime integers, preserving
    orientation.  A zero row stays zero."""
    denom = lcm(*(x.denominator for x in row))
    return _coprime([x.numerator * (denom // x.denominator) for x in row])


def _always_true(row):
    """Whether the inequality b + a.x >= 0 holds everywhere: a = 0, b >= 0."""
    return row[0] >= 0 and not any(row[1:])


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows.

    Returns (basis, pivots): one row per pivot column, in column order, each
    zero at every other pivot column; all of them carry the same nonzero
    value at their own pivot, and together they span the rows' row space.
    Each step replaces a row x by (p*x - f*y) / prev, where y is the pivot
    row, p its pivot and prev the previous pivot.  That division is exact,
    since every entry is a minor of the input (Bareiss, Math. Comp. 22,
    1968), so the entries stay integers without a gcd per row.  Stops once
    every row is a pivot row.
    """
    mat = [list(r) for r in rows]
    pivots = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        p = top[col]
        for i, row in enumerate(mat):
            if i != rank:
                f = row[col]
                mat[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return mat[:len(pivots)], pivots


# ---------------------------------------------------------------------------
# double description core
# ---------------------------------------------------------------------------

# a step of a pointed cone with more (positive, negative) ray pairs than this
# goes to the numpy loop
_NUMPY_PAIRS = 4096
# the temporaries of one count block, or of one chunk of candidates, of a
# numpy step hold about this many 64-bit words
_STEP_WORDS = 1 << 15


def _dd_cone(dim, constraints, bounded=False):
    """Extreme rays and lineality of {y in R^dim : c.y >= 0 for all c}.

    constraints: integer vectors of length dim; an equation is the pair c,
    -c.  Returns (rays, lineality): a basis of the final lineality space,
    and one coprime-integer representative of each extreme ray of the
    pointed cone left modulo that space.  Constraint 0 is the trivial
    0 >= 0, at which every ray is tight; the given constraints count from 1.

    The cone starts on Python ints, without numpy: rays and lineality
    vectors are coprime int tuples, each ray has a slot, never reused, and
    a zero set of given constraints; T[k] is the int bitset of the slots
    tight at constraint k, and `live` that of the current rays.  A
    constraint that a lineality vector does not vanish on pivots it out,
    here only: once the lineality is empty, before the first step with
    more than _NUMPY_PAIRS (positive, negative) pairs, the pointed cone
    goes to _dd_numpy.  A conversion that never gets there, such as the
    hull of a flat polytope, whose lineality never empties, skips numpy's
    import, 0.08-0.11 s and 13 MiB of peak RSS per process on one core of
    a shared 2-vCPU Xeon.

    bounded=True (vertices, y[0] = t, constraints a list) lets the numpy
    loop return (survivors, None) instead: see _dd_numpy.  Constraints past
    such a stop are read from the list, not iterated over.
    """
    ahead = constraints if bounded else None
    constraints = iter(constraints)
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays, zs = [], []        # by slot
    alive, live = [], 0      # the current rays' slots, in order
    T = [0]                  # row 0 is not kept: every ray is tight there
    for c in constraints:
        k = len(T)
        dots = [sum(map(mul, rays[s], c)) for s in alive]
        dl = [sum(map(mul, u, c)) for u in lin]
        piv = next((i for i, x in enumerate(dl) if x), None)
        pos = [(s, d) for s, d in zip(alive, dots) if d > 0] if piv is None else []
        neg = [(s, d) for s, d in zip(alive, dots) if d < 0] if piv is None else []
        if not lin and len(pos) * len(neg) > _NUMPY_PAIRS:
            # rebinding frees the zero sets before numpy loads
            rays = [rays[s] for s in alive]
            zs = [sum(1 << j for j in zs[s]) | 1 for s in alive]
            return _dd_numpy(dim, rays, zs, k, chain([c], constraints), ahead)
        if piv is not None:
            # every other lineality vector v becomes v - (dv/du) u and every
            # ray r becomes r - (dr/du) u, scaled to coprime integers with the
            # orientation of r: all of them now vanish on c.  w, u turned to
            # the feasible side of c, is a new ray tight at every constraint
            # before c
            u, du = lin.pop(piv), dl.pop(piv)
            lin = [_coprime([du * x - dv * y for x, y in zip(v, u)]) for v, dv in zip(lin, dl)]
            w = u if du > 0 else tuple(-x for x in u)
            for s, d in zip(alive, dots):
                rays[s] = _coprime([abs(du) * x - d * y for x, y in zip(rays[s], w)])
                zs[s].add(k)
            T.append(live)
            new = [(w, set(range(1, k)))]
        else:
            T.append(0)
            for s in [s for s, d in zip(alive, dots) if not d]:
                zs[s].add(k)
                T[k] |= 1 << s
            new = _int_combinations(rays, zs, T, live, pos, neg, dim - len(lin))
            for s, _ in neg:
                rays[s] = zs[s] = None
                live ^= 1 << s
            alive = [s for s, d in zip(alive, dots) if d >= 0]
        for r, z in new:
            s = len(rays)
            for j in z:
                T[j] |= 1 << s
            rays.append(r)
            zs.append(z)
            alive.append(s)
            live |= 1 << s
    return [rays[s] for s in alive], lin


def _int_combinations(rays, zs, T, live, pos, neg, effdim):
    """New rays from adjacent (positive, negative) pairs, in the order of
    `for ip in pos: for im in neg`, each with its zero set; pos and neg are
    (slot, dot) lists, and T[-1] is the row of the constraint being
    inserted, holding its zero rays.

    Adjacency needs common tight constraints of rank effdim - 2, so at
    least m = effdim - 2 given ones.  For each ray a on the smaller side,
    bit-sliced counters over the other side's slots, started at 2^B - m
    with 2^B > m, add up T[k] & other for every k in a's zero set: a count
    that reaches m carries into plane B.  A candidate pair is adjacent iff
    ANDing live with the T rows of its common zero set leaves just the
    pair's two bits."""
    small, large = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    other = live ^ T[-1] ^ sum(1 << s for s, _ in small)
    m = max(0, effdim - 2)
    B = m.bit_length()
    pairs = []
    for a, _ in small:
        # plane i: bit i of the count of every slot
        planes = [other if ((1 << B) - m) >> i & 1 else 0 for i in range(B + 1)]
        for k in zs[a]:
            x, i = T[k] & other, 0
            while x:
                if i == len(planes):
                    planes.append(x)
                    break
                planes[i], x = planes[i] ^ x, planes[i] & x
                i += 1
        cand = reduce(or_, planes[B:])
        while cand:
            low = cand & -cand
            cand ^= low
            b = low.bit_length() - 1
            common = zs[a] & zs[b]
            acc = live
            for k in common:
                acc &= T[k]
            if acc == 1 << a | low:
                pairs.append((a, b) if small is pos else (b, a))
    dot = dict(pos + neg)
    return [(_coprime([dot[p] * y - dot[n] * x for x, y in zip(rays[p], rays[n])]),
             zs[p] & zs[n] | {len(T) - 1}) for p, n in sorted(pairs)]


def _dd_numpy(dim, rays, zsets, nproc, constraints, ahead):
    """_dd_cone on numpy arrays, from the pointed cone its Python-int phase
    hands over: the rays, their zero sets as int bitsets, the number nproc
    of constraints processed (constraint 0 included) and the remaining
    constraints.  The rays are the rows of one integer matrix R, int64
    while _ray_dtype, from R's largest entry and the step's constraint,
    proves that no product of the step can overflow, and Python ints
    (dtype object) otherwise.  The zero sets are the rows of a uint64
    matrix Z: constraint j is bit j % 64 of word j // 64.

    Returns (rays, []).  ahead is None, or the list of the given
    constraints (constraint k is ahead[k - 1]): then, at the first step at
    which every ray has y[0] > 0, the loop asks _survivors once about the
    ones not yet inserted, and returns (survivors, None) if they pass.
    """
    # imported here: a module-top import loads numpy before the package's
    # pure-Python modules and raises the peak RSS of every run
    import numpy as np

    R = np.array(rays, dtype=object).reshape(-1, dim)
    words = -(-nproc // 64)
    Z = np.array([[z >> 64 * w & 0xFFFF_FFFF_FFFF_FFFF for w in range(words)] for z in zsets],
                 dtype=np.uint64).reshape(-1, words)

    while True:
        if ahead is not None and nproc <= len(ahead) and (R[:, 0] > 0).all():
            survivors = _survivors(R, ahead[nproc - 1:])
            if survivors is not None:
                return survivors, None
            ahead = None
        cvec = next(constraints, None)
        if cvec is None:
            return [tuple(r) for r in R.tolist()], []
        R = R.astype(_ray_dtype(R, cvec), copy=False)
        c = np.array(cvec, dtype=R.dtype)
        word, bit = nproc // 64, np.uint64(1 << (nproc % 64))
        if word == Z.shape[1]:
            Z = np.concatenate((Z, np.zeros((len(Z), 1), dtype=Z.dtype)), axis=1)
        dots = R @ c
        pos = np.flatnonzero(dots > 0)
        neg = np.flatnonzero(dots < 0)
        zer = np.flatnonzero(dots == 0)

        newR, newZ = _combinations(R, Z, dots, pos, neg, dim)
        Z[zer, word] |= bit
        newZ[:, word] |= bit
        keep = np.concatenate((pos, zer))
        nproc += 1
        # one statement each, so that the old matrix is freed before the
        # next one is built
        R = R[keep]
        R = np.concatenate((R, newR))
        Z = Z[keep]
        Z = np.concatenate((Z, newZ))


def _survivors(R, rest):
    """The rays of R (rows, each with y[0] > 0) that satisfy every
    constraint of rest, as int tuples, or None if there are none or some
    constraint of rest is tight at fewer than dim - 1 of them.

    A survivor lies in the whole cone and is an extreme ray of R's, which
    holds it: a vertex.  That they are all of them is the caller's to
    prove; the count is a pre-check.  A facet holds at least dim - 1
    vertices, so a row tight at fewer survivors is redundant or a cut that
    makes vertices they lack.  Each integer product, under _ray_dtype's
    guard, is of about _STEP_WORDS words."""
    import numpy as np

    # the largest entry of rest stands for all of them in _ray_dtype's test
    dtype = _ray_dtype(R, [max(abs(x) for c in rest for x in c)])
    S = R.astype(dtype, copy=False)
    C = np.array(rest, dtype=dtype).T
    j = 0
    while len(S) and j < len(rest):
        width = max(1, _STEP_WORDS // len(S))
        S = S[(S @ C[:, j:j + width]).min(axis=1) >= 0]
        j += width
    if not len(S):
        return None
    block = max(1, _STEP_WORDS // len(rest))
    tight = sum(np.count_nonzero(S[b:b + block] @ C == 0, axis=0) for b in range(0, len(S), block))
    if tight.min() < S.shape[1] - 1:
        return None
    return [tuple(r) for r in S.tolist()]


def _ray_dtype(R, cvec):
    """The dtype for the ray matrix R at the step of constraint cvec: int64
    while no product of the step can overflow it, else object (Python
    ints).  With B = max(1, max|R|), a dot product of c with a row is at
    most max|c| * dim * B, and each of the two terms of a combined row at
    most that times B: the test keeps both under 2**62.  R is scanned at
    every step, a pass over it like the step's dot products."""
    big = max(1, int(R.max()), -int(R.min())) if len(R) else 1
    return "int64" if max(abs(x) for x in cvec) * R.shape[1] * big * big < 1 << 62 else object


def _combinations(R, Z, dots, pos, neg, effdim):
    """New rays, and their zero sets, from adjacent (positive, negative) pairs,
    in the order of `for ip in pos: for im in neg`.

    Adjacency needs common tight constraints of rank effdim - 2, hence at
    least that many besides constraint 0, at which every ray is tight: a
    pair whose common zero set holds fewer than effdim - 1 constraints is
    not a candidate.  The counts run one block of the smaller side at a
    time, laid out (ray of the block, word, ray of the other side), so that
    one AND, one popcount and one sum over the word axis count every pair
    of the block.  A candidate is adjacent iff the rays tight at every
    constraint of its common zero set are just the pair.  Row k of T is the
    bitset of the rays tight at constraint k, in uint64 words, filled the
    first time a candidate needs it (a step reads few of its constraints).
    A chunk of candidates is tested at once: one reduceat ANDs the rows of
    each candidate's common zero set, whose offsets come from the counts
    (at least 1 each, so no list of rows is empty), and the pair is
    adjacent iff two bits are left."""
    import numpy as np

    if not len(pos) or not len(neg):
        return R[:0], Z[:0]
    small, large = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    words = Z.shape[1]
    Zl = Z[large].T.copy()  # row w: word w of each zero set of the other side
    block = max(1, _STEP_WORDS // Zl.size)
    count_type = np.min_scalar_type(64 * words)
    cand_s, cand_l, pops = [], [], []
    for b0 in range(0, len(small), block):
        counts = np.bitwise_count(Z[small[b0:b0 + block], :, None] & Zl).sum(axis=1, dtype=count_type)
        flat = np.flatnonzero(counts >= max(1, effdim - 1))
        i, j = np.divmod(flat, len(large))
        cand_s.append(small[b0 + i])
        cand_l.append(large[j])
        pops.append(counts.ravel()[flat])
    cand_s, cand_l = np.concatenate(cand_s), np.concatenate(cand_l)
    pops = np.concatenate(pops, dtype=np.int64)
    p, n = (cand_s, cand_l) if small is pos else (cand_l, cand_s)

    T = np.zeros((64 * words, -(-len(R) // 64)), dtype=np.uint64)
    filled = np.zeros(64 * words, dtype=bool)
    Zb = Z.astype("<u8", copy=False).view(np.uint8)
    # a candidate gathers one T row per constraint of its common zero set and
    # unpacks that set to a byte per bit: the chunks start where the running
    # total of those words passes a multiple of _STEP_WORDS
    cost = np.cumsum(pops * T.shape[1] + 8 * words)
    firsts = np.flatnonzero(np.diff(cost // _STEP_WORDS, prepend=-1)).tolist()
    adjacent = np.zeros(len(p), dtype=bool)
    for c0, c1 in zip(firsts, firsts[1:] + [len(p)]):
        common = (Z[p[c0:c1]] & Z[n[c0:c1]]).astype("<u8", copy=False)
        # the constraints the chunk's candidates share
        used = np.flatnonzero(np.unpackbits(np.bitwise_or.reduce(common, axis=0).view(np.uint8),
                                            bitorder="little"))
        need = used[~filled[used]]
        if len(need):
            filled[need] = True
            # bit k % 8 of byte k // 8 of each ray's zero set, packed over the rays
            bits = Zb[:, need >> 3] & (1 << (need & 7)).astype(np.uint8)
            rows = np.packbits(bits, axis=0, bitorder="little").T
            T.view(np.uint8)[need, :rows.shape[1]] = rows
        # pair after pair, each common zero set in increasing order
        bits = np.unpackbits(common.view(np.uint8), axis=1, bitorder="little")[:, used]
        zeros = used[np.flatnonzero(bits) % len(used)]
        starts = np.cumsum(pops[c0:c1]) - pops[c0:c1]
        acc = np.bitwise_and.reduceat(T[zeros], starts, axis=0)
        adjacent[c0:c1] = np.bitwise_count(acc).sum(axis=1, dtype=np.int64) == 2
    ips, ims = p[adjacent], n[adjacent]
    if small is neg:
        order = np.lexsort((ims, ips))
        ips, ims = ips[order], ims[order]
    new = R[ims]
    new *= dots[ips][:, None]
    new -= dots[ims][:, None] * R[ips]
    # each row divided by the gcd of its entries; no row is zero, as the cone
    # is pointed
    new //= np.gcd.reduce(new, axis=1)[:, None]
    return new, Z[ips] & Z[ims]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def hull(v: VRep) -> HRep:
    """Minimal H-representation of conv(points) via double description.

    The valid inequalities (b, a), b + a.w >= 0 at every point w, form a
    cone whose lineality space is exactly the affine hull's equations
    (Fukuda & Prodon, "Double description method revisited", 1996):
    its extreme rays modulo that space are the facets and the trivial
    1 >= 0, which canonicalize drops.  What reaches the double description
    depends only on the set of points, not on their order or repetition."""
    m = v.dimension
    # one common denominator turns the points into integer points P = denom*x
    denom = lcm(*(x.denominator for p in v.points for x in p))
    points = sorted({tuple(x.numerator * (denom // x.denominator) for x in p)
                     for p in v.points})
    # measured from the lexicographically least point p0, so the entries stay
    # as small as the polytope, and inserted in lexicographic order: an order
    # fixed by the point set
    p0 = points[0]
    rays, lin = _dd_cone(m + 1, [(1, *(x - y for x, y in zip(p, p0))) for p in points])
    # b + a.(P - p0) >= 0 is (b - a.p0) + (denom*a).x >= 0
    back = [(b - _dot(a, p0), *(denom * x for x in a)) for b, *a in rays + lin]
    return canonicalize(HRep(m, tuple(back[:len(rays)]), tuple(back[len(rays):])))


def _row_order(row):
    """Sort key of a row (b, a): fewest nonzeros in a first, then a, then b.
    A translation changes only b, and only among rows of one normal a, so it
    keeps this order.  Ordered by b first, the rows of epr-2x3-full.ine moved
    by 2^61 along each axis made the double description run for minutes."""
    return sum(map(bool, row[1:])), row[1:], row[0]


def vertices(h: HRep) -> VRep:
    """Exact extreme points of a bounded H-polytope: x = y / t for each
    extreme ray (t, y) of the cone t >= 0, b*t + a.y >= 0 over the rows.
    Rows that hold everywhere (0 = 0, or b >= 0 with a zero normal) are
    left out; a linearity r enters as the two inequalities r and -r.  The
    rows reach the double description normalized, deduplicated and sorted
    by _row_order, the linearity pairs first, so what it does depends only
    on the set of rows, not on their order or repetition.

    The double description may stop once the rows inserted bound the
    polytope (every ray has t > 0), with the rays that satisfy the other
    rows (_survivors): vertices, and all of them iff hull() of them has the
    input's linearities and only its rows as facets.  Else it runs again,
    to the end: a failed stop costs at most one hull() and one rerun.  The
    polytope is empty iff no ray has t > 0, tested first."""
    m = h.dimension
    # an equation and its negation are one linearity: turn each so that its
    # normal's leading nonzero is positive, which a translation keeps
    lin = {_normalize_row(row if next((x for x in row[1:] if x), row[0]) > 0
                          else [-x for x in row])
           for row in h.linearities if any(row)}
    ineq = {_normalize_row(row) for row in h.inequalities if not _always_true(row)}
    constraints = [(1,) + (0,) * m]  # homogenization: t >= 0
    for row in sorted(lin, key=_row_order):
        constraints += [row, tuple(-x for x in row)]
    constraints += sorted(ineq, key=_row_order)
    rays, line = _dd_cone(m + 1, constraints, bounded=True)
    if line is None and not _spans(rays, HRep(m, tuple(ineq), tuple(lin))):
        rays, line = _dd_cone(m + 1, constraints)
    if not any(t > 0 for t, *_ in rays):
        raise ValueError("infeasible H-representation (empty polytope)")
    if line:
        raise ValueError("polyhedron contains a line: " + str(line[0]))
    for ray in rays:
        if ray[0] == 0:
            raise ValueError("unbounded polyhedron, recession ray " + str(ray[1:]))
    return VRep(m, tuple(sorted(_points(rays))))


def _points(rays):
    """The distinct points y / t of rays (t, y), t > 0."""
    return {tuple(Fraction(x, t) for x in y) for t, *y in rays}


def _spans(rays, h):
    """Whether the points of rays, which lie in h's polytope, span it:
    whether their hull has h's linearities and only rows of h as facets,
    which then hold on it.  h's rows are normalized and distinct: only
    linearities need canonicalize, after the hull (a lower peak)."""
    got = hull(VRep(h.dimension, tuple(_points(rays))))
    want = canonicalize(h) if h.linearities else h
    return got.linearities == want.linearities and set(got.inequalities) <= set(want.inequalities)


def canonicalize(h: HRep) -> HRep:
    """Canonical form: linearity rows in reduced echelon form with coprime
    integer entries and positive leading coefficient; inequality rows reduced
    modulo the linearity space, scaled to coprime integers, deduplicated, and
    sorted.  An inequality that reduces to b >= 0 with b >= 0 holds
    everywhere and is dropped.  Idempotent; two H-representations describe
    the same polytope with the same affine hull iff their canonical forms
    are equal."""
    m = h.dimension
    # echelon-reduce linearities with column order a1..am, b so the leading
    # nonzero coefficient is positive
    perm = list(range(1, m + 1)) + [0]
    basis, pivots = _echelon([[r[j] for j in perm] for r in map(_normalize_row, h.linearities)])
    # the basis rows share one pivot value; turn them to make it positive
    basis = [_normalize_row(row if row[pc] > 0 else [-x for x in row])
             for row, pc in zip(basis, pivots)]
    inv = {pj: i for i, pj in enumerate(perm)}
    lin = [tuple(row[inv[j]] for j in range(m + 1)) for row in basis]

    ineqs = set()
    for row in h.inequalities:
        row = _normalize_row(row)
        vec = [row[j] for j in perm]
        for rr, pc in zip(basis, pivots):
            if vec[pc]:
                # rr[pc] > 0, so this keeps the orientation of vec
                f, lead = vec[pc], rr[pc]
                vec = [lead * x - f * y for x, y in zip(vec, rr)]
        back = [vec[inv[j]] for j in range(m + 1)]
        if not _always_true(back):
            ineqs.add(_normalize_row(back))
    return HRep(m, tuple(sorted(ineqs)), tuple(sorted(lin)))


# ---------------------------------------------------------------------------
# interchange format
# ---------------------------------------------------------------------------

def parse_dd(text: str):
    """Parse the DD interchange format into a VRep or HRep.  An error on a
    line raises ValueError("line N: ...")."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith("*")]
    kind = None
    linearity = None    # (line number, row indices)
    for pos, (lineno, head) in enumerate(lines):
        with at_line(lineno):
            if head in ("V-representation", "H-representation"):
                kind = head[0]
            elif head.split()[0] == "linearity":
                count, *idx = head.split()[1:] or [""]
                if not count.isdecimal():
                    raise ValueError(f"linearity count must be an integer, got {count!r}")
                idx = [positive(t, "linearity row") for t in idx]
                if len(idx) != int(count):
                    raise ValueError("linearity count mismatch")
                rows = set()
                for i in idx:
                    if i in rows:
                        raise ValueError(f"linearity row {i} is given twice")
                    rows.add(i)
                linearity = (lineno, rows)
            elif head == "begin":
                break
            else:
                raise ValueError(f"unexpected line before begin: {head!r}")
    else:
        raise ValueError("missing begin")
    if kind is None:
        raise ValueError("missing V-representation/H-representation header")
    if pos + 1 == len(lines):
        raise ValueError(f"line {lineno}: expected '<rows> <cols> <type>' after begin")
    lineno, size = lines[pos + 1]
    with at_line(lineno):
        fields = size.split()
        if len(fields) < 2:
            raise ValueError(f"expected '<rows> <cols> <type>', got {size!r}")
        # an H-representation without rows is all of R^d; a V one needs a point
        nrows = 0 if kind == "H" and fields[0] == "0" else positive(fields[0], "row count")
        ncols = positive(fields[1], "column count")
    toks, tok_lines = [], []
    for body_line, ln in lines[pos + 2:]:
        if ln == "end":
            break
        fields = ln.split()
        toks += fields
        tok_lines += [body_line] * len(fields)
    else:
        raise ValueError("missing end")
    if len(toks) != nrows * ncols:
        raise ValueError(f"line {lineno}: expected {nrows}x{ncols} entries, got {len(toks)}")
    nums = []
    try:
        for t in toks:
            nums.append(number(t))
    except ValueError as exc:
        raise ValueError(f"line {tok_lines[len(nums)]}: {exc}") from None
    rows = [tuple(nums[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    lin_line, linearity_idx = linearity or (None, set())
    if kind == "V":
        if linearity is not None:
            raise ValueError(f"line {lin_line}: linearity rows not supported in V-representation")
        for i, row in enumerate(rows):
            if row[0] != 1:
                raise ValueError(f"line {tok_lines[i * ncols]}: "
                                 f"V-row leading marker must be 1, got {exact_str(row[0])}")
        return VRep(ncols - 1, tuple(r[1:] for r in rows))
    outside = sorted(i for i in linearity_idx if i > nrows)
    if outside:
        raise ValueError(f"line {lin_line}: linearity row {outside[0]} is outside 1..{nrows}")
    ineqs, lins = [], []
    for i, row in enumerate(rows, start=1):
        (lins if i in linearity_idx else ineqs).append(row)
    return HRep(ncols - 1, tuple(ineqs), tuple(lins))


def emit_dd(rep, comments=()) -> str:
    """Emit a VRep or HRep in the DD interchange format."""
    out = [f"* {c}" for c in comments]
    if isinstance(rep, VRep):
        out.append("V-representation")
        rows = [(1, *p) for p in rep.points]
    else:
        out.append("H-representation")
        rows = [*rep.inequalities, *rep.linearities]
        nin = len(rep.inequalities)
        if rep.linearities:
            idx = " ".join(str(i) for i in range(nin + 1, len(rows) + 1))
            out.append(f"linearity {len(rep.linearities)}  {idx}")
    out.append("begin")
    out.append(f" {len(rows)}  {rep.dimension + 1}  real")
    for row in rows:
        out.append(" " + "  ".join(map(exact_str, row)))
    out.append("end")
    return "\n".join(out) + "\n"
