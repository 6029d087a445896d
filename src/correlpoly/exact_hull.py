"""Exact rational convex polytope engine.

Converts between vertex (V) and facet (H) representations of convex polytopes
using the incremental double description method.  One cone computation,
_dd_cone (extreme rays and lineality of {y : c.y >= 0}), serves both ways:
hull feeds it the homogenized points, whose valid-inequality cone has the
affine hull's equations as its lineality; vertices feeds it the homogenized
rows, each equation as two opposite inequalities.  Rational input is scaled
to integer rows once; from there the work is on integers (Python ints, or
int64 where a bound proves that nothing overflows).  No floating point is
used anywhere in this module.

H-representation rows (b, a) encode the half-space b + a.x >= 0; linearity
rows encode b + a.x = 0.  This matches the "b  -A" layout of the interchange
format (A.x <= b written with the constant first and the negated coefficient
row after it).  Entries are Python ints, or Fractions where a value is not
an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._record import Record
from ._text import at_line, exact_str, number


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


def _normalize_row(row):
    """Scale a row of ints and Fractions to coprime integers, preserving
    orientation.  A zero row stays zero."""
    denom = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (denom // x.denominator) for x in row]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


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

def _dd_cone(dim, constraints):
    """Extreme rays and lineality of {y in R^dim : c.y >= 0 for all c}.

    constraints: integer vectors of length dim; an equation is the pair c,
    -c.  Returns (rays, lineality): a basis of the final lineality space,
    and one coprime-integer representative of each extreme ray of the
    pointed cone left modulo that space.  The rays are the rows of one
    integer matrix R and the lineality basis those of another, L; both are
    int64 while one bound proves that no product below can overflow, and
    Python ints (dtype object) otherwise.  The rays' zero sets, over the
    constraints processed so far, are the rows of a uint64 matrix Z:
    constraint j is bit j % 64 of word j // 64.  Constraint 0 is the
    trivial 0 >= 0, at which every ray is tight; the given constraints
    count from 1.
    """
    # imported here: a module-top import loads numpy before the package's
    # pure-Python modules and raises the peak RSS of every run
    import numpy as np

    L = np.eye(dim, dtype=np.int64)
    R = np.zeros((0, dim), dtype=np.int64)
    Z = np.zeros((0, 0), dtype=np.uint64)
    nproc = 1     # zero-set width: constraint 0 and the constraints processed

    for cvec in constraints:
        dtype = _ray_dtype(R, L, cvec)
        R, L = R.astype(dtype, copy=False), L.astype(dtype, copy=False)
        c = np.array(cvec, dtype=dtype)
        word, bit = nproc // 64, np.uint64(1 << (nproc % 64))
        if word == Z.shape[1]:
            Z = np.concatenate((Z, np.zeros((len(Z), 1), dtype=Z.dtype)), axis=1)
        # pivot out the first lineality vector that c does not vanish on
        dl = L @ c
        pivot = np.flatnonzero(dl)
        if len(pivot):
            u, du = L[pivot[0]], dl[pivot[0]]
            L, dl = np.delete(L, pivot[0], axis=0), np.delete(dl, pivot[0])
            # v - (dv/du) u for every other v, scaled to coprime integers
            L = _reduce_rows(du * L - dl[:, None] * u)
            # r - (dr/du) u, scaled to integers with the orientation of r;
            # w is u turned to the feasible side of this constraint
            w = u if du > 0 else -u
            R = _reduce_rows(abs(du) * R - (R @ c)[:, None] * w)
            # the adjustment put every existing ray on this constraint's
            # hyperplane, so they all gain the new tight bit; the new ray
            # (the pivoted lineality direction) is tight for everything
            # processed before but strictly feasible for this constraint
            Z[:, word] |= bit
            full = (1 << nproc) - 1
            z = [(full >> (64 * k)) & 0xFFFF_FFFF_FFFF_FFFF for k in range(Z.shape[1])]
            R = np.concatenate((R, w[None]))
            Z = np.concatenate((Z, np.array([z], dtype=Z.dtype)))
            nproc += 1
            continue

        dots = R @ c
        pos = np.flatnonzero(dots > 0)
        neg = np.flatnonzero(dots < 0)
        zer = np.flatnonzero(dots == 0)

        # dimension of the pointed quotient the rays live in
        effdim = dim - len(L)
        newR, newZ = _combinations(R, Z, dots, pos, neg, effdim)
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
    return [tuple(r) for r in R.tolist()], [tuple(u) for u in L.tolist()]


def _ray_dtype(R, L, cvec):
    """One dtype for the ray matrix R and the lineality matrix L: int64
    while no product of this step can overflow it, else object (Python
    ints).  With B = max(1, max|R|, max|L|), a dot product of c with a row
    is at most max|c| * dim * B, and each of the two terms of a combined
    row at most that times B: the bound below keeps both under 2**62."""
    big = 1
    for M in (R, L):
        if len(M):
            big = max(big, int(M.max()), -int(M.min()))
    ok = max(abs(x) for x in cvec) * R.shape[1] * big * big < 1 << 62
    return "int64" if ok else object


def _reduce_rows(R):
    """R with each row divided, in place, by the gcd of its entries."""
    import numpy as np

    g = np.gcd.reduce(R, axis=1)
    g[g == 0] = 1
    R //= g[:, None]
    return R


def _combinations(R, Z, dots, pos, neg, effdim):
    """New rays, and their zero sets, from adjacent (positive, negative) pairs,
    in the order of `for ip in pos: for im in neg`.

    A pair is adjacent iff the rays tight at every constraint of its common
    zero set are just the pair.  Row k of T is the bitset of the rays tight
    at constraint k, in uint64 words, filled the first time a candidate
    needs it (a step reads few of its constraints).  A chunk of candidates
    is tested at once: one reduceat ANDs the rows of each candidate's common
    zero set, and the pair is adjacent iff two bits are left.  Every zero
    set holds constraint 0, at which every ray is tight, so no candidate has
    an empty list of rows, and each list starts at row 0."""
    import numpy as np

    if not len(pos) or not len(neg):
        return R[:0], Z[:0]
    T = np.zeros((Z.shape[1] * 64, -(-len(R) // 64)), dtype=np.uint64)
    Zb = Z.astype("<u8", copy=False).view(np.uint8)
    filled = set()
    ips, ims = [pos[:0]], [neg[:0]]
    # adjacency needs common tight constraints of rank effdim-2, hence at
    # least that many of them besides constraint 0
    for p, n, words in _candidates(Z, pos, neg, max(1, effdim - 1)):
        # the rows this chunk reads first: bit k % 8 of byte k // 8 of each
        # ray's zero set, packed over the rays
        need = [k for k in _bit_indices(np.bitwise_or.reduce(words, axis=0))[0].tolist()
                if k not in filled]
        if need:
            filled.update(need)
            bits = Zb[:, [k >> 3 for k in need]] & np.array([1 << (k & 7) for k in need], dtype=np.uint8)
            rows = np.packbits(bits, axis=0, bitorder="little").T
            T.view(np.uint8)[need, :rows.shape[1]] = rows
        zeros = _bit_indices(words)[1]  # row-major: pair after pair
        acc = np.bitwise_and.reduceat(T[zeros], np.flatnonzero(zeros == 0), axis=0)
        adjacent = np.bitwise_count(acc).sum(axis=1, dtype=np.int64) == 2
        ips.append(p[adjacent])
        ims.append(n[adjacent])
    ips, ims = np.concatenate(ips), np.concatenate(ims)
    new = R[ims]
    new *= dots[ips][:, None]
    new -= dots[ims][:, None] * R[ips]
    return _reduce_rows(new), Z[ips] & Z[ims]


def _candidates(Z, pos, neg, minpop):
    """Chunks (p, n, words) of up to 64 pairs (p[i], n[i]) of pos x neg, in
    row-major order, whose common zero set words[i] = Z[p[i]] & Z[n[i]] has
    at least minpop constraints.  The pairs are counted one block of about
    4096 at a time, word by word of the zero sets, so the temporaries of the
    count stay near 4096 words."""
    import numpy as np

    Zp, Zn = Z[pos].T.copy(), Z[neg].T.copy()  # row w: word w of each zero set
    block = max(1, 4096 // len(neg))
    for b0 in range(0, len(pos), block):
        zps = Zp[:, b0:b0 + block, None]
        counts = np.zeros((zps.shape[1], len(neg)), dtype=np.int64)
        for zp, zn in zip(zps, Zn):
            counts += np.bitwise_count(zp & zn)
        bp, bn = np.nonzero(counts >= minpop)
        for c0 in range(0, len(bp), 64):
            p, n = pos[b0 + bp[c0:c0 + 64]], neg[bn[c0:c0 + 64]]
            yield p, n, Z[p] & Z[n]


def _bit_indices(words):
    """np.nonzero of the bits of a uint64 array: bit j of word w of a row is
    at column 64 * w + j."""
    import numpy as np

    words = words.astype("<u8", copy=False)
    return np.nonzero(np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little"))


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
    on the set of rows, not on their order or repetition."""
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
    rays, lin = _dd_cone(m + 1, constraints)
    if lin:
        raise ValueError("polyhedron contains a line: " + str(lin[0]))
    points = set()
    for ray in rays:
        t = ray[0]
        if t == 0:
            raise ValueError("unbounded polyhedron, recession ray "
                             + str(ray[1:]))
        points.add(tuple(Fraction(x, t) for x in ray[1:]))
    if not points:
        raise ValueError("infeasible H-representation (empty polytope)")
    return VRep(m, tuple(sorted(points)))


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

def _parse_count(tok, what):
    if not (tok.isdecimal() and int(tok) >= 1):
        raise ValueError(f"{what} must be a positive integer, got {tok!r}")
    return int(tok)


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
                idx = {_parse_count(t, "linearity row") for t in idx}
                if len(idx) != int(count):
                    raise ValueError("linearity count mismatch")
                linearity = (lineno, idx)
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
        nrows, ncols = _parse_count(fields[0], "row count"), _parse_count(fields[1], "column count")
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
            nums.append(number(t, Fraction))
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
