"""Exact rational convex polytope engine.

Converts between vertex (V) and facet (H) representations of convex polytopes
using the incremental double description method.  Rational input is scaled to
integer rows once; from there the work is on integers (Python ints, or int64
where a bound proves that nothing overflows).  No floating point is used
anywhere in this module.

H-representation rows (b, a) encode the half-space b + a.x >= 0; linearity
rows encode b + a.x = 0.  This matches the "b  -A" layout of the interchange
format (A.x <= b written with the constant first and the negated coefficient
row after it).  Entries are Python ints, or Fractions where a value is not
an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Rat = Fraction


@dataclass(frozen=True)
class VRep:
    dimension: int
    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("V-representation must contain at least one point")
        for p in self.points:
            if len(p) != self.dimension:
                raise ValueError("point length does not match dimension")


@dataclass(frozen=True)
class HRep:
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
    """Extreme rays of {y in R^dim : c.y >= 0 (or = 0) for all constraints}.

    constraints: list of (vector, is_equality).  Returns (rays, lineality):
    the rays as coprime-integer tuples and a basis of the final lineality
    space.  The rays are the rows of one integer matrix R, int64 while a bound
    proves that no product below can overflow and Python ints (dtype object)
    otherwise.  Their zero sets, over the inequality constraints processed
    so far, are the rows of a uint64 matrix Z: constraint j is bit j % 64 of
    word j // 64.
    """
    # imported here: a module-top import loads numpy before the package's
    # pure-Python modules and raises the peak RSS of every run
    import numpy as np

    lineality = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    R = np.zeros((0, dim), dtype=np.int64)
    Z = np.zeros((0, 0), dtype=np.uint64)
    nproc = 0     # number of inequality constraints processed (zero-set width)
    neqpiv = 0    # independent equality constraints absorbed so far

    for cvec, is_eq in constraints:
        cvec = tuple(cvec)
        R = R.astype(_ray_dtype(R, lineality, cvec, dim), copy=False)
        c = np.array(cvec, dtype=R.dtype)
        word, bit = nproc // 64, np.uint64(1 << (nproc % 64))
        if not is_eq and word == Z.shape[1]:
            Z = np.concatenate((Z, np.zeros((len(Z), 1), dtype=Z.dtype)), axis=1)
        # try to pivot a lineality vector out
        pivot = None
        for idx, u in enumerate(lineality):
            if _dot(cvec, u) != 0:
                pivot = idx
                break
        if pivot is not None:
            u = lineality.pop(pivot)
            du = _dot(cvec, u)
            lineality = [_combine(v, _dot(cvec, v), u, du) for v in lineality]
            # r - (dr/du) u, scaled to integers with the orientation of r;
            # w is u turned to the feasible side of this constraint
            w = u if du > 0 else tuple(-x for x in u)
            R = _reduce_rows(abs(du) * R - (R @ c)[:, None] * np.array(w, dtype=R.dtype))
            if is_eq:
                neqpiv += 1
            else:
                # the adjustment put every existing ray on this constraint's
                # hyperplane, so they all gain the new tight bit; the new ray
                # (the pivoted lineality direction) is tight for everything
                # processed before but strictly feasible for this constraint
                Z[:, word] |= bit
                full = (1 << nproc) - 1
                z = [(full >> (64 * k)) & 0xFFFF_FFFF_FFFF_FFFF for k in range(Z.shape[1])]
                R = np.concatenate((R, np.array([w], dtype=R.dtype)))
                Z = np.concatenate((Z, np.array([z], dtype=Z.dtype)))
                nproc += 1
            continue

        dots = R @ c
        pos = np.flatnonzero(dots > 0)
        neg = np.flatnonzero(dots < 0)
        zer = np.flatnonzero(dots == 0)

        # dimension of the pointed quotient the rays live in
        effdim = dim - len(lineality) - neqpiv
        newR, newZ = _combinations(R, Z, dots, pos, neg, effdim)
        if is_eq:
            keep = zer
        else:
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
    return [tuple(r) for r in R.tolist()], lineality


def _ray_dtype(R, lineality, cvec, dim):
    """int64 while no product of this step can overflow it, else object
    (Python ints).  With B = max(1, max|R|, max|lineality|), a dot product
    is at most max|c| * dim * B, and each of the two terms of a combined
    ray at most that times B: the bound below keeps both under 2**62."""
    big = max((abs(x) for u in lineality for x in u), default=1)
    if len(R):
        big = max(big, int(R.max()), -int(R.min()))
    ok = max(abs(x) for x in cvec) * dim * big * big < 1 << 62
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
    in the order of `for ip in pos: for im in neg`."""
    if not len(pos) or not len(neg):
        return R[:0], Z[:0]
    # adjacency needs common tight constraints of rank effdim-2, hence at
    # least that many of them
    minpop = max(0, effdim - 2)
    tight = _TightIndex(Z)
    everyone = (1 << len(R)) - 1
    ips, ims = [], []
    for ip, im, common in _candidates(Z, pos, neg, minpop):
        # the pair is adjacent iff no third ray's zero set contains the
        # common zero set: the rays tight at all of it are just the pair
        pair = (1 << ip) | (1 << im)
        acc = everyone
        for k in common:
            if acc == pair:
                break
            acc &= tight[k]
        if acc == pair:
            ips.append(ip)
            ims.append(im)
    new = R[ims]
    new *= dots[ips][:, None]
    new -= dots[ims][:, None] * R[ips]
    return _reduce_rows(new), Z[ips] & Z[ims]


def _candidates(Z, pos, neg, minpop):
    """The pairs (ip, im) of pos x neg, in row-major order, whose common zero
    set has at least minpop constraints, each with the list of those
    constraints.  Temporaries stay near 4096 words: the pairs are filtered
    one block of positive rays at a time, and the zero sets are decoded 64
    candidates at a time."""
    import numpy as np

    Zn = Z[neg]
    pos, neg = pos.tolist(), neg.tolist()
    block = max(1, 4096 // (len(neg) * max(Z.shape[1], 1)))
    for b0 in range(0, len(pos), block):
        common = Z[pos[b0:b0 + block], None, :] & Zn[None, :, :]
        counts = np.bitwise_count(common).sum(axis=2, dtype=np.int64)
        bp, bn = np.nonzero(counts >= minpop)
        for c0 in range(0, len(bp), 64):
            p, n = bp[c0:c0 + 64], bn[c0:c0 + 64]
            words = common[p, n].astype("<u8", copy=False)
            bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
            zeros = np.nonzero(bits)[1].tolist()  # row-major: pair after pair
            end = 0
            for i, j, size in zip(p.tolist(), n.tolist(), counts[p, n].tolist()):
                start, end = end, end + size
                yield pos[b0 + i], neg[j], zeros[start:end]


class _TightIndex(dict):
    """Constraint index -> Python-int bitset of the rays tight at it, decoded
    from Z on first use (a step reads few of its constraints)."""

    def __init__(self, Z):
        super().__init__()
        self.Z = Z

    def __missing__(self, k):
        import numpy as np

        tight = self.Z[:, k // 64] & np.uint64(1 << (k % 64))
        rays = np.packbits(tight != 0, bitorder="little").tobytes()
        self[k] = int.from_bytes(rays, "little")
        return self[k]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _combine(v, dv, u, du):
    # v' = v - (dv/du) u, scaled to coprime integers (orientation irrelevant)
    w = tuple(du * x - dv * y for x, y in zip(v, u))
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    return tuple(x // g for x in w) if g > 1 else w


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def hull(v: VRep) -> HRep:
    """Minimal H-representation of conv(points): linearities for the affine
    hull's codimension, then exactly the facets via double description.
    What reaches the double description depends only on the set of points,
    not on their order or repetition."""
    m = v.dimension
    # one common denominator turns the points into integer points P = denom*x
    denom = lcm(*(x.denominator for p in v.points for x in p))
    points = sorted({tuple(x.numerator * (denom // x.denominator) for x in p)
                     for p in v.points})

    # affine hull: eliminate the rows [1 | P].  Column 0 is the first pivot,
    # which leaves the differences P - P0; the other pivots are the columns
    # on which those have full rank.  Each free column gives one linearity
    # (b, a) with b + a.P = 0, that is b + (denom*a).x = 0.
    basis, pivots = _echelon([(1, *p) for p in points])
    d = basis[0][0]
    linearities = []
    for free in sorted(set(range(m + 1)) - set(pivots)):
        vec = [0] * (m + 1)
        vec[free] = d
        for row, pc in zip(basis, pivots):
            vec[pc] = -row[free]
        linearities.append((vec[0], *(denom * x for x in vec[1:])))

    # affine rank r: dimension of the polytope
    r = len(pivots) - 1
    if r <= 0:
        return canonicalize(HRep(m, (), tuple(linearities)))

    # parametrize the affine hull by the r pivot coordinates, measured from
    # the lexicographically least point
    cols = [c - 1 for c in pivots[1:]]
    p0 = points[0]
    reduced = sorted(tuple(p[j] - p0[j] for j in cols) for p in points)

    # facets of the full-dimensional reduced polytope = extreme rays of the
    # cone of valid inequalities {(b,a) : b + a.w >= 0 for all vertices w},
    # inserted in lexicographic order of w: an order fixed by the point set
    constraints = [((1, *w), False) for w in reduced]
    rays, lin = _dd_cone(r + 1, constraints)
    assert not lin, "dual cone of a full-dimensional polytope is pointed"

    inequalities = []
    for beta, *alpha in rays:
        if not any(alpha):
            continue  # the trivial valid inequality 1 >= 0
        a = [0] * m
        for j, x in zip(cols, alpha):
            a[j] = denom * x
        b = beta - sum(x * p0[j] for j, x in zip(cols, alpha))
        inequalities.append((b, *a))
    return canonicalize(HRep(m, tuple(inequalities), tuple(linearities)))


def vertices(h: HRep) -> VRep:
    """Exact extreme points of a bounded H-polytope.  Rows that hold
    everywhere (0 = 0, or b >= 0 with a zero normal) are left out."""
    m = h.dimension
    constraints = [((1,) + (0,) * m, False)]  # homogenization: t >= 0
    for row in h.linearities:
        if any(row):
            constraints.append((_normalize_row(row), True))
    for row in h.inequalities:
        if not _always_true(row):
            constraints.append((_normalize_row(row), False))
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

def _parse_number(tok):
    """An integer token as an int; a p/q or exact decimal token as a
    Fraction."""
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        if "." in tok or "e" in tok or "E" in tok:
            return Fraction(tok)  # exact decimal conversion
        return int(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{tok!r} is not a rational number") from None


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
        try:
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
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    else:
        raise ValueError("missing begin")
    if kind is None:
        raise ValueError("missing V-representation/H-representation header")
    if pos + 1 == len(lines):
        raise ValueError(f"line {lineno}: expected '<rows> <cols> <type>' after begin")
    lineno, size = lines[pos + 1]
    try:
        fields = size.split()
        if len(fields) < 2:
            raise ValueError(f"expected '<rows> <cols> <type>', got {size!r}")
        nrows, ncols = _parse_count(fields[0], "row count"), _parse_count(fields[1], "column count")
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
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
            nums.append(_parse_number(t))
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
                                 f"V-row leading marker must be 1, got {row[0]}")
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
        # str() of an int or Fraction: "n", or "p/q" in lowest terms
        out.append(" " + "  ".join(map(str, row)))
    out.append("end")
    return "\n".join(out) + "\n"
