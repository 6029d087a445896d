"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written from scratch (no reuse of package
internals): exhaustive 2^n state enumeration and sign sweeps,
hyperplane-enumeration facet computation, and subset-enumeration maximal
cliques; and a test operator whose maximum is known, built with numpy only.
"""

import math
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import numpy as np

DATA = Path(__file__).parent / "data"


def brute_force_states(logic):
    """All two-valued states by sweeping every {0,1} assignment."""
    n = len(logic.atoms)
    masks = [sum(1 << a for a in c.atoms) for c in logic.contexts]
    out = []
    for assign in range(1 << n):
        if all((assign & m).bit_count() == 1 for m in masks):
            out.append(tuple((assign >> i) & 1 for i in range(n)))
    return sorted(out)


def brute_force_sign_points(logic):
    """Distinct noncontextual sign points, sorted, by sweeping every {-1,+1}
    atom assignment: one coordinate per context, the product of its atoms'
    signs."""
    points = set()
    for assign in range(1 << len(logic.atoms)):
        points.add(tuple(prod(-1 if (assign >> a) & 1 else 1 for a in c.atoms)
                         for c in logic.contexts))
    return tuple(sorted(points))


def _coprime(row):
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    return tuple(x // g for x in row)


def _as_int_row(row):
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return _coprime([int(x * denom) for x in row])


def _rank(rows):
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _hyperplane(points):
    """A nonzero (b, a) with b + a.p = 0 for all points, or None if the
    solution space is not one-dimensional."""
    d = len(points[0])
    rows = [[Fraction(1)] + [Fraction(x) for x in p] for p in points]
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(d + 1):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    if rank != d:
        return None
    free = next(c for c in range(d + 1) if c not in pivots)
    sol = [Fraction(0)] * (d + 1)
    sol[free] = Fraction(1)
    for rr, pc in zip(mat, pivots):
        sol[pc] = -rr[free]
    return tuple(sol)


def brute_force_facets(points):
    """Facets (b, a) with b + a.x >= 0, as coprime integer rows, for a
    FULL-dimensional point set in <= 4 dimensions: enumerate hyperplanes
    through d-subsets, keep one-sided ones whose support is (d-1)-dimensional."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    d = len(pts[0])
    p0 = pts[0]
    assert _rank([[x - y for x, y in zip(p, p0)] for p in pts[1:]]) == d, \
        "oracle needs a full-dimensional point set"
    facets = set()
    for sub in combinations(pts, d):
        row = _hyperplane(sub)
        if row is None:
            continue
        vals = [row[0] + sum(a * x for a, x in zip(row[1:], p)) for p in pts]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            continue
        if all(v <= 0 for v in vals):
            row = tuple(-x for x in row)
            vals = [-v for v in vals]
        support = [p for p, v in zip(pts, vals) if v == 0]
        diffs = [[x - y for x, y in zip(p, support[0])] for p in support[1:]]
        if len(support) >= d and _rank(diffs) == d - 1:
            facets.add(_as_int_row(row))
    return facets


def brute_force_cliques(vectors, orthogonal):
    """Maximal orthogonality cliques (size >= 2) by subset enumeration."""
    n = len(vectors)
    edges = {(i, k) for i in range(n) for k in range(i + 1, n)
             if orthogonal(vectors[i], vectors[k])}

    def is_clique(sub):
        return all((a, b) in edges for a, b in combinations(sub, 2))

    cliques = []
    for size in range(2, n + 1):
        for sub in combinations(range(n), size):
            if is_clique(sub):
                cliques.append(sub)
    maximal = [c for c in cliques
               if not any(set(c) < set(o) for o in cliques if len(o) > len(c))]
    return sorted(maximal)


def frozen_spectrum(name):
    return [float(x) for x in (DATA / f"{name}.txt").read_text().split()]


def rotated_mermin(seed):
    """The three-qubit Mermin operator A1B1C2 + A1B2C1 + A2B1C1 - A2B2C2 with
    each party's two orthogonal settings turned by its own random orthogonal
    matrix. Turning a party's settings is a local unitary, so the maximum is
    4, and the declared angles start there; the turns make the 8x8 operators
    dense."""
    rng = np.random.default_rng(seed)
    lines = ["sites 3"]
    for party in "abc":
        turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for k in (1, 2):
            x, y, z = turn[:, k - 1]
            lines.append(f"param {party}{k}t {math.acos(max(-1.0, min(1.0, z)))!r}")
            lines.append(f"param {party}{k}p {math.atan2(y, x)!r}")
    for sign, (i, j, k) in ((8, (1, 1, 2)), (8, (1, 2, 1)), (8, (2, 1, 1)), (-8, (2, 2, 2))):
        lines.append(f"term {sign} A{i}@1 B{j}@2 C{k}@3")   # S = sigma/2 per site
    for label, party in zip("ABC", "abc"):
        for k in (1, 2):
            lines.append(f"bind {label}{k} spin 1/2 ${party}{k}t ${party}{k}p")
    return "\n".join(lines) + "\n"
