"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written from scratch (no reuse of package
internals): exhaustive 2^n state enumeration and sign sweeps,
hyperplane-enumeration facet computation, basic-solution vertex
enumeration, and subset-enumeration maximal cliques; and a test operator
whose maximum is known, built with numpy only.

Also the paper's closed-form quantities for two spin-j particles in the
singlet state (projectors, joint probabilities, correlations and the
classical gap), which the package itself does not use; they start from the
package's spin operators and its check of j, which the tests check on their
own.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import numpy as np

from correlpoly.quantum import _check_j, _spin_operators

DATA = Path(__file__).parent / "data"


def brute_force_states(logic):
    """All two-valued states by sweeping every {0,1} assignment."""
    n = len(logic.atoms)
    masks = [sum(1 << a for a in c) for c in logic.contexts]
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
        points.add(tuple(prod(-1 if (assign >> a) & 1 else 1 for a in c)
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


def _solve(rows):
    """The unique x with b + a.x = 0 for every row (b, a), or None."""
    d = len(rows[0]) - 1
    mat = [[Fraction(x) for x in r[1:]] + [-Fraction(r[0])] for r in rows]
    for col in range(d):
        piv = next((r for r in range(col, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        mat[col] = [x / mat[col][col] for x in mat[col]]
        for r in range(len(mat)):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return tuple(mat[r][d] for r in range(d))


def brute_force_vertices(dimension, inequalities, linearities=()):
    """The vertices of {x in R^dimension : b + a.x >= 0 for each
    inequality (b, a), b + a.x = 0 for each linearity}, sorted: every
    point that is the unique solution of some d-subset of the rows taken
    with equality and satisfies all of them.  A polyhedron whose normals
    span R^d is empty iff it has none.  dimension >= 1."""
    rows = list(inequalities) + list(linearities)

    def feasible(x):
        val = [r[0] + sum(a * y for a, y in zip(r[1:], x)) for r in rows]
        return all(v >= 0 for v in val) and not any(val[len(inequalities):])

    points = {_solve(sub) for sub in combinations(rows, dimension)} - {None}
    return tuple(sorted(x for x in points if feasible(x)))


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


# --- the paper's formulas ----------------------------------------------------

@dataclass(frozen=True)
class Direction:
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("direction angles must be finite")


def spin_operator(j, direction):
    """S_j(theta, phi) = sin(t)cos(p) Mx + sin(t)sin(p) My + cos(t) Mz."""
    return _spin_operators(j, direction.theta, direction.phi)


def projectors(j, direction):
    """Orthogonal projectors F_m onto the eigenspaces of S_j(direction),
    returned in ascending m = -j .. +j.  The spectrum of S_j is exactly
    -j .. +j, so each F_m is the Lagrange-Sylvester polynomial
    prod_{k != m} (S - kI) / (m - k) in S.  Its 2j factors lose accuracy as
    j grows: off numpy.linalg.eigh's by 1e-14 to j = 3, 2e-12 at 5, 1e-6 at 10."""
    j = _check_j(j)
    s = spin_operator(j, direction)
    eye = np.eye(len(s))
    ms = [float(k - j) for k in range(len(s))]
    out = []
    for m in ms:
        f = eye
        for k in ms:
            if k != m:
                f = f @ (s - k * eye) / (m - k)
        out.append(f)
    return out


def singlet(j):
    """Total-spin-zero state of two spin-j particles:
    sum_m (-1)^(j-m)/sqrt(2j+1) |m, -m>."""
    j = _check_j(j)
    d = int(2 * j + 1)
    psi = np.zeros(d * d, dtype=complex)
    for k in range(d):       # m = j - k, row index of |m> is k, of |-m> is d-1-k
        psi[k * d + (d - 1 - k)] = (-1) ** k / math.sqrt(d)
    return psi


def _expectation(op, psi):
    return float(np.real(psi.conj() @ op @ psi))


def joint_probability(j, dir1, dir2, m1, m2):
    """Tr{rho_singlet (F_m1(dir1) x F_m2(dir2))}."""
    j = _check_j(j)
    m1, m2 = Fraction(m1), Fraction(m2)
    if abs(m1) > j or abs(m2) > j or (j - m1).denominator != 1 or (j - m2).denominator != 1:
        raise ValueError("m out of range for this j")
    f1 = projectors(j, dir1)[int(m1 + j)]
    f2 = projectors(j, dir2)[int(m2 + j)]
    return _expectation(np.kron(f1, f2), singlet(j))


def correlation(j, dir1, dir2):
    """Unnormalized singlet correlation Tr{rho (S x S)}
    = -(j(j+1)/3) [cos t1 cos t2 + cos(p1-p2) sin t1 sin t2]."""
    return _expectation(np.kron(spin_operator(j, dir1), spin_operator(j, dir2)), singlet(j))


def _check_theta(theta):
    if not 0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")


def classical_correlation(theta):
    """E_c = 2*theta/pi - 1 on [0, pi]."""
    _check_theta(theta)
    return 2 * theta / math.pi - 1


def delta_E(theta):
    """Classical-minus-quantum correlation gap -1 + 2*theta/pi + cos(theta)."""
    _check_theta(theta)
    return -1 + 2 * theta / math.pi + math.cos(theta)


def stronger_than_quantum(theta):
    """E_s = sgn(theta - pi/2), the extreme ('PR-box style') correlation."""
    _check_theta(theta)
    return float((theta > math.pi / 2) - (theta < math.pi / 2))


def chsh_eigen_formula(t1, t2, t3, t4):
    """The four eigenvalues -+2*sqrt(1 -+ sin(t1-t2) sin(t3-t4)), ascending."""
    q = math.sin(t1 - t2) * math.sin(t3 - t4)
    lo, hi = 2 * math.sqrt(max(1 - q, 0.0)), 2 * math.sqrt(1 + q)
    return sorted([-hi, -lo, lo, hi])
