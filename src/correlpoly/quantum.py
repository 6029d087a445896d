"""Spin observables, operators for Bell-type expressions, and quantum bounds.

Builds spin-j component matrices by the ladder construction and
tensor-product operators for Bell-type expressions, and computes Hermitian
spectra of one matrix or a stack of them by Householder reduction to real
tridiagonal form, each step one matrix-vector and one rank-two product,
then Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) whose
pivots run from both ends of the tridiagonal matrix at once, as a twisted
factorization (Parlett & Dhillon, Linear Algebra Appl. 309, 2000): two
multisection rounds bracket each eigenvalue, and Newton steps on the
determinant, whose derivative the same pivots carry, finish those alone in
their brackets (as Li & Zeng, SIAM J. Sci. Comput. 15, 1994, do with
Laguerre's).  The extreme eigenvalues of the operator substituted for an
inequality's left-hand side are the quantum bounds.  A multi-start grid
scan and a complete-poll compass search maximize the largest one over free
measurement angles, building and solving each scan axis (for all starts)
and each poll as one stack, and stop once the norm bound certifies the
maximum.

All arithmetic here is double precision; exact rational work lives in
exact_hull.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

# the package's modules before numpy: in the other order the peak RSS of a
# quantum run is higher
from ._record import Record
from ._text import bundled, number, read_directives, read_source
from .realization import load_builtin as load_builtin_vectors
from .realization import parse_vectors

import numpy as np

HERMITIAN_TOL = 1e-12
TINY = float(np.finfo(float).tiny)    # smallest normal float
SECTION_POINTS = 15   # interior points per interval and multisection round
SECTION_ROUNDS = 14   # (SECTION_POINTS + 1)^-14 = 2^-56
# Newton passes before an eigenvalue takes the remaining multisection
# rounds: alone in its bracket it converges quadratically, in 3 to 7 passes
# on every matrix of the test suite, and the rest leaves room for a few
# bisections
NEWTON_PASSES = 10
# the resolutions within which a Newton step that does not shrink is taken
# for rounding, and past which a count certifies the eigenvalue it stops
# at: on the test suite's matrices and 300 random stacks, 1 sends 38 of
# their 25044 eigenvalues to the fallback, 2 none; 4 leaves a margin
STALL_STEP = 4
# the largest operator dimension an expression may have; a 1024 x 1024
# operator takes 8 MiB when it is real (proj binds only) and 16 MiB when
# it is complex, and eigenvalues holds it, its working copy and a rank-two
# product of the same size at once
MAX_DIM = 1024


def _check_j(j):
    x = Fraction(j)
    if 2 * x != int(2 * x) or x < 0:
        raise ValueError(f"j={j} is not a nonnegative half-integer")
    return x


@functools.cache
def spin_components(j):
    """(Mx, My, Mz) for spin j, basis ordered m = +j .. -j.  Cached per j;
    the arrays are read-only."""
    j = _check_j(j)
    d = int(2 * j + 1)
    m = np.array([float(j - k) for k in range(d)])
    plus = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        # raising: |j, m_k> -> sqrt(j(j+1) - m_k(m_k+1)) |j, m_{k-1}>
        plus[k - 1, k] = math.sqrt(float(j * (j + 1)) - m[k] * (m[k] + 1))
    minus = plus.conj().T
    mx = (plus + minus) / 2
    my = (plus - minus) / 2j
    mz = np.diag(m).astype(complex)
    for x in (mx, my, mz):
        x.flags.writeable = False
    return mx, my, mz


def _spin_operators(j, theta, phi):
    """S_j(theta, phi) for angles given as floats or as arrays, which
    broadcast together: shape (*shape, d, d)."""
    mx, my, mz = spin_components(j)
    sin_t = np.sin(theta)
    return (np.multiply.outer(sin_t * np.cos(phi), mx)
            + np.multiply.outer(sin_t * np.sin(phi), my)
            + np.multiply.outer(np.cos(theta), mz))


def _assert_hermitian(h):
    """h once checked: a square matrix or a stack of them, with finite
    entries, and max|h - h^H| at most HERMITIAN_TOL; float64 if its dtype
    is a real number type, else complex128."""
    h = np.asarray(h)
    h = h.astype(float if h.dtype.kind in "biuf" else complex, copy=False)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError("matrix must be square, or a stack of square matrices")
    if not np.isfinite(h).all():
        raise ValueError("matrix has a NaN or infinite entry")
    # h - h^H and its modulus in one temporary
    d = np.conj(np.swapaxes(h, -1, -2))
    np.subtract(h, d, out=d)
    if np.abs(d, out=d).real.max(initial=0.0) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    return h


def _tridiagonalize(a):
    """Householder reduction of every matrix in the stack a (k, n, n), which
    it overwrites: the diagonal (k, n) and off-diagonal (k, n-1) of real
    symmetric tridiagonal matrices with the same eigenvalues.

    Step j reflects rows and columns j+1.. by I - 2uu^H, which maps column j
    below the diagonal to a multiple of e_1 of modulus ||a[j+1:, j]||.  On
    the trailing block b that is two products: p = bu, then the rank-two
    update b - [u w][w u]^H with w = 2(p - (u^H p)u).  The complex phases
    left on the off-diagonal are a diagonal similarity, so only the moduli
    are kept.  A column whose squared norm is below the smallest normal
    float is not reflected: on a matrix scaled to entries below 1 it is
    under the rounding of the rest."""
    k, n, _ = a.shape
    e = np.empty((k, max(n - 1, 0)))
    for j in range(n - 2):
        x = a[:, j + 1:, j]
        xx = np.sum((x.conj() * x).real, axis=-1)
        norm = np.sqrt(xx)
        e[:, j] = norm
        x0 = x[:, 0]
        r = np.abs(x0)
        keep = xx >= TINY
        u = x.copy()
        u[:, 0] += (np.sign(x0) + (r == 0)) * norm
        # ||u||^2 = 2 (||x||^2 + |x0| ||x||)
        u *= (keep / np.sqrt(np.maximum(2 * (xx + r * norm), TINY)))[:, None]
        b = a[:, j + 1:, j + 1:]
        p = (b @ u[:, :, None])[:, :, 0]                           # b u
        uhbu = np.sum((u.conj() * p).real, axis=-1, keepdims=True)
        w = 2 * (p - uhbu * u)
        # b <- (I - 2uu^H) b (I - 2uu^H) = b - [u w] [w u]^H; concatenate
        # costs less than stack on the small stacks of the optimizer
        uw = np.concatenate((u[:, :, None], w[:, :, None]), 2)
        wu_h = np.concatenate((w.conj()[:, None], u.conj()[:, None]), 1)
        b -= uw @ wu_h
    if n > 1:
        e[:, -1] = np.abs(a[:, -1, -2])
    return np.diagonal(a, axis1=1, axis2=2).real.copy(), e


def _pivot_rows(d, e):
    """The operands of _sturm for the matrices with diagonal d (k, n) and
    off-diagonal e (k, n-1): the diagonal (n, k, 1), the squared couplings
    (n+1, k, 1), none above row 0 or below row n-1, and both again as the
    rows (i, n-1-i) of each two-ended step.  The squares of e are raised to
    at least the smallest normal float, so that an exact zero pivot gives an
    infinite one next, never 0/0; d's -0.0 becomes +0.0, so that a zero
    pivot is never -0.0, which would count as nonnegative but divide like a
    negative one."""
    k, n = d.shape
    m = n // 2
    diag = (d.T + 0.0)[:, :, None]
    off2 = np.zeros((n + 1, k, 1))
    off2[1:n, :, 0] = np.maximum(e * e, TINY).T
    return (diag, off2, np.stack((diag[:m], diag[::-1][:m]), 1),
            np.stack((off2[:m], off2[::-1][:m]), 1))


def _sturm(rows, x, newton=False):
    """The Sturm count at every point of x (k, w): the number of negative
    pivots of T - xI, i.e. of eigenvalues of matrix r below x[r, j], with
    rows from _pivot_rows.  With newton, also the sum of D'/D over the
    pivots D, the derivative of log|det(T - xI)|: minus its reciprocal is
    the Newton step towards an eigenvalue.

    The pivots come from both ends at once.  With m = n // 2, step i
    eliminates row i top-down and row n-1-i bottom-up, both halves as one
    array; for an odd n the bottom half then takes row m as well.  Row m's
    pivot is last: D-[m] - e[m-1]^2/D+[m-1], that is d[m] - x -
    e[m-1]^2/D+[m-1] - e[m]^2/D-[m+1].  These are the pivots of a twisted
    factorization of T - xI (Parlett & Dhillon, Linear Algebra Appl. 309,
    2000), an LDL^T in another elimination order, which makes no fill; by
    Sylvester's law of inertia its negative pivots count the eigenvalues
    below x as the top-down ones do, in half the sequential steps, and the
    product of its pivots is det(T - xI).  Each half keeps a running tally
    of its negative pivots, one small integer array, to which every step
    adds; for an even n, row m's pivot replaces D-[m], the bottom half's
    last, in its tally.  The derivatives run along: D'[i] = -1 +
    e[i-1]^2 D'[i-1]/D[i-1]^2 in each half, and row m's is D-'[m] +
    e[m-1]^2 D+'[m-1]/D+[m-1]^2."""
    diag, off2, ends, ends2 = rows
    n = len(diag)
    m = n // 2
    q, t = np.ones((2, 2, *x.shape))
    if newton:
        dq, r, total = np.zeros((3, 2, *x.shape))
    neg = np.zeros(q.shape, bool)       # q < 0 at this step
    # the negative pivots of each half so far; a narrow count: bool -> intp
    # is several times slower
    tally = np.zeros(q.shape, np.min_scalar_type(n))
    for i in range(m):
        np.divide(ends2[i], q, out=t)
        if newton:
            np.divide(dq, q, out=r)     # D'/D of the pivots before
            total += r
            np.multiply(t, r, out=dq)
            dq -= 1
        np.subtract(ends[i], x, out=q)
        q -= t
        np.less(q, 0, out=neg)
        tally += neg
    if newton:
        np.divide(dq, q, out=r)
    if n % 2:                   # the bottom half takes row m as well
        np.divide(off2[m + 1], q[1], out=t[1])
        if newton:
            total[1] += r[1]
            np.multiply(t[1], r[1], out=dq[1])
            dq[1] -= 1
        np.subtract(diag[m], x, out=q[1])
        q[1] -= t[1]
    else:                       # row m's pivot replaces D-[m], the last bottom one
        tally[1] -= neg[1]
    # row m's pivot, D-[m] - e[m-1]^2/D+[m-1]
    np.divide(off2[m], q[0], out=t[0])
    q[1] -= t[0]
    np.less(q[1], 0, out=neg[1])
    tally[1] += neg[1]
    count = tally[0] + tally[1]
    if not newton:
        return count
    return count, total[0] + total[1] + r[0] + (dq[1] + t[0] * r[0]) / q[1]


def _section(rows, lo, hi, index, clo=None, chi=None):
    """One multisection round: the 16 equal parts of each interval [lo, hi]
    (k, w), and the part that holds eigenvalue index (k, w) of its matrix,
    the one between the last of the 15 interior points whose count is at
    most index and the next point (Barth, Martin & Wilkinson, Numer.
    Math. 9, 1967).  Given the counts clo, chi at lo and hi, also those at
    the ends of the new part."""
    parts = np.arange(1, SECTION_POINTS + 1) / (SECTION_POINTS + 1)
    width = hi - lo
    x = lo[..., None] + width[..., None] * parts
    count = _sturm(rows, x.reshape(len(x), -1)).reshape(x.shape)
    at = np.sum(count <= index[..., None], axis=-1)
    new = lo + width * (at / (SECTION_POINTS + 1)), lo + width * ((at + 1) / (SECTION_POINTS + 1))
    if clo is None:
        return new
    count = np.concatenate((clo[..., None], count, chi[..., None]), -1)
    return (*new, np.take_along_axis(count, at[..., None], -1)[..., 0],
            np.take_along_axis(count, at[..., None] + 1, -1)[..., 0])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _spectrum(d, e, index):
    """Eigenvalues index (an ascending array of indices) of each real
    symmetric tridiagonal matrix with diagonal d (k, n) and off-diagonal
    e (k, n-1), as an array (k, len(index)), ascending.

    Every step is a Sturm count (_sturm) of each eigenvalue at points of its
    own, elementwise, so a matrix's eigenvalues do not depend on the others
    in the stack.
    1. A shared grid: 15n equal parts of each matrix's Gershgorin interval
       (as many points as a round of 15 per eigenvalue) bracket eigenvalue i
       between the last grid point whose count is at most i and the next.
    2. One multisection round (_section) in each bracket.
    3. Newton passes on each eigenvalue alone in its bracket (the counts at
       its ends are i and i + 1).  A pass at x counts there, which moves an
       end of the bracket to x, and gives the Newton step -1/sum(D'/D).  A
       step past an end is reflected at it (an eigenvalue at an end, as a
       diagonal matrix's are, draws steps just past it), and one that still
       leaves the bracket gives way to bisection.  Where a pivot is exactly
       zero there is no slope (nan); the pass then probes one resolution
       (2^-54 of the Gershgorin span, or an ulp of x if that is more)
       towards the middle.  An eigenvalue stops once its bracket is two
       resolutions wide, or once it settles: a Newton step of at most
       STALL_STEP resolutions that is at most 2^-54 of the span or not
       shorter than the step before (rounding then moves it).  A longer
       step that does not shrink is bisected instead: a cluster just past
       an end of the bracket draws such steps, and they need not converge.
       One count STALL_STEP resolutions past each settled eigenvalue, on
       the side away from its last count, certifies it between the two.
    4. The rest, a bracket that holds more than one eigenvalue, one that
       NEWTON_PASSES left moving or one its certificate refuted, takes the remaining multisection rounds,
       12 of them: (16 (15n + 1))^-1 16^-12 of the span is below one ulp
       of it.  Its eigenvalue is the middle of its last bracket."""
    k, n = d.shape
    rows = _pivot_rows(d, e)
    radius = np.zeros((k, n))
    radius[:, 1:] += e
    radius[:, :-1] += e
    lo = np.min(d - radius, axis=1, initial=np.inf)[:, None]
    span = np.max(d + radius, axis=1, initial=-np.inf)[:, None] - lo
    grid = SECTION_POINTS * n
    count = _sturm(rows, lo + span * (np.arange(1, grid + 1) / (grid + 1)))
    # the points whose count is at most i, for every i: a histogram of the
    # counts, summed; and the counts at lo and hi, 0 and n
    below = np.bincount((count + (n + 1) * np.arange(k)[:, None]).ravel(),
                        minlength=k * (n + 1)).reshape(k, n + 1).cumsum(1)[:, index]
    count = np.concatenate((np.zeros((k, 1), count.dtype), count, np.full((k, 1), n, count.dtype)), 1)
    clo = np.take_along_axis(count, below, 1)
    chi = np.take_along_axis(count, below + 1, 1)
    lo, hi = lo + span * (below / (grid + 1)), lo + span * ((below + 1) / (grid + 1))
    lo, hi, clo, chi = _section(rows, lo, hi, index, clo, chi)

    x = (lo + hi) / 2
    tol = span * 2.0 ** -54
    moving = (clo == index) & (chi == index + 1)
    isolated = moving.copy()
    settled = np.zeros(x.shape, bool)       # stopped by a small step
    above = settled.copy()                  # it lies above its last count
    last = np.full(x.shape, np.inf)         # the last Newton step
    for _ in range(NEWTON_PASSES):
        if not moving.any():
            break
        count, slope = _sturm(rows, x, newton=True)
        up = count <= index             # x is at most eigenvalue index
        lo = np.where(moving & up, x, lo)
        hi = np.where(moving & ~up, x, hi)
        step = -1 / slope
        size = np.abs(step)
        # a step past an end is reflected at it
        new = x + step
        new = np.where(new < lo, 2 * lo - new, np.where(new > hi, 2 * hi - new, new))
        # the resolution at x: the tolerance, or one ulp of x if that is more
        ulp = np.maximum(tol, np.abs(np.spacing(x)))
        small = size <= STALL_STEP * ulp
        # a step that does not shrink is rounding when it is small; further
        # out the steps do not converge (a cluster past an end of the
        # bracket draws them), and bisection takes over
        newton = (lo <= new) & (new <= hi) & ((size < last) | small)
        stop = moving & newton & small & ((size <= tol) | (size >= last))
        narrow = moving & (hi - lo <= 2 * ulp)
        # no slope (nan) where a pivot is exactly zero: a probe one
        # resolution towards the middle, else bisection
        mid = (lo + hi) / 2
        other = np.where(np.isnan(step), x + np.copysign(ulp, mid - x), mid)
        x = np.where(moving & newton, new, np.where(moving & ~narrow, other, x))
        settled |= stop & ~narrow
        above = np.where(stop, up, above)
        moving &= ~(stop | narrow)
        last = np.where(newton, size, np.inf)

    if settled.any():
        # a settled eigenvalue holds if a count STALL_STEP resolutions past
        # it, on the side away from the last count, finds it between the
        # two; one that does not takes the fallback from the bracket the
        # count narrows
        probe = x + np.where(above, STALL_STEP, -STALL_STEP) * np.maximum(tol, np.abs(np.spacing(x)))
        past = _sturm(rows, probe) > index
        lo = np.where(settled & ~past, np.maximum(lo, probe), lo)
        hi = np.where(settled & past, np.minimum(hi, probe), hi)
        moving |= settled & (past != above)

    rest = moving | ~isolated
    if rest.any():
        # the eigenvalues left, by matrix, padded to one width with copies
        some = np.flatnonzero(rest.any(1))
        rest = rest[some]
        left = rest.sum(1)
        at = np.argsort(~rest, axis=1, kind="stable")[:, :left.max()]
        part = np.arange(at.shape[1]) < left[:, None]
        lo, hi = (np.take_along_axis(v[some], at, 1) for v in (lo, hi))
        rows = _pivot_rows(d[some], e[some])
        for _ in range(SECTION_ROUNDS - 2):
            lo, hi = _section(rows, lo, hi, index[at])
        x[some[np.nonzero(part)[0]], at[part]] = ((lo + hi) / 2)[part]
    # ascending also where rounding makes two neighbouring counts disagree
    return np.maximum.accumulate(x, axis=-1)


def eigenvalues(h, largest=False):
    """All eigenvalues of a Hermitian matrix, ascending; for a stack
    (k, n, n), one ascending array per matrix.  With largest, only the
    largest eigenvalue of each matrix is resolved, and each array holds just
    that one.

    Each matrix is scaled by a power of two to entries below 1 (exactly),
    reduced to real tridiagonal form by Householder reflections and its
    eigenvalues found by Sturm counts and Newton steps (_spectrum), all in
    one pass over the stack; each result is bit-identical to that of
    solving its matrix alone.  Real input, or complex input with no
    imaginary part, is reduced in real arithmetic, and real input is never
    copied to complex."""
    h = _assert_hermitian(h)
    a = h[None] if h.ndim == 2 else h       # a single matrix is a stack of one
    a = a.copy() if np.iscomplexobj(a) and a.imag.any() else a.real.copy()
    _, scale = np.frexp(np.max(np.abs(a), axis=(1, 2), initial=0.0))
    flat = a.view(np.float64)               # real and imaginary parts alike
    np.ldexp(flat, -scale[:, None, None], out=flat)
    index = np.arange(a.shape[-1])
    vals = _spectrum(*_tridiagonalize(a), index[-1:] if largest else index)
    with np.errstate(over="ignore"):
        vals = np.ldexp(vals, scale[:, None]) + 0.0     # + 0.0: no -0.0
    if not np.isfinite(vals).all():
        raise ValueError("an eigenvalue exceeds the float range")
    return list(vals) if h.ndim == 3 else list(vals[0])


def bell_state(name):
    """One of the four two-qubit Bell states by name."""
    r = 1 / math.sqrt(2)
    table = {
        "psi-minus": [0, r, -r, 0],
        "psi-plus": [0, r, r, 0],
        "phi-minus": [r, 0, 0, -r],
        "phi-plus": [r, 0, 0, r],
    }
    if name not in table:
        raise ValueError(f"unknown Bell state {name!r}")
    return np.array(table[name], dtype=complex)


def project_and_bound(op, state):
    """<state| op |state>: the operator's extremum restricted to the ray of
    the given unit state."""
    op = np.asarray(op, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if op.shape != (state.size, state.size):
        raise ValueError("operator and state dimensions differ")
    return float(np.real(state.conj() @ op @ state))


# --- operator expressions -------------------------------------------------

class OperatorExpr(Record):
    """A signed combination of tensor-product terms over labeled one-site
    observables, with optional named angle parameters.  A `proj` bind holds
    the coordinates of its vector a, as read, and stands for the dichotomic
    2|a><a|/<a|a> - I, which realize_operator builds.  Construction checks
    the shape once: at least one term, one factor per site, every label
    bound, one dimension per site across all terms, each param named once
    and every angle `$name` naming a param."""
    sites: int
    terms: tuple      # (coefficient, factors) with factors = label per site
    binds: tuple      # (label, spec); spec = ("spin", j, theta, phi) with
                      # angles float or "$param", or ("proj", coords)
    params: tuple     # (name, default) in declaration order

    def __post_init__(self):
        if not self.terms:
            raise ValueError("expression has no terms")
        for coeff, factors in self.terms:
            if len(factors) != self.sites:
                raise ValueError("every term needs one factor per site")
        names = self.param_names
        if len(set(names)) < len(names):
            raise ValueError(f"a param is given twice in {names}")
        dims = {}     # label -> dimension
        for label, spec in self.binds:
            dims[label] = (int(2 * _check_j(spec[1]) + 1) if spec[0] == "spin"
                           else len(spec[1]))
            for t in spec[2:]:      # a spin bind's angles
                if isinstance(t, str) and t[1:] not in names:
                    raise ValueError(f"angle {t} names no param")
        used = {lbl for _, factors in self.terms for lbl in factors}
        if not used <= dims.keys():
            raise ValueError(f"unbound labels {sorted(used - dims.keys())}")
        for k in range(self.sites):
            site = sorted({dims[factors[k]] for _, factors in self.terms})
            if len(site) > 1:
                raise ValueError(f"site {k + 1} has inconsistent dimensions {site}")

    @property
    def param_names(self):
        return tuple(name for name, _ in self.params)

    @property
    def defaults(self):
        return dict(self.params)


def _load_vectors(source, base_dir=None):
    """{name: coordinates} of the vector file or builtin: set `source`."""
    try:
        _, real = read_source(source, "builtin:", load_builtin_vectors, parse_vectors, base_dir)
    except ValueError as exc:
        raise ValueError(f"{source} {exc}") from None
    return {v.name: v.coords for v in real.vectors}


def _dichotomic(coords):
    """Dichotomic observable 2|a><a|/<a|a> - I for the vector a of exact
    coordinates, as a real matrix.  Each entry is computed exactly, with a
    scaled to integers, and rounded once, so a reflection whose entries are
    dyadic (an axis vector of any length) is exact, and the digits do not
    depend on a's length.  The upper triangle is computed and mirrored, a
    product and a division of integers for each entry, whose cost grows
    with the coordinates' digits: at dimension 1024 it takes 0.09 s for
    coordinates of 3 digits, 0.4 s for 100 digits and 58 s for 4301 digits,
    the longest integer a file may hold (one core of a 2-vCPU Xeon)."""
    den = math.lcm(*(Fraction(x).denominator for x in coords))
    a = [int(Fraction(x) * den) for x in coords]
    norm = sum(x * x for x in a)
    m = np.empty((len(a), len(a)))
    for i, x in enumerate(a):
        row = [2 * x * y / norm for y in a[i:]]
        row[0] = (2 * x * x - norm) / norm
        m[i, i:] = m[i:, i] = row
    return m


def parse_operator_expr(text, base_dir=None) -> OperatorExpr:
    """Parse the operator expression format: `sites <n>`, optional
    `param <name> <default>` lines, `term <coeff> <label@site> ...` lines,
    and `bind <label> spin <j> <theta> <phi>` or
    `bind <label> proj <vector-file> <atom>` lines.  An angle `$name` must
    name a declared param.  Every error on a line raises
    ValueError("line N: ..."), and so does a dimension above MAX_DIM, of
    one bind or of a term (the product of its factors' dimensions), before
    any matrix of that size is built."""
    sites = None
    terms = []
    binds = {}    # label -> spec
    dims = {}     # label -> dimension
    params = {}   # name -> default
    vectors = {}  # source -> {name: coordinates}: each source is read once

    def real(tok):
        try:
            return float(number(tok))
        except OverflowError:
            raise ValueError(f"{tok!r} is too large for a float") from None

    def set_sites(n):
        nonlocal sites
        sites = number(n)
        if not isinstance(sites, int) or sites < 1:
            raise ValueError(f"sites must be a positive integer, got {n!r}")

    def param(name, default):
        if name in params:
            raise ValueError(f"duplicate param {name!r}")
        params[name] = real(default)

    def term(coeff, *factors):
        if sites is None:
            raise ValueError("sites must come first")
        coeff = real(coeff)
        labels = {}   # site -> label
        for tok in factors:
            label, _, site = tok.rpartition("@")
            k = int(site) if site.isdecimal() else 0
            if not 1 <= k <= sites:
                raise ValueError(f"site of {tok!r} is outside 1..{sites}")
            if k in labels:
                raise ValueError(f"site {k} given twice")
            labels[k] = label
        if len(labels) != sites:
            raise ValueError(f"term must cover all {sites} sites")
        factors = tuple(labels[k] for k in range(1, sites + 1))
        terms.append((coeff, factors))

        def bound():
            unbound = sorted(set(factors) - binds.keys())
            if unbound:
                raise ValueError(f"unbound labels {unbound}")
            dim_checked(math.prod(dims[label] for label in factors), "the term")
        return bound

    def dim_checked(dim, what):
        if dim > MAX_DIM:
            raise ValueError(f"the dimension of {what} exceeds {MAX_DIM}")
        return dim

    def bind(label, dim):
        # checked before the caller builds binds[label]
        if label in dims:
            raise ValueError(f"duplicate bind label {label!r}")
        dims[label] = dim_checked(dim, f"bind {label!r}")

    def bind_spin(label, j, *angles):
        j = _check_j(number(j))
        bind(label, int(2 * j + 1))
        binds[label] = ("spin", j, *(t if t.startswith("$") else real(t) for t in angles))

        def declared():
            for t in angles:
                if t.startswith("$") and t[1:] not in params:
                    raise ValueError(f"angle {t} names no param")
        return declared

    def bind_proj(label, source, atom):
        if source not in vectors:
            vectors[source] = _load_vectors(source, base_dir)
        if atom not in vectors[source]:
            raise ValueError(f"no vector named {atom!r} in {source}")
        coords = vectors[source][atom]
        bind(label, len(coords))
        binds[label] = ("proj", coords)

    read_directives(text, {
        "sites <n>": set_sites,
        "param <name> <default>": param,
        "term <coeff> <label@site>...": term,
        "bind <label> spin <j> <theta> <phi>": bind_spin,
        "bind <label> proj <vector-file> <atom>": bind_proj,
    }, ("sites",))
    if sites is None:
        raise ValueError("missing sites header")
    return OperatorExpr(sites, tuple(terms), tuple(binds.items()), tuple(params.items()))


def load_preset_expr(name: str) -> OperatorExpr:
    return parse_operator_expr(bundled(name, ".op"))


def realize_operator(expr: OperatorExpr, params=None):
    """sum_t coeff_t * kron(factors) at the declared parameter defaults,
    updated by params; Hermitian when every factor is.  A parameter given
    as an array of k values makes every spin bind that uses it a stack
    (k, d, d), and the operator a stack too.  Entries that overflow become
    infinite, which eigenvalues rejects.

    The operator keeps the dtype of its factors: float64 when every bind is
    a `proj` (real) one, complex128 once a spin bind enters.  Each term
    starts from its float coefficient, and the terms are summed into the
    first one in place; a term that would widen the sum, complex or stacked
    after a plain real one, is added into a new array instead."""
    values = expr.defaults
    values.update(params or {})
    unknown = set(values) - set(expr.param_names)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)}")
    if not all(np.isfinite(v).all() for v in values.values()):
        raise ValueError("direction angles must be finite")

    def angle(x):
        return values[x[1:]] if isinstance(x, str) else x

    matrix = {label: _spin_operators(spec[1], angle(spec[2]), angle(spec[3]))
              if spec[0] == "spin" else _dichotomic(spec[1])
              for label, spec in expr.binds}
    total = None
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff, factors in expr.terms:
            term = np.array([[coeff]])
            for label in factors:
                m = matrix[label]
                # kron(term, m) as one outer product: entry (i*d + k, j*d + l)
                # is term[i, j] * m[k, l]
                term = term[..., :, None, :, None] * m[..., None, :, None, :]
                *stack, a, b, _, _ = term.shape
                term = term.reshape(*stack, a * b, a * b)
            if total is None:
                total = term
            elif (np.can_cast(term.dtype, total.dtype)
                  and np.broadcast_shapes(total.shape, term.shape) == total.shape):
                total += term
            else:           # a complex or stacked term after a plain real one
                total = total + term
    return total


def norm_bound(expr: OperatorExpr):
    """Upper bound on the largest eigenvalue at any angles:
    sum_t |c_t| prod_f ||F_f||, since the norm of a Kronecker product is the
    product of the norms.  A spin-j component has norm j whatever its
    direction; a `proj` bind stands for the dichotomic 2P - I, whose
    eigenvalues are +-1, so its norm is 1 and no matrix is built."""
    norms = {label: float(spec[1]) if spec[0] == "spin" else 1.0
             for label, spec in expr.binds}
    return sum(abs(coeff) * math.prod(norms[label] for label in factors)
               for coeff, factors in expr.terms)


class Optimum(Record):
    """maximize_bound's result; unpacks as (lambda_max, params)."""
    lambda_max: float
    params: dict
    evaluations: int    # operators solved
    upper_bound: float  # norm_bound of the expression
    certified: bool     # lambda_max reached upper_bound within CERTIFY_TOL

    def __iter__(self):
        return iter((self.lambda_max, self.params))


STARTS = 8          # random starts besides the first; 8 reach kcbs's 5 on seeds 0..30
GRID = 16           # grid-scan points per axis, over one period
CERTIFY_TOL = 1e-9  # absolute: a value this close to the norm bound is its maximum


def maximize_bound(expr: OperatorExpr, seed=0):
    """Largest eigenvalue of the expression's operator, maximized over all
    its angle parameters, from 1 + STARTS starts: the first is the declared
    defaults (jittered by the seed unless it is 0), the others uniform in
    [-pi, pi) from the same seeded generator.  All starts run a cyclic
    per-axis grid scan (GRID points over one period) together, one
    stack of operators per axis; the best one is then polished by a
    complete-poll compass search, halving the step from pi/8 down to 1e-7
    (Kolda, Lewis & Torczon, SIAM Review 45, 2003), one stack per poll.

    The search stops as soon as its best value is within CERTIFY_TOL of
    norm_bound(expr): no angle does better, so the value is certified as the
    maximum.  Deterministic for a fixed seed."""
    names = expr.param_names
    if not names:
        raise ValueError("no free parameters to optimize")
    bound = norm_bound(expr)
    defaults = expr.defaults
    evaluations = 0

    def objective(trials):
        nonlocal evaluations
        evaluations += len(trials)
        # built in one pass from one array of values per angle
        stack = realize_operator(expr, dict(zip(names, np.array(trials).T)))
        stack = np.broadcast_to(stack, (len(trials), *stack.shape[-2:]))
        return [float(vals[0]) for vals in eigenvalues(stack, largest=True)]

    def moved(point, i, x):
        trial = list(point)
        trial[i] = x
        return trial

    rng = random.Random(seed)
    points = [[defaults[n] + (rng.uniform(-math.pi, math.pi) if seed else 0.0)
               for n in names]]
    points += [[rng.uniform(-math.pi, math.pi) for _ in names] for _ in range(STARTS)]
    values = objective(points)
    target = bound - CERTIFY_TOL
    axis = [-math.pi + 2 * math.pi * k / GRID for k in range(GRID)]

    moving = range(len(points))  # starts that the last scan cycle moved
    for _ in range(8):  # cyclic grid scans until stable
        improved = set()
        for i in range(len(names)):
            if max(values) >= target:
                break
            vals = objective([moved(points[s], i, x) for s in moving for x in axis])
            for n, s in enumerate(moving):
                # the trials of one start differ from its point only in
                # coordinate i, so taking them in order is the same as
                # evaluating them one at a time
                for val, x in zip(vals[n * GRID:(n + 1) * GRID], axis):
                    if val > values[s] + 1e-12:
                        values[s], points[s] = val, moved(points[s], i, x)
                        improved.add(s)
        # a start that a whole cycle left in place would see the same trials
        moving = sorted(improved)
        if not moving or max(values) >= target:
            break

    k = max(range(len(points)), key=values.__getitem__)
    best, point = values[k], points[k]
    step = math.pi / 8
    while step > 1e-7 and best < target:
        trials = [moved(point, i, point[i] + sgn * step)
                  for i in range(len(names)) for sgn in (1, -1)]
        vals = objective(trials)
        k = max(range(len(trials)), key=vals.__getitem__)
        if vals[k] > best + 1e-13:
            best, point = vals[k], trials[k]
        else:
            step /= 2
    return Optimum(best, dict(zip(names, point)), evaluations, bound, best >= target)
