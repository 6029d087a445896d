"""Spin observables, singlet correlations, and quantum bounds.

Builds spin-j component matrices by the ladder construction, projectors and
tensor-product operators for Bell-type expressions, and computes Hermitian
spectra of one matrix or a stack of them by Householder reduction to real
tridiagonal form, each step one matrix-vector and one rank-two product, and
Sturm-count multisection (Barth, Martin & Wilkinson, Numer. Math. 9, 1967)
whose counts run from both ends of the tridiagonal matrix at once, as a
twisted factorization (Parlett & Dhillon, Linear Algebra Appl. 309, 2000).
The spectrum of a spin component is known exactly, so its projectors are
polynomials in it (Lagrange-Sylvester) and need no eigenvectors.  The
extreme eigenvalues of the operator substituted for an inequality's
left-hand side are the quantum bounds.  A multi-start grid scan and a
complete-poll compass search maximize the largest one over free measurement
angles, building and solving each scan axis (for all starts) and each poll
as one stack, and stop once the norm bound certifies the maximum.

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
# the largest operator dimension an expression may have; a 1024 x 1024
# operator takes 8 MiB when it is real (proj binds only) and 16 MiB when
# it is complex, and eigenvalues holds it, its working copy and a rank-two
# product of the same size at once
MAX_DIM = 1024


class Direction(Record):
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("direction angles must be finite")


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


def spin_operator(j, direction: Direction):
    """S_j(theta, phi) = sin(t)cos(p) Mx + sin(t)sin(p) My + cos(t) Mz."""
    return _spin_operators(j, direction.theta, direction.phi)


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


def _multisection(d, e):
    """Every eigenvalue, ascending, of each real symmetric tridiagonal
    matrix with diagonal d (k, n) and off-diagonal e (k, n-1).

    Eigenvalue i of a matrix starts in its Gershgorin interval.  Each round
    splits every interval into 16 equal parts and evaluates the Sturm count
    (the number of negative pivots of T - xI, i.e. of eigenvalues below x)
    at the 15 interior points of all intervals at once; eigenvalue i keeps
    the part between the last point whose count is at most i and the next
    one (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  The rounds are
    fixed: 16^-14 = 2^-56 of the Gershgorin span is below one ulp of it.

    The pivots come from both ends at once.  With m = n // 2, step i
    eliminates row i top-down and row n-1-i bottom-up, both halves as one
    array; for an odd n the bottom half then takes row m as well.  Row m's
    pivot is last: D-[m] - e[m-1]^2/D+[m-1], that is d[m] - x -
    e[m-1]^2/D+[m-1] - e[m]^2/D-[m+1].  These are the pivots of a twisted
    factorization of T - xI (Parlett & Dhillon, Linear Algebra Appl. 309,
    2000), an LDL^T in another elimination order, which makes no fill; by
    Sylvester's law of inertia its negative pivots count the eigenvalues
    below x as the top-down ones do, in half the sequential steps.  Each
    half keeps a running tally of its negative pivots, one small integer
    array, to which every step adds; for an even n, row m's pivot replaces
    D-[m], the bottom half's last, in its tally.
    The squares of e are raised to at least the smallest normal float, so
    that an exact zero pivot gives an infinite one next, never 0/0; d's
    -0.0 becomes +0.0, so that a zero pivot is never -0.0, which would
    count as nonnegative but divide like a negative one."""
    k, n = d.shape
    radius = np.zeros((k, n))
    radius[:, 1:] += e
    radius[:, :-1] += e
    lo = np.repeat(np.min(d - radius, axis=1, initial=np.inf)[:, None], n, axis=1)
    hi = np.repeat(np.max(d + radius, axis=1, initial=-np.inf)[:, None], n, axis=1)
    m = n // 2
    diag = (d.T + 0.0)[:, :, None, None]                  # (n, k, 1, 1)
    off2 = np.zeros((n + 1, k, 1, 1))      # e[i-1]^2; none above row 0 or below row n-1
    off2[1:n, :, 0, 0] = np.maximum(e * e, TINY).T
    # step i takes row i top-down and row n-1-i bottom-up, each with its
    # coupling to the row taken before it
    ends = np.stack((diag[:m], diag[::-1][:m]), 1)          # (m, 2, k, 1, 1)
    ends2 = np.stack((off2[:m], off2[::-1][:m]), 1)
    index = np.arange(n)[:, None]
    parts = np.arange(1, SECTION_POINTS + 1) / (SECTION_POINTS + 1)
    q, t = np.empty((2, 2, k, n, SECTION_POINTS))
    neg = np.zeros((2, k, n, SECTION_POINTS), bool)         # q < 0 at this step
    # the negative pivots of each half so far; a narrow count: bool -> intp
    # is several times slower
    tally = np.empty((2, k, n, SECTION_POINTS), np.min_scalar_type(n))
    with np.errstate(divide="ignore"):
        for _ in range(SECTION_ROUNDS):
            width = hi - lo
            x = lo[..., None] + width[..., None] * parts    # (k, n, points)
            q.fill(1.0)
            tally.fill(0)
            for i in range(m):
                np.divide(ends2[i], q, out=t)
                np.subtract(ends[i], x, out=q)
                q -= t
                np.less(q, 0, out=neg)
                tally += neg
            if n % 2:               # the bottom half takes row m as well
                np.divide(off2[m + 1], q[1], out=t[1])
                np.subtract(diag[m], x, out=q[1])
                q[1] -= t[1]
            else:                   # row m's pivot replaces D-[m], the last bottom one
                tally[1] -= neg[1]
            # row m's pivot, D-[m] - e[m-1]^2/D+[m-1]
            np.divide(off2[m], q[0], out=t[0])
            q[1] -= t[0]
            np.less(q[1], 0, out=neg[1])
            tally[1] += neg[1]
            count = tally[0] + tally[1]
            # the new ends are points of x, or lo and hi, by the same formula
            at = np.sum(count <= index, axis=-1) / (SECTION_POINTS + 1)
            lo, hi = lo + width * at, lo + width * (at + parts[0])
    # ascending also where rounding makes two neighbouring counts disagree
    return np.maximum.accumulate((lo + hi) / 2, axis=-1)


def eigenvalues(h):
    """All eigenvalues of a Hermitian matrix, ascending; for a stack
    (k, n, n), one ascending array per matrix.

    Each matrix is scaled by a power of two to entries below 1 (exactly),
    reduced to real tridiagonal form by Householder reflections and its
    eigenvalues found by Sturm-count multisection, all in one pass over the
    stack; each result is bit-identical to that of solving its matrix
    alone.  Real input, or complex input with no imaginary part, is reduced
    in real arithmetic, and real input is never copied to complex."""
    h = _assert_hermitian(h)
    a = h[None] if h.ndim == 2 else h       # a single matrix is a stack of one
    a = a.copy() if np.iscomplexobj(a) and a.imag.any() else a.real.copy()
    _, scale = np.frexp(np.max(np.abs(a), axis=(1, 2), initial=0.0))
    flat = a.view(np.float64)               # real and imaginary parts alike
    np.ldexp(flat, -scale[:, None, None], out=flat)
    vals = _multisection(*_tridiagonalize(a))
    with np.errstate(over="ignore"):
        vals = np.ldexp(vals, scale[:, None]) + 0.0     # + 0.0: no -0.0
    if not np.isfinite(vals).all():
        raise ValueError("an eigenvalue exceeds the float range")
    return list(vals) if h.ndim == 3 else list(vals[0])


def projectors(j, direction: Direction):
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


def joint_probability(j, dir1: Direction, dir2: Direction, m1, m2):
    """Tr{rho_singlet (F_m1(dir1) x F_m2(dir2))}."""
    j = _check_j(j)
    m1, m2 = Fraction(m1), Fraction(m2)
    if abs(m1) > j or abs(m2) > j or (j - m1).denominator != 1 or (j - m2).denominator != 1:
        raise ValueError("m out of range for this j")
    f1 = projectors(j, dir1)[int(m1 + j)]
    f2 = projectors(j, dir2)[int(m2 + j)]
    return project_and_bound(np.kron(f1, f2), singlet(j))


def correlation(j, dir1: Direction, dir2: Direction):
    """Unnormalized singlet correlation Tr{rho (S x S)}
    = -(j(j+1)/3) [cos t1 cos t2 + cos(p1-p2) sin t1 sin t2]."""
    return project_and_bound(np.kron(spin_operator(j, dir1), spin_operator(j, dir2)),
                             singlet(j))


def classical_correlation(theta):
    """E_c = 2*theta/pi - 1 on [0, pi]."""
    if not 0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    return 2 * theta / math.pi - 1


def delta_E(theta):
    """Classical-minus-quantum correlation gap -1 + 2*theta/pi + cos(theta)."""
    if not 0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    return -1 + 2 * theta / math.pi + math.cos(theta)


def stronger_than_quantum(theta):
    """E_s = sgn(theta - pi/2), the extreme ('PR-box style') correlation."""
    if not 0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    return float((theta > math.pi / 2) - (theta < math.pi / 2))


def chsh_eigen_formula(t1, t2, t3, t4):
    """The four eigenvalues -+2*sqrt(1 -+ sin(t1-t2) sin(t3-t4)), ascending."""
    q = math.sin(t1 - t2) * math.sin(t3 - t4)
    lo, hi = 2 * math.sqrt(max(1 - q, 0.0)), 2 * math.sqrt(1 + q)
    return sorted([-hi, -lo, lo, hi])


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
    coordinates, as a real matrix.  a is scaled exactly, by the power of two
    that puts its largest |entry| in [1/2, 1), before it is rounded, so the
    digits do not depend on its length.  The matrix is the real part of the
    complex one (its imaginary part is exactly zero), whose last bits real
    arithmetic would not reproduce: numpy divides a complex matrix by a
    real number through its reciprocal."""
    top = max(abs(Fraction(x)) for x in coords)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    if top * scale >= 1:    # top * scale lies in (1/2, 2)
        scale /= 2
    a = np.array([float(x * scale) for x in coords], dtype=complex)
    return (2 * np.outer(a, a.conj()) / float(np.real(a.conj() @ a)) - np.eye(a.size)).real


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
        return [float(vals[-1]) for vals in eigenvalues(stack)]

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
