"""Vector realizations of logics: each atom is a ray in R^d, each context an
orthogonal basis.  Verification checks orthogonality within contexts and
flags distinct atoms sharing a ray; derivation builds the logic back from a
vector set as the maximal cliques of the orthogonality graph."""

from __future__ import annotations

from itertools import combinations

from ._record import Record
from ._text import bundled, number, read_directives
from .logic_core import Logic

DEFAULT_TOL = 1e-10


class RealVector(Record):
    name: str
    coords: tuple   # int, Fraction or float entries
    exact: bool     # no entry is a float

    def __post_init__(self):
        if all(x == 0 for x in self.coords):
            raise ValueError(f"vector {self.name} is zero")


class Realization(Record):
    dimension: int
    vectors: tuple  # one RealVector per atom, in atom order


class VerifyReport(Record):
    nonorthogonal: tuple   # (context index, atom name, atom name, |<x|y>|)
    size_warnings: tuple   # (context index, size)
    collinear: tuple       # (atom name, atom name)

    @property
    def ok(self):
        return not self.nonorthogonal and not self.collinear


def parse_vectors(text: str):
    """Parse the vector file format: `dim <d>` then `vector <atom> <c1> ...`
    lines; entries are integers, rationals p/q (both exact), or decimal
    floats, kept as int, Fraction and float.  Every error on a line raises
    ValueError("line N: ...")."""
    dim = None
    vectors = {}

    def set_dim(d):
        nonlocal dim
        if not (d.isdecimal() and int(d) >= 1):
            raise ValueError(f"dim must be a positive integer, got {d!r}")
        dim = int(d)

    def vector(name, *entries):
        if dim is None:
            raise ValueError("dim must come first")
        if name in vectors:
            raise ValueError(f"duplicate vector {name}")
        if len(entries) != dim:
            raise ValueError(f"expected {dim} coordinates")
        coords = tuple(number(t, float) for t in entries)
        vectors[name] = RealVector(name, coords, not any(isinstance(x, float) for x in coords))

    read_directives(text, {"dim <d>": set_dim, "vector <atom> <c>...": vector}, ("dim",))
    if dim is None:
        raise ValueError("missing dim header")
    return Realization(dim, tuple(vectors.values()))


def load_builtin(name: str) -> Realization:
    return parse_vectors(bundled(name, ".vec"))


def _check_tol(tol):
    # tol=0 is the exact mode; a negative tol would fail every pair, nan
    # every comparison, and inf would call every pair collinear
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _pair_test(vectors, tol):
    """test(i, j, ray=False) for x = vectors[i] and y = vectors[j]: whether
    they are orthogonal, or with ray=True whether they span one ray.  tol = 0
    compares exactly and needs exact coordinates; otherwise x and y are
    orthogonal when |<x|y>| <= tol |x| |y|, and span one ray when
    |<x|y>^2 - |x|^2 |y|^2| <= tol |x|^2 |y|^2, which needs no normalization.
    Each |x|^2, and the |x| of the float test, is computed once, and each
    test makes one dot product."""
    norm2 = [_dot(v.coords, v.coords) for v in vectors]
    norm = [n ** 0.5 for n in norm2] if tol else None

    def test(i, j, ray=False):
        x, y = vectors[i], vectors[j]
        d = _dot(x.coords, y.coords)
        rhs = norm2[i] * norm2[j] if ray else None
        if tol == 0:
            if not (x.exact and y.exact):
                raise ValueError("tol=0 requires exact rational coordinates "
                                 f"({x.name}, {y.name})")
            return d * d == rhs if ray else d == 0
        if ray:
            return abs(d * d - rhs) <= tol * rhs
        return abs(d) <= tol * norm[i] * norm[j]
    return test


def verify_realization(logic: Logic, real: Realization, tol=DEFAULT_TOL) -> VerifyReport:
    """Check that every context maps to pairwise orthogonal vectors, warn on
    contexts whose size differs from the space dimension, and flag distinct
    atoms whose vectors span the same ray."""
    _check_tol(tol)
    by_name = {v.name: v for v in real.vectors}
    missing = [a for a in logic.atoms if a not in by_name]
    if missing:
        raise ValueError(f"realization lacks vectors for atoms {missing}")
    vecs = [by_name[a] for a in logic.atoms]
    test = _pair_test(vecs, tol)
    bad = []
    sizes = []
    for ci, ctx in enumerate(logic.contexts):
        if len(ctx) != real.dimension:
            sizes.append((ci, len(ctx)))
        for i, j in combinations(ctx, 2):
            if not test(i, j):
                d = _dot(vecs[i].coords, vecs[j].coords)
                bad.append((ci, vecs[i].name, vecs[j].name, abs(d)))
    coll = [(vecs[i].name, vecs[j].name)
            for i, j in combinations(range(len(vecs)), 2) if test(i, j, ray=True)]
    return VerifyReport(tuple(bad), tuple(sizes), tuple(coll))


def derive_logic(vectors, d: int, tol=DEFAULT_TOL) -> Logic:
    """Logic whose contexts are the maximal cliques (size >= 2) of the
    orthogonality graph on the given vectors."""
    _check_tol(tol)
    if len(vectors) < d:
        raise ValueError(f"need at least {d} vectors")
    n = len(vectors)
    test = _pair_test(vectors, tol)
    adj = [set() for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if test(i, j):
            adj[i].add(j)
            adj[j].add(i)

    # Bron-Kerbosch with Tomita's pivot, depth-first on an explicit stack:
    # each entry is a clique, the vertices that may extend it, and those
    # that extend it in a branch taken already
    cliques = []
    stack = [((), set(range(n)), set())]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            if len(clique) >= 2:
                cliques.append(tuple(sorted(clique)))
            continue
        # a maximal clique holds the pivot or a vertex not adjacent to it
        pivot = max(candidates | excluded, key=lambda u: len(candidates & adj[u]))
        for v in sorted(candidates - adj[pivot]):
            stack.append((clique + (v,), candidates & adj[v], excluded & adj[v]))
            candidates = candidates - {v}
            excluded = excluded | {v}
    cliques.sort()
    return Logic("derived", tuple(v.name for v in vectors), tuple(cliques))
