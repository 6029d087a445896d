"""Vector realizations of logics: each atom is a ray in R^d, each context an
orthogonal basis.  Verification checks orthogonality within contexts and
flags distinct atoms sharing a ray; derivation builds the logic back from a
vector set as the maximal cliques of the orthogonality graph."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._text import bundled, number, read_directives
from .logic_core import Atom, Context, Logic

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class RealVector:
    name: str
    coords: tuple   # Fraction entries (exact) or float entries
    exact: bool

    def __post_init__(self):
        if all(x == 0 for x in self.coords):
            raise ValueError(f"vector {self.name} is zero")


@dataclass(frozen=True)
class Realization:
    dimension: int
    vectors: tuple  # one RealVector per atom, in atom order
    logic_name: str = ""


@dataclass(frozen=True)
class VerifyReport:
    nonorthogonal: tuple   # (context index, atom name, atom name, |<x|y>|)
    size_warnings: tuple   # (context index, size)
    collinear: tuple       # (atom name, atom name)

    @property
    def ok(self):
        return not self.nonorthogonal and not self.collinear


def parse_vectors(text: str):
    """Parse the vector file format: `dim <d>` then `vector <atom> <c1> ...`
    lines; entries are integers, rationals p/q (both exact), or decimal
    floats.  Every error on a line raises ValueError("line N: ...")."""
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
        coords = [number(t, float) for t in entries]
        exact = not any(isinstance(x, float) for x in coords)
        vectors[name] = RealVector(
            name, tuple(x if isinstance(x, float) else Fraction(x) for x in coords), exact)

    read_directives(text, {"dim <d>": set_dim, "vector <atom> <c>...": vector}, ("dim",))
    if dim is None:
        raise ValueError("missing dim header")
    return Realization(dim, tuple(vectors.values()))


def load_builtin(name: str) -> Realization:
    real = parse_vectors(bundled(name, ".vec"))
    return Realization(real.dimension, real.vectors, name)


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _orthogonal(x: RealVector, y: RealVector, tol):
    d = _dot(x.coords, y.coords)
    if tol == 0:
        if not (x.exact and y.exact):
            raise ValueError("tol=0 requires exact rational coordinates "
                             f"({x.name}, {y.name})")
        return d == 0
    return abs(d) <= tol * abs(_norm2(x)) ** 0.5 * abs(_norm2(y)) ** 0.5


def _norm2(x: RealVector):
    return _dot(x.coords, x.coords)


def _collinear(x: RealVector, y: RealVector, tol):
    # |<x|y>|^2 = <x|x><y|y>, avoiding normalization
    d = _dot(x.coords, y.coords)
    lhs, rhs = d * d, _norm2(x) * _norm2(y)
    if tol == 0:
        if not (x.exact and y.exact):
            raise ValueError("tol=0 requires exact rational coordinates")
        return lhs == rhs
    return abs(lhs - rhs) <= tol * rhs


def verify_realization(logic: Logic, real: Realization, tol=DEFAULT_TOL) -> VerifyReport:
    """Check that every context maps to pairwise orthogonal vectors, warn on
    contexts whose size differs from the space dimension, and flag distinct
    atoms whose vectors span the same ray."""
    by_name = {v.name: v for v in real.vectors}
    missing = [a.name for a in logic.atoms if a.name not in by_name]
    if missing:
        raise ValueError(f"realization lacks vectors for atoms {missing}")
    bad = []
    sizes = []
    for ci, ctx in enumerate(logic.contexts):
        members = [by_name[logic.atoms[a].name] for a in ctx.atoms]
        if len(members) != real.dimension:
            sizes.append((ci, len(members)))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if not _orthogonal(members[i], members[j], tol):
                    d = _dot(members[i].coords, members[j].coords)
                    bad.append((ci, members[i].name, members[j].name, abs(d)))
    coll = []
    vecs = [by_name[a.name] for a in logic.atoms]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if _collinear(vecs[i], vecs[j], tol):
                coll.append((vecs[i].name, vecs[j].name))
    return VerifyReport(tuple(bad), tuple(sizes), tuple(coll))


def derive_logic(vectors, d: int, tol=DEFAULT_TOL) -> Logic:
    """Logic whose contexts are the maximal cliques (size >= 2) of the
    orthogonality graph on the given vectors."""
    if len(vectors) < d:
        raise ValueError(f"need at least {d} vectors")
    n = len(vectors)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _orthogonal(vectors[i], vectors[j], tol):
                adj[i].add(j)
                adj[j].add(i)

    cliques = []

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            if len(clique) >= 2:
                cliques.append(tuple(sorted(clique)))
            return
        for v in sorted(candidates):
            extend(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend(set(), set(range(n)), set())
    cliques.sort()
    atoms = tuple(Atom(i, v.name) for i, v in enumerate(vectors))
    return Logic("derived", atoms, tuple(Context(c) for c in cliques))
