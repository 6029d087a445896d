"""Vector realizations of logics: each atom is a ray in R^d, each context an
orthogonal basis.  Verification checks orthogonality within contexts and
flags distinct atoms sharing a ray; derivation builds the logic back from a
vector set as the maximal cliques of the orthogonality graph."""

from __future__ import annotations

from itertools import combinations

from ._record import Record
from ._text import bundled, number, positive, read_directives
from .logic_core import Logic

DEFAULT_TOL = 1e-10


class RealVector(Record):
    name: str
    coords: tuple   # int or Fraction entries

    def __post_init__(self):
        if any(isinstance(x, float) for x in self.coords):
            raise TypeError(f"vector {self.name} has a float entry")
        if all(x == 0 for x in self.coords):
            raise ValueError(f"vector {self.name} is zero")


class Realization(Record):
    dimension: int
    vectors: tuple  # one RealVector per atom, in atom order

    def __post_init__(self):
        for v in self.vectors:
            if len(v.coords) != self.dimension:
                raise ValueError(f"vector {v.name} has {len(v.coords)} coordinates "
                                 f"in dimension {self.dimension}")


class VerifyReport(Record):
    nonorthogonal: tuple   # (context index, atom name, atom name, |<x|y>|)
    size_warnings: tuple   # (context index, size)
    collinear: tuple       # (atom name, atom name)

    @property
    def ok(self):
        return not self.nonorthogonal and not self.collinear


def parse_vectors(text: str):
    """Parse the vector file format: `dim <d>` then `vector <atom> <c1> ...`
    lines; every entry is the exact value it names, an int for an integer
    and a Fraction for a ratio p/q or a decimal.  Every error on a line
    raises ValueError("line N: ...")."""
    dim = None
    vectors = {}

    def set_dim(d):
        nonlocal dim
        dim = positive(d, "dim")

    def vector(name, *entries):
        if dim is None:
            raise ValueError("dim must come first")
        if name in vectors:
            raise ValueError(f"duplicate vector {name}")
        if len(entries) != dim:
            raise ValueError(f"expected {dim} coordinates")
        vectors[name] = RealVector(name, tuple(map(number, entries)))

    read_directives(text, {"dim <d>": set_dim, "vector <atom> <c>...": vector}, ("dim",))
    if dim is None:
        raise ValueError("missing dim header")
    return Realization(dim, tuple(vectors.values()))


def load_builtin(name: str) -> Realization:
    return parse_vectors(bundled(name, ".vec"))


def _check_tol(tol):
    # tol=0 asks for exact orthogonality; a negative tol would fail every
    # pair, nan every comparison, and inf would call every pair collinear
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _pair_test(vectors, tol):
    """test(i, j, ray=False) for x = vectors[i] and y = vectors[j]: whether
    they are orthogonal, |<x|y>| <= tol |x| |y|, or with ray=True whether
    they span one ray, |<x|y>^2 - |x|^2 |y|^2| <= tol |x|^2 |y|^2.  Both
    are decided exactly, squared and with tol = p/q as integers: q^2 <x|y>^2
    <= p^2 |x|^2 |y|^2 and q |<x|y>^2 - |x|^2 |y|^2| <= p |x|^2 |y|^2, so no
    float rounds a tie and no coordinate has to fit the float range.  Each
    |x|^2 is found once per vector, and each test makes one dot product."""
    norm2 = [_dot(v.coords, v.coords) for v in vectors]
    p, q = tol.as_integer_ratio()

    def test(i, j, ray=False):
        d = _dot(vectors[i].coords, vectors[j].coords)
        n2 = norm2[i] * norm2[j]
        return q * abs(d * d - n2) <= p * n2 if ray else q * q * d * d <= p * p * n2
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


def derive_logic(real: Realization, tol=DEFAULT_TOL) -> Logic:
    """Logic whose contexts are the maximal cliques of the orthogonality
    graph on the realization's vectors.  A vector orthogonal to no other is
    a clique of its own, so every vector is an atom of some context."""
    _check_tol(tol)
    vectors = real.vectors
    if len(vectors) < real.dimension:
        raise ValueError(f"need at least {real.dimension} vectors")
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
