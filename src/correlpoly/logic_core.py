"""Finite quantum logics (pastings of contexts) and their two-valued states.

A logic is a hypergraph of atoms and contexts (maximal sets of co-measurable
atoms).  A two-valued state assigns {0,1} to every atom with exactly one 1
per context (strong admissibility).  This module enumerates states and
colorings, detects parity obstructions to the existence of states, and
extracts partition-logic representations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from ._text import bundled, read_directives


@dataclass(frozen=True)
class Atom:
    index: int
    name: str


@dataclass(frozen=True)
class Context:
    atoms: tuple  # atom indices, ordered


@dataclass(frozen=True)
class Logic:
    name: str
    atoms: tuple
    contexts: tuple

    def __post_init__(self):
        names = [a.name for a in self.atoms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate atom names")
        covered = set()
        seen = set()
        for c in self.contexts:
            key = frozenset(c.atoms)
            if key in seen:
                raise ValueError("duplicate context")
            for other in seen:
                if len(key & other) > 1:
                    warnings.warn(
                        f"{self.name}: contexts intertwine in more than one atom",
                        stacklevel=2)
            seen.add(key)
            covered |= key
        if covered != set(range(len(self.atoms))):
            raise ValueError("every atom must appear in at least one context")

    def atom_index(self, name):
        return {a.name: a.index for a in self.atoms}[name]


@dataclass(frozen=True)
class TwoValuedState:
    values: tuple  # one bit per atom


@dataclass(frozen=True)
class Coloring:
    colors: tuple
    k: int


@dataclass(frozen=True)
class ParityCertificate:
    """Proof that no two-valued state exists: summing the one-1-per-context
    rule over all contexts gives an odd total, yet each atom is counted an
    even number of times."""
    atom_context_counts: tuple
    context_count: int


@dataclass(frozen=True)
class PartitionLogic:
    atom_states: tuple  # per atom, sorted tuple of 1-based state indices


def parse_logic(text: str) -> Logic:
    """Parse the line-based logic file format: an optional `logic <name>`
    header and one `context <atom> <atom> ...` line per context; `#` starts
    a comment.  Every error on a line raises ValueError("line N: ...")."""
    name = "anonymous"
    atom_ids = {}   # name -> index, in order of first appearance
    contexts = {}   # atom set -> Context, in file order

    def header(logic_name):
        nonlocal name
        name = logic_name

    def context(*members):
        if len(set(members)) != len(members):
            raise ValueError("repeated atom in context")
        idx = tuple(atom_ids.setdefault(nm, len(atom_ids)) for nm in members)
        if frozenset(idx) in contexts:
            raise ValueError("duplicate context")
        contexts[frozenset(idx)] = Context(idx)

    read_directives(text, {"logic <name>": header, "context <atom> <atom>...": context},
                    ("logic",))
    atoms = tuple(Atom(i, nm) for i, nm in enumerate(atom_ids))
    return Logic(name, atoms, tuple(contexts.values()))


def load_builtin(name: str) -> Logic:
    """Load one of the bundled logics by name."""
    return parse_logic(bundled(name, ".logic"))


def enumerate_states(logic: Logic):
    """All two-valued states, sorted lexicographically by bit vector.

    Backtracking over contexts in file order with constraint propagation
    (a 1 forces 0 on all other atoms of every context containing it)."""
    n = len(logic.atoms)
    contexts = [c.atoms for c in logic.contexts]
    atom_ctxs = [[] for _ in range(n)]
    for ci, ctx in enumerate(contexts):
        for a in ctx:
            atom_ctxs[a].append(ci)
    out = []

    def set_one(values, a):
        """Assign v(a)=1 and propagate zeros; return False on contradiction."""
        if values[a] == 0:
            return False
        values[a] = 1
        for ci in atom_ctxs[a]:
            for b in contexts[ci]:
                if b != a:
                    if values[b] == 1:
                        return False
                    values[b] = 0
        return True

    def search(ci, values):
        if ci == len(contexts):
            out.append(TwoValuedState(tuple(values)))
            return
        ctx = contexts[ci]
        if any(values[a] == 1 for a in ctx):
            search(ci + 1, values)
            return
        for a in ctx:
            if values[a] == 0:
                continue
            trial = list(values)
            if set_one(trial, a):
                search(ci + 1, trial)

    search(0, [None] * n)
    out.sort(key=lambda s: s.values)
    return out


def parity_certificate(logic: Logic):
    """A ParityCertificate when every atom lies in an even number of contexts
    and the context count is odd; None (inapplicable) otherwise."""
    counts = [0] * len(logic.atoms)
    for c in logic.contexts:
        for a in c.atoms:
            counts[a] += 1
    if len(logic.contexts) % 2 == 1 and all(k % 2 == 0 for k in counts):
        return ParityCertificate(tuple(counts), len(logic.contexts))
    return None


def is_separating(logic: Logic, states):
    """All unordered atom pairs that no state separates (empty iff the state
    set is separating)."""
    n = len(logic.atoms)
    pairs = []
    for x in range(n):
        for y in range(x + 1, n):
            if all(s.values[x] == s.values[y] for s in states):
                pairs.append((logic.atoms[x].name, logic.atoms[y].name))
    return pairs


def enumerate_colorings(logic: Logic, k: int, up_to_permutation=False):
    """All colorings with pairwise distinct colors inside every context.

    When a context has exactly k atoms all k colors occur in it automatically.
    With up_to_permutation=True only canonical representatives are returned
    (colors first appear in increasing order along the atom list)."""
    kmax = max(len(c.atoms) for c in logic.contexts)
    if k < kmax:
        raise ValueError(f"k={k} below largest context size {kmax}")
    n = len(logic.atoms)
    neighbors = [set() for _ in range(n)]
    for c in logic.contexts:
        for a in c.atoms:
            for b in c.atoms:
                if a != b:
                    neighbors[a].add(b)
    out = []
    colors = [None] * n

    def search(a, used):
        if a == n:
            out.append(Coloring(tuple(colors), k))
            return
        taken = {colors[b] for b in neighbors[a] if colors[b] is not None}
        limit = min(used + 1, k) if up_to_permutation else k
        for col in range(limit):
            if col in taken:
                continue
            colors[a] = col
            search(a + 1, max(used, col + 1))
            colors[a] = None

    search(0, 0)
    return out


def partition_logic(states, logic: Logic) -> PartitionLogic:
    """Map every atom to the 1-based indices of the states assigning it 1;
    within each context these sets partition the full state-index set."""
    if not states:
        raise ValueError("partition logic needs a non-empty state list")
    per_atom = []
    for a in range(len(logic.atoms)):
        per_atom.append(tuple(i for i, s in enumerate(states, start=1)
                              if s.values[a] == 1))
    return PartitionLogic(tuple(per_atom))
