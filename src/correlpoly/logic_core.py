"""Finite quantum logics (pastings of contexts) and their two-valued states.

A logic is a hypergraph of atoms and contexts (maximal sets of co-measurable
atoms): its atoms are names, its contexts tuples of atom indices.  A
two-valued state assigns {0,1} to every atom with exactly one 1 per context
(strong admissibility); it is a tuple of bits, one per atom.  This module
enumerates states and colorings, detects parity obstructions to the
existence of states, and extracts partition-logic representations.
"""

from __future__ import annotations

import warnings
from itertools import combinations

from ._record import Record
from ._text import bundled, read_directives


class Logic(Record):
    name: str
    atoms: tuple     # atom names
    contexts: tuple  # per context, its atom indices in order

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom names")
        covered = set()
        seen = set()
        holders = {}  # atom pair -> the contexts holding it
        for ci, c in enumerate(self.contexts):
            key = frozenset(c)
            if len(key) != len(c):
                raise ValueError("repeated atom in context")
            if key in seen:
                raise ValueError("duplicate context")
            # two contexts intertwine in more than one atom iff they share a pair
            pairs = list(combinations(sorted(c), 2))
            for _ in set().union(*(holders.get(p, ()) for p in pairs)):
                # level 3: past Record.__init__, the code that built the logic
                warnings.warn(f"{self.name}: contexts intertwine in more than one atom",
                              stacklevel=3)
            for p in pairs:
                holders.setdefault(p, []).append(ci)
            seen.add(key)
            covered |= key
        if covered != set(range(len(self.atoms))):
            raise ValueError("every atom must appear in at least one context")


class ParityCertificate(Record):
    """Proof that no two-valued state exists: summing the one-1-per-context
    rule over all contexts gives an odd total, yet each atom is counted an
    even number of times."""
    atom_context_counts: tuple
    context_count: int


def parse_logic(text: str) -> Logic:
    """Parse the line-based logic file format: an optional `logic <name>`
    header and one `context <atom> ...` line per context; `#` starts a
    comment.  Every error on a line raises ValueError("line N: ...")."""
    name = "anonymous"
    atom_ids = {}   # name -> index, in order of first appearance
    contexts = {}   # atom set -> atom indices, in file order

    def header(logic_name):
        nonlocal name
        name = logic_name

    def context(*members):
        if len(set(members)) != len(members):
            raise ValueError("repeated atom in context")
        idx = tuple(atom_ids.setdefault(nm, len(atom_ids)) for nm in members)
        if frozenset(idx) in contexts:
            raise ValueError("duplicate context")
        contexts[frozenset(idx)] = idx

    read_directives(text, {"logic <name>": header, "context <atom>...": context},
                    ("logic",))
    return Logic(name, tuple(atom_ids), tuple(contexts.values()))


def load_builtin(name: str) -> Logic:
    """Load one of the bundled logics by name."""
    return parse_logic(bundled(name, ".logic"))


def enumerate_states(logic: Logic):
    """All two-valued states, sorted lexicographically.

    Depth-first search over contexts in file order, on an explicit stack,
    with constraint propagation (a 1 forces 0 on all other atoms of every
    context containing it)."""
    contexts = logic.contexts
    atom_ctxs = [[] for _ in logic.atoms]
    for ci, ctx in enumerate(contexts):
        for a in ctx:
            atom_ctxs[a].append(ci)
    out = []
    stack = [(0, [None] * len(logic.atoms))]
    while stack:
        ci, values = stack.pop()
        while ci < len(contexts) and any(values[a] == 1 for a in contexts[ci]):
            ci += 1
        if ci == len(contexts):
            out.append(tuple(values))
            continue
        for a in contexts[ci]:
            # no atom of a context holding a is 1 yet: that 1 would have set
            # a to 0 already
            if values[a] != 0:
                trial = list(values)
                for cj in atom_ctxs[a]:
                    for b in contexts[cj]:
                        trial[b] = 0
                trial[a] = 1
                stack.append((ci + 1, trial))
    out.sort()
    return out


def parity_certificate(logic: Logic):
    """A ParityCertificate when every atom lies in an even number of contexts
    and the context count is odd; None (inapplicable) otherwise."""
    counts = [0] * len(logic.atoms)
    for c in logic.contexts:
        for a in c:
            counts[a] += 1
    if len(logic.contexts) % 2 == 1 and all(k % 2 == 0 for k in counts):
        return ParityCertificate(tuple(counts), len(logic.contexts))
    return None


def is_separating(logic: Logic, states):
    """All unordered atom pairs that no state separates (empty iff the state
    set is separating), as pairs of names."""
    n = len(logic.atoms)
    return [(logic.atoms[x], logic.atoms[y])
            for x in range(n) for y in range(x + 1, n)
            if all(s[x] == s[y] for s in states)]


def enumerate_colorings(logic: Logic, k: int, up_to_permutation=False):
    """All colorings, as tuples of colors in range(k), with pairwise
    distinct colors inside every context; in lexicographic order.

    When a context has exactly k atoms all k colors occur in it automatically.
    With up_to_permutation=True only canonical representatives are returned
    (colors first appear in increasing order along the atom list)."""
    kmax = max(len(c) for c in logic.contexts)
    if k < kmax:
        raise ValueError(f"k={k} below largest context size {kmax}")
    n = len(logic.atoms)
    earlier = [set() for _ in range(n)]   # context neighbors of lower index
    for c in logic.contexts:
        for a in c:
            earlier[a].update(b for b in c if b < a)
    out = []
    colors = [0] * n

    def choices(a, used):
        """The colors atom a may take after atoms 0..a-1, which use `used`."""
        taken = {colors[b] for b in earlier[a]}
        limit = min(used + 1, k) if up_to_permutation else k
        return iter([col for col in range(limit) if col not in taken])

    # depth-first on an explicit stack: entry a holds atom a's untried
    # colors and the number of colors its predecessors use
    stack = [(choices(0, 0), 0)]
    while stack:
        untried, used = stack[-1]
        a = len(stack) - 1
        col = next(untried, None)
        if col is None:
            stack.pop()
            continue
        colors[a] = col
        if a + 1 == n:
            out.append(tuple(colors))
        else:
            used = max(used, col + 1)
            stack.append((choices(a + 1, used), used))
    return out


def partition_logic(states, logic: Logic):
    """Map every atom to the sorted 1-based indices of the states assigning
    it 1; within each context these sets partition the full state-index set."""
    if not states:
        raise ValueError("partition logic needs a non-empty state list")
    return tuple(tuple(i for i, s in enumerate(states, start=1) if s[a] == 1)
                 for a in range(len(logic.atoms)))
