"""Vertex generation for correlation polytopes.

A term table selects which probabilities, expectations, or joint terms enter
the bounds; evaluating the terms at every two-valued state gives the
V-representation whose hull produces the facet inequalities ("conditions of
possible experience").  A separate generator produces the noncontextual
vertices: per-context products of unconstrained sign assignments, built as
the GF(2) span of the context-atom incidence columns.
"""

from __future__ import annotations

from math import prod

from ._record import Record
from ._text import bundled, read_directives
from .exact_hull import VRep
from .logic_core import Logic, enumerate_states, parity_certificate

KINDS = ("prob", "joint_prob", "expect", "joint_expect")


class TermSpec(Record):
    label: str
    kind: str
    atoms: tuple  # atom indices

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.kind in ("prob", "expect") and len(self.atoms) != 1:
            raise ValueError(f"term {self.label}: {self.kind} takes one atom, "
                             f"got {len(self.atoms)}")
        if self.kind in ("joint_prob", "joint_expect") and len(set(self.atoms)) != len(self.atoms):
            raise ValueError(f"term {self.label}: joint atoms must be distinct")


def parse_terms(text: str, logic: Logic):
    """Parse the term table format: one `term <label> <kind> <atoms...>` line
    per term, into a tuple of TermSpec.  Every error on a line raises
    ValueError("line N: ...")."""
    index = {nm: i for i, nm in enumerate(logic.atoms)}
    terms = {}

    def term(label, kind, *names):
        if label in terms:
            raise ValueError(f"duplicate term label {label!r}")
        if kind not in KINDS:  # before the atoms: their meaning depends on the kind
            raise ValueError(f"unknown term kind {kind!r}")
        for nm in names:
            if nm not in index:
                raise ValueError(f"unknown atom {nm!r}")
        terms[label] = TermSpec(label, kind, tuple(index[nm] for nm in names))

    read_directives(text, {"term <label> <kind> <atom>...": term}, ())
    return tuple(terms.values())


def _evaluate(term: TermSpec, bits):
    # probabilities multiply the atoms' bits, expectations their signs 2b - 1
    if term.kind.endswith("prob"):
        return prod(bits[a] for a in term.atoms)
    return prod(2 * bits[a] - 1 for a in term.atoms)


def gen_state_vertices(logic: Logic, terms) -> VRep:
    """One point per two-valued state, in state order, with one coordinate
    per term; duplicates retained (deduplication is the hull's job)."""
    if not terms:
        raise ValueError("empty term table would give a zero-dimensional polytope")
    states = enumerate_states(logic)
    if not states:
        cert = parity_certificate(logic)
        why = (f" (parity certificate: {cert.context_count} contexts, "
               f"every atom in an even number of them)" if cert else "")
        raise ValueError(f"logic {logic.name} admits no two-valued state{why}")
    return VRep(len(terms), tuple(tuple(_evaluate(t, s) for t in terms) for s in states))


def gen_noncontextual_vertices(logic: Logic) -> VRep:
    """Per-context products of all sign assignments, deduplicated and sorted.

    Admissibility is ignored entirely; the coordinates live in {-1,+1}^contexts.
    A context's product is -1 iff it holds an odd number of -1 atoms, so the
    distinct points are the GF(2) span of the atoms' context-incidence
    columns (bit ci set: sign -1 on context ci): 2^rank points in all."""
    cols = [0] * len(logic.atoms)
    for ci, c in enumerate(logic.contexts):
        for a in c:
            cols[a] |= 1 << ci
    basis = []
    for col in cols:
        for b in basis:
            col = min(col, col ^ b)
        if col:
            basis.append(col)
    span = [0]
    for b in basis:
        span += [x ^ b for x in span]
    m = len(logic.contexts)
    # the points' sorted order, read off the bits: context 0 decides first
    # and a set bit (-1) sorts before a clear one
    mask = (1 << m) - 1
    span.sort(key=lambda x: format(x ^ mask, f"0{m}b")[::-1])
    points = [tuple(-1 if x >> ci & 1 else 1 for ci in range(m))
              for x in span]
    return VRep(m, tuple(points))


def load_preset_terms(name: str, logic: Logic):
    return parse_terms(bundled(name, ".terms"), logic)
