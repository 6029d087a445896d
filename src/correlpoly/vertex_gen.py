"""Vertex generation for correlation polytopes.

A term table selects which probabilities, expectations, or joint terms enter
the bounds; evaluating the terms at every two-valued state gives the
V-representation whose hull produces the facet inequalities ("conditions of
possible experience").  A separate generator produces the noncontextual
vertices: per-context products of unconstrained sign assignments, built as
the GF(2) span of the context-atom incidence columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._text import bundled, read_directives
from .exact_hull import HRep, VRep, parse_dd
from .logic_core import Logic, enumerate_states, load_builtin, parity_certificate

KINDS = ("prob", "joint_prob", "expect", "joint_expect")

_PLUS, _MINUS = Fraction(1), Fraction(-1)


@dataclass(frozen=True)
class TermSpec:
    label: str
    kind: str
    atoms: tuple  # atom indices

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.kind in ("joint_prob", "joint_expect") and len(set(self.atoms)) != len(self.atoms):
            raise ValueError(f"term {self.label}: joint atoms must be distinct")


@dataclass(frozen=True)
class TermTable:
    logic: Logic
    terms: tuple

    def __post_init__(self):
        labels = [t.label for t in self.terms]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate term labels")


def parse_terms(text: str, logic: Logic) -> TermTable:
    """Parse the term table format: one `term <label> <kind> <atoms...>` line
    per term.  Every error on a line raises ValueError("line N: ...")."""
    index = {a.name: a.index for a in logic.atoms}
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
    return TermTable(logic, tuple(terms.values()))


def _evaluate(term: TermSpec, values):
    v = values
    if term.kind == "prob":
        return Fraction(v[term.atoms[0]])
    if term.kind == "joint_prob":
        p = 1
        for a in term.atoms:
            p *= v[a]
        return Fraction(p)
    if term.kind == "expect":
        return Fraction(2 * v[term.atoms[0]] - 1)
    p = 1  # joint_expect
    for a in term.atoms:
        p *= 2 * v[a] - 1
    return Fraction(p)


def gen_state_vertices(logic: Logic, table: TermTable) -> VRep:
    """One point per two-valued state, in state order; duplicates retained
    (deduplication is the hull's job)."""
    if not table.terms:
        raise ValueError("empty term table would give a zero-dimensional polytope")
    states = enumerate_states(logic)
    if not states:
        cert = parity_certificate(logic)
        why = (f" (parity certificate: {cert.context_count} contexts, "
               f"every atom in an even number of them)" if cert else "")
        raise ValueError(f"logic {logic.name} admits no two-valued state{why}")
    points = tuple(tuple(_evaluate(t, s.values) for t in table.terms)
                   for s in states)
    return VRep(len(table.terms), points)


def gen_noncontextual_vertices(logic: Logic) -> VRep:
    """Per-context products of all sign assignments, deduplicated and sorted.

    Admissibility is ignored entirely; the coordinates live in {-1,+1}^contexts.
    A context's product is -1 iff it holds an odd number of -1 atoms, so the
    distinct points are the GF(2) span of the atoms' context-incidence
    columns (bit ci set: sign -1 on context ci): 2^rank points in all."""
    cols = [0] * len(logic.atoms)
    for ci, c in enumerate(logic.contexts):
        for a in c.atoms:
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
    points = [tuple(_MINUS if x >> ci & 1 else _PLUS for ci in range(m))
              for x in span]
    return VRep(m, tuple(points))


SCENARIOS = (
    "one-var", "two-var-prob", "two-var-expect", "three-var-prob",
    "three-var-expect", "bwf-2x2", "chsh-2x2", "epr-2x3-full",
    "epr-2x3-joints", "pentagon-prob", "pentagon-pair-expect-KCBS",
    "pentagon-all-pair-expect", "bub-stairs", "pentagon-nonintertwining",
    "bug-prob", "bug-edge-expect", "cabello-contextual",
)


# How each scenario's V-representation is regenerated from first principles:
# (logic name, term preset) for state-vertex scenarios, (logic name, None)
# for noncontextual sign-span scenarios.
SCENARIO_RECIPES = {
    "one-var": ("one-obs", "one-var"),
    "two-var-prob": ("two-obs", "two-var-prob"),
    "two-var-expect": ("two-obs", "two-var-expect"),
    "three-var-prob": ("three-obs", "three-var-prob"),
    "three-var-expect": ("three-obs", "three-var-expect"),
    "bwf-2x2": ("epr-2x2", "bwf-prob"),
    "chsh-2x2": ("epr-2x2", "chsh-expect"),
    "epr-2x3-full": ("epr-2x3", "epr-2x3-full"),
    "epr-2x3-joints": ("epr-2x3", "epr-2x3-joints"),
    "pentagon-prob": ("pentagon", "pentagon-prob"),
    "pentagon-pair-expect-KCBS": ("pentagon", "pentagon-pair-expect"),
    "pentagon-all-pair-expect": ("pentagon", "pentagon-all-pair-expect"),
    "bub-stairs": ("pentagon", "bub-stairs"),
    "pentagon-nonintertwining": ("pentagon", "pentagon-nonintertwining"),
    "bug-prob": ("specker-bug", "bug-prob"),
    "bug-edge-expect": ("specker-bug", "bug-edge-expect"),
    "cabello-contextual": ("cabello18", None),
}


def load_preset_terms(name: str, logic: Logic) -> TermTable:
    return parse_terms(bundled(name, ".terms"), logic)


def scenario_vertices(name: str) -> VRep:
    """Recompute a scenario's V-representation from its logic and term table
    (independently of the bundled golden files)."""
    logic_name, preset = SCENARIO_RECIPES[name]
    logic = load_builtin(logic_name)
    if preset is None:
        return gen_noncontextual_vertices(logic)
    return gen_state_vertices(logic, load_preset_terms(preset, logic))


def builtin_scenario(name: str):
    """The bundled (V-representation, golden H-representation) pair for a
    named scenario."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    v = parse_dd(bundled(name, ".ext"))
    h = parse_dd(bundled(name, ".ine"))
    assert isinstance(v, VRep) and isinstance(h, HRep)
    return v, h
