"""Correlation polytopes of finite quantum logics.

Enumerate two-valued states, derive Bell-type facet inequalities by exact
rational convex-hull computation, and obtain the corresponding quantum bounds
from the spectra of spin-observable operators.
"""

from .exact_hull import HRep, VRep, canonicalize, emit_dd, hull, parse_dd, vertices
from .logic_core import (
    Atom,
    Coloring,
    Context,
    Logic,
    ParityCertificate,
    PartitionLogic,
    TwoValuedState,
    enumerate_colorings,
    enumerate_states,
    is_separating,
    parity_certificate,
    parse_logic,
    partition_logic,
)
from .realization import (
    RealVector,
    Realization,
    VerifyReport,
    derive_logic,
    parse_vectors,
    verify_realization,
)
from .vertex_gen import (
    SCENARIOS,
    TermSpec,
    TermTable,
    builtin_scenario,
    gen_noncontextual_vertices,
    gen_state_vertices,
    parse_terms,
    scenario_vertices,
)

__all__ = [
    "Atom", "Coloring", "Context", "HRep", "Logic", "ParityCertificate",
    "PartitionLogic", "RealVector", "Realization", "SCENARIOS",
    "TermSpec", "TermTable", "TwoValuedState", "VRep", "VerifyReport",
    "builtin_scenario", "canonicalize", "derive_logic", "emit_dd",
    "enumerate_colorings", "enumerate_states", "gen_noncontextual_vertices",
    "gen_state_vertices", "hull", "is_separating", "parity_certificate",
    "parse_dd", "parse_logic", "parse_terms", "parse_vectors",
    "partition_logic", "scenario_vertices", "verify_realization", "vertices",
]

__version__ = "1.0.0"
