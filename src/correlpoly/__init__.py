"""Correlation polytopes of finite quantum logics.

Enumerate two-valued states, derive Bell-type facet inequalities by exact
rational convex-hull computation, and obtain the corresponding quantum bounds
from the spectra of spin-observable operators.
"""

import importlib

# each public name and the module that defines it; a module executes when one
# of its names is first read (PEP 562), so `import correlpoly.cli` runs no
# layer that its command does not use
_EXPORTS = {
    "exact_hull": ("HRep", "VRep", "canonicalize", "emit_dd", "hull", "parse_dd", "vertices"),
    "logic_core": ("Logic", "ParityCertificate", "enumerate_colorings", "enumerate_states",
                   "is_separating", "parity_certificate", "parse_logic", "partition_logic"),
    "realization": ("RealVector", "Realization", "VerifyReport", "derive_logic",
                    "parse_vectors", "verify_realization"),
    "vertex_gen": ("TermSpec", "gen_noncontextual_vertices", "gen_state_vertices",
                   "parse_terms"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:     # a layer module, as an eager import would bind it
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(_MODULE_OF)

__version__ = "1.0.0"
