"""The bundled scenarios as a test fixture: the golden (V-representation,
H-representation) pairs in the package's data/golden folder, and how each
V-representation is regenerated from first principles.
"""

from importlib import resources

from correlpoly.exact_hull import HRep, VRep, parse_dd
from correlpoly.logic_core import load_builtin
from correlpoly.vertex_gen import (
    gen_noncontextual_vertices,
    gen_state_vertices,
    load_preset_terms,
)

GOLDEN = resources.files("correlpoly.data") / "golden"

# every scenario with a bundled .ext file, read from the folder
SCENARIOS = tuple(sorted(f.name.removesuffix(".ext") for f in GOLDEN.iterdir()
                         if f.name.endswith(".ext")))

# (logic name, term preset) for state-vertex scenarios, (logic name, None)
# for noncontextual sign-span scenarios
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
    "pentagon-noncontextual": ("pentagon", None),
    "bug-prob": ("specker-bug", "bug-prob"),
    "bug-edge-expect": ("specker-bug", "bug-edge-expect"),
    "bug-noncontextual": ("specker-bug", None),
    "cabello-contextual": ("cabello18", None),
}


def scenario_vertices(name):
    """A scenario's V-representation recomputed from its logic and term
    table, independently of the golden files."""
    logic_name, preset = SCENARIO_RECIPES[name]
    logic = load_builtin(logic_name)
    if preset is None:
        return gen_noncontextual_vertices(logic)
    return gen_state_vertices(logic, load_preset_terms(preset, logic))


def builtin_scenario(name):
    """The golden (V-representation, H-representation) pair of a scenario."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    v = parse_dd((GOLDEN / f"{name}.ext").read_text())
    h = parse_dd((GOLDEN / f"{name}.ine").read_text())
    assert isinstance(v, VRep) and isinstance(h, HRep)
    return v, h
