"""The public surface of the package: what `gwfloor` exports, and what no
module of it carries any more."""

import importlib
import pkgutil

import gwfloor
from gwfloor.diagrams import FloorDiagram

PUBLIC = [
    "BetaForm", "CountResult", "DegreeSpec", "FloorDiagram", "GwElem",
    "GwMonomial", "InvalidDegree", "ResidualNotInSpan", "TwinTreeSummary",
    "beta_decompose", "beta_elem", "count", "display", "end_spec",
    "enumerate_diagrams", "equals_mod", "gamma", "h", "kontsevich", "m_a1",
    "n_delta", "one", "parse_degree", "twin_edge_mult", "twin_tree_mult",
    "verify_merge_invariance", "verify_rank_and_signatures",
    "verify_square_substitution", "white_spec",
]

# Wrappers and test oracles that left the package; tests/oracles.py holds
# the oracles.
REMOVED = ["merge", "MergedFloorDiagram", "diagram_mult", "edge_mult", "witt_compare",
           "signature_mult"]
REMOVED_METHODS = ["neighbors", "validate", "divergence", "complex_mult", "swapped"]


def test_all_is_the_decided_surface():
    assert sorted(gwfloor.__all__) == sorted(PUBLIC)
    assert len(gwfloor.__all__) == len(set(gwfloor.__all__)) == 29
    for name in gwfloor.__all__:
        assert getattr(gwfloor, name) is not None, name


def test_removed_names_are_gone():
    modules = [gwfloor] + [importlib.import_module(f"gwfloor.{info.name}")
                           for info in pkgutil.iter_modules(gwfloor.__path__)]
    assert len(modules) > 6
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
    for name in REMOVED_METHODS:
        assert not hasattr(FloorDiagram, name), name
