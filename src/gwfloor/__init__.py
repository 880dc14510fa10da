"""Quadratically enriched counts of rational curves on toric del Pezzo
surfaces, computed exactly through floor diagrams with merged points."""

from .counting import CountResult, count, kontsevich, verify_merge_invariance, \
    verify_rank_and_signatures, verify_square_substitution, witt_compare
from .degrees import DegreeSpec, InvalidDegree, end_spec, n_delta, parse_degree, \
    white_spec
from .diagrams import FloorDiagram, MergedFloorDiagram, classify, detect_twin_trees, \
    enumerate_diagrams, merge
from .gwring import BetaForm, GwElem, GwMonomial, ResidualNotInSpan, \
    beta_decompose, beta_elem, display, equals_mod, h, one
from .multiplicity import TwinTreeSummary, diagram_mult, edge_mult, gamma, \
    m_a1, twin_edge_mult, twin_tree_mult

__all__ = [
    "BetaForm", "CountResult", "DegreeSpec", "FloorDiagram", "GwElem",
    "GwMonomial", "InvalidDegree", "MergedFloorDiagram", "ResidualNotInSpan",
    "TwinTreeSummary", "beta_decompose", "beta_elem", "classify",
    "count", "detect_twin_trees", "diagram_mult", "display", "edge_mult",
    "end_spec", "enumerate_diagrams", "equals_mod", "gamma", "h", "kontsevich",
    "m_a1", "merge", "n_delta", "one", "parse_degree",
    "twin_edge_mult", "twin_tree_mult",
    "verify_merge_invariance", "verify_rank_and_signatures",
    "verify_square_substitution", "white_spec", "witt_compare",
]
