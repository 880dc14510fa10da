"""Quadratically enriched counts of rational curves on toric del Pezzo
surfaces, computed exactly through floor diagrams with merged points."""

from .counting import CountResult, count, kontsevich, verify_merge_invariance, \
    verify_rank_and_signatures, verify_square_substitution
from .degrees import DegreeSpec, InvalidDegree, end_spec, n_delta, parse_degree, \
    white_spec
from .diagrams import FloorDiagram, enumerate_diagrams
from .gwring import BetaForm, GwElem, GwMonomial, ResidualNotInSpan, \
    beta_decompose, beta_elem, display, equals_mod, h, one
from .multiplicity import TwinTreeSummary, gamma, m_a1, twin_edge_mult, twin_tree_mult

__all__ = [
    "BetaForm", "CountResult", "DegreeSpec", "FloorDiagram", "GwElem",
    "GwMonomial", "InvalidDegree", "ResidualNotInSpan",
    "TwinTreeSummary", "beta_decompose", "beta_elem",
    "count", "display",
    "end_spec", "enumerate_diagrams", "equals_mod", "gamma", "h", "kontsevich",
    "m_a1", "n_delta", "one", "parse_degree",
    "twin_edge_mult", "twin_tree_mult",
    "verify_merge_invariance", "verify_rank_and_signatures",
    "verify_square_substitution", "white_spec",
]
