"""Eccentricity-based lower bounds on graph algebraic connectivity.

The package computes lower bounds on lambda2 (the second-smallest Laplacian
eigenvalue) from eccentricity counts, verifies them against exactly computed
spectra, and numerically certifies the matrix inequalities they rest on.
The names below are the public API; every other name is importable from its
own submodule (``eccbounds.bounds``, ``.certify``, ``.graphs``, ``.metrics``,
``.spectral``).
"""

from .bounds import BOUND_NAMES, BoundReport, GraphAnalysis, evaluate_all
from .certify import ChainCheck, certify_g1_matrix, certify_g2_matrix, check_chain
from .graphs import (
    FAMILIES,
    Graph,
    ParseError,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    generate,
    load_edge_list,
    parse_edge_list,
    path_graph,
    random_tree,
    serialize_edge_list,
    star_graph,
)
from .metrics import all_pairs_distances
from .spectral import NOT_PSD, PSD, CertificateResult, lambda2

__version__ = "0.1.0"

__all__ = [
    "BOUND_NAMES",
    "FAMILIES",
    "NOT_PSD",
    "PSD",
    "BoundReport",
    "CertificateResult",
    "ChainCheck",
    "Graph",
    "GraphAnalysis",
    "ParseError",
    "all_pairs_distances",
    "certify_g1_matrix",
    "certify_g2_matrix",
    "check_chain",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "evaluate_all",
    "generate",
    "lambda2",
    "load_edge_list",
    "parse_edge_list",
    "path_graph",
    "random_tree",
    "serialize_edge_list",
    "star_graph",
    "__version__",
]
