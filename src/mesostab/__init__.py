"""Graph-combinatorial semi-definiteness tests and stability obstructions.

The package decides whether a symmetric zero-row-sum matrix is negative
semi-definite with a simple zero eigenvalue, using forest sums for the
principal minors, positive spanning trees and negative cuts as structural
certificates, and harmonic weight bounds on induced lines. The same
pipeline classifies phase-locked states of coupled oscillator networks.
"""

__version__ = "0.1.0"

from .analysis import DEGENERATE, FAILS, PASSES, StabilityReport, analyze_graph, analyze_matrix
from .graphs import (
    EdgeSubset,
    OrientedIncidence,
    WeightedGraph,
    coates_graph,
    connected_components,
    cut_edges,
    graph_components,
    incidence_factorization,
    induced_lines,
    is_forest,
    laplacian,
    negated_adjacency_check,
)
from .kuramoto import (
    KuramotoSystem,
    classify_stability,
    find_equilibrium,
    jacobian,
    rotating_frame_residual,
    spanning_phase_condition,
    wrap_phases,
    wrap_to_pi,
)
from .minors import (
    ForestFamily,
    cauchy_binet_expand,
    enumerate_forest_family,
    incidence_minor_magnitude,
    principal_minor_combinatorial,
    principal_minor_direct,
)
from .numerics import GuardLimitError, quadratic_form
from .structure import (
    CutFamily,
    LineBoundReport,
    cut_decomposition,
    cut_identity_sweep,
    cut_identity_terms,
    find_negative_cut,
    line_obstruction_scan,
    line_weight_bound,
    positive_spanning_tree,
    verify_cut_identity,
)
from .sylvester import (
    DefinitenessVerdict,
    EquivalenceReport,
    MinorWitness,
    VectorWitness,
    check_equivalences,
    is_psd_full,
    is_psd_zero_row_sum,
)

__all__ = [
    "DEGENERATE",
    "FAILS",
    "PASSES",
    "CutFamily",
    "DefinitenessVerdict",
    "EdgeSubset",
    "EquivalenceReport",
    "ForestFamily",
    "GuardLimitError",
    "KuramotoSystem",
    "LineBoundReport",
    "MinorWitness",
    "OrientedIncidence",
    "StabilityReport",
    "VectorWitness",
    "WeightedGraph",
    "analyze_graph",
    "analyze_matrix",
    "cauchy_binet_expand",
    "check_equivalences",
    "classify_stability",
    "coates_graph",
    "connected_components",
    "cut_decomposition",
    "cut_edges",
    "cut_identity_sweep",
    "cut_identity_terms",
    "enumerate_forest_family",
    "find_equilibrium",
    "find_negative_cut",
    "graph_components",
    "incidence_factorization",
    "incidence_minor_magnitude",
    "induced_lines",
    "is_forest",
    "is_psd_full",
    "is_psd_zero_row_sum",
    "jacobian",
    "laplacian",
    "line_obstruction_scan",
    "line_weight_bound",
    "negated_adjacency_check",
    "positive_spanning_tree",
    "principal_minor_combinatorial",
    "principal_minor_direct",
    "quadratic_form",
    "rotating_frame_residual",
    "spanning_phase_condition",
    "verify_cut_identity",
    "wrap_phases",
    "wrap_to_pi",
]
