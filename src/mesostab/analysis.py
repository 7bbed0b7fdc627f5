"""Obstruction pipeline for symmetric zero-row-sum matrices.

The question is always whether the matrix is negative semi-definite with a
simple zero eigenvalue. The negated matrix gets the cheap leading-minor
certificate; refusals are refined by the exhaustive minor sweep when small
enough, and the matrix's graph is scanned for the structural obstructions
(missing positive spanning tree, negative cut, overloaded lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import WeightedGraph, _edge_tuples, coates_graph, cut_edges, laplacian
from .numerics import REL_TOL
from .structure import (
    LineBoundReport,
    _positive_spanning_forest,
    find_negative_cut,
    line_obstruction_scan,
)
from .sylvester import (
    DEFAULT_N_MAX,
    DefinitenessVerdict,
    is_psd_full,
    is_psd_zero_row_sum,
)

PASSES = "passes necessary condition"
FAILS = "fails necessary condition"
DEGENERATE = "degenerate"


@dataclass
class StabilityReport:
    """Structured verdicts from the full obstruction pipeline."""

    verdict: str
    certified: bool
    rank_estimate: int
    n: int
    definiteness: DefinitenessVerdict
    full_sweep: Optional[DefinitenessVerdict]
    spanning_forest: Optional[tuple[tuple[int, int, float], ...]]
    negative_cut: Optional[tuple[int, ...]]
    negative_cut_edges: tuple[tuple[int, int, float], ...]
    line_reports: tuple[LineBoundReport, ...]
    notes: tuple[str, ...] = ()

    @property
    def passes(self) -> bool:
        return self.verdict == PASSES


def analyze_matrix(a: np.ndarray, *, rel: float = REL_TOL, n_max: int = DEFAULT_N_MAX) -> StabilityReport:
    """Run the full pipeline on a symmetric zero-row-sum matrix ``a``.

    The structural scans read the exact graph of ``a``: every nonzero
    off-diagonal entry is an edge, however small, so that the forest, the
    cut and the lines speak about the same floats as the certificate.
    """
    # The certificate validates -a, which is symmetric with zero row sums exactly when a is.
    a = np.asarray(a, dtype=float)
    neg = -a
    certificate = is_psd_zero_row_sum(neg, rel)
    n = a.shape[0]
    notes: list[str] = []
    certified = certificate.certified

    full: Optional[DefinitenessVerdict] = None
    if not certified:
        if n <= n_max:
            full = is_psd_full(neg, n_max=n_max, rel=rel)
        else:
            notes.append(f"exhaustive minor sweep skipped: n={n} exceeds n_max={n_max}")

    g = coates_graph(a)
    forest = _positive_spanning_forest(g)
    spanning = _edge_tuples(g, forest.sorted_members()) if forest is not None else None
    cut = find_negative_cut(g) if forest is None else None
    cut_edges_list = _edge_tuples(g, cut_edges(g, cut).sorted_members()) if cut is not None else ()
    lines = tuple(line_obstruction_scan(g, rel))

    # A held certificate proves rank n-1; a refused one has already classified -a
    # by its eigenvalues, whose spectrum is exactly the negated one of a.
    rank = certificate.rank_estimate
    if certified:
        verdict = PASSES
    elif (full is not None and full.witness is not None) or certificate.witness is not None \
            or forest is None or any(r.violated for r in lines):
        verdict = FAILS
    else:
        verdict = DEGENERATE
        if rank < n - 1:
            notes.append("zero eigenvalue is not simple; the maximal-rank certificate does not apply")
        else:
            notes.append("the leading-minor certificate was refused within tolerance and no obstruction was found")

    return StabilityReport(
        verdict=verdict,
        certified=certified,
        rank_estimate=rank,
        n=n,
        definiteness=certificate,
        full_sweep=full,
        spanning_forest=spanning,
        negative_cut=cut,
        negative_cut_edges=cut_edges_list,
        line_reports=lines,
        notes=tuple(notes),
    )


def analyze_graph(g: WeightedGraph, *, rel: float = REL_TOL, n_max: int = DEFAULT_N_MAX) -> StabilityReport:
    """Pipeline entry point for a weighted graph.

    The candidate matrix is the negated Laplacian. The structural scans run
    on its graph, ``coates_graph(-laplacian(g))``. That graph holds the given
    non-loop edges as (i, j) with i < j in row-major order, renumbered
    accordingly; its loops carry the diagonal, and the scans ignore loops.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    return analyze_matrix(-laplacian(g), rel=rel, n_max=n_max)
