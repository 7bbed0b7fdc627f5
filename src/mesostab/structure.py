"""Meso-scale obstructions: positive spanning trees, negative cuts, the
forest-cutting decomposition with its alternating-sum identity, and the
harmonic weight bound on induced lines.

The identity takes each crossing-forest weight in closed form, a product
of per-vertex crossing sums; only the decomposition lists the forests.

Loops are ignored by every operation here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .graphs import (
    EdgeSubset,
    WeightedGraph,
    _degrees,
    _edge_forest,
    _simple_columns,
    _vertex_mask,
    _vertex_subset,
    induced_lines,
    laplacian,
)
from .minors import _forest_family, principal_minor_direct
from .numerics import REL_TOL, GuardLimitError
from .sylvester import SWEEP_CHUNK, _combinations

CUT_GUARD = 20

# Largest vertex count whose 2^n - 2 proper sides ``cut_identity_sweep`` visits.
_SIDE_SWEEP_GUARD = 12


def _positive_spanning_forest(g: WeightedGraph) -> Optional[EdgeSubset]:
    """Spanning forest of positive edges covering each component of ``g``, if one exists."""
    labels, forest = g._positive_forest
    # g's components are spanned iff no edge joins two positive classes
    _, i, j, _ = _simple_columns(g)
    if not np.all(labels[i] == labels[j]):
        return None
    return EdgeSubset._trusted(g, frozenset(forest.tolist()))


def positive_spanning_tree(g: WeightedGraph) -> Optional[EdgeSubset]:
    """A spanning tree using only positive edges, if one exists.

    For a connected graph this is a spanning tree; for a disconnected graph
    each component must be spanned by positive edges and the union forest is
    returned. Deterministic: edges are taken greedily in index order.
    """
    return _positive_spanning_forest(g)


def find_negative_cut(g: WeightedGraph) -> Optional[tuple[int, ...]]:
    """A vertex set whose (non-empty) boundary consists of negative edges.

    Found as a connected component of the positive-edge subgraph that some
    edge of ``g`` leaves; such an edge is negative, since a positive edge
    never leaves its component. Among the candidates the smallest one is
    returned, ties broken lexicographically. Returns None when every
    component has a positive spanning tree.
    """
    labels, _ = g._positive_forest
    _, i, j, w = _simple_columns(g)
    li, lj = labels[i], labels[j]
    leaving = li != lj
    if not leaving.any():
        return None
    left = np.zeros(g.n, dtype=bool)
    left[li[leaving]] = True
    left[lj[leaving]] = True
    candidates = np.flatnonzero(left)
    sizes = np.bincount(labels, minlength=g.n)[candidates]
    # A class's label is its smallest vertex, so among equal sizes the
    # smallest label is the lexicographically smallest vertex tuple.
    c = candidates[sizes == sizes.min()][0]
    inside = labels == c
    v1 = tuple((np.flatnonzero(inside) + 1).tolist())
    crossing = w[inside[i] != inside[j]]
    if not crossing.size or (crossing >= 0).any():
        raise AssertionError(f"negative-cut search produced an invalid witness {v1}")
    return v1


def _neighbours(g: WeightedGraph) -> list[list[tuple[int, int, float]]]:
    """Each vertex's (neighbour, edge index, weight) triples, 0-based, by ascending edge index; loops ignored."""
    idx, i, j, w = _simple_columns(g)
    neighbours: list[list[tuple[int, int, float]]] = [[] for _ in range(g.n)]
    for e, a, b, x in zip(idx.tolist(), i.tolist(), j.tolist(), w.tolist()):
        neighbours[a].append((b, e, x))
        neighbours[b].append((a, e, x))
    return neighbours


@dataclass
class CutFamily:
    """The forest-cutting decomposition attached to one side of a cut.

    ``sigma`` maps each boundary-endpoint set B to its crossing forests and
    ``tee`` maps each marker set to the inside forests; ``union`` collects
    all pairwise unions, which reproduce the forest family of v1 minus the
    cut-off markers.
    """

    v1: tuple[int, ...]
    removed: tuple[int, ...]
    sigma: dict[tuple[int, ...], tuple[EdgeSubset, ...]]
    tee: dict[tuple[int, ...], tuple[EdgeSubset, ...]]
    union: tuple[EdgeSubset, ...]


def cut_decomposition(g: WeightedGraph, v1: Iterable[int], c: Iterable[int]) -> CutFamily:
    """Decompose the forest family of v1 minus c across the cut at v1.

    Every forest splits into its crossing part (one edge per boundary
    endpoint) and its inside part; the union over admissible boundary sets
    must reproduce the family exactly, and the function verifies that before
    returning.
    """
    side = _vertex_subset(v1, g.n, allow_empty=False)
    if len(side) >= g.n:
        raise ValueError("v1 must be a proper non-empty vertex subset")
    if len(side) > CUT_GUARD:
        raise GuardLimitError(f"cut decomposition is guarded at |v1|={CUT_GUARD}, got {len(side)}")
    removed = _vertex_subset(c, g.n)
    if not set(removed) <= set(side):
        raise ValueError("c must be a subset of v1")
    rest = tuple(sorted(set(side) - set(removed)))
    idx, i, j, w = _simple_columns(g)
    inside = _vertex_mask(g.n, side)
    within = inside[i] & inside[j]
    inner = tuple(column[within] for column in (idx, i, j, w))
    neighbours = _neighbours(g)
    pools = {v: [e for u, e, _ in neighbours[v - 1] if not inside[u]] for v in side}

    sigma: dict[tuple[int, ...], tuple[EdgeSubset, ...]] = {}
    tee: dict[tuple[int, ...], tuple[EdgeSubset, ...]] = {}
    union: set[frozenset[int]] = set()
    for r in range(len(rest) + 1):
        for b in itertools.combinations(rest, r):
            # one crossing edge per vertex of b; an empty pool yields no forest
            crossing = [frozenset(choice) for choice in itertools.product(*(pools[v] for v in b))]
            if not crossing:
                continue
            marker = tuple(sorted(set(removed) | set(b)))
            # The inside forests with one tree per marker: the spanning trees
            # of side 1 with the markers merged. Isolated vertices count as
            # singleton trees, so these forests have |v1| - |marker| edges.
            rows, _ = _forest_family(g.n, *inner, _vertex_mask(g.n, marker), len(side) - len(marker))
            if not len(rows):
                continue
            forests = [frozenset(row) for row in rows.tolist()]
            sigma[b] = tuple(EdgeSubset(g, d) for d in crossing)
            tee[marker] = tuple(EdgeSubset(g, d) for d in forests)
            for a in crossing:
                for a2 in forests:
                    union.add(a | a2)

    # the empty rest has one member, the empty forest
    rows, _ = _forest_family(g.n, idx, i, j, w, ~_vertex_mask(g.n, rest), len(rest))
    if union != set(map(frozenset, rows.tolist())):
        raise AssertionError("cut decomposition does not reproduce the forest family")
    ordered = tuple(EdgeSubset(g, m) for m in sorted(union, key=sorted))
    return CutFamily(side, removed, sigma, tee, ordered)


def _marker_sets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks of the subsets of range(k) in subset order, and (-1.0)^size of each."""
    masks, signs = [np.zeros(1, dtype=np.int64)], [np.ones(1)]
    for r, combos in _combinations(k, k):
        masks.append((1 << combos).sum(axis=1))
        signs.append(np.full(len(combos), (-1.0) ** r))
    return np.concatenate(masks), np.concatenate(signs)


def _take_minors(L: np.ndarray, labels: np.ndarray, keys: list[int], minors: dict[int, float]) -> None:
    """Enter the Laplacian minor of each rest in ``keys`` into ``minors``.

    A rest is a bitmask of places, and place p names vertex ``labels[p]``
    (1-based). The rests of one size take one ``principal_minor_direct``
    stack of at most ``SWEEP_CHUNK`` rows at a time, larger rests first, so
    a side's own minor comes before those of its marker sets.
    """
    keys = np.array(keys, dtype=np.int64)
    places = np.arange(len(labels))
    sizes = sum(((keys >> p) & 1 for p in range(len(labels))), np.zeros_like(keys))
    for size in sorted(set(sizes.tolist()), reverse=True):
        of_size = keys[sizes == size]
        for start in range(0, len(of_size), SWEEP_CHUNK):
            chunk = of_size[start:start + SWEEP_CHUNK]
            held = np.nonzero((chunk[:, None] >> places) & 1)[1].reshape(len(chunk), size)
            minors.update(zip(chunk.tolist(), principal_minor_direct(L, labels[held]).tolist()))


def _identity_terms(g: WeightedGraph, vertices: np.ndarray, groups: Iterable[np.ndarray]
                    ) -> Iterator[tuple[tuple[int, ...], list[float]]]:
    """``(side, terms)`` of the cut identity for each side of ``groups``, one group at a time.

    ``vertices`` holds the 0-based vertices of all sides, ascending; there
    are at most 20, so a bitmask of places fits an int64. A group is an
    array whose rows are equal-size sides, each given by the places of its
    vertices in ``vertices``, ascending; the sides come out 1-based. A side's
    s_v is the ``math.fsum`` of v's edge weights to the outside, in edge
    order. Its marker weights form a table by place bitmask in which a set's
    weight is that of the set without its highest place times that place's
    s_v, so every product runs from 1.0 in ascending vertex order, as
    ``math.prod`` does; the same doubling forms the rest of each marker set,
    the side minus the set, as a bitmask of places in ``vertices``. The
    doubling runs only over the columns whose s_v is nonzero on some side of
    the group: a marker set holding another column weighs zero on every
    side, so it is never formed, and that column stays in every rest. Each
    distinct rest of a nonzero weight takes its minor once per call, the
    group's new rests by ``_take_minors``.
    """
    L = laplacian(g)
    neighbours = _neighbours(g)
    labels = np.asarray(vertices) + 1
    minors = {0: 1.0}  # by rest bitmask; the empty minor is 1
    for rows in groups:
        sides = [tuple(row) for row in labels[rows].tolist()]
        s = np.empty(rows.shape)
        for r, side in enumerate(sides):
            inside = set(side)
            for t, v in enumerate(side):
                try:
                    s[r, t] = math.fsum([w for u, _, w in neighbours[v - 1] if u + 1 not in inside])
                except OverflowError:
                    named = ",".join(map(str, side))
                    raise OverflowError(f"crossing sum of vertex {v} on side V1={{{named}}} overflows") from None
        live = np.flatnonzero(s.any(axis=0)).tolist()
        masks, signs = _marker_sets(len(live))
        bits = 1 << rows
        # a product may overflow, and inf times a zero minor is nan, silently as with floats
        with np.errstate(over="ignore", invalid="ignore"):
            weights, rests = np.ones((len(rows), 1)), bits.sum(axis=1, keepdims=True)
            for t in live:
                weights = np.hstack([weights, weights * s[:, t:t + 1]])
                rests = np.hstack([rests, rests - bits[:, t:t + 1]])
            weights = weights[:, masks]
            kept_rows, kept_cols = np.nonzero(weights)
            keys, first, inverse = np.unique(rests[kept_rows, masks[kept_cols]], return_index=True,
                                             return_inverse=True)
            _take_minors(L, labels, [key for key in keys[np.argsort(first)].tolist() if key not in minors], minors)
            rest_minors = np.array([minors[key] for key in keys.tolist()])[inverse]
            values = (signs[kept_cols] * weights[kept_rows, kept_cols] * rest_minors).tolist()
        ends = np.cumsum(np.bincount(kept_rows, minlength=len(rows))).tolist()
        yield from zip(sides, (values[start:end] for start, end in zip([0] + ends, ends)))


def cut_identity_terms(g: WeightedGraph, v1: Iterable[int]) -> list[float]:
    """Terms of the alternating cut identity for ``v1``.

    Term for marker set C: (-1)^|C| times the crossing-forest weight of C
    times the Laplacian principal minor of v1 minus C, with the empty minor
    equal to 1. A crossing forest of C takes one crossing edge per vertex of
    C, so the weight is the product over C, in ascending order, of s_v, the
    summed weight of v's crossing edges. Markers whose crossing weight is
    zero are skipped, and only the minors of the others are computed; the
    terms come in subset order (sizes ascending, lexicographic within a
    size). They sum to zero in exact arithmetic: the Laplacian block on v1
    is L(G[v1]) + diag(s), and L(G[v1]) has zero row sums, so by
    multilinearity of the determinant the sum is det L(G[v1]) = 0.
    """
    side = _vertex_subset(v1, g.n, allow_empty=False)
    if len(side) >= g.n:
        raise ValueError("v1 must be a proper non-empty vertex subset")
    if len(side) > CUT_GUARD:
        raise GuardLimitError(f"cut identity is guarded at |v1|={CUT_GUARD}, got {len(side)}")
    return next(_identity_terms(g, np.array(side) - 1, [np.arange(len(side))[None, :]]))[1]


def cut_identity_sweep(g: WeightedGraph) -> Iterator[tuple[tuple[int, ...], list[float]]]:
    """``(side, cut_identity_terms(g, side))`` for every proper non-empty side.

    Sides come in subset order (sizes ascending, lexicographic within a
    size) and the terms are those of ``cut_identity_terms``, bit for bit.
    The sides of one size take their terms together, a size at a time.
    Every side is its own rest under the empty marker and every rest is a
    proper subset, so each of the 2^n - 2 minors is computed exactly once,
    for the first side that needs it.
    Raises ``GuardLimitError`` on the call itself when n exceeds 12.
    """
    if g.n > _SIDE_SWEEP_GUARD:
        raise GuardLimitError(f"sweeping all proper subsets is guarded at n={_SIDE_SWEEP_GUARD}, got n={g.n}")
    return _identity_terms(g, np.arange(g.n), (combos for _, combos in _combinations(g.n, g.n - 1)))


def verify_cut_identity(g: WeightedGraph, v1: Iterable[int]) -> float:
    """Residual of the alternating cut identity; zero up to roundoff."""
    return math.fsum(cut_identity_terms(g, v1))


class IdentityCheck(NamedTuple):
    """The cut identity checked on one side: the ``math.fsum`` of its terms,
    the ``math.fsum`` of their magnitudes, and whether the residual is within
    ``tolerance = tol · max(1, term_scale)``. Both sums are correctly rounded,
    so neither depends on the interpreter's builtin ``sum``."""

    residual: float
    term_scale: float
    tolerance: float
    within_tolerance: bool


def identity_check(side: tuple[int, ...], terms: list[float], tol: float = REL_TOL) -> IdentityCheck:
    """Check one side's cut identity terms against ``tol``.

    Raises OverflowError naming the side when a term, the residual or the
    scale is not finite: an infinite scale would make any residual pass.
    """
    def overflow(what: str) -> OverflowError:
        return OverflowError(f"cut identity on side V1={{{','.join(map(str, side))}}} overflows: {what} is not finite")

    if not all(map(math.isfinite, terms)):
        raise overflow("a term")
    try:
        residual = math.fsum(terms)
    except OverflowError:
        raise overflow("the residual") from None
    try:
        scale = math.fsum(map(abs, terms))
    except OverflowError:
        raise overflow("the term scale") from None
    tolerance = tol * max(1.0, scale)
    return IdentityCheck(residual, scale, tolerance, abs(residual) <= tolerance)


@dataclass(frozen=True)
class LineBoundReport:
    """Verdict for one induced line: negative-edge census and weight bound."""

    line: EdgeSubset
    negative_edges: tuple[int, ...]
    bound: Optional[float]
    violated: bool


def _require_induced_line(g: WeightedGraph, h: EdgeSubset) -> None:
    idx, i, j, _ = _simple_columns(g)
    inside = np.zeros(g.n, dtype=bool)
    inside[np.fromiter(h.touched_vertices(), dtype=np.int64) - 1] = True
    within = inside[i] & inside[j]
    if set(idx[within].tolist()) != h.members:
        raise ValueError("edge set is not induced: its vertices carry extra edges")
    # A tree in which no vertex holds three of the edges is a path.
    i, j = i[within], j[within]
    _, labels, forest = _edge_forest(i, j)
    held = np.bincount(np.concatenate([i, j]), minlength=g.n)
    if len(i) < 2 or len(forest) < len(i) or labels.any() or held.max() > 2:
        raise ValueError("edge set is not a simple path with two endpoints")
    if (_degrees(g)[held == 2] != 2).any():
        raise ValueError("an interior vertex has degree other than 2 in the host graph")


def _harmonic_bound(weights: Iterable[float]) -> float:
    """The reciprocal of the summed reciprocals of ``weights``."""
    return 1.0 / math.fsum(1.0 / w for w in weights)


def line_weight_bound(g: WeightedGraph, h: EdgeSubset, e: int) -> float:
    """Harmonic upper bound on |weight| of the unique negative edge of a line.

    The bound is the reciprocal of the summed reciprocals of the other
    weights; exceeding it forces a negative interior principal minor.
    """
    _require_induced_line(g, h)
    if e not in h.members:
        raise ValueError(f"edge index {e} is not part of the line")
    members = h.sorted_members()
    weights = g._arrays.w[np.array(members, dtype=np.int64)].tolist()
    negatives = [idx for idx, w in zip(members, weights) if w < 0]
    if negatives != [e]:
        raise ValueError(
            f"line must have exactly the one negative edge {e}; found negatives {negatives}"
        )
    return _harmonic_bound(w for idx, w in zip(members, weights) if idx != e)


def line_obstruction_scan(g: WeightedGraph, rel: float = REL_TOL) -> list[LineBoundReport]:
    """Check every maximal induced line for negative-edge obstructions.

    Two or more negative edges violate unconditionally; a single negative
    edge violates when its magnitude exceeds the harmonic bound of the
    remaining weights. Reports come in lexicographic line order. The lines
    come from ``induced_lines``, so they are not validated again.
    """
    reports = []
    w = g._arrays.w
    for line in induced_lines(g):
        members = line.sorted_members()
        negatives = tuple(idx for idx in members if w[idx] < 0)
        if len(negatives) == 0:
            reports.append(LineBoundReport(line, negatives, None, False))
        elif len(negatives) >= 2:
            reports.append(LineBoundReport(line, negatives, None, True))
        else:
            bound = _harmonic_bound(float(w[idx]) for idx in members if idx != negatives[0])
            magnitude = abs(float(w[negatives[0]]))
            tol = rel * max(1.0, bound, magnitude)
            reports.append(LineBoundReport(line, negatives, bound, magnitude > bound + tol))
    return reports
