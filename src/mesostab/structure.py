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
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .graphs import (
    EdgeSubset,
    WeightedGraph,
    _index_forest,
    _simple_columns,
    _vertex_subset,
    cut_edges,
    induced_lines,
    laplacian,
)
from .minors import _family_leaves, _forest_leaves, principal_minor_direct
from .numerics import REL_TOL, GuardLimitError
from .sylvester import _extend_combinations

CUT_GUARD = 20

# Largest vertex count whose 2^n - 2 proper sides ``cut_identity_sweep`` visits.
_SIDE_SWEEP_GUARD = 12


def _positive_forest(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the positive-edge subgraph of ``g`` and its spanning forest.

    Returns each vertex's class label (the smallest vertex of its class,
    0-based) and the forest's edge indices, ascending: the forest a
    union-find keeps when it takes the positive edges in index order.
    """
    idx, i, j, w = _simple_columns(g)
    positive = w > 0
    labels, forest = _index_forest(g.n, i[positive], j[positive])
    return labels, idx[positive][forest]


def _positive_spanning_forest(g: WeightedGraph, components: Optional[list[frozenset[int]]] = None
                              ) -> Optional[EdgeSubset]:
    """Spanning forest of positive edges covering each required component.

    ``components`` defaults to the components of ``g`` itself; passing a
    coarser partition demands that positive edges alone span each part.
    """
    labels, forest = _positive_forest(g)
    if components is None:
        # g's components are spanned iff no edge joins two positive classes
        _, i, j, _ = _simple_columns(g)
        spanned = bool(np.all(labels[i] == labels[j]))
    else:
        label = labels.tolist()
        spanned = all(len({label[v - 1] for v in _vertex_subset(comp, g.n)}) <= 1 for comp in components)
    return EdgeSubset._trusted(g, frozenset(forest.tolist())) if spanned else None


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
    labels, _ = _positive_forest(g)
    _, i, j, _ = _simple_columns(g)
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
    v1 = tuple((np.flatnonzero(labels == c) + 1).tolist())
    crossing = cut_edges(g, v1).edge_tuples()
    if not crossing or any(w >= 0 for _, _, w in crossing):
        raise AssertionError(f"negative-cut search produced an invalid witness {v1}")
    return v1


def _crossing_pools(g: WeightedGraph, v1: frozenset[int]) -> dict[int, list[int]]:
    """Each side-1 vertex's crossing edges, by ascending index; loops ignored."""
    pools: dict[int, list[int]] = {v: [] for v in v1}
    for idx, i, j, _ in g.simple_edges():
        if (i in v1) != (j in v1):
            pools[i if i in v1 else j].append(idx)
    return pools


def _tee_family(g: WeightedGraph, v1: tuple[int, ...], b: tuple[int, ...]) -> list[frozenset[int]]:
    """Forests inside side 1 that partition it into one tree per ``b`` vertex.

    Isolated vertices count as singleton trees, so the forests have exactly
    |v1| - |b| edges, hence |b| trees, and every tree contains exactly one
    vertex of ``b``.
    """
    v1set = set(v1)
    candidates = [(idx, i, j, w) for idx, i, j, w in g.simple_edges() if i in v1set and j in v1set]
    leaves = _forest_leaves(g.n, candidates, b, len(v1) - len(b))
    return [frozenset(indices) for indices, _ in leaves]


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
    pools = _crossing_pools(g, frozenset(side))

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
            inside = _tee_family(g, side, marker)
            if not inside:
                continue
            sigma[b] = tuple(EdgeSubset(g, d) for d in crossing)
            tee[marker] = tuple(EdgeSubset(g, d) for d in inside)
            for a in crossing:
                for a2 in inside:
                    union.add(a | a2)

    if rest:
        expected = {frozenset(indices) for indices, _ in _family_leaves(g, rest)}
    else:
        expected = {frozenset()}
    if union != expected:
        raise AssertionError("cut decomposition does not reproduce the forest family")
    ordered = tuple(EdgeSubset(g, m) for m in sorted(union, key=sorted))
    return CutFamily(side, removed, sigma, tee, ordered)


def _crossing_sums(g: WeightedGraph, side: tuple[int, ...]) -> list[float]:
    """s_v for each vertex of ``side``, in its order: the summed weight of v's crossing edges."""
    pools = _crossing_pools(g, frozenset(side))
    return [math.fsum(g.edges[e][2] for e in pools[v]) for v in side]


def _marker_sets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks of the subsets of range(k) in subset order, and (-1.0)^size of each."""
    masks, signs = [np.zeros(1, dtype=np.int64)], [np.ones(1)]
    combos = np.empty((1, 0), dtype=np.intp)
    for r in range(1, k + 1):
        combos = _extend_combinations(combos, k)
        masks.append((1 << combos).sum(axis=1))
        signs.append(np.full(len(combos), (-1.0) ** r))
    return np.concatenate(masks), np.concatenate(signs)


def _side_terms(s: np.ndarray, minors: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list[list[float]]:
    """Cut identity terms of equal-size sides, one row of ``s`` per side.

    A row holds the side's s_v in ascending vertex order. Its marker weights
    form a table by position bitmask in which a set's weight is that of the
    set without its highest position times that position's s_v, so every
    product runs from 1.0 in ascending vertex order, as ``math.prod`` does.
    ``minors(masks, kept)`` gets the marker bitmasks in subset order and the
    (side, marker) array of nonzero weights, and returns the minors of the
    kept pairs in row-major order.
    """
    masks, signs = _marker_sets(s.shape[1])
    # a product may overflow, and inf times a zero minor is nan, silently as with floats
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.ones((len(s), 1))
        for t in range(s.shape[1]):
            weights = np.hstack([weights, weights * s[:, t:t + 1]])
        weights = weights[:, masks]
        kept = weights != 0.0
        values = ((signs * weights)[kept] * minors(masks, kept)).tolist()
    ends = np.cumsum(kept.sum(axis=1)).tolist()
    return [values[start:end] for start, end in zip([0] + ends, ends)]


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
    L = laplacian(g)

    def minors(masks: np.ndarray, kept: np.ndarray) -> np.ndarray:
        rests = ([v for t, v in enumerate(side) if not m >> t & 1] for m in masks[kept[0]].tolist())
        return np.array([principal_minor_direct(L, rest) if rest else 1.0 for rest in rests])

    return _side_terms(np.array([_crossing_sums(g, side)]), minors)[0]


def cut_identity_sweep(g: WeightedGraph) -> Iterator[tuple[tuple[int, ...], list[float]]]:
    """``(side, cut_identity_terms(g, side))`` for every proper non-empty side.

    Sides come in subset order (sizes ascending, lexicographic within a
    size) and the terms are those of ``cut_identity_terms``, bit for bit.
    Every proper subset is the side minus some marker set, so the 2^n - 2
    minors are filled once, into a table indexed by vertex bitmask, before
    the first side; the sides of one size then take their terms together.
    Raises ``GuardLimitError`` on the call itself when n exceeds 12.
    """
    if g.n > _SIDE_SWEEP_GUARD:
        raise GuardLimitError(f"sweeping all proper subsets is guarded at n={_SIDE_SWEEP_GUARD}, got n={g.n}")
    L = laplacian(g)
    table = np.ones(1 << g.n)
    by_size = []
    combos = np.empty((1, 0), dtype=np.intp)
    for _ in range(1, g.n):
        combos = _extend_combinations(combos, g.n)
        table[(1 << combos).sum(axis=1)] = [principal_minor_direct(L, (row + 1).tolist()) for row in combos]
        by_size.append(combos)
    return _swept_sides(g, table, by_size)


def _swept_sides(g: WeightedGraph, table: np.ndarray, by_size: list[np.ndarray]
                 ) -> Iterator[tuple[tuple[int, ...], list[float]]]:
    """The sweep's sides, given as rows of 0-based vertices, and their terms, with minors from ``table``."""
    for combos in by_size:
        sides = [tuple(row) for row in (combos + 1).tolist()]
        bits = 1 << combos

        def minors(masks: np.ndarray, kept: np.ndarray) -> np.ndarray:
            outside = 1 - ((masks[:, None] >> np.arange(bits.shape[1])) & 1)
            return table[(bits[:, None, :] * outside).sum(axis=2)[kept]]

        terms = _side_terms(np.array([_crossing_sums(g, side) for side in sides]), minors)
        yield from zip(sides, terms)


def verify_cut_identity(g: WeightedGraph, v1: Iterable[int]) -> float:
    """Residual of the alternating cut identity; zero up to roundoff."""
    return math.fsum(cut_identity_terms(g, v1))


@dataclass(frozen=True)
class LineBoundReport:
    """Verdict for one induced line: negative-edge census and weight bound."""

    line: EdgeSubset
    negative_edges: tuple[int, ...]
    bound: Optional[float]
    violated: bool


def _require_induced_line(g: WeightedGraph, h: EdgeSubset) -> None:
    deg = g.degree_map()
    vert_set = h.touched_vertices()
    verts = sorted(vert_set)
    within = {}
    for idx, i, j, _ in g.simple_edges():
        if i in vert_set and j in vert_set:
            within[idx] = (i, j)
    if set(within) != set(h.members):
        raise ValueError("edge set is not induced: its vertices carry extra edges")
    neighbours = {v: [] for v in verts}
    for i, j in within.values():
        neighbours[i].append(j)
        neighbours[j].append(i)
    ends = [v for v in verts if len(neighbours[v]) == 1]
    simple = len(h.members) >= 2 and len(ends) == 2 \
        and all(len(neighbours[v]) == 2 for v in verts if v not in ends)
    if simple:
        # degrees alone pass a path beside disjoint cycles; a walk from one end covers only the path
        prev, cur, walked = None, ends[0], 1
        while cur != ends[1]:
            prev, cur = cur, next(u for u in neighbours[cur] if u != prev)
            walked += 1
        simple = walked == len(verts)
    if not simple:
        raise ValueError("edge set is not a simple path with two endpoints")
    if any(deg[v] != 2 for v in verts if v not in ends):
        raise ValueError("an interior vertex has degree other than 2 in the host graph")


def line_weight_bound(g: WeightedGraph, h: EdgeSubset, e: int) -> float:
    """Harmonic upper bound on |weight| of the unique negative edge of a line.

    The bound is the reciprocal of the summed reciprocals of the other
    weights; exceeding it forces a negative interior principal minor.
    """
    _require_induced_line(g, h)
    if e not in h.members:
        raise ValueError(f"edge index {e} is not part of the line")
    negatives = [idx for idx in h.sorted_members() if g.edges[idx][2] < 0]
    if negatives != [e]:
        raise ValueError(
            f"line must have exactly the one negative edge {e}; found negatives {negatives}"
        )
    return 1.0 / math.fsum(1.0 / g.edges[idx][2] for idx in h.sorted_members() if idx != e)


def line_obstruction_scan(g: WeightedGraph, rel: float = REL_TOL) -> list[LineBoundReport]:
    """Check every maximal induced line for negative-edge obstructions.

    Two or more negative edges violate unconditionally; a single negative
    edge violates when its magnitude exceeds the harmonic bound of the
    remaining weights. Reports come in lexicographic line order.
    """
    reports = []
    for line in induced_lines(g):
        negatives = tuple(idx for idx in line.sorted_members() if g.edges[idx][2] < 0)
        if len(negatives) == 0:
            reports.append(LineBoundReport(line, negatives, None, False))
        elif len(negatives) >= 2:
            reports.append(LineBoundReport(line, negatives, None, True))
        else:
            bound = line_weight_bound(g, line, negatives[0])
            magnitude = abs(g.edges[negatives[0]][2])
            tol = rel * max(1.0, bound, magnitude)
            reports.append(LineBoundReport(line, negatives, bound, magnitude > bound + tol))
    return reports
