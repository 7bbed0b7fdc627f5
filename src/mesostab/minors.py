"""Principal minors of Laplacians, computed directly and as forest sums.

The combinatorial route sums edge-weight products over the family of forests
in which every tree reaches exactly one vertex outside the selected set S,
enumerated as the spanning trees of the graph with the outside vertices
merged into one; the direct route is plain elimination. The two must agree,
which the test suite checks against each other on random graphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graphs import (
    EdgeSubset,
    OrientedIncidence,
    WeightedGraph,
    _edge_forest,
    _vertex_subset,
)
from .numerics import GuardLimitError, det_bareiss, det_partial_pivot, partial_pivot_dets, require_square

# Family members per array-forest check; their disjoint union then spans at most
# CHECK_SLICE * 64 vertices, as the enumeration is guarded at 32 edges.
CHECK_SLICE = 256


@dataclass(frozen=True, init=False)
class ForestFamily:
    """All size-|S| edge subsets whose components each leave S.

    Every member is a forest and each of its trees contains exactly one
    vertex outside ``subset``. A family from ``enumerate_forest_family``
    keeps the search's edge-index tuples and weight products; ``len`` and
    ``weight_sum`` read those, and the ``EdgeSubset`` members are built on
    the first read of ``members`` and cached.
    """

    subset: tuple[int, ...]
    # A field, so eq, hash and repr are those of (subset, members); its class attribute is the cached builder.
    members: tuple[EdgeSubset, ...]

    def __init__(self, subset: tuple[int, ...], members: Iterable[EdgeSubset]):
        members = tuple(members)
        self._store(subset, None, (), tuple(k.weight_product() for k in members))
        object.__setattr__(self, "members", members)

    @classmethod
    def _from_leaves(cls, host: WeightedGraph, subset: tuple[int, ...],
                     paths: tuple[tuple[int, ...], ...], products: tuple[float, ...]) -> ForestFamily:
        """Family of the search's member index tuples (ascending) and their weight products, unchecked."""
        family = object.__new__(cls)
        family._store(subset, host, paths, products)
        return family

    def _store(self, subset, host, paths, products) -> None:
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "_host", host)
        object.__setattr__(self, "_paths", paths)
        object.__setattr__(self, "_products", products)

    @cached_property
    def members(self) -> tuple[EdgeSubset, ...]:
        return tuple(EdgeSubset._trusted(self._host, frozenset(indices)) for indices in self._paths)

    def __len__(self) -> int:
        return len(self._products)

    def weight_sum(self) -> float:
        # Each product multiplies in ascending edge-index order from 1, as EdgeSubset.weight_product does.
        return math.fsum(self._products)


def _subset_stack(s, n: int) -> np.ndarray:
    """``s`` as a 2-D array of 0-based subsets, one per row; each row of
    ``s`` must list distinct 1-based vertices in ascending order."""
    try:
        rows = np.asarray(s)
    except ValueError:
        raise ValueError("stacked subsets must all have the same size (got ragged rows)") from None
    if rows.ndim != 2:
        raise ValueError(f"stacked subsets must form a 2-D array, got {rows.ndim} dimensions")
    if rows.dtype.kind not in "iu":
        raise ValueError(f"stacked subsets must hold integer vertex labels, got dtype {rows.dtype}")
    if rows.shape[1] == 0:
        raise ValueError("vertex subset must be non-empty")
    outside = (rows < 1) | (rows > n)
    if outside.any():
        r, c = np.argwhere(outside)[0]
        raise ValueError(f"vertex {rows[r, c]} outside 1..{n} (subset row {r})")
    steps = np.diff(rows, axis=1)
    if (steps <= 0).any():
        r, c = np.argwhere(steps <= 0)[0]
        cause = f"repeats vertex {rows[r, c]}" if steps[r, c] == 0 else "is not in ascending order"
        raise ValueError(f"subset row {r} {rows[r].tolist()} {cause}")
    return rows - 1


def principal_minor_direct(L: np.ndarray, s: Iterable[int]) -> float | np.ndarray:
    """det of the principal submatrix selecting rows and columns ``s`` (1-based).

    Given a 2-D integer array whose rows are equal-size subsets, each
    ascending and 1-based, returns an array with one determinant per row,
    all from one stacked elimination.
    """
    L = require_square(L)
    if isinstance(s, np.ndarray) and s.ndim != 1 or isinstance(s, (list, tuple)) and any(map(np.ndim, s)):
        idx = _subset_stack(s, L.shape[0])
        return partial_pivot_dets(L[idx[:, :, None], idx[:, None, :]])
    subset = _vertex_subset(s, L.shape[0], allow_empty=False)
    idx = [v - 1 for v in subset]
    return det_partial_pivot(L[np.ix_(idx, idx)])


def _forest_leaves(n: int, candidates: Sequence[tuple[int, int, int, float]],
                   special: Iterable[int], size: int) -> list[tuple[tuple[int, ...], float]]:
    """Backtracking enumeration of the spanning trees of a merged graph.

    Picks ``size`` edges from ``candidates`` (each (index, i, j, w), ordered
    by index) that form a forest once the vertices ``special`` lists are
    merged into one. Returns (member indices, weight product) pairs in
    lexicographic member order. Both callers ask for as many edges as span
    the merged graph on the vertices the candidates can join (all of them
    for a forest family, side v1 for the cut decomposition), so every tree
    of a member holds exactly one special vertex.
    """
    special = set(special)
    root = min(special, default=0)
    parent = [root if v in special else v for v in range(n + 1)]
    # an edge between two special vertices is a loop of the merged graph
    candidates = [c for c in candidates if c[1] not in special or c[2] not in special]
    # Columns as local lists, and both roots walked inline: the search runs
    # these lines once per candidate at every node, so a call per find shows.
    index = [c[0] for c in candidates]
    first = [c[1] for c in candidates]
    second = [c[2] for c in candidates]
    weight = [c[3] for c in candidates]

    m = len(candidates)
    leaves: list[tuple[tuple[int, ...], float]] = []
    path: list[int] = []

    def descend(pos: int, chosen: int, prod: float) -> None:
        if chosen == size:
            leaves.append((tuple(path), prod))
            return
        for t in range(pos, m - (size - chosen) + 1):
            ri = first[t]
            while parent[ri] != ri:
                ri = parent[ri]
            rj = second[t]
            while parent[rj] != rj:
                rj = parent[rj]
            if ri == rj:
                continue  # would close a cycle of the merged graph
            parent[rj] = ri
            path.append(index[t])
            descend(t + 1, chosen + 1, prod * weight[t])
            path.pop()
            parent[rj] = rj

    descend(0, 0, 1.0)
    # descend's closure holds descend itself; without this the cycle keeps
    # the search's lists alive until the cyclic collector reaches them
    del descend
    return leaves


def _family_leaves(g: WeightedGraph, subset: Sequence[int]) -> list[tuple[tuple[int, ...], float]]:
    return _forest_leaves(g.n, list(g.simple_edges()), set(g.vertices).difference(subset), len(subset))


def _require_edge_guard(g: WeightedGraph) -> None:
    m = len(g._arrays.i)
    if m > 32:
        raise GuardLimitError(f"forest enumeration is guarded at 32 edges, got {m}")


def _check_members(g: WeightedGraph, subset: tuple[int, ...], members: Sequence[tuple[int, ...]]) -> None:
    """Raise on the first member (a tuple of edge indices) that is not a
    forest whose trees each hold exactly one vertex outside ``subset``.

    Independent of the enumerator: one ``_edge_forest`` call runs over the
    members' disjoint union, in which member f's vertex v is f·n + v.
    """
    n, count = g.n, len(members)
    gi, gj, _ = g._arrays
    sizes = [len(k) for k in members]
    edges = np.fromiter(itertools.chain.from_iterable(members), dtype=np.int64, count=sum(sizes))
    owner = np.repeat(np.arange(count), sizes)
    verts, labels, forest = _edge_forest(owner * n + gi[edges], owner * n + gj[edges])
    cyclic = np.bincount(owner[forest], minlength=count) < sizes
    outside = np.ones(n, dtype=bool)
    outside[np.array(subset) - 1] = False
    leaving = np.bincount(labels[outside[verts % n]], minlength=len(verts))
    # Ascending, so a member's first bad position is the smallest vertex, hence the label, of its first bad tree.
    bad = np.flatnonzero(leaving[labels] != 1)
    f = min(np.flatnonzero(cyclic).min(initial=count), (verts[bad] // n).min(initial=count))
    if f == count:
        return
    if cyclic[f]:
        raise AssertionError(f"enumeration produced a non-forest {members[f]}")
    first = bad[np.searchsorted(verts[bad], f * n)]
    comp = verts[labels == labels[first]] % n + 1
    raise AssertionError(f"component {comp.tolist()} does not leave {subset} exactly once")


def enumerate_forest_family(g: WeightedGraph, s: Iterable[int]) -> ForestFamily:
    """Exact enumeration of the forest family attached to vertex set ``s``.

    Members are returned in lexicographic edge-index order. Each member is
    re-validated, ``CHECK_SLICE`` members at a time: it must be a forest and
    each of its trees must contain exactly one vertex outside ``s``. The
    family keeps the members' edge indices and weight products; their
    ``EdgeSubset`` objects are built only when ``members`` is read.
    """
    subset = _vertex_subset(s, g.n, allow_empty=False)
    _require_edge_guard(g)
    leaves = _family_leaves(g, subset)
    paths = tuple(indices for indices, _ in leaves)
    products = tuple(prod for _, prod in leaves)
    del leaves  # the pairs go before the check, so they never add to its peak
    for start in range(0, len(paths), CHECK_SLICE):
        _check_members(g, subset, paths[start:start + CHECK_SLICE])
    return ForestFamily._from_leaves(g, subset, paths, products)


def principal_minor_combinatorial(g: WeightedGraph, s: Iterable[int]) -> float:
    """Forest-sum evaluation of the Laplacian principal minor for ``s``.

    An empty family gives 0, which covers both sparse graphs (fewer edges
    than |s|) and s equal to the full vertex set.
    """
    subset = _vertex_subset(s, g.n, allow_empty=False)
    _require_edge_guard(g)
    return math.fsum(prod for _, prod in _family_leaves(g, subset))


def incidence_minor_magnitude(inc: OrientedIncidence, s: Iterable[int], k: EdgeSubset) -> int:
    """|det| of the incidence submatrix for rows ``s`` and the columns of ``k``.

    Computed by exact integer elimination; the result is always 0 or 1, and
    it is 1 precisely when ``k`` belongs to the forest family of ``s``.
    """
    subset = _vertex_subset(s, inc.n, allow_empty=False)
    cols = [inc.column_of(idx) for idx in k.sorted_members()]
    if len(subset) != len(cols):
        raise ValueError(f"|s|={len(subset)} and |k|={len(cols)} must match")
    rows = [v - 1 for v in subset]
    sub = inc.matrix[np.ix_(rows, cols)]
    value = abs(det_bareiss(sub.tolist()))
    if value not in (0, 1):
        raise AssertionError(f"incidence minor magnitude {value} outside {{0,1}}")
    return value


def cauchy_binet_expand(d: np.ndarray, e: np.ndarray, i: Iterable[int], j: Iterable[int]) -> float:
    """Minor of a product d@e as the sum over column/row selections.

    ``i`` selects rows of ``d`` and ``j`` columns of ``e`` (1-based). Used as
    an independent oracle for the forest-sum route, not in any hot path.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.ndim != 2 or e.ndim != 2 or d.shape[1] != e.shape[0]:
        raise ValueError(f"inner dimensions do not match: {d.shape} x {e.shape}")
    m = d.shape[1]
    rows = _vertex_subset(i, d.shape[0], allow_empty=False)
    cols = _vertex_subset(j, e.shape[1], allow_empty=False)
    if len(rows) != len(cols):
        raise ValueError("row and column selections must have equal size")
    if len(rows) > m:
        raise ValueError(f"selection size {len(rows)} exceeds inner dimension {m}")
    ridx = [v - 1 for v in rows]
    cidx = [v - 1 for v in cols]
    terms = []
    for chosen in itertools.combinations(range(m), len(rows)):
        left = det_partial_pivot(d[np.ix_(ridx, chosen)])
        right = det_partial_pivot(e[np.ix_(chosen, cidx)])
        terms.append(left * right)
    return math.fsum(terms)
