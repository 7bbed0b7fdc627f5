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
from typing import Iterable

import numpy as np

from .graphs import (
    EdgeSubset,
    OrientedIncidence,
    WeightedGraph,
    _simple_columns,
    _vertex_mask,
    _vertex_subset,
)
from .numerics import GuardLimitError, det_bareiss, det_partial_pivot, partial_pivot_dets, require_square

# Family members per stacked incidence-minor check; a slice then holds at most
# CHECK_SLICE * 32**2 floats, as the enumeration is guarded at 32 edges.
CHECK_SLICE = 256


@dataclass(frozen=True, init=False)
class ForestFamily:
    """All size-|S| edge subsets whose components each leave S.

    Every member is a forest and each of its trees contains exactly one
    vertex outside ``subset``. A family from ``enumerate_forest_family``
    keeps the search's members as the rows of a read-only int64 array of
    shape (len, |S|), ascending edge indices each, and their weight
    products; ``len`` and ``weight_sum`` read those, and the ``EdgeSubset``
    members are built from the rows on the first read of ``members`` and
    cached.
    """

    subset: tuple[int, ...]
    # A field, so eq, hash and repr are those of (subset, members); its class attribute is the cached builder.
    members: tuple[EdgeSubset, ...]

    def __init__(self, subset: tuple[int, ...], members: Iterable[EdgeSubset]):
        members = tuple(members)
        self._store(subset, None, None, [k.weight_product() for k in members])
        object.__setattr__(self, "members", members)

    @classmethod
    def _from_rows(cls, host: WeightedGraph, subset: tuple[int, ...],
                   rows: np.ndarray, products: list[float]) -> ForestFamily:
        """Family of the search's member rows and their weight products, unchecked."""
        rows.flags.writeable = False
        family = object.__new__(cls)
        family._store(subset, host, rows, products)
        return family

    def _store(self, subset, host, rows, products) -> None:
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "_host", host)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_products", products)

    @cached_property
    def members(self) -> tuple[EdgeSubset, ...]:
        return tuple(EdgeSubset._trusted(self._host, frozenset(row)) for row in self._rows.tolist())

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


def _forest_family(n: int, idx: np.ndarray, i: np.ndarray, j: np.ndarray, w: np.ndarray,
                   outside: np.ndarray, size: int) -> tuple[np.ndarray, list[float]]:
    """Backtracking enumeration of the spanning trees of a merged graph.

    Picks ``size`` of the edges given as columns (ascending edge indices,
    0-based endpoints, weights) that form a forest once the vertices the
    mask ``outside`` marks are merged into one. Returns the members as the
    rows of an int64 array of shape (members, size), in lexicographic
    order, and their weight products, each multiplied in edge order from
    1.0. Every caller asks for as many edges as span the merged graph on
    the vertices the edges can join (all of them for a forest family, side
    v1 for the cut decomposition), so every tree of a member holds exactly
    one marked vertex.
    """
    # an edge between two marked vertices is a loop of the merged graph
    keep = ~(outside[i] & outside[j])
    # Columns as local lists, and both roots walked inline: the search runs
    # these lines once per edge at every node, so a call per find shows.
    index, first, second, weight = idx[keep].tolist(), i[keep].tolist(), j[keep].tolist(), w[keep].tolist()
    # the first marked vertex stands for all of them; with none marked, no vertex points at it
    parent = np.where(outside, np.argmax(outside), np.arange(n)).tolist()

    m = len(index)
    members: list[int] = []
    products: list[float] = []
    path: list[int] = []

    def descend(pos: int, chosen: int, prod: float) -> None:
        if chosen == size:
            members.extend(path)
            products.append(prod)
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
    return np.fromiter(members, dtype=np.int64, count=len(members)).reshape(len(products), size), products


def _family_search(g: WeightedGraph, s: Iterable[int]) -> tuple[tuple[int, ...], np.ndarray, list[float]]:
    """``s`` validated, and the search's member rows and weight products for
    its forest family; the enumeration is guarded at 32 edges."""
    subset = _vertex_subset(s, g.n, allow_empty=False)
    m = len(g._arrays.i)
    if m > 32:
        raise GuardLimitError(f"forest enumeration is guarded at 32 edges, got {m}")
    return subset, *_forest_family(g.n, *_simple_columns(g), ~_vertex_mask(g.n, subset), len(subset))


def _check_members(g: WeightedGraph, subset: tuple[int, ...], rows: np.ndarray) -> None:
    """Raise on the first member (a row of edge indices) whose incidence
    minor on the rows ``subset`` is not exactly ±1.

    Independent of the enumerator, by the all-minors matrix-tree theorem:
    an |S|-edge set is in the forest family of S exactly when that minor is
    ±1, and it is 0 otherwise. The signed incidence matrix is totally
    unimodular, so partial-pivot LU never leaves {0, ±1} and one stacked
    ``np.linalg.det`` is exact.
    """
    i, j, _ = g._arrays
    s0 = np.array(subset) - 1
    # Row e holds edge e's incidence on S, so a member's rows are its minor's transpose; a loop's row is zero.
    incidence = (i[:, None] == s0).astype(float) - (j[:, None] == s0)
    dets = np.linalg.det(incidence[rows])
    bad = np.flatnonzero(np.abs(dets) != 1.0)
    if bad.size:
        f = bad[0]
        raise AssertionError(f"member {tuple(rows[f].tolist())} is not in the forest family of {subset}: "
                             f"incidence minor {dets[f]}")


def enumerate_forest_family(g: WeightedGraph, s: Iterable[int]) -> ForestFamily:
    """Exact enumeration of the forest family attached to vertex set ``s``.

    Members are returned in lexicographic edge-index order. Each member is
    re-validated, ``CHECK_SLICE`` members at a time, by its incidence minor,
    which is ±1 exactly for a forest whose trees each contain exactly one
    vertex outside ``s``. The family keeps the members' edge indices, one
    row each, and their weight products; their ``EdgeSubset`` objects are
    built only when ``members`` is read.
    """
    subset, rows, products = _family_search(g, s)
    for start in range(0, len(rows), CHECK_SLICE):
        _check_members(g, subset, rows[start:start + CHECK_SLICE])
    return ForestFamily._from_rows(g, subset, rows, products)


def principal_minor_combinatorial(g: WeightedGraph, s: Iterable[int]) -> float:
    """Forest-sum evaluation of the Laplacian principal minor for ``s``.

    An empty family gives 0, which covers both sparse graphs (fewer edges
    than |s|) and s equal to the full vertex set.
    """
    return math.fsum(_family_search(g, s)[2])


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
