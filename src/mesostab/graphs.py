"""Weighted undirected graphs, their matrices, and structural queries.

Vertices are labeled 1..n. Edge weights are nonzero reals; loops are legal
in a ``WeightedGraph`` (they carry matrix diagonals) but are ignored by the
Laplacian, the incidence factorization, and all structural scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .numerics import REL_TOL, _worst_row_sum, require_symmetric


class _EdgeArrays(NamedTuple):
    """Edge columns in edge-index order: 0-based endpoints with i <= j, and weights."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray


def _to_float(v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        return math.nan  # reported as an invalid weight, where float(v) runs again to raise the real error


def _edge_error(position: int, message: str) -> ValueError:
    """ValueError for the caller-given edge at 0-based ``position`` in list order, kept as its
    ``position`` attribute so that a reader of a file can name the edge's line."""
    exc = ValueError(message)
    exc.position = position
    return exc


def _checked_columns(n: int, edges: Iterable[tuple[int, int, float]]) -> tuple[list[int], list[int], list[float]]:
    """0-based endpoints i <= j and weights of caller-given edges. After every edge is
    unpacked and every weight converted, the first bad edge in list order is reported
    by ``_edge_error`` at its position, with the first check it fails: labels, range,
    weight, repeat of an earlier pair."""
    raw = [(i, j, w) for i, j, w in edges]
    weights = [_to_float(w) for _, _, w in raw]
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    lo, hi, seen = [], [], set()
    for (ri, rj, rw), w in zip(raw, weights):
        # every earlier edge passed and appended to lo, so len(lo) is this edge's position
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in (ri, rj)):
            raise _edge_error(len(lo), f"edge ({ri},{rj}) has a non-integer vertex label")
        i, j = sorted((int(ri), int(rj)))
        if i < 1 or j > n:
            raise _edge_error(len(lo), f"edge ({ri},{rj}) uses a vertex outside 1..{n}")
        if not math.isfinite(w) or w == 0.0:
            raise _edge_error(len(lo), f"edge ({ri},{rj}) has invalid weight {float(rw)}")
        if (i, j) in seen:
            raise _edge_error(len(lo), f"duplicate edge {{{i},{j}}}")
        seen.add((i, j))
        lo.append(i - 1)
        hi.append(j - 1)
    return lo, hi, weights


@dataclass(frozen=True, init=False)
class WeightedGraph:
    """Undirected graph with vertices 1..n and nonzero real edge weights.

    Edges are (i, j, w) with i <= j; the order of the edge list is
    preserved and edge indices (0-based positions in ``edges``) identify
    edges throughout the package. Vertex labels must be integers (bool is
    not). The edges are stored once, as read-only arrays (``_arrays``),
    and every reader in the package takes those; ``edges`` is a public
    view, built from them on first read and cached.
    """

    n: int
    # A field, so eq, hash and repr are those of (n, edges); its class attribute is the cached builder.
    edges: tuple[tuple[int, int, float], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        self._store(n, *_checked_columns(n, edges))

    @classmethod
    def _from_columns(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> WeightedGraph:
        """Graph on 0-based endpoint arrays ``i`` <= ``j``, unchecked: distinct in-range pairs with finite
        nonzero weights, as ``np.nonzero`` on the upper triangle of a finite matrix yields them."""
        g = object.__new__(cls)
        g._store(n, i, j, w)
        return g

    def _store(self, n: int, i, j, w) -> None:
        """The one place a graph takes its vertex count and edge arrays."""
        arrays = _EdgeArrays(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64), np.asarray(w, dtype=float))
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_arrays", arrays)

    def __reduce__(self):
        # Rebuilt through _store, so an unpickled or deep-copied graph keeps read-only arrays.
        return WeightedGraph._from_columns, (self.n, *self._arrays)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return _edge_tuples(self, slice(None))

    @cached_property
    def _positive_forest(self) -> tuple[np.ndarray, np.ndarray]:
        """Classes of the positive-edge subgraph and its spanning forest, built on first read.

        Each vertex's class label (the smallest vertex of its class, 0-based)
        and the forest's edge indices, ascending: the forest a union-find
        keeps when it takes the positive edges in index order. Cached, so the
        spanning forest and the negative cut of one graph share one build.
        """
        idx, i, j, w = _simple_columns(self)
        positive = w > 0
        labels, forest = _index_forest(self.n, i[positive], j[positive])
        forest = idx[positive][forest]
        labels.flags.writeable = False
        forest.flags.writeable = False
        return labels, forest

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def simple_edges(self):
        """(index, i, j, w) for every non-loop edge."""
        idx, i, j, w = _simple_columns(self)
        return zip(idx.tolist(), (i + 1).tolist(), (j + 1).tolist(), w.tolist())

    def loops(self):
        i, j, w = self._arrays
        idx = np.flatnonzero(i == j)
        return zip(idx.tolist(), (i[idx] + 1).tolist(), w[idx].tolist())

    def adjacency(self) -> np.ndarray:
        """Weighted adjacency matrix; loop weights land on the diagonal."""
        i, j, w = self._arrays
        a = np.zeros((self.n, self.n))
        a[i, j] = w
        a[j, i] = w
        return a

    def degree_map(self) -> dict[int, int]:
        """Number of incident non-loop edges per vertex."""
        return dict(zip(self.vertices, _degrees(self).tolist()))


def _edge_tuples(g: WeightedGraph, indices) -> tuple[tuple[int, int, float], ...]:
    """``g.edges[k]`` for each edge index k of ``indices`` (a sequence or a slice),
    read from the arrays, so a few edges of a dense graph cost no full tuple."""
    i, j, w = g._arrays
    k = indices if isinstance(indices, slice) else np.asarray(indices, dtype=np.int64)
    return tuple(zip((i[k] + 1).tolist(), (j[k] + 1).tolist(), w[k].tolist()))


def _simple_columns(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge indices, 0-based endpoints and weights of the non-loop edges."""
    i, j, w = g._arrays
    idx = np.flatnonzero(i != j)
    return idx, i[idx], j[idx], w[idx]


def _degrees(g: WeightedGraph) -> np.ndarray:
    _, i, j, _ = _simple_columns(g)
    return np.bincount(np.concatenate([i, j]), minlength=g.n)


@dataclass(frozen=True)
class EdgeSubset:
    """A set of edge indices of a host graph."""

    host: WeightedGraph
    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(int(m) for m in self.members)
        for m in members:
            if not (0 <= m < len(self.host._arrays.i)):
                raise ValueError(f"edge index {m} outside the host edge list")
        object.__setattr__(self, "members", members)

    @classmethod
    def _trusted(cls, host: WeightedGraph, members: frozenset[int]) -> EdgeSubset:
        """Subset of Python int indices the package built itself, taken without the checks."""
        k = object.__new__(cls)
        object.__setattr__(k, "host", host)
        object.__setattr__(k, "members", members)
        return k

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def edge_tuples(self) -> tuple[tuple[int, int, float], ...]:
        return _edge_tuples(self.host, self.sorted_members())

    def touched_vertices(self) -> frozenset[int]:
        i, j, _ = self.host._arrays
        idx = np.array(self.sorted_members(), dtype=np.int64)
        return frozenset((np.concatenate([i[idx], j[idx]]) + 1).tolist())

    def weight_product(self) -> float:
        """Product of the member weights, multiplied in ascending edge-index order."""
        return math.prod(self.host._arrays.w[np.array(self.sorted_members(), dtype=np.int64)].tolist())


@dataclass(frozen=True)
class OrientedIncidence:
    """Oriented incidence matrix with its weight diagonal.

    Columns follow the host's edge-index order with loops skipped; the edge
    {i,j} with i<j points from i (+1) to j (-1).
    """

    n: int
    matrix: np.ndarray
    weights: np.ndarray
    edge_indices: tuple[int, ...]

    def weight_diagonal(self) -> np.ndarray:
        return np.diag(self.weights)

    def laplacian_product(self) -> np.ndarray:
        return self.matrix @ np.diag(self.weights) @ self.matrix.T

    def column_of(self, edge_index: int) -> int:
        try:
            return self.edge_indices.index(edge_index)
        except ValueError:
            raise ValueError(f"edge index {edge_index} has no incidence column (loop or out of range?)") from None


def coates_graph(a: np.ndarray, zero_tol: float = 0.0) -> WeightedGraph:
    """Graph whose edges mark the nonzero entries of a symmetric matrix.

    ``zero_tol`` is the absolute cutoff below which an entry counts as zero.
    The default compares exactly; it is what ``analyze_matrix`` uses for
    every matrix, Jacobians included, since the analysis reads every entry
    of the matrix and a cutoff would make the graph disagree with it: a
    dropped entry is one that the certificate still reads. A negative or
    NaN cutoff is a ValueError.
    """
    if not zero_tol >= 0.0:
        raise ValueError(f"zero_tol must be non-negative, got {zero_tol}")
    a = require_symmetric(a)
    i, j = np.nonzero(np.triu(np.abs(a) > zero_tol))
    return WeightedGraph._from_columns(a.shape[0], i, j, a[i, j])


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Laplacian D - A of the loop-free part of ``g``; row sums are zero.

    Raises ValueError when a weighted degree overflows.
    """
    a = g.adjacency()
    np.fill_diagonal(a, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        degrees = a.sum(axis=1)
    overflowed = np.flatnonzero(~np.isfinite(degrees))
    if overflowed.size:
        raise ValueError(f"weighted degree of vertex {overflowed[0] + 1} overflows")
    return np.diag(degrees) - a


def negated_adjacency_check(a: np.ndarray, rel: float = REL_TOL) -> bool:
    """True iff ``a`` has zero row sums, so the Laplacian of its graph is -a."""
    return _worst_row_sum(require_symmetric(a), rel) == 0


def incidence_factorization(g: WeightedGraph) -> OrientedIncidence:
    """Oriented incidence matrix M and weights w with M diag(w) M^T = laplacian(g)."""
    idx, i, j, w = _simple_columns(g)
    m = np.zeros((g.n, len(idx)), dtype=int)
    cols = np.arange(len(idx))
    m[i, cols] = 1
    m[j, cols] = -1
    return OrientedIncidence(g.n, m, w, tuple(idx.tolist()))


def _subset_forest(k: EdgeSubset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_edge_forest`` of the subset's edges."""
    i, j, _ = k.host._arrays
    idx = np.array(k.sorted_members(), dtype=np.int64)
    return _edge_forest(i[idx], j[idx])


def connected_components(k: EdgeSubset) -> list[frozenset[int]]:
    """Components of the edge-induced subgraph; untouched vertices are omitted.

    Deterministic order: by smallest vertex label.
    """
    verts, labels, _ = _subset_forest(k)
    return _classes(labels, verts)


def is_forest(k: EdgeSubset) -> bool:
    """True iff the edge-induced subgraph is acyclic (loops are cycles)."""
    return len(_subset_forest(k)[2]) == len(k)


def cut_edges(g: WeightedGraph, v1: Iterable[int]) -> EdgeSubset:
    """All edges with exactly one endpoint in ``v1``."""
    side = _vertex_subset(v1, g.n)
    if not side or len(side) == g.n:
        raise ValueError("cut requires a partition with two non-empty sides")
    inside = _vertex_mask(g.n, side)
    idx, i, j, _ = _simple_columns(g)
    return EdgeSubset._trusted(g, frozenset(idx[inside[i] != inside[j]].tolist()))


def induced_lines(g: WeightedGraph) -> list[EdgeSubset]:
    """Maximal induced lines with at least two edges.

    A line is a simple path whose interior vertices have degree exactly 2 in
    ``g`` (loops ignored) and whose vertex set induces no further edges. A
    line is maximal when neither endpoint can absorb another degree-2 step.
    Pure cycles contain no lines.
    """
    deg = _degrees(g)
    if not (deg == 2).any():
        return []
    idx, i, j, _ = _simple_columns(g)
    # Half-edges (vertex, neighbour, edge index) grouped by vertex, in edge order.
    src = np.stack([i, j], axis=1).ravel()
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = np.stack([j, i], axis=1).ravel()[order]
    eid = np.repeat(idx, 2)[order]
    first = np.concatenate([[0], np.cumsum(deg)[:-1]])
    # Walks start at an anchor (degree other than 2) towards a degree-2 neighbour.
    starts = np.flatnonzero((deg[src] != 2) & (deg[dst] == 2)).tolist()
    two = (deg == 2).tolist()
    first, src, dst, eid = first.tolist(), src.tolist(), dst.tolist(), eid.tolist()
    pairs = set(zip(i.tolist(), j.tolist()))
    found = set()
    for k in starts:
        u, prev, cur = src[k], src[k], dst[k]
        chain = [eid[k]]
        path = {u, cur}
        while two[cur]:
            h = first[cur] if dst[first[cur]] != prev else first[cur] + 1
            prev, cur = cur, dst[h]
            if cur in path:
                break  # walked back into the path: pinched cycle
            path.add(cur)
            chain.append(eid[h])
        else:
            if (min(u, cur), max(u, cur)) not in pairs:  # a chord between the endpoints closes a cycle
                found.add(tuple(sorted(chain)))
    return [EdgeSubset._trusted(g, frozenset(members)) for members in sorted(found)]


def _vertex_subset(s: Iterable[int], n: int, allow_empty: bool = True) -> tuple[int, ...]:
    subset = sorted({int(v) for v in s})
    for v in subset:
        if not (1 <= v <= n):
            raise ValueError(f"vertex {v} outside 1..{n}")
    if not subset and not allow_empty:
        raise ValueError("vertex subset must be non-empty")
    return tuple(subset)


def _vertex_mask(n: int, vertices: tuple[int, ...]) -> np.ndarray:
    """Boolean mask over the 0-based vertices 0..n-1 that marks the 1-based ``vertices``."""
    mask = np.zeros(n, dtype=bool)
    mask[np.array(vertices, dtype=np.int64) - 1] = True
    return mask


def graph_components(g: WeightedGraph) -> list[frozenset[int]]:
    """Components of the whole graph; isolated vertices form singletons."""
    _, i, j, _ = _simple_columns(g)
    return _classes(_index_forest(g.n, i, j)[0])


def _classes(labels: np.ndarray, verts: Optional[np.ndarray] = None) -> list[frozenset[int]]:
    """The classes of ``_index_forest`` labels as 1-based vertex sets, by smallest vertex;
    ``verts`` gives the 0-based vertex at each position, ascending (default: the position)."""
    # Labels name each class's smallest position, so sorting by label orders the classes.
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    names = order if verts is None else verts[order]
    return [frozenset(part.tolist()) for part in np.split(names + 1, cuts)] if labels.size else []


def _edge_forest(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices the edges (i, j) touch, ascending, and ``_index_forest`` of
    the edges on those vertices alone, each numbered by its position."""
    ends = np.sort(np.concatenate([i, j]))
    verts = ends[np.diff(ends, prepend=-1) != 0]
    return (verts, *_index_forest(len(verts), np.searchsorted(verts, i), np.searchsorted(verts, j)))


def _index_forest(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes and spanning forest of the edges (i, j) on vertices 0..n-1.

    Returns each vertex's class label (the smallest vertex of its class) and
    the positions of the forest edges, ascending. The forest is the one a
    union-find keeps when it takes the edges in array order: weighted by its
    position, each edge has a distinct weight, so that forest is the unique
    minimum spanning forest, which Boruvka rounds reach by letting every class
    take its least-position outgoing edge. Each round at least halves the
    number of classes that still have an outgoing edge.
    """
    labels = np.arange(n)
    pos = np.arange(len(i))
    chosen = np.zeros(len(i), dtype=bool)
    while True:
        li, lj = labels[i[pos]], labels[j[pos]]
        out = li != lj
        if not out.any():
            break
        pos, li, lj = pos[out], li[out], lj[out]
        best = np.full(n, len(i))
        np.minimum.at(best, li, pos)
        np.minimum.at(best, lj, pos)
        cls = np.flatnonzero(best < len(i))
        e = best[cls]
        ei, ej = labels[i[e]], labels[j[e]]
        other = np.where(ei == cls, ej, ei)
        parent = np.arange(n)
        parent[cls] = other
        # Two classes that took the same edge point at each other; the smaller becomes the root.
        root = cls[(parent[other] == cls) & (cls < other)]
        parent[root] = root
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        labels = parent[labels]
        chosen[e] = True
    smallest = np.full(n, n)
    np.minimum.at(smallest, labels, np.arange(n))
    return smallest[labels], np.flatnonzero(chosen)

