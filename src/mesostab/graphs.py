"""Weighted undirected graphs, their matrices, and structural queries.

Vertices are labeled 1..n. Edge weights are nonzero reals; loops are legal
in a ``WeightedGraph`` (they carry matrix diagonals) but are ignored by the
Laplacian, the incidence factorization, and all structural scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .numerics import REL_TOL, has_zero_row_sums, require_symmetric


class _EdgeArrays(NamedTuple):
    """Edge columns in edge-index order: 0-based endpoints with i <= j, and weights."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray


def _label(v, top: int) -> int:
    """-1 for a vertex label that is not an integer (bool is not); an integer
    clamped to 0..top, which keeps its range verdict and fits int64."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return min(max(int(v), 0), top)
    return -1


def _to_float(v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        return math.nan  # reported by the validator, which repeats float(v) to raise the real error


def _validated(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, bad_label=None, raw=None
               ) -> tuple[tuple[tuple[int, int, float], ...], _EdgeArrays]:
    """Canonical edge tuple and edge arrays for 1-based endpoints ``i``, ``j``.

    The first bad edge in list order is reported, with the first check it
    fails: vertex labels (``bad_label``), then range, weight, and whether it
    repeats an earlier pair. ``raw`` holds the edges as the caller gave them,
    for the messages.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    bad_range = (i < 1) | (i > n) | (j < 1) | (j > n)
    bad = bad_range | ~np.isfinite(w) | (w == 0.0)
    if bad_label is not None:
        bad |= bad_label
    first = int(np.argmax(bad)) if bad.any() else len(w)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # Edges before ``first`` are valid, so their keys are exact; a repeat among
    # them comes before the first bad edge.
    key = lo[:first] * (n + 1) + hi[:first]
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise ValueError(f"duplicate edge {{{int(lo[k])},{int(hi[k])}}}")
    if first < len(w):
        ri, rj, rw = raw[first] if raw is not None else (int(i[first]), int(j[first]), w[first])
        if bad_label is not None and bad_label[first]:
            raise ValueError(f"edge ({ri},{rj}) has a non-integer vertex label")
        if bad_range[first]:
            raise ValueError(f"edge ({ri},{rj}) uses a vertex outside 1..{n}")
        raise ValueError(f"edge ({ri},{rj}) has invalid weight {float(rw)}")
    edges = tuple(zip(lo.tolist(), hi.tolist(), w.tolist()))
    arrays = _EdgeArrays(lo - 1, hi - 1, w.copy())
    for a in arrays:
        a.flags.writeable = False
    return edges, arrays


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with vertices 1..n and nonzero real edge weights.

    Edges are stored as (i, j, w) with i <= j; the order of the edge list is
    preserved and edge indices (0-based positions in ``edges``) identify
    edges throughout the package. Vertex labels must be integers (bool is
    not). The same edges are also held as read-only arrays (``_arrays``),
    which take no part in equality or repr.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        raw = [(i, j, w) for i, j, w in self.edges]
        top = self.n + 1
        ends = [v if type(v) is int and 0 <= v <= top else _label(v, top) for e in raw for v in e[:2]]
        ij = np.array(ends, dtype=np.int64).reshape(-1, 2)
        w = np.array([w if type(w) is float else _to_float(w) for _, _, w in raw], dtype=float)
        edges, arrays = _validated(self.n, ij[:, 0], ij[:, 1], w, (ij < 0).any(axis=1), raw)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_arrays", arrays)

    @classmethod
    def _from_columns(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> WeightedGraph:
        """Graph on 0-based endpoint arrays ``i`` <= ``j``, validated like the constructor."""
        g = object.__new__(cls)
        edges, arrays = _validated(n, np.asarray(i, dtype=np.int64) + 1, np.asarray(j, dtype=np.int64) + 1,
                                   np.asarray(w, dtype=float))
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "_arrays", arrays)
        return g

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def simple_edges(self):
        """(index, i, j, w) for every non-loop edge."""
        for idx, (i, j, w) in enumerate(self.edges):
            if i != j:
                yield idx, i, j, w

    def loops(self):
        for idx, (i, j, w) in enumerate(self.edges):
            if i == j:
                yield idx, i, w

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
            if not (0 <= m < len(self.host.edges)):
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
        return tuple(self.host.edges[m] for m in self.sorted_members())

    def touched_vertices(self) -> frozenset[int]:
        verts = set()
        for i, j, _ in self.edge_tuples():
            verts.add(i)
            verts.add(j)
        return frozenset(verts)

    def weight_product(self) -> float:
        return math.prod(w for _, _, w in self.edge_tuples())


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

    ``zero_tol`` is the absolute cutoff below which an entry counts as zero;
    the default compares exactly, which is the right choice for matrices
    entered verbatim. Matrices produced by floating-point arithmetic should
    pass a small cutoff such as 1e-12.
    """
    a = require_symmetric(a)
    i, j = np.nonzero(np.triu(np.abs(a) > zero_tol))
    return WeightedGraph._from_columns(a.shape[0], i, j, a[i, j])


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Laplacian D - A of the loop-free part of ``g``; row sums are zero.

    Raises ValueError when a weighted degree overflows.
    """
    _, i, j, w = _simple_columns(g)
    a = np.zeros((g.n, g.n))
    a[i, j] = w
    a[j, i] = w
    with np.errstate(over="ignore", invalid="ignore"):
        degrees = a.sum(axis=1)
    overflowed = np.flatnonzero(~np.isfinite(degrees))
    if overflowed.size:
        raise ValueError(f"weighted degree of vertex {overflowed[0] + 1} overflows")
    return np.diag(degrees) - a


def negated_adjacency_check(a: np.ndarray, rel: float = REL_TOL) -> bool:
    """True iff ``a`` has zero row sums, so the Laplacian of its graph is -a."""
    require_symmetric(a)
    return has_zero_row_sums(a, rel)


def incidence_factorization(g: WeightedGraph) -> OrientedIncidence:
    """Oriented incidence matrix M and weights w with M diag(w) M^T = laplacian(g)."""
    cols = [(idx, i, j, w) for idx, i, j, w in g.simple_edges()]
    m = np.zeros((g.n, len(cols)), dtype=int)
    weights = np.zeros(len(cols))
    for c, (_, i, j, w) in enumerate(cols):
        m[i - 1, c] = 1
        m[j - 1, c] = -1
        weights[c] = w
    return OrientedIncidence(g.n, m, weights, tuple(idx for idx, *_ in cols))


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
    inside = np.zeros(g.n, dtype=bool)
    inside[np.array(side) - 1] = True
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

