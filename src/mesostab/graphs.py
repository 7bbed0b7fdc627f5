"""Weighted undirected graphs, their matrices, and structural queries.

Vertices are labeled 1..n. Edge weights are nonzero reals; loops are legal
in a ``WeightedGraph`` (they carry matrix diagonals) but are ignored by the
Laplacian, the incidence factorization, and all structural scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .numerics import REL_TOL, has_zero_row_sums, require_symmetric


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with vertices 1..n and nonzero real edge weights.

    Edges are stored as (i, j, w) with i <= j; the order of the edge list is
    preserved and edge indices (0-based positions in ``edges``) identify
    edges throughout the package.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        seen = set()
        for i, j, w in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) uses a vertex outside 1..{self.n}")
            w = float(w)
            if w == 0.0 or not math.isfinite(w):
                raise ValueError(f"edge ({i},{j}) has invalid weight {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {{{key[0]},{key[1]}}}")
            seen.add(key)
            canon.append((key[0], key[1], w))
        object.__setattr__(self, "edges", tuple(canon))

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
        a = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            if i == j:
                a[i - 1, i - 1] = w
            else:
                a[i - 1, j - 1] = w
                a[j - 1, i - 1] = w
        return a

    def degree_map(self) -> dict[int, int]:
        """Number of incident non-loop edges per vertex."""
        deg = {v: 0 for v in self.vertices}
        for _, i, j, _ in self.simple_edges():
            deg[i] += 1
            deg[j] += 1
        return deg

    def neighbor_map(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> list of (neighbor, edge index), loops excluded."""
        nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for idx, i, j, _ in self.simple_edges():
            nbrs[i].append((j, idx))
            nbrs[j].append((i, idx))
        return nbrs


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
    n = a.shape[0]
    edges = []
    for i in range(n):
        for j in range(i, n):
            v = a[i, j]
            if abs(v) > zero_tol:
                edges.append((i + 1, j + 1, float(v)))
    return WeightedGraph(n, tuple(edges))


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Laplacian D - A of the loop-free part of ``g``; row sums are zero."""
    a = np.zeros((g.n, g.n))
    for _, i, j, w in g.simple_edges():
        a[i - 1, j - 1] = w
        a[j - 1, i - 1] = w
    d = np.diag(a.sum(axis=1))
    return d - a


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


class _UnionFind:
    def __init__(self, labels: Iterable[int]):
        self.parent = {v: v for v in labels}

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def groups(self) -> list[frozenset[int]]:
        """The classes, ordered by smallest label."""
        classes: dict[int, set[int]] = {}
        for v in self.parent:
            classes.setdefault(self.find(v), set()).add(v)
        return [frozenset(c) for c in sorted(classes.values(), key=min)]


def connected_components(k: EdgeSubset) -> list[frozenset[int]]:
    """Components of the edge-induced subgraph; untouched vertices are omitted.

    Deterministic order: by smallest vertex label.
    """
    uf = _UnionFind(k.touched_vertices())
    for i, j, _ in k.edge_tuples():
        uf.union(i, j)
    return uf.groups()


def is_forest(k: EdgeSubset) -> bool:
    """True iff the edge-induced subgraph is acyclic (loops are cycles)."""
    for i, j, _ in k.edge_tuples():
        if i == j:
            return False
    comps = connected_components(k)
    touched = sum(len(c) for c in comps)
    return len(k) == touched - len(comps)


def cut_edges(g: WeightedGraph, v1: Iterable[int]) -> EdgeSubset:
    """All edges with exactly one endpoint in ``v1``."""
    side = _vertex_subset(v1, g.n)
    if not side or len(side) == g.n:
        raise ValueError("cut requires a partition with two non-empty sides")
    s = set(side)
    members = frozenset(idx for idx, i, j, _ in g.simple_edges() if (i in s) != (j in s))
    return EdgeSubset(g, members)


def induced_lines(g: WeightedGraph) -> list[EdgeSubset]:
    """Maximal induced lines with at least two edges.

    A line is a simple path whose interior vertices have degree exactly 2 in
    ``g`` (loops ignored) and whose vertex set induces no further edges. A
    line is maximal when neither endpoint can absorb another degree-2 step.
    Pure cycles contain no lines.
    """
    deg = g.degree_map()
    nbrs = g.neighbor_map()
    edge_lookup = {}
    for idx, i, j, _ in g.simple_edges():
        edge_lookup[(i, j)] = idx
        edge_lookup[(j, i)] = idx
    anchors = [v for v in g.vertices if deg[v] != 2 and deg[v] > 0]
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for u in anchors:
        for first, first_edge in nbrs[u]:
            path = [u, first]
            chain = [first_edge]
            prev, cur = u, first
            ok = True
            while deg[cur] == 2:
                nxt = next((t, e) for t, e in nbrs[cur] if t != prev)
                if nxt[0] in path:
                    ok = False  # walked back into the path: pinched cycle
                    break
                path.append(nxt[0])
                chain.append(nxt[1])
                prev, cur = cur, nxt[0]
            if not ok or len(chain) < 2:
                continue
            if (path[0], path[-1]) in edge_lookup:
                continue  # chord between the endpoints closes a cycle
            found[frozenset(chain)] = tuple(chain)
    lines = [EdgeSubset(g, members) for members in found]
    lines.sort(key=lambda es: es.sorted_members())
    return lines


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
    uf = _UnionFind(g.vertices)
    for _, i, j, _ in g.simple_edges():
        uf.union(i, j)
    return uf.groups()
