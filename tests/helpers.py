"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths: spanning
trees come from raw subset enumeration, cycles from a recursive DFS, cuts
from trying every bipartition, and characteristic polynomials from exact
rational Faddeev-LeVerrier recursion. The array-backed graph layer is
checked against the per-edge loops it replaced: the double-loop Coates
graph, a greedy dict union-find for components, the positive forest and the
negative cut, and the neighbour-dict walk for induced lines.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from mesostab import WeightedGraph
from mesostab.selftest import random_signed_graph, random_zero_row_sum_matrix


def random_positive_graph(rng, n, m, connected=True):
    g = random_signed_graph(rng, n, m, connected)
    return WeightedGraph(g.n, tuple((i, j, abs(w)) for i, j, w in g.edges))


def brute_force_has_cycle(edges):
    """DFS cycle search over (i, j) pairs; loops and multi-walks count."""
    adj = {}
    for idx, (i, j) in enumerate(edges):
        if i == j:
            return True
        adj.setdefault(i, []).append((j, idx))
        adj.setdefault(j, []).append((i, idx))
    visited = set()
    for start in adj:
        if start in visited:
            continue
        stack = [(start, -1)]
        seen_here = {start}
        visited.add(start)
        while stack:
            v, via = stack.pop()
            for w, idx in adj[v]:
                if idx == via:
                    continue
                if w in seen_here:
                    return True
                seen_here.add(w)
                visited.add(w)
                stack.append((w, idx))
    return False


def brute_force_spanning_trees(g: WeightedGraph):
    """All spanning-tree edge index sets by raw subset enumeration."""
    simple = [(idx, i, j) for idx, i, j, _ in g.simple_edges()]
    trees = []
    for combo in itertools.combinations(simple, g.n - 1):
        parent = list(range(g.n + 1))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        ok = True
        for _, i, j in combo:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[rj] = ri
        if ok and len({find(v) for v in range(1, g.n + 1)}) == 1:
            trees.append(frozenset(idx for idx, _, _ in combo))
    return trees


def brute_force_negative_cut(g: WeightedGraph):
    """First negative cut (sizes ascending, then lexicographic), or None.

    Tries every bipartition; a negative cut has a non-empty all-negative
    boundary.
    """
    verts = list(range(1, g.n + 1))
    for size in range(1, g.n):
        for side in itertools.combinations(verts, size):
            v1 = set(side)
            crossing = [w for _, i, j, w in g.simple_edges() if (i in v1) != (j in v1)]
            if crossing and all(w < 0 for w in crossing):
                return side
    return None


def characteristic_polynomial_exact(a):
    """Coefficients of det(xI - a), highest degree first, exact over rationals."""
    n = a.shape[0]
    frac = [[Fraction(a[i, j]).limit_denominator(10**9) for j in range(n)] for i in range(n)]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def add_diag(x, c):
        return [
            [x[i][j] + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = add_diag(matmul(frac, m), coeffs[-1])
        prod = matmul(frac, m)
        trace = sum(prod[i][i] for i in range(n))
        coeffs.append(-trace / k)
    return coeffs


def loop_coates_graph(a, zero_tol=0.0):
    """Coates graph by a double loop over the upper triangle."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    edges = []
    for i in range(n):
        for j in range(i, n):
            v = a[i, j]
            if abs(v) > zero_tol:
                edges.append((i + 1, j + 1, float(v)))
    return WeightedGraph(n, tuple(edges))


class _DictUnionFind:
    def __init__(self, labels):
        self.parent = {v: v for v in labels}

    def find(self, v):
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def groups(self):
        classes = {}
        for v in self.parent:
            classes.setdefault(self.find(v), set()).add(v)
        return [frozenset(c) for c in sorted(classes.values(), key=min)]


def greedy_components(g: WeightedGraph):
    uf = _DictUnionFind(g.vertices)
    for _, i, j, _ in g.simple_edges():
        uf.union(i, j)
    return uf.groups()


def _greedy_positive(g: WeightedGraph):
    uf = _DictUnionFind(g.vertices)
    forest = [idx for idx, i, j, w in g.simple_edges() if w > 0 and uf.union(i, j)]
    return uf, forest


def greedy_positive_forest(g: WeightedGraph, components=None):
    """Sorted edge indices of the greedy positive forest, or None when it
    leaves a part of ``components`` (default: g's components) unspanned."""
    if components is None:
        components = greedy_components(g)
    uf, forest = _greedy_positive(g)
    if any(len({uf.find(v) for v in comp}) > 1 for comp in components):
        return None
    return tuple(sorted(forest))


def greedy_negative_cut(g: WeightedGraph):
    """Smallest (then lexicographically first) positive class that an edge leaves."""
    uf, _ = _greedy_positive(g)
    left = set()
    for _, i, j, _ in g.simple_edges():
        ri, rj = uf.find(i), uf.find(j)
        if ri != rj:
            left.update((ri, rj))
    candidates = [tuple(sorted(c)) for c in uf.groups() if uf.find(min(c)) in left]
    return min(candidates, key=lambda t: (len(t), t)) if candidates else None


def walk_induced_lines(g: WeightedGraph):
    """Sorted member tuples of the maximal induced lines, walking neighbour dicts."""
    deg = {v: 0 for v in g.vertices}
    nbrs = {v: [] for v in g.vertices}
    edge_lookup = set()
    for idx, i, j, _ in g.simple_edges():
        deg[i] += 1
        deg[j] += 1
        nbrs[i].append((j, idx))
        nbrs[j].append((i, idx))
        edge_lookup.update({(i, j), (j, i)})
    found = set()
    for u in (v for v in g.vertices if deg[v] != 2 and deg[v] > 0):
        for first, first_edge in nbrs[u]:
            path, chain = [u, first], [first_edge]
            prev, cur = u, first
            ok = True
            while deg[cur] == 2:
                nxt = next((t, e) for t, e in nbrs[cur] if t != prev)
                if nxt[0] in path:
                    ok = False
                    break
                path.append(nxt[0])
                chain.append(nxt[1])
                prev, cur = cur, nxt[0]
            if ok and len(chain) >= 2 and (path[0], path[-1]) not in edge_lookup:
                found.add(tuple(sorted(chain)))
    return sorted(found)
