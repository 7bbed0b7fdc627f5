"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths: spanning
trees come from raw subset enumeration, cycles from a recursive DFS, cuts
from trying every bipartition, and characteristic polynomials from exact
rational Faddeev-LeVerrier recursion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

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
