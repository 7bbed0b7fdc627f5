"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths: spanning
trees come from raw subset enumeration, cycles from a recursive DFS, cuts
from trying every bipartition, and characteristic polynomials from exact
rational Faddeev-LeVerrier recursion. The array-backed graph layer is
checked against the per-edge loops it replaced: the double-loop Coates
graph, a greedy dict union-find for components, the positive forest and the
negative cut, the neighbour-dict walk for induced lines, the walk that
validated one line, and the per-edge incidence build. The exhaustive
minor sweep, the five-way check and the cut identity are checked against
their one-shot forms: the sweep that takes every subset of the whole
matrix, not only those inside one block, stacks every subset of a size at
once and runs to the end, the five-way check that takes one proper subset at a
time with an elimination determinant and a one-block Cholesky test, and the
identity that rescans the edges and recomputes every minor for each marker
set. The Kuramoto phase condition and coupling components are
checked against the graphs they used to be read from: the coupling graph
signed by phase, and the coupling graph itself. The constructor's per-edge
check is held to the array validator it replaced, which found the first
bad edge from masks and a stable sort of pair keys. The forest enumerator,
which merges the outside vertices into one, is held bit for bit to the
search it replaced, which counted the outside vertices of every class.
The stacked partial-pivot elimination is held bit for bit to the
one-matrix loop on Python floats that it replaced, and the Kuramoto
Jacobian built from the coupled pairs to the dense n x n formula it
replaced. Ring systems take their coupling from the arc bound, which no
system scaled below it can lock.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from mesostab import (
    EdgeSubset,
    KuramotoSystem,
    WeightedGraph,
    coates_graph,
    graph_components,
    laplacian,
    positive_spanning_tree,
    wrap_to_pi,
)
from mesostab.graphs import _vertex_subset
from mesostab.numerics import REL_TOL, det_partial_pivot, require_symmetric, require_zero_row_sums
from mesostab.sylvester import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMI_DEFINITE,
    DefinitenessVerdict,
    EquivalenceReport,
    MinorWitness,
    _classify_by_eigenvalues,
    _is_pd_cholesky,
    _leading_minor_refusal,
)
from mesostab.selftest import random_signed_graph, random_zero_row_sum_matrix


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, which strict JSON has no words for."""
    return json.loads(text, parse_constant=_reject_constant)


def looped_det_partial_pivot(a) -> float:
    """Determinant by Gaussian elimination with partial pivoting, one
    Python float at a time: the first strictly larger |entry| wins the
    pivot, an all-zero pivot column returns exactly 0.0, and a row is
    updated only where its multiplier is nonzero."""
    rows = [list(map(float, r)) for r in np.asarray(a, dtype=float)]
    n = len(rows)
    det = 1.0
    for k in range(n):
        piv, best = k, abs(rows[k][k])
        for r in range(k + 1, n):
            v = abs(rows[r][k])
            if v > best:
                piv, best = r, v
        if best == 0.0:
            return 0.0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        pivot = rows[k][k]
        det *= pivot
        for r in range(k + 1, n):
            f = rows[r][k] / pivot
            if f != 0.0:
                rk = rows[k]
                rr = rows[r]
                for c in range(k + 1, n):
                    rr[c] -= f * rk[c]
    return det


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


def array_validated_edges(n, edges):
    """The canonical edge tuple and the 0-based (i, j, w) arrays of caller-given
    edges, or the error for the first bad edge in list order, found by the array
    validator the constructor used to run."""
    raw = [(i, j, w) for i, j, w in edges]
    top = n + 1
    ends = [v if type(v) is int and 0 <= v <= top else _label(v, top) for e in raw for v in e[:2]]
    ij = np.array(ends, dtype=np.int64).reshape(-1, 2)
    w = np.array([w if type(w) is float else _to_float(w) for _, _, w in raw], dtype=float)
    i, j, bad_label = ij[:, 0], ij[:, 1], (ij < 0).any(axis=1)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    bad_range = (i < 1) | (i > n) | (j < 1) | (j > n)
    bad = bad_range | ~np.isfinite(w) | (w == 0.0) | bad_label
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
        ri, rj, rw = raw[first]
        if bad_label[first]:
            raise ValueError(f"edge ({ri},{rj}) has a non-integer vertex label")
        if bad_range[first]:
            raise ValueError(f"edge ({ri},{rj}) uses a vertex outside 1..{n}")
        raise ValueError(f"edge ({ri},{rj}) has invalid weight {float(rw)}")
    return tuple(zip(lo.tolist(), hi.tolist(), w.tolist())), (lo - 1, hi - 1, w)


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


def union_find_subset(k: EdgeSubset):
    """Components of an edge subset (touched vertices only, by smallest
    vertex) and whether it is acyclic, from a dict union-find taking its
    edges one at a time; a loop closes a cycle."""
    uf = _DictUnionFind(k.touched_vertices())
    acyclic = all([uf.union(i, j) for i, j, _ in k.edge_tuples()])
    return uf.groups(), acyclic


def brute_force_forest_family(g: WeightedGraph, s):
    """Sorted edge-index tuples of every |s|-edge subset, loops included, that
    is a forest whose trees each hold exactly one vertex outside ``s``;
    lexicographic order."""
    outside = set(g.vertices) - set(s)
    family = []
    for combo in itertools.combinations(range(len(g.edges)), len(s)):
        comps, acyclic = union_find_subset(EdgeSubset(g, frozenset(combo)))
        if acyclic and all(len(c & outside) == 1 for c in comps):
            family.append(combo)
    return family


def marked_forest_leaves(n, candidates, special, size):
    """The forest enumerator before it merged the outside vertices: a
    backtracking search over ``candidates`` ((index, i, j, w), by index) that
    keeps a count of ``special`` vertices per class and skips an edge that
    closes a cycle or would put two special vertices in one tree, with union
    by size and its undo. Returns (member indices, weight product) pairs in
    lexicographic member order."""
    parent = list(range(n + 1))
    compsize = [1] * (n + 1)
    spec = [0] * (n + 1)
    for v in special:
        spec[v] = 1

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    m = len(candidates)
    leaves = []
    path = []

    def descend(pos, chosen, prod):
        if chosen == size:
            leaves.append((tuple(path), prod))
            return
        for t in range(pos, m - (size - chosen) + 1):
            idx, i, j, w = candidates[t]
            ri, rj = find(i), find(j)
            if ri == rj or spec[ri] + spec[rj] > 1:
                continue
            if compsize[ri] < compsize[rj]:
                ri, rj = rj, ri
            parent[rj] = ri
            compsize[ri] += compsize[rj]
            spec[ri] += spec[rj]
            path.append(idx)
            descend(t + 1, chosen + 1, prod * w)
            path.pop()
            spec[ri] -= spec[rj]
            compsize[ri] -= compsize[rj]
            parent[rj] = rj

    descend(0, 0, 1.0)
    return leaves


def greedy_components(g: WeightedGraph):
    uf = _DictUnionFind(g.vertices)
    for _, i, j, _ in g.simple_edges():
        uf.union(i, j)
    return uf.groups()


def _greedy_positive(g: WeightedGraph):
    uf = _DictUnionFind(g.vertices)
    forest = [idx for idx, i, j, w in g.simple_edges() if w > 0 and uf.union(i, j)]
    return uf, forest


def greedy_positive_forest(g: WeightedGraph):
    """Sorted edge indices of the greedy positive forest, or None when it
    leaves a component of g unspanned."""
    uf, forest = _greedy_positive(g)
    if any(len({uf.find(v) for v in comp}) > 1 for comp in greedy_components(g)):
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


def walked_line_check(g: WeightedGraph, h: EdgeSubset) -> None:
    """The induced-line validator as a walk over neighbour dicts built from
    ``g.edges``: raises the ValueError of the first check that fails."""
    simple = [(idx, i, j) for idx, (i, j, _) in enumerate(g.edges) if i != j]
    deg = {v: 0 for v in g.vertices}
    for _, i, j in simple:
        deg[i] += 1
        deg[j] += 1
    vert_set = {v for m in h.members for v in h.host.edges[m][:2]}
    verts = sorted(vert_set)
    within = {idx: (i, j) for idx, i, j in simple if i in vert_set and j in vert_set}
    if set(within) != set(h.members):
        raise ValueError("edge set is not induced: its vertices carry extra edges")
    neighbours = {v: [] for v in verts}
    for i, j in within.values():
        neighbours[i].append(j)
        neighbours[j].append(i)
    ends = [v for v in verts if len(neighbours[v]) == 1]
    is_simple = len(h.members) >= 2 and len(ends) == 2 \
        and all(len(neighbours[v]) == 2 for v in verts if v not in ends)
    if is_simple:
        # degrees alone pass a path beside disjoint cycles; a walk from one end covers only the path
        prev, cur, walked = None, ends[0], 1
        while cur != ends[1]:
            prev, cur = cur, next(u for u in neighbours[cur] if u != prev)
            walked += 1
        is_simple = walked == len(verts)
    if not is_simple:
        raise ValueError("edge set is not a simple path with two endpoints")
    if any(deg[v] != 2 for v in verts if v not in ends):
        raise ValueError("an interior vertex has degree other than 2 in the host graph")


def loop_incidence(g: WeightedGraph):
    """Incidence matrix, weights and edge indices of ``g``'s non-loop edges, a column at a time from ``g.edges``."""
    cols = [(idx, i, j, w) for idx, (i, j, w) in enumerate(g.edges) if i != j]
    m = np.zeros((g.n, len(cols)), dtype=int)
    weights = np.zeros(len(cols))
    for c, (_, i, j, w) in enumerate(cols):
        m[i - 1, c] = 1
        m[j - 1, c] = -1
        weights[c] = w
    return m, weights, tuple(idx for idx, *_ in cols)


def unchunked_sweep(L, rel=REL_TOL):
    """The exhaustive principal-minor sweep over every subset of the whole matrix,
    one batch per subset size, run to the end: the witness is the first minor
    below ``-rel`` times its Hadamard bound, and kind and rank come from the
    eigenvalues, a positive kind reading indefinite beside a witness."""
    L = require_symmetric(L)
    n = L.shape[0]
    witness: Optional[MinorWitness] = None
    for k in range(1, n + 1):
        combos = np.array(list(itertools.combinations(range(n), k)))
        subs = L[combos[:, :, None], combos[:, None, :]]
        dets = np.linalg.det(subs)
        tols = rel * np.prod(np.sqrt((subs * subs).sum(axis=2)), axis=1)
        bad = dets < -tols
        if witness is None and bad.any():
            at = int(np.argmax(bad))
            witness = MinorWitness(tuple(int(v) + 1 for v in combos[at]), float(dets[at]))
    kind, rank, _ = _classify_by_eigenvalues(L)
    if witness is None:
        return DefinitenessVerdict(POSITIVE_DEFINITE if rank == n else POSITIVE_SEMI_DEFINITE, rank)
    if kind in (POSITIVE_DEFINITE, POSITIVE_SEMI_DEFINITE):
        kind = INDEFINITE
    return DefinitenessVerdict(kind, rank, witness)


def looped_equivalences(L, rel=REL_TOL):
    """The five-way report with (ii) and (iii) taken one proper subset at a time:
    an elimination determinant against its Hadamard bound, and a one-block
    Cholesky test."""
    L = require_zero_row_sums(require_symmetric(L), rel)
    n = L.shape[0]
    kind, rank, _ = _classify_by_eigenvalues(L)
    cond_ii = True
    cond_iii = True
    for k in range(1, n):
        for combo in itertools.combinations(range(n), k):
            sub = L[np.ix_(combo, combo)]
            if det_partial_pivot(sub) <= rel * float(np.prod(np.sqrt((sub * sub).sum(axis=1)))):
                cond_ii = False
            if not _is_pd_cholesky(sub, rel):
                cond_iii = False
    return EquivalenceReport(
        (kind, rank) == (POSITIVE_SEMI_DEFINITE, n - 1),
        cond_ii,
        cond_iii,
        _leading_minor_refusal(L, rel)[0] == 0,
        _is_pd_cholesky(L[: n - 1, : n - 1], rel),
    )


def _rescanned_pools(g: WeightedGraph, v1: frozenset, b: tuple) -> list[list[int]]:
    """Each ``b`` vertex's crossing edges out of ``v1``, ascending, from a fresh scan."""
    incident = {v: [] for v in b}
    for idx, i, j, _ in g.simple_edges():
        if (i in v1) != (j in v1):
            inside = i if i in v1 else j
            if inside in incident:
                incident[inside].append(idx)
    return [sorted(incident[v]) for v in b]


def _rescanned_sigma_weight(g: WeightedGraph, v1: frozenset, b: tuple) -> float:
    """The paper's crossing-forest weight of ``b``: every forest with one
    crossing edge per ``b`` vertex listed, and the products of their weights summed."""
    pools = _rescanned_pools(g, v1, b)
    if any(not pool for pool in pools):
        return 0.0
    members = [frozenset(choice) for choice in itertools.product(*pools)]
    return math.fsum(math.prod(g.edges[e][2] for e in d) for d in members)


def rescanned_closed_weight(g: WeightedGraph, v1: frozenset, b: tuple) -> float:
    """The crossing-forest weight of ``b`` in closed form: the product, in
    ascending vertex order, of each ``b`` vertex's summed crossing weights."""
    return math.prod(math.fsum(g.edges[e][2] for e in pool) for pool in _rescanned_pools(g, v1, b))


def rescanned_cut_identity_terms(g: WeightedGraph, v1):
    """Cut identity terms with the crossing edges rescanned and the minor
    recomputed per marker set by the looped elimination."""
    side = _vertex_subset(v1, g.n, allow_empty=False)
    v1set = frozenset(side)
    L = laplacian(g)
    terms = []
    for r in range(len(side) + 1):
        for c in itertools.combinations(side, r):
            weight = rescanned_closed_weight(g, v1set, c)
            if weight == 0.0:
                continue
            rest = [v - 1 for v in side if v not in c]
            minor = looped_det_partial_pivot(L[np.ix_(rest, rest)])
            terms.append((-1.0) ** r * weight * minor)
    return terms


def signed_graph_phase_condition(sys: KuramotoSystem, x) -> bool:
    """The phase condition as a positive spanning tree of the coupling graph
    with each edge signed by whether its pair is within pi/2 of phase."""
    near = np.triu(np.abs(wrap_to_pi(x[None, :] - x[:, None])) < math.pi / 2, 1)
    near = near | near.T
    return positive_spanning_tree(coates_graph(np.where(near, sys.b, -sys.b))) is not None


def coupling_graph_components(sys: KuramotoSystem):
    """Components of the coupling graph, built as a graph."""
    return graph_components(sys.coupling_graph())


def dense_residual_jacobian(sys: KuramotoSystem, x) -> np.ndarray:
    """The Kuramoto Jacobian from n^2 cosines of the dense phase differences:
    the upper triangle of b_ij cos(x_j - x_i), mirrored, with each row
    balanced to zero on the diagonal."""
    x = np.asarray(x, dtype=float)
    a = sys.b * np.cos(x[None, :] - x[:, None])
    a = np.triu(a, 1)
    a = a + a.T
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def dense_rotating_frame_residual(sys: KuramotoSystem, x) -> np.ndarray:
    """The rotating-frame residual with every one of the n^2 sines taken:
    omega_i - mean + sum_j b_ij sin(x_j - x_i), summed along each row."""
    x = np.asarray(x, dtype=float)
    return sys.omega - sys.mean_frequency + (sys.b * np.sin(x[None, :] - x[:, None])).sum(axis=1)


def ring_system(rng, n, factor, chords=0):
    """Ring of ``n`` oscillators plus ``chords`` random chords, coupled at
    ``factor`` times the arc lock bound (``ring_arc_bound``)."""
    omega = rng.normal(scale=0.5, size=n)
    b = np.zeros((n, n))
    idx = np.arange(n)
    b[idx, (idx + 1) % n] = rng.uniform(0.5, 1.5, size=n)
    added = 0
    while added < chords:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j and b[i, j] == 0.0 and b[j, i] == 0.0:
            b[i, j] = rng.uniform(0.5, 1.5)
            added += 1
    b = b + b.T
    return KuramotoSystem(omega, b * (ring_arc_bound(omega, b) * factor))


def ring_arc_bound(omega, b):
    """Largest |sum of centred frequencies| / crossing coupling over the arcs
    of the ring 0, 1, ..., n - 1. Summing the equilibrium equations over an
    arc cancels the coupling inside it, so a coupling scaled by a factor
    below 1 leaves no phase-locked state."""
    n = omega.size
    om = omega - omega.mean()
    best = 0.0
    for first in range(n):
        for length in range(1, n):
            arc = [(first + t) % n for t in range(length)]
            rest = [(first + t) % n for t in range(length, n)]
            crossing = b[np.ix_(arc, rest)].sum()
            best = max(best, abs(math.fsum(om[arc])) / crossing)
    return best
