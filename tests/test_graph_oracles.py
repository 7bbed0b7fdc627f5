"""The array-backed graph layer against the per-edge loops it replaced.

Each property draws small graphs (n <= 12) and requires the numpy paths to
return exactly what the loop oracles in ``helpers`` return. The Kuramoto
phase condition and coupling components, which no longer build graphs, are
held to the graph route they replaced.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coupling_graph_components,
    greedy_components,
    greedy_negative_cut,
    greedy_positive_forest,
    loop_coates_graph,
    signed_graph_phase_condition,
    walk_induced_lines,
)
from mesostab import (
    KuramotoSystem,
    WeightedGraph,
    analyze_matrix,
    classify_stability,
    coates_graph,
    find_negative_cut,
    graph_components,
    induced_lines,
    positive_spanning_tree,
    spanning_phase_condition,
)
from mesostab.structure import _positive_spanning_forest

WEIGHTS = st.one_of(st.integers(min_value=-4, max_value=-1), st.integers(min_value=1, max_value=4))


def _pair(a, b):
    return (min(a, b), max(a, b))


@st.composite
def shuffled_edge_lists(draw):
    """Signed graphs with loops, in random (non-sorted) edge order and orientation."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 30)))
    edges = []
    for i, j in chosen:
        w = float(draw(WEIGHTS))
        edges.append((j, i, w) if draw(st.booleans()) else (i, j, w))
    return WeightedGraph(n, tuple(edges))


@st.composite
def sparse_line_graphs(draw):
    """Chained paths, each left open, closed by an endpoint chord, or pinched
    into a cycle hanging off the path; gaps leave the graph disconnected."""
    n = draw(st.integers(min_value=2, max_value=12))
    order = draw(st.permutations(range(1, n + 1)))
    edges = set()
    k = 0
    while k < n - 1:
        length = draw(st.integers(min_value=1, max_value=5))
        seg = order[k:k + length + 1]
        edges |= {_pair(a, b) for a, b in zip(seg, seg[1:])}
        shape = draw(st.sampled_from(["open", "chord", "pinch"]))
        if shape == "chord" and len(seg) > 2:
            edges.add(_pair(seg[0], seg[-1]))
        elif shape == "pinch" and len(seg) > 3:
            edges.add(_pair(seg[1], seg[-1]))
        k += length + draw(st.integers(min_value=0, max_value=1))
    extra = draw(st.lists(st.tuples(st.sampled_from(order), st.sampled_from(order)), max_size=3))
    edges |= {_pair(a, b) for a, b in extra}
    edges = draw(st.permutations(sorted(edges)))
    return WeightedGraph(n, tuple((i, j, float(draw(WEIGHTS))) for i, j in edges))


ZERO_TOLS = (0.0, 1e-12, 0.5)


@st.composite
def matrices_at_zero_tol(draw):
    """Symmetric matrices whose entries include 0.0, -0.0 and +-zero_tol exactly."""
    n = draw(st.integers(min_value=1, max_value=12))
    tol = draw(st.sampled_from(ZERO_TOLS))
    entry = st.sampled_from([0.0, -0.0, tol, -tol, math.nextafter(tol, 1.0), -1.5, 2.0])
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = draw(entry)
    return a, tol


@settings(max_examples=300, deadline=None)
@given(shuffled_edge_lists())
def test_components_forest_and_cut_match_union_find(g):
    assert graph_components(g) == greedy_components(g)
    tree = positive_spanning_tree(g)
    assert (None if tree is None else tree.sorted_members()) == greedy_positive_forest(g)
    assert find_negative_cut(g) == greedy_negative_cut(g)
    whole = [frozenset(g.vertices)]
    forest = _positive_spanning_forest(g, whole)
    assert (None if forest is None else forest.sorted_members()) == greedy_positive_forest(g, whole)


@settings(max_examples=300, deadline=None)
@given(matrices_at_zero_tol())
def test_coates_graph_matches_double_loop(case):
    a, tol = case
    g, expected = coates_graph(a, zero_tol=tol), loop_coates_graph(a, zero_tol=tol)
    assert g == expected
    assert repr(g.edges) == repr(expected.edges)  # same Python int and float types


@settings(max_examples=100, deadline=None)
@given(matrices_at_zero_tol())
def test_coupling_graph_matches_double_loop(case):
    a, _ = case
    b = np.abs(a)
    np.fill_diagonal(b, 0.0)
    sys_ = KuramotoSystem(np.zeros(a.shape[0]), b)
    upper = np.triu(b, 1)
    expected = loop_coates_graph(upper + upper.T)
    assert sys_.coupling_graph() == expected
    assert repr(sys_.coupling_edges()) == repr(list(expected.edges))


@settings(max_examples=300, deadline=None)
@given(sparse_line_graphs())
def test_induced_lines_match_neighbour_walk(g):
    assert [line.sorted_members() for line in induced_lines(g)] == walk_induced_lines(g)


@st.composite
def coupled_equilibria(draw):
    """Couplings on n <= 10 oscillators, often disconnected, and phases that
    are an equilibrium for frequencies chosen to match. Half of the phase
    vectors sit on a pi/4 grid, so that some differences are exactly pi/2."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    b = np.zeros((n, n))
    for i, j in chosen:
        b[i, j] = b[j, i] = draw(st.floats(min_value=0.1, max_value=4.0))
    if draw(st.booleans()):
        x = np.array(draw(st.lists(st.integers(min_value=-8, max_value=8), min_size=n, max_size=n))) * (math.pi / 4)
    else:
        x = np.array(draw(st.lists(st.floats(min_value=-7.0, max_value=7.0), min_size=n, max_size=n)))
    omega = -(b * np.sin(x[None, :] - x[:, None])).sum(axis=1)
    return KuramotoSystem(omega, b), x


@settings(max_examples=300, deadline=None)
@given(coupled_equilibria())
def test_phase_condition_and_components_match_graph_route(case):
    sys_, x = case
    assert spanning_phase_condition(sys_, x) == signed_graph_phase_condition(sys_, x)
    required = []

    def recording(a, **kwargs):
        required.append(kwargs["required_components"])
        return analyze_matrix(a, **kwargs)

    with mock.patch("mesostab.kuramoto.analyze_matrix", recording):
        classify_stability(sys_, x)
    assert required == [coupling_graph_components(sys_)]
