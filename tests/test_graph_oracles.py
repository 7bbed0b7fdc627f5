"""The array-backed graph layer against the per-edge loops it replaced.

Each property draws small graphs (n <= 12) and requires the numpy paths to
return exactly what the loop oracles in ``helpers`` return. The Kuramoto
phase condition, which no longer builds a graph, is held to the graph route
it replaced, and the components of a Kuramoto Jacobian's exact graph to the
coupling components. The constructor's per-edge check
is held to the array validator it replaced, on edge lists with every kind
of defect. The edge readers (``simple_edges``, ``loops``, the ``EdgeSubset``
methods, the incidence factorization and the line validator) are held to
their forms over the ``edges`` tuple, and no structural query builds it.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    array_validated_edges,
    coupling_graph_components,
    greedy_components,
    greedy_negative_cut,
    greedy_positive_forest,
    loop_coates_graph,
    loop_incidence,
    signed_graph_phase_condition,
    union_find_subset,
    walk_induced_lines,
    walked_line_check,
)
from mesostab import (
    EdgeSubset,
    KuramotoSystem,
    WeightedGraph,
    analysis,
    analyze_matrix,
    classify_stability,
    coates_graph,
    connected_components,
    cut_decomposition,
    cut_edges,
    cut_identity_terms,
    enumerate_forest_family,
    find_negative_cut,
    graph_components,
    incidence_factorization,
    induced_lines,
    is_forest,
    jacobian,
    laplacian,
    line_obstruction_scan,
    line_weight_bound,
    positive_spanning_tree,
    principal_minor_combinatorial,
    spanning_phase_condition,
)
from mesostab.cli import _report_dict
from mesostab.structure import _require_induced_line

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


LABEL_DEFECTS = [-3, 10**30, True, False, 2.0, "1", np.float64(1.0), None]
WEIGHT_DEFECTS = [math.nan, math.inf, -math.inf, 0, 0.0, -0.0, "abc", "1.5", 1j, 10**400, True, 3,
                  np.float64(math.nan), None]


@st.composite
def defective_edge_lists(draw):
    """Edge lists on n <= 5 vertices (so repeats in either orientation and loops
    are common) with up to two defective edges: a bad label, a bad weight, or a
    short or long tuple."""
    n = draw(st.integers(min_value=-1, max_value=5))
    good = st.integers(min_value=1, max_value=max(n, 1))
    label = st.one_of(good, good.map(np.int64), good.map(np.int32))
    edges = [(draw(label), draw(label), draw(st.floats(min_value=-4.0, max_value=4.0)))
             for _ in range(draw(st.integers(min_value=0, max_value=8)))]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i, j, w = draw(label), draw(label), 1.0
        kind = draw(st.sampled_from(["label"] * 3 + ["weight"] * 3 + ["short", "long"]))
        if kind == "label":
            bad = draw(st.sampled_from(LABEL_DEFECTS + [0, n + 1]))
            i, j = (bad, j) if draw(st.booleans()) else (i, bad)
        elif kind == "weight":
            w = draw(st.sampled_from(WEIGHT_DEFECTS))
        edge = (i, j) if kind == "short" else (i, j, w, 0) if kind == "long" else (i, j, w)
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), edge)
    return n, edges


def _outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the type and message are what is compared
        return None, (type(exc), str(exc))


@settings(max_examples=500, deadline=None)
@given(defective_edge_lists())
def test_constructor_matches_the_array_validator(case):
    n, edges = case
    got, got_error = _outcome(lambda: WeightedGraph(n, edges))
    expected, expected_error = _outcome(lambda: array_validated_edges(n, edges))
    assert got_error == expected_error
    if expected is not None:
        assert repr(got.edges) == repr(expected[0])
        for a, b in zip(got._arrays, expected[1]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def edge_subsets(draw):
    """Subsets of graphs with loops and isolated vertices, the empty subset included."""
    g = draw(shuffled_edge_lists())
    members = draw(st.sets(st.integers(min_value=0, max_value=len(g.edges) - 1))) if g.edges else set()
    return EdgeSubset(g, frozenset(members))


@settings(max_examples=300, deadline=None)
@given(edge_subsets())
def test_subset_components_and_forest_match_union_find(k):
    comps, acyclic = union_find_subset(k)
    assert connected_components(k) == comps
    assert is_forest(k) == acyclic


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


def _typed(rows):
    """Rows with the type of every entry, so an int or float read from the arrays must be a Python one."""
    return [(row, tuple(map(type, row))) for row in rows]


@settings(max_examples=300, deadline=None)
@given(shuffled_edge_lists())
def test_edge_readers_match_the_tuple(g):
    simple, loops, inc = list(g.simple_edges()), list(g.loops()), incidence_factorization(g)
    assert _typed(simple) == _typed([(idx, i, j, w) for idx, (i, j, w) in enumerate(g.edges) if i != j])
    assert _typed(loops) == _typed([(idx, i, w) for idx, (i, j, w) in enumerate(g.edges) if i == j])
    matrix, weights, indices = loop_incidence(g)
    assert inc.matrix.dtype == matrix.dtype and np.array_equal(inc.matrix, matrix)
    assert inc.weights.dtype == weights.dtype and np.array_equal(inc.weights, weights)
    assert inc.edge_indices == indices


@settings(max_examples=300, deadline=None)
@given(edge_subsets())
def test_subset_readers_match_the_tuple(k):
    ordered = [k.host.edges[m] for m in k.sorted_members()]
    assert _typed(k.edge_tuples()) == _typed(ordered)
    assert k.touched_vertices() == frozenset(v for i, j, _ in ordered for v in (i, j))
    # the same float, multiplied in the same order (the int 1 for no members)
    assert repr(k.weight_product()) == repr(math.prod(w for _, _, w in ordered))


@st.composite
def line_candidates(draw):
    """Edge subsets that are often paths: an induced line of the host, a
    self-avoiding walk, or any subset, with at most one edge toggled."""
    g = draw(st.one_of(shuffled_edge_lists(), sparse_line_graphs()))
    m = len(g._arrays.w)
    lines = induced_lines(g)
    kind = draw(st.sampled_from(["line", "walk", "any"]))
    if kind == "line" and lines:
        members = set(draw(st.sampled_from(lines)).members)
    elif kind == "walk":
        neighbours = {v: [] for v in g.vertices}
        for idx, i, j, _ in g.simple_edges():
            neighbours[i].append((j, idx))
            neighbours[j].append((i, idx))
        path, members = [draw(st.sampled_from(list(g.vertices)))], set()
        for _ in range(draw(st.integers(min_value=0, max_value=g.n))):
            steps = [(v, idx) for v, idx in neighbours[path[-1]] if v not in path]
            if not steps:
                break
            v, idx = draw(st.sampled_from(steps))
            path.append(v)
            members.add(idx)
    else:
        members = draw(st.sets(st.integers(min_value=0, max_value=m - 1))) if m else set()
    if m and draw(st.booleans()):
        members ^= {draw(st.integers(min_value=0, max_value=m - 1))}
    return EdgeSubset(g, frozenset(members))


@settings(max_examples=300, deadline=None)
@given(line_candidates())
def test_line_validator_matches_the_walk(k):
    assert _outcome(lambda: _require_induced_line(k.host, k)) == _outcome(lambda: walked_line_check(k.host, k))


def _dense_host_with_lines():
    """K6 with a loop, and two pendant paths off it: 6-7-8-9 with one negative
    edge and 1-10-11-12 with two; 22 edges, so the forest enumeration runs."""
    edges = [(i, j, -0.5 if (i, j) == (2, 5) else 1.0 + i + j) for i in range(1, 7) for j in range(i + 1, 7)]
    edges += [(3, 3, 2.0), (6, 7, 2.0), (7, 8, -0.25), (8, 9, 3.0), (1, 10, -1.0), (10, 11, 2.0), (11, 12, -1.0)]
    return WeightedGraph(12, edges)


def _first_line_bound(g):
    line = next(line for line in induced_lines(g) if 7 in line.touched_vertices())
    return line_weight_bound(g, line, 17)


def _analysis_graph(g):
    built = []
    with mock.patch.object(analysis, "coates_graph", lambda *a, **kw: built.append(coates_graph(*a, **kw)) or built[-1]):
        report = analyze_matrix(-laplacian(g))
    _report_dict(report)
    (host,) = built
    assert report.negative_cut is not None and any(r.bound is not None for r in report.line_reports)
    return host


def _subset_queries(g):
    k = EdgeSubset(g, frozenset({0, 3, 15, 16, 20}))
    return k.edge_tuples(), k.touched_vertices(), k.weight_product(), connected_components(k), is_forest(k)


STRUCTURAL_QUERIES = {
    "analyze_matrix": _analysis_graph,
    "line_obstruction_scan": line_obstruction_scan,
    "line_weight_bound": _first_line_bound,
    "enumerate_forest_family": lambda g: enumerate_forest_family(g, (1, 7, 8)),
    "principal_minor_combinatorial": lambda g: principal_minor_combinatorial(g, (1, 7, 8)),
    "cut_decomposition": lambda g: cut_decomposition(g, (7, 8, 9), (8,)),
    "cut_identity_terms": lambda g: cut_identity_terms(g, (1, 7, 8, 10)),
    "incidence_factorization": incidence_factorization,
    "EdgeSubset": _subset_queries,
    "spanning_and_cut": lambda g: (positive_spanning_tree(g), find_negative_cut(g), cut_edges(g, (7, 8))),
    "readers": lambda g: (list(g.simple_edges()), list(g.loops()), g.degree_map(), graph_components(g)),
}


@pytest.mark.parametrize("query", STRUCTURAL_QUERIES.values(), ids=STRUCTURAL_QUERIES.keys())
def test_structural_queries_never_build_the_edge_tuple(query):
    g = _dense_host_with_lines()
    host = query(g)
    assert "edges" not in vars(host if isinstance(host, WeightedGraph) else g)


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
    # the Jacobian's exact graph has the coupling components, so the report's forest spans them
    assert graph_components(coates_graph(jacobian(sys_, x))) == coupling_graph_components(sys_)


@settings(max_examples=300, deadline=None)
@given(coupled_equilibria())
def test_report_has_a_positive_forest_or_a_negative_cut(case):
    report = classify_stability(*case)
    assert report.spanning_forest is not None or not report.certified
    assert (report.spanning_forest is None) == (report.negative_cut is not None)
