"""The shared obstruction pipeline on matrices and graphs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesostab import (
    WeightedGraph,
    analyze_graph,
    analyze_matrix,
    coates_graph,
    cut_edges,
    graph_components,
    laplacian,
    positive_spanning_tree,
)
from mesostab import analysis, graphs, sylvester
from mesostab.cli import _report_dict

C_MATRIX = np.array([[0, 0, 1, -1], [0, -1, 1, 0], [1, 1, -2, 0], [-1, 0, 0, 1]], dtype=float)


def test_analysis_builds_the_positive_forest_and_the_cut_once(monkeypatch):
    # no positive spanning forest: the spanning test, the cut search and the
    # report's cut edges share one positive forest and one crossing set
    g = WeightedGraph(4, ((1, 2, 1.0), (1, 3, 1.0), (1, 4, -1.0)))
    forests, cuts = [], []
    index_forest, crossing = graphs._index_forest, analysis.cut_edges
    monkeypatch.setattr(graphs, "_index_forest", lambda n, i, j: forests.append(n) or index_forest(n, i, j))
    monkeypatch.setattr(analysis, "cut_edges", lambda g, v1: cuts.append(v1) or crossing(g, v1))
    report = analyze_graph(g)
    assert report.spanning_forest is None and report.negative_cut == (4,)
    assert report.negative_cut_edges == ((1, 4, -1.0),)
    assert forests == [4] and cuts == [(4,)]


@pytest.mark.parametrize("a, n_max, certified, calls", [
    (-laplacian(WeightedGraph(3, ((1, 2, 1.0), (2, 3, 2.0)))), 20, True, 0),  # the certificate proves rank n-1
    (C_MATRIX, 20, False, 2),  # the certificate's fallback and the full sweep's rank
    (C_MATRIX, 3, False, 1),  # sweep skipped: the certificate's fallback only
    # a unit path's pivots (k + 1) / k clear their floors at any n
    (-laplacian(WeightedGraph(1000, tuple((i, i + 1, 1.0) for i in range(1, 1000)))), 20, True, 0),
])
def test_eigenvalue_calls_per_analysis(monkeypatch, a, n_max, certified, calls):
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape) or eigvalsh(m))
    report = analyze_matrix(a, n_max=n_max)
    assert report.certified == certified
    assert report.verdict == ("passes necessary condition" if certified else "fails necessary condition")
    assert len(seen) == calls


def test_dense_certified_analysis_never_builds_the_edge_tuple(monkeypatch):
    # A complete graph's report reads its n - 1 forest edges from the arrays,
    # not from the tuple of all n(n-1)/2 edges.
    n = 60
    upper = np.triu(np.random.default_rng(7).uniform(0.5, 2.0, (n, n)), 1)
    a = upper + upper.T
    np.fill_diagonal(a, -a.sum(axis=1))
    built = []
    monkeypatch.setattr(analysis, "coates_graph", lambda *args, **kwargs: built.append(coates_graph(*args, **kwargs))
                        or built[-1])
    report = analyze_matrix(a)
    (g,) = built
    assert report.certified and "edges" not in vars(g)
    assert report.spanning_forest == tuple(g.edges[k] for k in positive_spanning_tree(g).sorted_members())


def test_certified_report_has_rank_n_minus_one():
    # Two triangles joined by a weak bridge: the leading minors hold, so the rank
    # is 5 although the second-smallest eigenvalue is below the eigenvalue threshold.
    g = WeightedGraph(6, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (4, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0),
                          (3, 4, 3e-8)))
    report = analyze_graph(g)
    assert report.certified
    assert report.rank_estimate == report.definiteness.rank_estimate == 5


def test_passes_on_negated_positive_laplacian():
    g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 0.5), (3, 4, 2.0)))
    report = analyze_matrix(-laplacian(g))
    assert report.verdict == "passes necessary condition"
    assert report.certified
    assert report.rank_estimate == 3
    assert report.spanning_forest is not None
    assert report.negative_cut is None


def test_fails_with_structural_witnesses():
    c = np.array([
        [0.0, 0.0, 1.0, -1.0],
        [0.0, -1.0, 1.0, 0.0],
        [1.0, 1.0, -2.0, 0.0],
        [-1.0, 0.0, 0.0, 1.0],
    ])
    report = analyze_matrix(c)
    assert report.verdict == "fails necessary condition"
    assert report.full_sweep is not None and report.full_sweep.witness is not None
    assert report.spanning_forest is None
    assert report.negative_cut == (4,)
    assert any(r.violated for r in report.line_reports)


def test_degenerate_when_zero_eigenvalue_repeats():
    # two components: the zero eigenvalue has multiplicity two, so the
    # maximal-rank certificate cannot apply even though the matrix is NSD
    g = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
    report = analyze_matrix(-laplacian(g))
    assert report.verdict == "degenerate"
    assert not report.certified
    assert report.rank_estimate == 2
    assert any("not simple" in note for note in report.notes)


def test_large_input_skips_full_sweep_with_note():
    n = 24
    edges = [(i, i + 1, -1.0 if i == 1 else 1.0) for i in range(1, n)]
    report = analyze_matrix(-laplacian(WeightedGraph(n, tuple(edges))))
    assert not report.certified
    assert report.full_sweep is None
    assert any("skipped" in note for note in report.notes)
    assert report.verdict == "fails necessary condition"


def test_rejects_non_symmetric_input():
    with pytest.raises(ValueError, match="not symmetric"):
        analyze_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


def _numpy_message(a):
    try:
        np.asarray(a, dtype=float)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("numpy converted the input")


@pytest.mark.parametrize("a, message", [
    ([], "expected a square matrix, got shape (0,)"),
    (np.zeros((0, 0)), "empty matrix"),
    ([1.0, -1.0], "expected a square matrix, got shape (2,)"),
    (5.0, "expected a square matrix, got shape ()"),
    (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    ([[1.0, -1.0], [2.0]], None),  # ragged: numpy's own message
    ("abc", None),
    ([["a", "b"], ["c", "d"]], None),
    ([[math.nan, 0.0], [0.0, 0.0]], "matrix contains NaN or Inf entries"),
    ([[1.0, math.inf], [math.inf, 1.0]], "matrix contains NaN or Inf entries"),
    ([[0.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 2.0, -2.0]], "matrix is not symmetric: entries (2,3) and (3,2) differ"),
    ([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.5], [0.0, 1.5, -1.0]], "matrix does not have zero row sums (row 2)"),
])
def test_bad_matrix_is_named_as_before(a, message):
    # the certificate validates -a, and negation moves no entry, row sum or tolerance
    with pytest.raises(ValueError) as info:
        analyze_matrix(a)
    assert str(info.value) == (message or _numpy_message(a))


def test_certified_analysis_checks_symmetry_twice(monkeypatch):
    # once for the certificate and once for the graph build
    calls = []
    for module in (analysis, graphs, sylvester):
        if hasattr(module, "require_symmetric"):
            check = getattr(module, "require_symmetric")
            monkeypatch.setattr(module, "require_symmetric", lambda a, check=check: calls.append(1) or check(a))
    report = analyze_matrix(-laplacian(WeightedGraph(3, ((1, 2, 1.0), (2, 3, 2.0)))))
    assert report.certified and len(calls) == 2


def test_graph_entry_point_matches_matrix_route():
    g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, -0.2), (1, 3, 1.0)))
    via_graph = analyze_graph(g)
    via_matrix = analyze_matrix(-laplacian(g))
    assert via_graph.verdict == via_matrix.verdict
    assert via_graph.negative_cut == via_matrix.negative_cut
    assert via_graph.spanning_forest == via_matrix.spanning_forest


@st.composite
def signed_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weights = draw(st.lists(
        st.integers(min_value=-3, max_value=3).filter(bool), min_size=len(chosen), max_size=len(chosen),
    ))
    return WeightedGraph(n, tuple((i, j, float(w)) for (i, j), w in zip(chosen, weights)))


@st.composite
def zero_row_sum_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    upper = draw(st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    a = a + a.T
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def assert_witnesses_reverify(a, report):
    """Every witness the JSON report cites re-verifies against ``a`` and its graph."""
    d = _report_dict(report)
    g = coates_graph(a)
    neg = -a
    for verdict in (d["definiteness"], d["full_sweep"]):
        witness = verdict and verdict["witness"]
        if not witness:
            continue
        if witness["type"] == "minor":
            s = [v - 1 for v in witness["subset"]]
            recomputed = np.linalg.det(neg[np.ix_(s, s)])
        else:
            v = np.array(witness["vector"])
            recomputed = v @ neg @ v
        assert witness["value"] != 0 and np.sign(recomputed) == np.sign(witness["value"])
    forest, cut = d["positive_spanning_forest"], d["negative_cut"]
    assert (forest is None) == (cut is not None)
    if cut is not None:
        crossing = [tuple(e) for e in cut["crossing_edges"]]
        assert crossing == list(cut_edges(g, cut["vertices"]).edge_tuples())
        assert crossing and all(w < 0 for _, _, w in crossing)
    else:
        assert all(i != j and w > 0 for i, j, w in forest)
        components = graph_components(g)
        assert graph_components(WeightedGraph(g.n, tuple(map(tuple, forest)))) == components
        assert len(forest) == g.n - len(components)


@settings(max_examples=100, deadline=None)
@given(signed_graphs())
def test_graph_report_witnesses_reverify(g):
    assert_witnesses_reverify(-laplacian(g), analyze_graph(g))


@settings(max_examples=100, deadline=None)
@given(zero_row_sum_matrices())
def test_matrix_report_witnesses_reverify(a):
    assert_witnesses_reverify(a, analyze_matrix(a))
