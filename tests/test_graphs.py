"""Graph construction, matrices, and structural queries."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import C_MATRIX, brute_force_has_cycle, random_signed_graph
from mesostab import (
    EdgeSubset,
    WeightedGraph,
    coates_graph,
    connected_components,
    cut_edges,
    graph_components,
    incidence_factorization,
    induced_lines,
    is_forest,
    laplacian,
    negated_adjacency_check,
)
from mesostab.numerics import require_zero_row_sums

INTRO_ADJACENCY = np.array([
    [0.0, 0.5, 0.0, -3.0],
    [0.5, 0.0, 1.0, -2.0],
    [0.0, 1.0, 0.0, 1.0],
    [-3.0, -2.0, 1.0, 0.0],
])

INTRO_LAPLACIAN = np.array([
    [-2.5, -0.5, 0.0, 3.0],
    [-0.5, -0.5, -1.0, 2.0],
    [0.0, -1.0, 2.0, -1.0],
    [3.0, 2.0, -1.0, -4.0],
])

def triangle(w12=1.0, w13=1.0, w23=1.0):
    return WeightedGraph(3, ((1, 2, w12), (1, 3, w13), (2, 3, w23)))


class TestWeightedGraph:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="invalid weight"):
            WeightedGraph(2, ((1, 2, 0.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(2, ((1, 2, 1.0), (2, 1, 2.0)))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            WeightedGraph(2, ((1, 3, 1.0),))

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="invalid weight"):
            WeightedGraph(2, ((1, 2, float("nan")),))

    def test_canonicalizes_edge_order(self):
        g = WeightedGraph(3, ((3, 1, 2.0),))
        assert g.edges == ((1, 3, 2.0),)

    @pytest.mark.parametrize("edge", [(1.5, 2, 1.0), (True, 2, 1.0), (1, np.float64(2.0), 1.0), (1, "2", 1.0)])
    def test_rejects_non_integer_vertex_label(self, edge):
        with pytest.raises(ValueError, match=r"non-integer vertex label") as info:
            WeightedGraph(3, ((1, 3, 1.0), edge, (9, 9, 1.0)))
        assert f"edge ({edge[0]},{edge[1]})" in str(info.value)

    @pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy])
    def test_copies_keep_read_only_arrays(self, clone):
        for g in (coates_graph(INTRO_ADJACENCY), triangle()):
            g.edges  # a cached tuple must not travel in place of the arrays
            h = clone(g)
            assert "edges" not in vars(h)
            assert all(not col.flags.writeable for col in h._arrays)
            assert all(np.array_equal(x, y) for x, y in zip(h._arrays, g._arrays))
            assert h == g

    def test_numpy_integer_labels_are_stored_as_int(self):
        g = WeightedGraph(3, ((np.int64(3), np.int32(1), 2.0),))
        assert g.edges == ((1, 3, 2.0),)
        assert all(type(v) is int for v in g.edges[0][:2])

    @pytest.mark.parametrize("n, edges, message", [
        (3, ((1, 2, 1.0), (1, 5, 1.0), (2, 3, 0.0)), "edge (1,5) uses a vertex outside 1..3"),
        (3, ((1, 2, 1.0), (2, 3, float("nan")), (1, 5, 1.0)), "edge (2,3) has invalid weight nan"),
        (3, ((1, 2, 1.0), (2, 1, 2.0), (1, 5, 0.0)), "duplicate edge {1,2}"),
        (3, ((1, 5, 0.0),), "edge (1,5) uses a vertex outside 1..3"),
        (3, ((0, 1, 1.0),), "edge (0,1) uses a vertex outside 1..3"),
        (3, ((1, 2, 1.0), (2, 1, 0.0)), "edge (2,1) has invalid weight 0.0"),
        (3, ((1, 2, -0.0),), "edge (1,2) has invalid weight -0.0"),
        (3, ((1, 2, 1.0), (3, 3, float("inf")), (2, 1, 1.0)), "edge (3,3) has invalid weight inf"),
        (3, ((2, 3, 1.0), (1, 1, 1.0), (3, 2, 1.0), (1, 1, 2.0)), "duplicate edge {2,3}"),
        (3, ((2, 3, 1.0), (1, 1, 1.0), (1, 1, 2.0), (3, 2, 1.0)), "duplicate edge {1,1}"),
        (3, ((1, 2, 1.0), (1, 9, "abc"), (1, 2, 1.0)), "edge (1,9) uses a vertex outside 1..3"),
        (3, ((1, 2, 1.0), (1, 3, "abc")), "could not convert string to float: 'abc'"),
        (2, ((1, 2, 1.0), (1, 2, 1.0), (2, 2, 0.0), (1, 3, 1.0)), "duplicate edge {1,2}"),
    ])
    def test_reports_first_bad_edge_with_its_first_failing_check(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            WeightedGraph(n, edges)
        assert str(info.value) == message


class TestCoatesGraph:
    def test_intro_example(self):
        g = coates_graph(INTRO_ADJACENCY)
        assert g.edges == ((1, 2, 0.5), (1, 4, -3.0), (2, 3, 1.0), (2, 4, -2.0), (3, 4, 1.0))

    def test_zero_matrix(self):
        g = coates_graph(np.zeros((3, 3)))
        assert g.n == 3 and g.edges == ()

    def test_counterexample_matrix_with_loops(self):
        g = coates_graph(C_MATRIX)
        assert g.edges == (
            (1, 3, 1.0), (1, 4, -1.0), (2, 2, -1.0), (2, 3, 1.0), (3, 3, -2.0), (4, 4, 1.0),
        )

    def test_zero_tol_prunes_arithmetic_noise(self):
        a = np.array([[0.0, 1e-14], [1e-14, 0.0]])
        assert coates_graph(a).edges != ()
        assert coates_graph(a, zero_tol=1e-12).edges == ()

    @pytest.mark.parametrize("zero_tol", [-1e-12, float("nan")])
    def test_rejects_negative_or_nan_zero_tol(self, zero_tol):
        with pytest.raises(ValueError, match=f"zero_tol must be non-negative, got {zero_tol}"):
            coates_graph(INTRO_ADJACENCY, zero_tol=zero_tol)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            coates_graph(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestLaplacian:
    def test_intro_example_exact(self):
        g = coates_graph(INTRO_ADJACENCY)
        assert np.array_equal(laplacian(g), INTRO_LAPLACIAN)

    def test_empty_graph(self):
        assert np.array_equal(laplacian(WeightedGraph(3, ())), np.zeros((3, 3)))

    def test_loops_do_not_change_laplacian(self):
        g = WeightedGraph(2, ((1, 2, 2.0), (1, 1, 5.0)))
        h = WeightedGraph(2, ((1, 2, 2.0),))
        assert np.array_equal(laplacian(g), laplacian(h))

    def test_round_trip_for_zero_row_sum_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_signed_graph(rng, int(rng.integers(2, 7)), 8)
            a = -laplacian(g)
            back = laplacian(coates_graph(a))
            off = ~np.eye(a.shape[0], dtype=bool)
            assert np.array_equal(back[off], (-a)[off])
            assert np.allclose(np.diag(back), np.diag(-a), atol=1e-12)

    def test_negated_adjacency_check(self):
        g = coates_graph(INTRO_ADJACENCY)
        assert negated_adjacency_check(-laplacian(g))
        assert not negated_adjacency_check(np.eye(2))

    def test_overflowing_row_sums_are_nonzero_without_a_warning(self):
        # the suite turns RuntimeWarning into an error, so a leaked overflow warning fails here
        a = np.full((2, 2), 1e308)
        assert not negated_adjacency_check(a)
        with pytest.raises(ValueError, match=r"^matrix does not have zero row sums \(row 1\)$"):
            require_zero_row_sums(a)


class TestIncidence:
    def test_triangle_product(self):
        inc = incidence_factorization(triangle())
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(inc.laplacian_product(), expected)

    def test_single_edge_closed_form(self):
        w = 2.75
        inc = incidence_factorization(WeightedGraph(2, ((1, 2, w),)))
        assert np.array_equal(inc.laplacian_product(), np.array([[w, -w], [-w, w]]))

    def test_intro_example_product(self):
        g = coates_graph(INTRO_ADJACENCY)
        assert np.allclose(incidence_factorization(g).laplacian_product(), INTRO_LAPLACIAN, atol=1e-12)

    def test_canonical_orientation(self):
        inc = incidence_factorization(WeightedGraph(3, ((2, 3, 4.0), (1, 3, -1.0))))
        col = inc.column_of(0)
        assert inc.matrix[1, col] == 1 and inc.matrix[2, col] == -1

    def test_loops_are_dropped(self):
        inc = incidence_factorization(WeightedGraph(2, ((1, 1, 3.0), (1, 2, 1.0))))
        assert inc.matrix.shape == (2, 1) and inc.edge_indices == (1,)

    def test_factorization_matches_laplacian_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_signed_graph(rng, int(rng.integers(2, 8)), 10, connected=False)
            inc = incidence_factorization(g)
            scale = max(1.0, np.abs(laplacian(g)).max())
            assert np.allclose(inc.laplacian_product(), laplacian(g), atol=1e-9 * scale)


class TestSubsets:
    def test_components_empty(self):
        g = triangle()
        assert connected_components(EdgeSubset(g, frozenset())) == []

    def test_components_single_edge(self):
        g = triangle()
        assert connected_components(EdgeSubset(g, frozenset({0}))) == [frozenset({1, 2})]

    def test_components_two_pieces(self):
        g = WeightedGraph(5, ((1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)))
        comps = connected_components(EdgeSubset(g, frozenset({0, 1})))
        assert comps == [frozenset({1, 2}), frozenset({3, 4})]

    def test_is_forest_basics(self):
        g = triangle()
        assert is_forest(EdgeSubset(g, frozenset()))
        assert is_forest(EdgeSubset(g, frozenset({0, 1})))
        assert not is_forest(EdgeSubset(g, frozenset({0, 1, 2})))

    def test_loop_is_a_cycle(self):
        g = WeightedGraph(2, ((1, 1, 1.0), (1, 2, 1.0)))
        assert not is_forest(EdgeSubset(g, frozenset({0})))

    def test_is_forest_agrees_with_dfs_on_all_subsets(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            g = random_signed_graph(rng, int(rng.integers(3, 6)), 6, connected=False)
            pairs = [(i, j) for i, j, _ in g.edges]
            for r in range(len(g.edges) + 1):
                for combo in itertools.combinations(range(len(g.edges)), r):
                    expected = not brute_force_has_cycle([pairs[c] for c in combo])
                    assert is_forest(EdgeSubset(g, frozenset(combo))) == expected

    def test_invalid_member_index(self):
        with pytest.raises(ValueError, match="edge index"):
            EdgeSubset(triangle(), frozenset({5}))

    def test_trusted_subset_equals_the_validated_one(self):
        g = random_signed_graph(np.random.default_rng(17), 6, 9)
        for members in (frozenset(), frozenset({0}), frozenset({1, 4, 8})):
            trusted = EdgeSubset._trusted(g, members)
            checked = EdgeSubset(g, members)
            assert trusted == checked
            assert hash(trusted) == hash(checked)
            assert trusted.sorted_members() == checked.sorted_members()


class TestCuts:
    def test_triangle_single_vertex(self):
        g = triangle()
        assert cut_edges(g, [1]).sorted_members() == (0, 1)

    def test_path_alternating(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
        assert cut_edges(g, [1, 3]).sorted_members() == (0, 1)

    def test_intro_example(self):
        g = coates_graph(INTRO_ADJACENCY)
        cut = cut_edges(g, [1, 2])
        assert {g.edges[m][:2] for m in cut.members} == {(1, 4), (2, 3), (2, 4)}

    def test_complement_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_signed_graph(rng, 6, 9, connected=False)
            side = sorted(rng.choice(range(1, 7), size=int(rng.integers(1, 6)), replace=False))
            other = [v for v in range(1, 7) if v not in side]
            assert cut_edges(g, side).members == cut_edges(g, other).members

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError, match="non-empty"):
            cut_edges(triangle(), [])
        with pytest.raises(ValueError, match="non-empty"):
            cut_edges(triangle(), [1, 2, 3])


class TestInducedLines:
    def test_path_graph_is_one_line(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
        assert [l.sorted_members() for l in induced_lines(g)] == [(0, 1, 2)]

    def test_triangle_has_none(self):
        assert induced_lines(triangle()) == []

    def test_star_has_none(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)))
        assert induced_lines(g) == []

    def test_two_lines_meeting_at_a_hub(self):
        g = WeightedGraph(7, (
            (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
            (4, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0), (4, 7, 1.0),
        ))
        # vertex 4 anchors a path on one side and a pinched cycle on the other
        lines = [l.sorted_members() for l in induced_lines(g)]
        assert lines == [(0, 1, 2)]

    def test_theta_graph_chains(self):
        g = WeightedGraph(5, (
            (1, 2, 1.0), (2, 5, 1.0),
            (1, 3, 1.0), (3, 5, 1.0),
            (1, 4, 1.0), (4, 5, 1.0),
        ))
        lines = [l.sorted_members() for l in induced_lines(g)]
        assert lines == [(0, 1), (2, 3), (4, 5)]


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 10)))
    weights = draw(st.lists(
        st.one_of(st.integers(min_value=-4, max_value=-1), st.integers(min_value=1, max_value=4)),
        min_size=len(chosen), max_size=len(chosen),
    ))
    return WeightedGraph(n, tuple((i, j, float(w)) for (i, j), w in zip(chosen, weights)))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_laplacian_rows_sum_to_zero(g):
    L = laplacian(g)
    scale = max(1.0, np.abs(L).max())
    assert np.all(np.abs(L.sum(axis=1)) <= 1e-9 * g.n * scale)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph_components_partition_vertices(g):
    comps = graph_components(g)
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(1, g.n + 1))
