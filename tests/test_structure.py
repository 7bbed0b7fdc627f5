"""Spanning trees, negative cuts, the cut identity, and line bounds."""

import itertools
import math

import numpy as np
import pytest

from helpers import (
    brute_force_forest_family,
    brute_force_has_cycle,
    brute_force_negative_cut,
    marked_forest_leaves,
    random_positive_graph,
    random_signed_graph,
)
from mesostab import (
    EdgeSubset,
    WeightedGraph,
    coates_graph,
    cut_decomposition,
    cut_identity_terms,
    enumerate_forest_family,
    find_negative_cut,
    induced_lines,
    laplacian,
    line_obstruction_scan,
    line_weight_bound,
    positive_spanning_tree,
    principal_minor_direct,
    verify_cut_identity,
)
from mesostab.structure import identity_check


def psd_with_negative_edges(rng, n):
    """Zero-row-sum PSD matrix of rank n-1 whose graph carries negative edges.

    Built as the negated Laplacian of a positive connected graph, perturbed
    by a scaled-down second Laplacian until the eigenvalues confirm PSD with
    a simple zero eigenvalue; the perturbation flips some edge weights of
    the matrix's graph negative.
    """
    base = random_positive_graph(rng, n, n + 2)
    bump = random_positive_graph(rng, n, n + 1)
    L0 = laplacian(base)
    L1 = laplacian(bump)
    eps = 1.0
    for _ in range(60):
        L = L0 - eps * L1
        w = np.linalg.eigvalsh(L)
        tol = 1e-8 * n * max(1.0, np.abs(L).max())
        if w[0] >= -tol and np.count_nonzero(np.abs(w) > tol) == n - 1:
            return -L
        eps *= 0.5
    return -L0


class TestPositiveSpanningTree:
    def test_triangle_with_one_negative_edge(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, -5.0)))
        tree = positive_spanning_tree(g)
        assert tree is not None and tree.sorted_members() == (0, 1)

    def test_path_with_negative_edge_has_none(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, -1.0)))
        assert positive_spanning_tree(g) is None

    def test_disconnected_graph_spans_per_component(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 2.0)))
        forest = positive_spanning_tree(g)
        assert forest is not None and forest.sorted_members() == (0, 1)

    def test_necessity_for_psd_matrices(self):
        # a PSD zero-row-sum matrix of maximal rank forces a positive
        # spanning tree in every component of its graph
        rng = np.random.default_rng(67)
        negative_seen = 0
        for _ in range(100):
            n = int(rng.integers(3, 8))
            a = psd_with_negative_edges(rng, n)
            g = coates_graph(a, zero_tol=1e-12)
            if any(w < 0 for _, _, w in g.edges):
                negative_seen += 1
            assert positive_spanning_tree(g) is not None
        assert negative_seen > 10  # the construction must actually stress the claim


class TestNegativeCut:
    def test_path_witness(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, -1.0)))
        assert find_negative_cut(g) == (3,)

    def test_all_positive_has_none(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
        assert find_negative_cut(g) is None

    def test_two_sided_witness(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0), (1, 3, -3.0), (2, 4, -2.0)))
        v1 = find_negative_cut(g)
        assert v1 == (1, 2)
        crossing = [w for _, i, j, w in g.simple_edges() if (i in v1) != (j in v1)]
        assert crossing and all(w < 0 for w in crossing)

    def test_duality_against_exhaustive_enumeration(self):
        # the cut found is also the first one in (size, lexicographic) order
        for connected in (True, False):
            rng = np.random.default_rng(71)
            for _ in range(60):
                n = int(rng.integers(3, 9))
                g = random_signed_graph(rng, n, int(rng.integers(n - 1, n + 5)), connected)
                tree = positive_spanning_tree(g)
                expected = brute_force_negative_cut(g)
                assert (tree is not None) == (expected is None)
                assert find_negative_cut(g) == expected


class TestCutDecomposition:
    def test_single_edge_smallest_case(self):
        g = WeightedGraph(2, ((1, 2, 3.0),))
        fam = cut_decomposition(g, [1], [])
        assert fam.sigma == {(1,): (EdgeSubset(g, frozenset({0})),)}
        assert fam.tee == {(1,): (EdgeSubset(g, frozenset()),)}
        assert [k.sorted_members() for k in fam.union] == [(0,)]

    def test_triangle_reproduces_family(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        fam = cut_decomposition(g, [1, 2], [])
        expected = {k.members for k in enumerate_forest_family(g, [1, 2]).members}
        assert {k.members for k in fam.union} == expected

    def test_degenerate_full_removal(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
        fam = cut_decomposition(g, [1, 2], [1, 2])
        assert [k.sorted_members() for k in fam.union] == [()]

    def test_union_matches_family_on_random_graphs(self):
        rng = np.random.default_rng(73)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            g = random_signed_graph(rng, n, int(rng.integers(n - 1, 11)), connected=False)
            size = int(rng.integers(1, n))
            v1 = sorted(rng.choice(range(1, n + 1), size=size, replace=False))
            removed_count = int(rng.integers(0, size + 1))
            removed = sorted(rng.choice(v1, size=removed_count, replace=False))
            fam = cut_decomposition(g, v1, removed)
            rest = sorted(set(v1) - set(removed))
            if rest:
                expected = {k.members for k in enumerate_forest_family(g, rest).members}
            else:
                expected = {frozenset()}
            assert {k.members for k in fam.union} == expected

    def test_hosts_whose_edges_mostly_join_outside_vertices(self):
        # A star centred at 1 with a pendant path 2-10-11: for these sides most
        # edges join two vertices outside v1 minus c, which the enumerator
        # merges into one vertex.
        edges = tuple((1, v, 0.5 + v) for v in range(2, 10)) + ((2, 10, -1.5), (10, 11, 2.0))
        g = WeightedGraph(11, edges)
        for v1, c in [((2, 10), ()), ((2, 10, 11), (10,)), ((1, 2), (1,)), ((3,), ()), ((3, 4, 5), (4,))]:
            fam = cut_decomposition(g, v1, c)
            rest = sorted(set(v1) - set(c))
            assert [k.sorted_members() for k in fam.union] == (brute_force_forest_family(g, rest) if rest else [()])
            side = set(v1)
            inside = [e for e in g.simple_edges() if e[1] in side and e[2] in side]
            for marker, members in fam.tee.items():
                expected = marked_forest_leaves(g.n, inside, marker, len(v1) - len(marker))
                assert [k.sorted_members() for k in members] == [m for m, _ in expected]

    def test_rejects_bad_subsets(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
        with pytest.raises(ValueError, match="proper"):
            cut_decomposition(g, [1, 2, 3], [])
        with pytest.raises(ValueError, match="subset of v1"):
            cut_decomposition(g, [1], [2])

    def test_family_slices_match_definition_oracles(self):
        # rebuild both forest families straight from their definitions and
        # compare against every slice the decomposition reports
        rng = np.random.default_rng(83)
        for _ in range(12):
            n = int(rng.integers(3, 7))
            g = random_signed_graph(rng, n, int(rng.integers(n - 1, 10)), connected=False)
            size = int(rng.integers(1, n))
            v1 = sorted(rng.choice(range(1, n + 1), size=size, replace=False))
            fam = cut_decomposition(g, v1, [])
            v1set = set(v1)
            crossing = [idx for idx, i, j, _ in g.simple_edges() if (i in v1set) != (j in v1set)]
            inside = [idx for idx, i, j, _ in g.simple_edges() if i in v1set and j in v1set]
            pairs = {idx: (i, j) for idx, i, j, _ in g.simple_edges()}

            def oracle_sigma(b):
                out = set()
                for r in range(len(crossing) + 1):
                    for combo in itertools.combinations(crossing, r):
                        if brute_force_has_cycle([pairs[c] for c in combo]):
                            continue
                        touched = {}
                        for c in combo:
                            i, j = pairs[c]
                            inside_end = i if i in v1set else j
                            touched[inside_end] = touched.get(inside_end, 0) + 1
                        if set(touched) == set(b) and all(v == 1 for v in touched.values()):
                            out.add(frozenset(combo))
                return out

            def oracle_tee(b):
                want = len(v1) - len(b)
                if want < 0:
                    return set()
                out = set()
                for combo in itertools.combinations(inside, want):
                    if brute_force_has_cycle([pairs[c] for c in combo]):
                        continue
                    parent = {v: v for v in v1}

                    def find(v):
                        while parent[v] != v:
                            v = parent[v]
                        return v

                    for c in combo:
                        i, j = pairs[c]
                        parent[find(i)] = find(j)
                    groups = {}
                    for v in v1:
                        groups.setdefault(find(v), set()).add(v)
                    if all(len(grp & set(b)) == 1 for grp in groups.values()):
                        out.add(frozenset(combo))
                return out

            for r in range(len(v1) + 1):
                for b in itertools.combinations(v1, r):
                    expected_sigma = oracle_sigma(b)
                    expected_tee = oracle_tee(b)
                    got_sigma = {k.members for k in fam.sigma.get(b, ())}
                    got_tee = {k.members for k in fam.tee.get(b, ())}
                    if expected_sigma and expected_tee:
                        assert got_sigma == expected_sigma, (g.edges, v1, b)
                        assert got_tee == expected_tee, (g.edges, v1, b)


class TestCutIdentity:
    def test_single_edge_terms(self):
        g = WeightedGraph(2, ((1, 2, 2.5),))
        assert cut_identity_terms(g, [1]) == [2.5, -2.5]
        assert verify_cut_identity(g, [1]) == 0.0

    def test_random_graphs_all_sides(self):
        rng = np.random.default_rng(79)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            g = random_signed_graph(rng, n, int(rng.integers(n - 1, n + 4)))
            for size in range(1, n):
                for side in itertools.combinations(range(1, n + 1), size):
                    terms = cut_identity_terms(g, side)
                    scale = sum(abs(t) for t in terms)
                    assert abs(verify_cut_identity(g, side)) <= 1e-9 * max(1.0, scale)

    def test_term_scale_is_the_correctly_rounded_sum_of_magnitudes(self):
        # Summed left to right these magnitudes give 1.0, compensated (builtin
        # sum from CPython 3.12 on) and correctly rounded 1 + 2**-52, so a
        # builtin sum would make the scale depend on the interpreter.
        terms = [1.0, -1e-16, 1e-16]
        assert (1.0 + 1e-16) + 1e-16 == 1.0
        check = identity_check((1,), terms, tol=0.5)
        assert check.term_scale == math.fsum(map(abs, terms)) == 1.0 + 2.0 ** -52
        assert check.tolerance == 0.5 * (1.0 + 2.0 ** -52)
        assert check.residual == 1.0 and not check.within_tolerance

    def test_disconnected_across_the_cut(self):
        g = WeightedGraph(4, ((1, 2, 2.0), (3, 4, -1.0)))
        residual = verify_cut_identity(g, [1, 2])
        # only the empty marker contributes, so the residual is the block minor
        assert residual == pytest.approx(principal_minor_direct(laplacian(g), [1, 2]), abs=1e-12)
        assert abs(residual) <= 1e-12


class TestLineBounds:
    def test_three_edge_bound(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, -0.3), (3, 4, 1.0)))
        (line,) = induced_lines(g)
        assert line_weight_bound(g, line, 1) == pytest.approx(0.5)

    def test_two_edge_bound_is_other_weight(self):
        g = WeightedGraph(3, ((1, 2, 2.0), (2, 3, -0.5)))
        (line,) = induced_lines(g)
        assert line_weight_bound(g, line, 1) == pytest.approx(2.0)

    def test_equal_weights_give_w_over_k(self):
        for k in range(2, 7):
            for w in (0.5, 1.0, 2.0):
                edges = [(i, i + 1, w) for i in range(1, k + 1)]
                edges.append((k + 1, k + 2, -0.01))
                g = WeightedGraph(k + 2, tuple(edges))
                (line,) = induced_lines(g)
                assert line_weight_bound(g, line, k) == pytest.approx(w / k, rel=1e-12)

    def test_errors(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, -0.3), (3, 4, 1.0)))
        (line,) = induced_lines(g)
        with pytest.raises(ValueError, match="not part of the line"):
            line_weight_bound(g, line, 5)
        with pytest.raises(ValueError, match="negative edge"):
            line_weight_bound(g, line, 0)  # positive edge picked
        tri = WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        with pytest.raises(ValueError, match="not"):
            line_weight_bound(tri, EdgeSubset(tri, frozenset({0, 1, 2})), 0)
        two_neg = WeightedGraph(4, ((1, 2, -1.0), (2, 3, -0.3), (3, 4, 1.0)))
        (line2,) = induced_lines(two_neg)
        with pytest.raises(ValueError, match="negative"):
            line_weight_bound(two_neg, line2, 1)

    def test_rejects_disconnected_edge_set(self):
        # a path next to a cycle mimics path degrees but is not a line
        g = WeightedGraph(6, (
            (1, 2, 1.0), (2, 3, -0.1),
            (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0),
        ))
        fake = EdgeSubset(g, frozenset(range(5)))
        with pytest.raises(ValueError, match="simple path"):
            line_weight_bound(g, fake, 1)

    def test_scan_all_positive(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
        (report,) = line_obstruction_scan(g)
        assert report.negative_edges == () and not report.violated

    def test_scan_within_bound(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, -0.4), (3, 4, 1.0)))
        (report,) = line_obstruction_scan(g)
        assert report.bound == pytest.approx(0.5) and not report.violated
        # the interior minor stays non-negative, confirming feasibility
        assert principal_minor_direct(laplacian(g), [2, 3]) >= 0

    def test_scan_two_negative_edges_violates(self):
        g = WeightedGraph(4, ((1, 2, -1.0), (2, 3, 1.0), (3, 4, -1.0)))
        (report,) = line_obstruction_scan(g)
        assert report.violated and report.bound is None and len(report.negative_edges) == 2

    def test_sharpness_at_the_boundary(self):
        for k in (2, 4):
            w = 1.0
            edges = [(i, i + 1, w) for i in range(1, k + 1)]
            edges.append((k + 1, k + 2, -(w / k)))
            g = WeightedGraph(k + 2, tuple(edges))
            interior = list(range(2, k + 2))
            assert abs(principal_minor_direct(laplacian(g), interior)) <= 1e-9
            (report,) = line_obstruction_scan(g)
            assert not report.violated
            edges[-1] = (k + 1, k + 2, -(w / k) * (1 + 1e-3))
            g2 = WeightedGraph(k + 2, tuple(edges))
            assert principal_minor_direct(laplacian(g2), interior) < 0
            (report2,) = line_obstruction_scan(g2)
            assert report2.violated

    @pytest.mark.parametrize("s", (1e-12, 1e-9, 1e-8, 1e-6, 1.0, 1e6))
    def test_scan_verdict_does_not_depend_on_the_weight_scale(self, s):
        # the interior minor on {2, 3} of (s, -m s, s) is (1 - 2m) s^2: negative for m = 0.6 at every s
        for m, violated in ((0.6, True), (0.4, False)):
            g = WeightedGraph(4, ((1, 2, s), (2, 3, -m * s), (3, 4, s)))
            (report,) = line_obstruction_scan(g)
            assert report.violated is violated
        # around the bound s / 2 the verdict flips between a 0.1 % shortfall and a 0.1 % overshoot
        for factor, violated in ((1 - 1e-3, False), (1.0, False), (1 + 1e-3, True)):
            g = WeightedGraph(4, ((1, 2, s), (2, 3, -0.5 * s * factor), (3, 4, s)))
            (report,) = line_obstruction_scan(g)
            assert report.bound == pytest.approx(0.5 * s) and report.violated is violated
