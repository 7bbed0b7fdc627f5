"""Principal minors: elimination vs forest sums vs incidence minors."""

import itertools

import numpy as np
import pytest

from helpers import brute_force_forest_family, brute_force_spanning_trees, random_signed_graph
from mesostab import (
    EdgeSubset,
    WeightedGraph,
    cauchy_binet_expand,
    coates_graph,
    connected_components,
    enumerate_forest_family,
    incidence_factorization,
    incidence_minor_magnitude,
    is_forest,
    laplacian,
    principal_minor_combinatorial,
    principal_minor_direct,
)
from mesostab import minors
from mesostab.numerics import GuardLimitError

C_MATRIX = np.array([
    [0.0, 0.0, 1.0, -1.0],
    [0.0, -1.0, 1.0, 0.0],
    [1.0, 1.0, -2.0, 0.0],
    [-1.0, 0.0, 0.0, 1.0],
])


def triangle():
    return WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))


class TestDirectMinor:
    def test_counterexample_leading_minors_exact(self):
        assert principal_minor_direct(C_MATRIX, [1, 2, 3]) == 1.0
        assert principal_minor_direct(C_MATRIX, [1, 2]) == 0.0
        assert principal_minor_direct(C_MATRIX, [1]) == 0.0

    def test_identity_any_subset(self):
        eye = np.eye(5)
        for s in ([2], [1, 3], [1, 2, 3, 4, 5]):
            assert principal_minor_direct(eye, s) == 1.0

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            principal_minor_direct(np.eye(3), [])

    def test_matches_numpy_det(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n))
            s = sorted(rng.choice(range(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False))
            idx = [v - 1 for v in s]
            expected = np.linalg.det(a[np.ix_(idx, idx)])
            assert principal_minor_direct(a, s) == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestForestFamily:
    def test_single_edge(self):
        g = WeightedGraph(2, ((1, 2, 4.0),))
        fam = enumerate_forest_family(g, [1])
        assert [k.sorted_members() for k in fam.members] == [(0,)]

    def test_triangle_pair_gives_spanning_trees(self):
        fam = enumerate_forest_family(triangle(), [1, 2])
        assert [k.sorted_members() for k in fam.members] == [(0, 1), (0, 2), (1, 2)]

    def test_all_but_one_vertex_is_spanning_trees(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            g = random_signed_graph(rng, n, n + 2)
            expected = set(brute_force_spanning_trees(g))
            for root in range(1, n + 1):
                s = [v for v in range(1, n + 1) if v != root]
                fam = enumerate_forest_family(g, s)
                assert {frozenset(k.members) for k in fam.members} == expected

    def test_members_satisfy_forest_and_outside_rule(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            g = random_signed_graph(rng, n, 9, connected=False)
            size = int(rng.integers(1, n))
            s = sorted(rng.choice(range(1, n + 1), size=size, replace=False))
            outside = set(range(1, n + 1)) - set(s)
            fam = enumerate_forest_family(g, s)
            for k in fam.members:
                assert len(k) == len(s)
                assert is_forest(k)
                for comp in connected_components(k):
                    assert len(comp & outside) == 1

    def test_lexicographic_member_order(self):
        rng = np.random.default_rng(21)
        g = random_signed_graph(rng, 5, 8)
        fam = enumerate_forest_family(g, [1, 2, 3])
        listed = [k.sorted_members() for k in fam.members]
        assert listed == sorted(listed)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            enumerate_forest_family(triangle(), [])

    def test_matches_brute_force_for_every_subset(self):
        # Connected and disconnected graphs, loops placed anywhere in the edge list.
        rng = np.random.default_rng(43)
        for trial in range(24):
            n = int(rng.integers(1, 7))
            g = random_signed_graph(rng, n, int(rng.integers(0, 9)), connected=trial % 2 == 0)
            loops = [(v, v, 2.0) for v in range(1, n + 1) if rng.random() < 0.3]
            edges = g.edges + tuple(loops)
            g = WeightedGraph(n, tuple(edges[k] for k in rng.permutation(len(edges))))
            for size in range(1, n + 1):
                for s in itertools.combinations(range(1, n + 1), size):
                    fam = enumerate_forest_family(g, s)
                    assert [k.sorted_members() for k in fam.members] == brute_force_forest_family(g, s)

    def test_edge_guard_counts_loops(self):
        simple = [(i, j, 1.0) for i in range(1, 10) for j in range(i + 1, 10)][:30]
        g = WeightedGraph(9, tuple(simple) + ((1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)))
        for f in (enumerate_forest_family, principal_minor_combinatorial):
            with pytest.raises(GuardLimitError, match="^forest enumeration is guarded at 32 edges, got 33$"):
                f(g, [1, 2])

    def test_edge_counts_read_the_arrays(self):
        # Neither the guard nor a public EdgeSubset builds a dense host's edge tuple
        a = np.random.default_rng(19).uniform(0.5, 1.5, (40, 40))
        g = coates_graph(a + a.T)
        assert EdgeSubset(g, frozenset({819})).members == {819}
        with pytest.raises(ValueError, match="edge index 820 outside"):
            EdgeSubset(g, frozenset({820}))
        for f in (enumerate_forest_family, principal_minor_combinatorial):
            with pytest.raises(GuardLimitError, match="got 820$"):
                f(g, [1])
        assert "edges" not in vars(g)


def complete_graph(n):
    return WeightedGraph(n, tuple((i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


class TestFamilyCheck:
    """A bad member injected into the enumerator's output is caught, in the
    first 256-member slice of the check and past it."""

    # K6 edges in index order: 12 13 14 15 16 23 24 25 26 34 35 36 45 46 56 (0..14).
    # S = {1,2,3,4} has 432 members, each with 4 edges and two trees.
    S = (1, 2, 3, 4)

    def _inject(self, monkeypatch, position, member):
        g = complete_graph(6)
        leaves = minors._family_leaves(g, self.S)
        assert len(leaves) == 432
        leaves[position] = (member, 1.0)
        monkeypatch.setattr(minors, "_family_leaves", lambda *args: leaves)
        with pytest.raises(AssertionError) as exc:
            enumerate_forest_family(g, self.S)
        return str(exc.value)

    @pytest.mark.parametrize("position", [0, 10, 255, 256, 300, 431])
    def test_cycle_is_caught(self, monkeypatch, position):
        # triangle 1-2-3 plus the edge 4-5
        assert self._inject(monkeypatch, position, (0, 1, 5, 12)) == \
            "enumeration produced a non-forest (0, 1, 5, 12)"

    @pytest.mark.parametrize("position", [10, 300])
    @pytest.mark.parametrize("member, text", [
        ((3, 4, 5, 9), "component [1, 5, 6] does not leave (1, 2, 3, 4) exactly once"),  # two outside
        ((0, 10, 11, 12), "component [1, 2] does not leave (1, 2, 3, 4) exactly once"),  # none, then two
        ((3, 5, 13), "component [2, 3] does not leave (1, 2, 3, 4) exactly once"),  # second tree has none
    ])
    def test_tree_leaving_s_more_or_less_than_once_is_caught(self, monkeypatch, position, member, text):
        assert self._inject(monkeypatch, position, member) == text

    def test_first_bad_member_is_named(self, monkeypatch):
        g = complete_graph(6)
        leaves = minors._family_leaves(g, self.S)
        leaves[300] = ((3, 4, 5, 9), 1.0)
        leaves[301] = ((0, 1, 5, 12), 1.0)
        leaves[400] = ((0, 1, 5, 12), 1.0)
        monkeypatch.setattr(minors, "_family_leaves", lambda *args: leaves)
        with pytest.raises(AssertionError, match=r"^component \[1, 5, 6\]"):
            enumerate_forest_family(g, self.S)


class TestCombinatorialMinor:
    def test_triangle_pair(self):
        assert principal_minor_combinatorial(triangle(), [1, 2]) == 3.0

    def test_single_edge_weight(self):
        g = WeightedGraph(2, ((1, 2, -2.5),))
        assert principal_minor_combinatorial(g, [1]) == -2.5

    def test_intro_graph_matches_direct(self):
        a = np.array([
            [0.0, 0.5, 0.0, -3.0],
            [0.5, 0.0, 1.0, -2.0],
            [0.0, 1.0, 0.0, 1.0],
            [-3.0, -2.0, 1.0, 0.0],
        ])
        g = coates_graph(a)
        L = laplacian(g)
        got = principal_minor_combinatorial(g, [1, 2, 3])
        assert got == pytest.approx(principal_minor_direct(L, [1, 2, 3]), rel=1e-9)

    def test_full_vertex_set_gives_zero(self):
        assert principal_minor_combinatorial(triangle(), [1, 2, 3]) == 0.0

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            g = random_signed_graph(rng, n, int(rng.integers(n - 1, 11)), connected=False)
            L = laplacian(g)
            for size in range(1, n):
                for s in itertools.combinations(range(1, n + 1), size):
                    direct = principal_minor_direct(L, s)
                    forest = principal_minor_combinatorial(g, s)
                    assert abs(forest - direct) <= max(1e-12, 1e-9 * abs(direct))


class TestIncidenceMinors:
    def test_single_edge_base_case(self):
        g = WeightedGraph(2, ((1, 2, 3.0),))
        inc = incidence_factorization(g)
        assert incidence_minor_magnitude(inc, [1], EdgeSubset(g, frozenset({0}))) == 1

    def test_component_inside_subset_vanishes(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        inc = incidence_factorization(g)
        # both endpoints of edge 0 inside S: rows sum to zero
        assert incidence_minor_magnitude(inc, [1, 2], EdgeSubset(g, frozenset({0, 1}))) == 0

    def test_triangle_pairs(self):
        g = triangle()
        inc = incidence_factorization(g)
        for pair in itertools.combinations(range(3), 2):
            assert incidence_minor_magnitude(inc, [1, 2], EdgeSubset(g, frozenset(pair))) == 1

    def test_size_mismatch_rejected(self):
        g = triangle()
        inc = incidence_factorization(g)
        with pytest.raises(ValueError, match="must match"):
            incidence_minor_magnitude(inc, [1, 2], EdgeSubset(g, frozenset({0})))

    def test_membership_equivalence(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(3, 7))
            g = random_signed_graph(rng, n, 8, connected=False)
            inc = incidence_factorization(g)
            m = len(g.edges)
            for size in range(1, min(n, m) + 1):
                for s in itertools.combinations(range(1, n + 1), size):
                    family = {k.members for k in enumerate_forest_family(g, s).members}
                    for cols in itertools.combinations(range(m), size):
                        k = EdgeSubset(g, frozenset(cols))
                        expected = 1 if k.members in family else 0
                        assert incidence_minor_magnitude(inc, s, k) == expected


class TestCauchyBinet:
    def test_single_edge(self):
        g = WeightedGraph(2, ((1, 2, 5.0),))
        inc = incidence_factorization(g)
        got = cauchy_binet_expand(inc.matrix @ inc.weight_diagonal(), inc.matrix.T, [1], [1])
        assert got == 5.0

    def test_square_case_is_det_product(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            d = rng.normal(size=(n, n))
            e = rng.normal(size=(n, n))
            full = list(range(1, n + 1))
            got = cauchy_binet_expand(d, e, full, full)
            expected = np.linalg.det(d) * np.linalg.det(e)
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_triangle_minor(self):
        inc = incidence_factorization(triangle())
        got = cauchy_binet_expand(inc.matrix @ inc.weight_diagonal(), inc.matrix.T, [1, 2], [1, 2])
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_reproduces_product_minors(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            g = random_signed_graph(rng, n, 8, connected=False)
            inc = incidence_factorization(g)
            if not inc.edge_indices:
                continue
            dw = inc.matrix @ inc.weight_diagonal()
            prod = inc.laplacian_product()
            for size in range(1, min(n, len(inc.edge_indices)) + 1):
                for s in itertools.combinations(range(1, n + 1), size):
                    got = cauchy_binet_expand(dw, inc.matrix.T, s, s)
                    expected = principal_minor_direct(prod, s)
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_size_violations(self):
        d = np.ones((2, 1))
        with pytest.raises(ValueError, match="exceeds inner dimension"):
            cauchy_binet_expand(d, d.T, [1, 2], [1, 2])
