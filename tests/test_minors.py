"""Principal minors: elimination vs forest sums vs incidence minors."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    C_MATRIX,
    brute_force_forest_family,
    brute_force_spanning_trees,
    looped_det_partial_pivot,
    marked_forest_leaves,
    random_signed_graph,
)
from mesostab import (
    EdgeSubset,
    ForestFamily,
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
from mesostab.graphs import _simple_columns
from mesostab.numerics import GuardLimitError, det_partial_pivot, partial_pivot_dets

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


@st.composite
def elimination_stacks(draw):
    """A shape and a stack of equal-size square matrices of it: principal
    blocks of signed-graph Laplacians, singular integer matrices, entries of
    tied magnitude, a column of (signed) zeros, entries near 1e200 and
    1e308 whose products and updates reach inf and NaN, and NaN or inf
    entries."""
    shape = draw(st.sampled_from(["laplacian", "singular", "ties", "zero-column", "huge", "nonfinite"]))
    k = draw(st.integers(min_value=1 if shape == "zero-column" else 0, max_value=7))
    count = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if shape == "laplacian":
        n = k + int(rng.integers(0, 3))
        L = laplacian(random_signed_graph(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)), connected=False)) \
            if n else np.zeros((0, 0))
        picks = [np.sort(rng.choice(n, size=k, replace=False)) for _ in range(count)]
        return shape, np.array([L[np.ix_(p, p)] for p in picks]).reshape(count, k, k)
    if shape == "singular":
        inner = int(rng.integers(0, k)) if k else 0
        b = rng.integers(-2, 3, size=(count, k, inner))
        c = rng.integers(-2, 3, size=(count, inner, k))
        return shape, (b @ c).astype(float)
    palette = {
        "ties": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "zero-column": [-3.0, -1.0, 0.0, -0.0, 1.0, 2.0],
        "huge": [-1e308, -1e200, -3e199, -1.0, 0.0, 1e-200, 1.0, 5e199, 1e200, 1e308],
        "nonfinite": [np.nan, np.inf, -np.inf, -1.0, 0.0, -0.0, 1.0, 2.0],
    }[shape]
    stack = rng.choice(palette, size=(count, k, k))
    if shape == "zero-column":
        stack[:, :, int(rng.integers(0, k))] = rng.choice([0.0, -0.0], size=(count, k))
    return shape, stack


def same_bits(got, want) -> bool:
    return bool((np.asarray(got).view(np.int64) == np.asarray(want).view(np.int64)).all())


def same_dets(got, want) -> bool:
    """NaN exactly where ``want`` is NaN, and every other determinant bit for bit.

    A NaN's sign and payload are not compared: where an operation meets two
    NaNs, IEEE 754 lets it return either, and numpy's loops and Python's
    float product pick different ones."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return got.shape == want.shape and bool((np.isnan(got) == nan).all()) and same_bits(got[~nan], want[~nan])


NAN_TIMES_NAN = np.array([[[-1.0, -0.0, 1.0, np.nan], [-1.0, 1.0, -1.0, 1.0],
                           [-np.inf, np.inf, np.inf, np.nan], [-np.inf, -np.inf, -0.0, -0.0]]])


@settings(max_examples=400, deadline=None)
@given(elimination_stacks())
@example(("nonfinite", NAN_TIMES_NAN))  # the first row update multiplies -inf/-inf by the input NaN
def test_stacked_elimination_matches_the_looped_one_bit_for_bit(case):
    shape, stack = case
    want = np.array([looped_det_partial_pivot(a) for a in stack])
    got = partial_pivot_dets(stack)
    assert same_dets(got, want)
    assert same_dets([det_partial_pivot(a) for a in stack], want)
    assert same_dets(partial_pivot_dets(np.stack([stack, stack[::-1]])), [want, want[::-1]])
    if shape == "zero-column":
        assert same_bits(got, np.zeros(len(stack)))  # 0.0, never -0.0


def test_overflow_reaches_inf_and_nan_as_the_looped_elimination_does():
    inf_det = [[1e200, 1e200, 1.0], [-1e200, 1e200, 1.0], [1.0, 1e200, 1e200]]
    nan_det = [[1e308, 1e308, 1e308], [-1e308, 1e308, -1e308], [1e308, -1e308, 1.0]]
    got = partial_pivot_dets(np.array([inf_det, nan_det]))
    assert got[0] == np.inf and np.isnan(got[1])
    assert same_dets(got, [looped_det_partial_pivot(inf_det), looped_det_partial_pivot(nan_det)])


def test_stacked_subsets_give_the_one_subset_minors():
    L = laplacian(random_signed_graph(np.random.default_rng(41), 7, 12))
    for k in range(1, 8):
        rows = np.array(list(itertools.combinations(range(1, 8), k)))
        got = principal_minor_direct(L, rows)
        assert same_bits(got, [principal_minor_direct(L, row) for row in rows.tolist()])
    assert same_bits(principal_minor_direct(L, [[1, 2], [2, 5]]), principal_minor_direct(L, np.array([[1, 2], [2, 5]])))
    assert principal_minor_direct(L, np.zeros((0, 3), dtype=int)).shape == (0,)


@pytest.mark.parametrize("rows, message", [
    (np.array([[1, 2], [3, 8]]), r"vertex 8 outside 1\.\.7 \(subset row 1\)"),
    (np.array([[0, 2]]), r"vertex 0 outside 1\.\.7"),
    (np.array([[1, 3], [4, 2]]), r"subset row 1 \[4, 2\] is not in ascending order"),
    (np.array([[1, 3], [5, 5]]), r"subset row 1 \[5, 5\] repeats vertex 5"),
    ([[1, 2], [3]], "same size"),
    (np.ones((2, 2, 2), dtype=int), "2-D array, got 3 dimensions"),
    (np.array([[1.0, 2.0]]), "integer vertex labels, got dtype float64"),
    (np.zeros((2, 0), dtype=int), "non-empty"),
])
def test_stacked_subset_errors_name_their_cause(rows, message):
    L = laplacian(random_signed_graph(np.random.default_rng(43), 7, 10))
    with pytest.raises(ValueError, match=message):
        principal_minor_direct(L, rows)


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

    def test_search_leaves_no_reference_cycle(self):
        # a cycle would keep each search's leaves alive until the cyclic collector ran
        g = random_signed_graph(np.random.default_rng(47), 7, 12)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fam = enumerate_forest_family(g, [1, 2, 3, 4])
            value = principal_minor_combinatorial(g, [1, 2, 3, 4])
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert len(fam) > 0 and value != 0.0
        assert garbage == []

    def test_len_and_weight_sum_build_no_member(self, monkeypatch):
        built = _counted_members(monkeypatch)
        fam = enumerate_forest_family(complete_graph(6), [1, 2, 3, 4])
        assert (len(fam), fam.weight_sum()) == (432, 432.0)
        assert built == []

    def test_members_are_built_once_on_first_read(self, monkeypatch):
        built = _counted_members(monkeypatch)
        fam = enumerate_forest_family(complete_graph(6), [1, 2, 3, 4])
        members = fam.members
        assert len(members) == 432
        assert built == [k.members for k in members]
        assert fam.members is members

    def test_rows_are_read_only_and_hold_the_members(self):
        fam = enumerate_forest_family(complete_graph(6), [1, 2, 3, 4])
        rows = fam._rows
        assert rows.dtype == np.int64 and rows.shape == (len(fam), 4) and not rows.flags.writeable
        assert [k.sorted_members() for k in fam.members] == [tuple(row) for row in rows.tolist()]

    def test_families_compare_by_subset_and_members(self):
        g = random_signed_graph(np.random.default_rng(3), 6, 10)
        fam = enumerate_forest_family(g, [1, 2, 3])
        again = enumerate_forest_family(WeightedGraph(g.n, g.edges), [1, 2, 3])
        assert fam == again and hash(fam) == hash(again)
        rebuilt = ForestFamily(fam.subset, fam.members)
        assert rebuilt == fam and (len(rebuilt), rebuilt.weight_sum()) == (len(fam), fam.weight_sum())
        assert fam != enumerate_forest_family(g, [1, 2, 4])
        assert fam != ForestFamily((1, 2, 4), fam.members)
        assert fam != ForestFamily(fam.subset, fam.members[1:])
        doubled = WeightedGraph(g.n, tuple((i, j, 2.0 * w) for i, j, w in g.edges))
        assert fam != enumerate_forest_family(doubled, [1, 2, 3])
        assert fam != (fam.subset, fam.members)

    def test_weight_sum_peak_memory_is_below_half_of_reading_members(self):
        # A 16-vertex, 28-edge graph with a 3,168-member family, the size of the benchmark's forest ops.
        g = random_signed_graph(np.random.default_rng(131), 16, 28)
        s = list(range(1, 9))

        def peak(read_members: bool) -> int:
            tracemalloc.start()
            try:
                fam = enumerate_forest_family(g, s)
                fam.weight_sum()
                if read_members:
                    assert len(fam.members) == 3168
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(False) < peak(True) / 2

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


def _counted_members(monkeypatch) -> list[frozenset[int]]:
    """Record the edge set of every ``EdgeSubset`` the package builds unchecked."""
    built = []
    trusted = EdgeSubset._trusted.__func__

    def counting(cls, host, members):
        built.append(members)
        return trusted(cls, host, members)

    monkeypatch.setattr(EdgeSubset, "_trusted", classmethod(counting))
    return built


def complete_graph(n):
    return WeightedGraph(n, tuple((i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


@st.composite
def enumeration_cases(draw):
    """A graph of at most 32 edges (a tree, a star, a path, a dense or a
    random graph, relabelled), a vertex set S and a marker set inside S."""
    shape = draw(st.sampled_from(["tree", "star", "path", "dense", "random"]))
    if shape == "dense":
        n = draw(st.integers(1, 9))
        pairs = list(itertools.combinations(range(1, n + 1), 2))[:32]
    elif shape == "random":
        n = draw(st.integers(1, 12))
        every = list(itertools.combinations(range(1, n + 1), 2))
        pairs = draw(st.lists(st.sampled_from(every), unique=True, max_size=32)) if every else []
    else:
        n = draw(st.integers(1, 33))
        if shape == "tree":
            pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
        elif shape == "star":
            pairs = [(1, v) for v in range(2, n + 1)]
        else:
            pairs = [(v, v + 1) for v in range(1, n)]
    label = [0] + draw(st.permutations(range(1, n + 1)))
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=len(pairs), max_size=len(pairs)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph(n, tuple((label[i], label[j], x * w) for (i, j), x, w in zip(pairs, signs, weights)))
    s = tuple(v for v in range(1, n + 1) if draw(st.booleans()))
    marker = tuple(v for v in s if draw(st.booleans()))
    return g, s, marker


@settings(max_examples=100, deadline=None)
@given(enumeration_cases())
def test_merged_enumerator_matches_marked_oracle_bit_for_bit(case):
    # Both call shapes: a forest family (every edge, the vertices outside S
    # merged) and a cut decomposition's inside forests (the edges inside S,
    # a marker set merged). The oracle takes the same edges as tuples.
    g, s, marker = case
    side = set(s)
    columns = _simple_columns(g)
    mask = np.isin(g.vertices, s)
    within = mask[columns[1]] & mask[columns[2]]
    inside = [e for e in g.simple_edges() if e[1] in side and e[2] in side]
    shapes = ((list(g.simple_edges()), set(g.vertices) - side, len(s), columns, ~mask),
              (inside, marker, len(s) - len(marker), tuple(c[within] for c in columns), np.isin(g.vertices, marker)))
    # By the all-minors matrix-tree theorem on unit weights, the member count
    # is the minor of the candidates' Laplacian on the non-special rows.
    for candidates, special, *_ in shapes:
        unit = np.zeros((g.n + 1, g.n + 1))
        for _, i, j, _ in candidates:
            unit[[i, j], [i, j]] += 1.0
            unit[[i, j], [j, i]] -= 1.0
        rows = sorted(side - set(special))
        assume(np.linalg.det(unit[np.ix_(rows, rows)]) <= 5000)
    for candidates, special, size, edges, merged in shapes:
        rows, products = minors._forest_family(g.n, *edges, merged, size)
        expected = marked_forest_leaves(g.n, candidates, special, size)
        assert rows.dtype == np.int64 and rows.shape == (len(expected), size)
        assert [(tuple(r), p.hex()) for r, p in zip(rows.tolist(), products)] == [(m, p.hex()) for m, p in expected]


@st.composite
def wide_range_families(draw):
    """A signed graph on at most 9 vertices and 20 edges with |weights| from
    1e-150 to 1e150, so that some products overflow or underflow, and a
    vertex set S of one vertex up to all of them."""
    n = draw(st.integers(1, 9))
    every = list(itertools.combinations(range(1, n + 1), 2))
    pairs = draw(st.lists(st.sampled_from(every), unique=True, max_size=20)) if every else []
    weights = draw(st.lists(st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e),
                            min_size=len(pairs), max_size=len(pairs)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph(n, tuple((i, j, x * w) for (i, j), x, w in zip(pairs, signs, weights)))
    s = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    return g, s


def _outcome(f):
    """``f()``'s float as hex, or the type of what it raised: an fsum over
    inf and -inf raises ValueError, one that overflows OverflowError."""
    try:
        return f().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(wide_range_families())
# a 4-cycle with one negative edge: its spanning trees weigh +inf and -inf, or underflow to ±0
@example((WeightedGraph(4, ((1, 2, 1e150), (2, 3, 1e150), (3, 4, 1e150), (1, 4, -1e150))), (1, 2, 3)))
@example((WeightedGraph(4, ((1, 2, 1e-150), (2, 3, 1e-150), (3, 4, 1e-150), (1, 4, -1e-150))), (1, 2, 3)))
def test_lazy_family_matches_oracle_bit_for_bit(case):
    g, s = case
    rows = [v - 1 for v in s]
    unit = laplacian(WeightedGraph(g.n, tuple((i, j, 1.0) for i, j, _ in g.edges)))
    # the member count, by the all-minors matrix-tree theorem
    assume(np.linalg.det(unit[np.ix_(rows, rows)]) <= 5000)
    oracle = marked_forest_leaves(g.n, list(g.simple_edges()), set(g.vertices) - set(s), len(s))
    fam = enumerate_forest_family(g, s)
    weight_sum = _outcome(fam.weight_sum)
    assert len(fam) == len(oracle)
    assert [k.sorted_members() for k in fam.members] == [m for m, _ in oracle]
    assert weight_sum == _outcome(lambda: math.fsum(k.weight_product() for k in fam.members))
    assert _outcome(lambda: principal_minor_combinatorial(g, s)) == _outcome(lambda: math.fsum(p for _, p in oracle))


class TestFamilyCheck:
    """A bad member injected into the enumerator's output is caught, in the
    first 256-member slice of the check and past it."""

    # K6 edges in index order: 12 13 14 15 16 23 24 25 26 34 35 36 45 46 56 (0..14).
    # S = {1,2,3,4} has 432 members, each with 4 edges and two trees.
    S = (1, 2, 3, 4)

    def _inject(self, monkeypatch, bad):
        """The message of the check with ``bad`` ({position: row}) written over the search's rows."""
        search = minors._forest_family

        def injected(*args):
            rows, products = search(*args)
            assert rows.shape == (432, 4)
            rows = rows.copy()
            for position, row in bad.items():
                rows[position] = row
            return rows, products

        monkeypatch.setattr(minors, "_forest_family", injected)
        with pytest.raises(AssertionError) as exc:
            enumerate_forest_family(complete_graph(6), self.S)
        return str(exc.value)

    @pytest.mark.parametrize("position", [0, 10, 255, 256, 300, 431])
    def test_cycle_is_caught(self, monkeypatch, position):
        # triangle 1-2-3 plus the edge 4-5
        assert self._inject(monkeypatch, {position: (0, 1, 5, 12)}) == \
            "enumeration produced a non-forest (0, 1, 5, 12)"

    @pytest.mark.parametrize("position", [10, 300])
    @pytest.mark.parametrize("member, text", [
        ((3, 4, 5, 9), "component [1, 5, 6] does not leave (1, 2, 3, 4) exactly once"),  # two outside
        ((0, 10, 11, 12), "component [1, 2] does not leave (1, 2, 3, 4) exactly once"),  # none, then two
        # vertex 1 alone is a tree with no edge, so the other holds both outside vertices
        ((5, 9, 12, 14), "component [2, 3, 4, 5, 6] does not leave (1, 2, 3, 4) exactly once"),
    ])
    def test_tree_leaving_s_more_or_less_than_once_is_caught(self, monkeypatch, position, member, text):
        assert self._inject(monkeypatch, {position: member}) == text

    def test_first_bad_member_is_named(self, monkeypatch):
        bad = {300: (3, 4, 5, 9), 301: (0, 1, 5, 12), 400: (0, 1, 5, 12)}
        assert self._inject(monkeypatch, bad).startswith("component [1, 5, 6]")


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
