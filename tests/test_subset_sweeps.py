"""The exhaustive subset sweeps against their one-shot forms.

The principal-minor sweep takes only the subsets inside one block of a
permuted block-diagonal matrix, streams each subset size in chunks and
stops at its first violation; the cut identity sums each side's crossing pools once, and
its all-sides sweep fills the Laplacian minors of one graph once. Both must return
exactly what the oracles in ``helpers`` return, floats bit for bit. The
cut identity's closed-form crossing weights must also agree with the
paper's forest-by-forest expansion. The five-way check walks the same
chunks as the sweep and must return the report of its one-subset-at-a-time
form.
"""

import itertools
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _rescanned_sigma_weight,
    looped_equivalences,
    random_positive_graph,
    rescanned_closed_weight,
    rescanned_cut_identity_terms,
    strict_json,
    unchunked_sweep,
)
from mesostab import (
    GuardLimitError,
    MinorWitness,
    WeightedGraph,
    check_equivalences,
    cut_identity_sweep,
    cut_identity_terms,
    graphs,
    is_psd_full,
    laplacian,
    structure,
    sylvester,
)
from mesostab.cli import main
from mesostab.io import format_edge_list, format_matrix_csv
from mesostab.selftest import random_signed_graph, random_zero_row_sum_matrix


def same_float(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("n", range(1, 13))
def test_combination_builder_matches_itertools(n):
    sizes = []
    for k, combos in sylvester._combinations(n, n):
        sizes.append(k)
        assert combos.tolist() == [list(c) for c in itertools.combinations(range(n), k)]
    assert sizes == list(range(1, n + 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.data())
def test_combination_builder_keeps_within_class_subsets_in_itertools_order(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    shape = data.draw(st.sampled_from(["none", "tree", "random"]))
    if shape == "none":  # all singletons
        chosen = []
    elif shape == "tree":  # one class
        chosen = [(int(data.draw(st.integers(min_value=0, max_value=v - 1))), v) for v in range(1, n)]
    else:
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    i = np.array([a for a, _ in chosen], dtype=np.intp)
    j = np.array([b for _, b in chosen], dtype=np.intp)
    labels, _ = graphs._index_forest(n, i, j)
    if shape == "tree":
        assert (labels == 0).all()
    k_max = data.draw(st.integers(min_value=0, max_value=n + 1))
    got = [(k, combos.tolist()) for k, combos in sylvester._combinations(n, k_max, labels)]
    want = [(k, [list(c) for c in itertools.combinations(range(n), k) if len(set(labels[list(c)])) == 1])
            for k in range(1, k_max + 1)]
    assert got == want


def _cycle_laplacian(rng, c):
    """Laplacian of a c-cycle whose one negative edge is just above the harmonic
    bound of the others: only the minors that drop one cycle vertex are negative."""
    w = rng.uniform(0.5, 1.5, size=c - 1)
    x = float(rng.uniform(1.05, 1.2)) / np.sum(1.0 / w)
    L = np.zeros((c, c))
    for k, (i, j) in enumerate([(k, k + 1) for k in range(c - 1)] + [(0, c - 1)]):
        wt = w[k] if k < c - 1 else -x
        L[i, j] = L[j, i] = -wt
        L[i, i] += wt
        L[j, j] += wt
    return L


@st.composite
def sweep_matrices(draw):
    """Indefinite, negative-semi-definite-only, rank-deficient PSD and zero
    matrices, and matrices whose first violation lies past size 1."""
    n = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["indefinite", "nsd", "psd-deficient", "zero", "late", "late-cycle"]))
    if shape == "indefinite":
        a = rng.integers(-3, 4, size=(n, n)).astype(float)
        a = np.triu(a) + np.triu(a, 1).T
    elif shape == "zero":
        a = np.zeros((n, n))
    elif shape in ("nsd", "psd-deficient"):
        b = rng.normal(size=(n, int(rng.integers(0, n + 1))))
        a = b @ b.T if shape == "psd-deficient" else -(b @ b.T)
    elif shape == "late":
        # positive definite below size r + 1, a negative minor from there on
        r = int(rng.integers(1, n)) if n > 1 else 0
        b = rng.normal(size=(n, r))
        v = rng.normal(size=n)
        a = b @ b.T - float(rng.uniform(1e-3, 1e-1)) * np.outer(v, v)
    else:
        c = min(n, int(rng.integers(3, 7))) if n >= 3 else n
        a = np.eye(n)
        if c >= 3:
            a[n - c:, n - c:] = _cycle_laplacian(rng, c)
        perm = rng.permutation(n)
        a = a[np.ix_(perm, perm)]
    return a


@settings(max_examples=400, deadline=None)
@given(sweep_matrices(), st.sampled_from([1, 3, 7, sylvester.SWEEP_CHUNK]))
def test_sweep_matches_unchunked_oracle(a, chunk):
    want = unchunked_sweep(a)
    with mock.patch.object(sylvester, "SWEEP_CHUNK", chunk):
        got = is_psd_full(a)
    assert (got.kind, got.rank_estimate) == (want.kind, want.rank_estimate)
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.subset == want.witness.subset
        assert same_float(got.witness.value, want.witness.value)


def test_late_violation_is_found_past_the_first_chunk():
    rng = np.random.default_rng(5)
    a = np.eye(9)
    a[3:, 3:] = _cycle_laplacian(rng, 6)
    want = unchunked_sweep(a)
    assert want.witness.subset == (4, 5, 6, 7, 8)  # the first 5-subset of the cycle
    for chunk in (1, 3, 7):
        with mock.patch.object(sylvester, "SWEEP_CHUNK", chunk):
            got = is_psd_full(a)
        assert got == want and same_float(got.witness.value, want.witness.value)


BLOCK_KINDS = ("pd", "psd-deficient", "nsd", "indefinite", "singleton", "zero-row", "zero")


def _block(rng, kind, k):
    """A k x k symmetric block of one kind; singletons and zero rows are 1 x 1."""
    if kind == "singleton":
        return np.array([[float(rng.choice([-2.0, -0.5, 0.5, 3.0]))]])
    if kind == "zero-row":
        return np.zeros((1, 1))
    if kind == "zero":
        return np.zeros((k, k))
    if kind == "indefinite":
        a = rng.integers(-3, 4, size=(k, k)).astype(float)
        return np.triu(a) + np.triu(a, 1).T
    b = rng.normal(size=(k, k if kind == "pd" else int(rng.integers(0, k))))
    return -(b @ b.T) if kind == "nsd" else b @ b.T


def _block_diagonal(blocks, rng=None):
    """The block-diagonal matrix of ``blocks``; given ``rng``, rows and columns in a random order."""
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n))
    at = 0
    for b in blocks:
        a[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    perm = np.arange(n) if rng is None else rng.permutation(n)
    return a[np.ix_(perm, perm)]


@st.composite
def block_diagonal_matrices(draw):
    """Randomly permuted block-diagonal matrices of 1-4 positive definite,
    rank-deficient PSD, NSD, indefinite, singleton and zero blocks (all of
    them zero for the zero matrix), at most 10 rows in all."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=4))
    if draw(st.booleans()) and draw(st.booleans()):
        kinds = ["zero"] * len(kinds)
    sizes = [draw(st.integers(min_value=1, max_value=10 // len(kinds))) for _ in kinds]
    return _block_diagonal([_block(rng, kind, k) for kind, k in zip(kinds, sizes)], rng)


@settings(max_examples=400, deadline=None)
@given(block_diagonal_matrices(), st.sampled_from([1, 3, 7, sylvester.SWEEP_CHUNK]))
def test_block_diagonal_sweep_matches_whole_matrix_oracle(a, chunk):
    want = unchunked_sweep(a)
    with mock.patch.object(sylvester, "SWEEP_CHUNK", chunk):
        got = is_psd_full(a)
    assert (got.kind, got.rank_estimate) == (want.kind, want.rank_estimate)
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.subset == want.witness.subset
        assert same_float(got.witness.value, want.witness.value)


@pytest.mark.parametrize("sign, kind", [(1.0, "positive-definite"), (-1.0, "negative-definite")])
def test_near_singular_blocks_stay_definite(sign, kind):
    # each block's determinant is 1e-6 of its Hadamard bound and the product of
    # the two 1e-12 of its bound, but the kind comes from the eigenvalues
    # (1e-6 each, above the zero threshold), so neither sweep calls it semi-definite
    eps = 1e-6
    block = sign * np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    a = _block_diagonal([block, block], np.random.default_rng(7))
    want = unchunked_sweep(a)
    got = is_psd_full(a)
    assert got == want
    assert (got.kind, got.rank_estimate) == (kind, 4)


def _counted_blocks(monkeypatch) -> list:
    """Sizes of the chunks of principal blocks that the sweep forms."""
    formed = []
    blocks = sylvester._principal_blocks

    def counted(L, k_max, labels=None):
        for cc, subs in blocks(L, k_max, labels):
            formed.append(len(subs))
            yield cc, subs

    monkeypatch.setattr(sylvester, "_principal_blocks", counted)
    return formed


def test_two_block_sweep_takes_each_blocks_minors_only(monkeypatch):
    rng = np.random.default_rng(19)
    parts = [laplacian(random_positive_graph(rng, 10, 20)) for _ in range(2)]
    a = _block_diagonal(parts, rng)
    formed = _counted_blocks(monkeypatch)
    verdict = is_psd_full(a)
    assert (verdict.kind, verdict.rank_estimate, verdict.witness) == ("positive-semi-definite", 18, None)
    assert sum(formed) == 2 * (2**10 - 1)  # not 2^20 - 1


@pytest.mark.parametrize("pair_first, formed_chunks", [(True, [12]), (False, [12])])
def test_block_sweep_stops_at_the_first_violation_anywhere(monkeypatch, pair_first, formed_chunks):
    # the pair's negative diagonal is a violation among the 12 singletons,
    # wherever the pair sits, so the sweep forms no pair
    pair = -laplacian(WeightedGraph(2, ((1, 2, 1.0),)))
    big = laplacian(random_positive_graph(np.random.default_rng(23), 10, 20))
    a = _block_diagonal([pair, big] if pair_first else [big, pair])
    formed = _counted_blocks(monkeypatch)
    got = is_psd_full(a)
    want = unchunked_sweep(a)
    assert got.kind == want.kind == "indefinite"
    assert got.witness == want.witness == MinorWitness((1,) if pair_first else (11,), -1.0)
    assert formed == formed_chunks


def test_negative_semi_definite_sweep_stops_at_the_singletons(monkeypatch):
    # a negated connected Laplacian has a negative diagonal entry, so the
    # sweep stops at the chunk of its 16 singletons
    g = random_positive_graph(np.random.default_rng(31), 16, 40)
    formed = _counted_blocks(monkeypatch)
    got = is_psd_full(-laplacian(g))
    assert (got.kind, got.rank_estimate, got.witness.subset) == ("negative-semi-definite", 15, (1,))
    assert formed == [16]


def test_sweep_guard_applies_to_n_not_to_a_block(tmp_path, capsys):
    rng = np.random.default_rng(29)
    parts = [laplacian(random_positive_graph(rng, k, 2 * k)) for k in (10, 11)]
    path = tmp_path / "two_blocks.csv"
    path.write_text(format_matrix_csv(-_block_diagonal(parts, rng)))
    main(["--format", "json", "analyze-matrix", str(path)])
    report = strict_json(capsys.readouterr().out)["report"]
    assert report["full_sweep"] is None
    assert "exhaustive minor sweep skipped: n=21 exceeds n_max=20" in report["notes"]
    main(["--format", "json", "--nmax", "21", "analyze-matrix", str(path)])
    report = strict_json(capsys.readouterr().out)["report"]
    assert report["full_sweep"]["kind"] == "positive-semi-definite"
    assert report["full_sweep"]["rank_estimate"] == 19
    assert not any("skipped" in note for note in report["notes"])


@st.composite
def equivalence_matrices(draw):
    """Integer zero-row-sum matrices and signed or positive Laplacians,
    connected or not, scaled by 10^-6..10^6."""
    n = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["integer", "signed", "positive", "signed-disconnected", "positive-disconnected"]))
    if shape == "integer":
        a = random_zero_row_sum_matrix(rng, n)
    else:
        g = random_signed_graph(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)),
                                connected=not shape.endswith("disconnected"))
        if shape.startswith("positive"):
            g = WeightedGraph(n, tuple((i, j, abs(w)) for i, j, w in g.edges))
        a = laplacian(g)
    return a * 10.0 ** draw(st.integers(min_value=-6, max_value=6))


@settings(max_examples=200, deadline=None)
@given(equivalence_matrices(), st.sampled_from([1, 3, 7, sylvester.SWEEP_CHUNK]))
def test_five_way_check_matches_looped_oracle(a, chunk):
    want = looped_equivalences(a)
    with mock.patch.object(sylvester, "SWEEP_CHUNK", chunk):
        assert check_equivalences(a) == want


def test_five_way_check_takes_batched_determinants_only(monkeypatch):
    n = 10
    L = laplacian(random_positive_graph(np.random.default_rng(13), n, 2 * n))
    loops, batches = [], []
    det = np.linalg.det
    monkeypatch.setattr(sylvester, "det_partial_pivot", lambda a: loops.append(a) or 1.0)
    monkeypatch.setattr(np.linalg, "det", lambda a: batches.append(a.shape) or det(a))
    assert check_equivalences(L).values() == (True,) * 5  # max-rank PSD: every size is swept
    assert loops == []
    assert len(batches) <= n - 1


WEIGHTS = st.one_of(st.integers(min_value=-4, max_value=-1), st.integers(min_value=1, max_value=4),
                    st.floats(min_value=-3.0, max_value=3.0).filter(lambda w: abs(w) > 1e-3))


@st.composite
def identity_graphs(draw):
    """Signed graphs on n <= 7 vertices with loops, disconnected parts and isolated vertices."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 16)))
    return WeightedGraph(n, tuple((i, j, float(draw(WEIGHTS))) for i, j in chosen))


@settings(max_examples=150, deadline=None)
@given(identity_graphs())
def test_cut_identity_terms_match_rescanning_oracle(g):
    for size in range(1, g.n):
        for side in itertools.combinations(range(1, g.n + 1), size):
            got = cut_identity_terms(g, side)
            want = rescanned_cut_identity_terms(g, side)
            assert got == want
            assert all(same_float(x, y) for x, y in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(identity_graphs())
def test_closed_form_crossing_weight_matches_forest_expansion(g):
    # With k markers the closed form rounds each crossing sum once and the
    # product k - 1 times, the expansion each forest's product k - 1 times
    # and their sum once. Relative to the summed absolute forest products
    # (the closed weight on |w|) they lie within about 2k - 1 and k units of
    # roundoff of the exact weight, so 3k units bound their gap.
    unit = 2.0**-53
    magnitudes = WeightedGraph(g.n, tuple((i, j, abs(w)) for i, j, w in g.edges))
    integral = all(w.is_integer() for _, _, w in g.edges)
    for size in range(1, g.n):
        for side in itertools.combinations(range(1, g.n + 1), size):
            v1 = frozenset(side)
            for r in range(size + 1):
                for b in itertools.combinations(side, r):
                    closed = rescanned_closed_weight(g, v1, b)
                    forests = _rescanned_sigma_weight(g, v1, b)
                    if integral:
                        assert closed == forests
                    else:
                        bound = 3 * r * unit * rescanned_closed_weight(magnitudes, v1, b)
                        assert abs(closed - forests) <= bound


def test_cut_identity_terms_survive_an_equal_graph():
    # a pure function of the graph: an equal graph gives the same terms
    g = random_signed_graph(np.random.default_rng(3), 6, 9)
    first = cut_identity_terms(g, (1, 2, 3))
    again = cut_identity_terms(WeightedGraph(g.n, g.edges), (1, 2, 3))
    assert first == again == rescanned_cut_identity_terms(g, (1, 2, 3))


def _counted_minors(monkeypatch) -> tuple[list, list]:
    """The subsets whose minors the cut identity takes, one per row of its
    stacked calls, and the row count of each call."""
    rows, stacks = [], []
    direct = structure.principal_minor_direct

    def counted(L, s):
        rows.extend(map(tuple, s.tolist()))
        stacks.append(len(s))
        return direct(L, s)

    monkeypatch.setattr(structure, "principal_minor_direct", counted)
    return rows, stacks


def test_all_sides_sweep_computes_each_minor_once(tmp_path, capsys, monkeypatch):
    n = 8
    g = random_signed_graph(np.random.default_rng(11), n, 2 * n)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    calls, stacks = _counted_minors(monkeypatch)
    assert main(["--format", "json", "verify-identity", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2**n - 2
    assert len(set(calls)) == len(calls)
    assert len(stacks) == n - 1  # one stack per side size


def test_one_side_computes_only_the_minors_of_its_nonzero_markers(monkeypatch):
    # a 16-vertex path side with one boundary vertex: markers {} and {16}
    n = 18
    g = WeightedGraph(n, tuple((v, v + 1, 1.0 + v / 10) for v in range(1, n)))
    side = tuple(range(1, 17))
    calls, stacks = _counted_minors(monkeypatch)
    terms = cut_identity_terms(g, side)
    assert calls == [side, side[:-1]]
    assert stacks == [1, 1]
    assert terms == rescanned_cut_identity_terms(g, side)


def test_one_side_builds_the_markers_of_its_crossing_vertices_only():
    # a 20-vertex path side whose two ends alone cross: 4 marker sets, not 2^20
    edges = [(v, v + 1, 1.0 + v / 10) for v in range(1, 20)]
    edges += [(1, 21, 2.0), (20, 22, 3.0), (21, 22, 1.0), (22, 23, 1.0), (23, 24, 1.0)]
    g = WeightedGraph(24, tuple(edges))
    side = tuple(range(1, 21))
    L = laplacian(g)
    tracemalloc.start()
    try:
        terms = cut_identity_terms(g, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    minor = structure.principal_minor_direct
    want = [minor(L, side), -1.0 * 2.0 * minor(L, side[1:]), -1.0 * 3.0 * minor(L, side[:-1]),
            1.0 * 2.0 * 3.0 * minor(L, side[1:-1])]
    assert all(same_float(x, y) for x, y in zip(terms, want)) and len(terms) == 4


def test_one_side_with_sixteen_crossing_vertices_stacks_at_most_a_chunk(monkeypatch):
    # every vertex of a 16-vertex path side crosses to one hub: 2^16 marker
    # sets, each with its own rest; the 12,870 rests of size 8 alone take
    # four stacks, and unchunked stacks peak at about 32 MiB
    live = 16
    edges = [(v, v + 1, 1.0 + v / 10) for v in range(1, live)]
    edges += [(v, live + 1, 0.5 + v / 7) for v in range(1, live + 1)]
    g = WeightedGraph(live + 1, tuple(edges))
    side = tuple(range(1, live + 1))
    stacks = []
    direct = structure.principal_minor_direct
    monkeypatch.setattr(structure, "principal_minor_direct", lambda L, s: stacks.append(len(s)) or direct(L, s))
    tracemalloc.start()
    try:
        terms = cut_identity_terms(g, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert max(stacks) == structure.SWEEP_CHUNK and sum(stacks) == 2**live - 1
    assert len(terms) == 2**live and same_float(terms[0], direct(laplacian(g), side))


@settings(max_examples=150, deadline=None)
@given(st.one_of(identity_graphs(), st.integers(min_value=0, max_value=2).map(lambda n: WeightedGraph(n, ()))),
       st.sampled_from([1, 3, sylvester.SWEEP_CHUNK]))
def test_sweep_matches_per_side_terms(g, chunk):
    with mock.patch.object(structure, "SWEEP_CHUNK", chunk):
        swept = list(cut_identity_sweep(g))
    sides = [side for size in range(1, g.n) for side in itertools.combinations(range(1, g.n + 1), size)]
    assert [side for side, _ in swept] == sides
    for side, terms in swept:
        want = cut_identity_terms(g, side)
        assert terms == want
        assert all(same_float(x, y) for x, y in zip(terms, want))


def test_eleven_vertex_sweep_matches_the_oracle_and_takes_each_minor_once(monkeypatch):
    # float weights on ten vertices and an isolated eleventh: a side holding
    # it, or holding all of some vertex's neighbours, has zero-s_v vertices
    rng = np.random.default_rng(2011)
    base = random_signed_graph(rng, 10, 22)
    g = WeightedGraph(11, tuple((i, j, w * float(rng.uniform(0.5, 1.5))) for i, j, w in base.edges))
    calls, _ = _counted_minors(monkeypatch)
    swept = dict(cut_identity_sweep(g))
    assert len(calls) == len(set(calls)) == 2**11 - 2
    sides = list(swept)
    sample = [sides[k] for k in rng.choice(len(sides), 20, replace=False).tolist()]
    assert any(11 in side for side in sample)
    assert any(len(swept[side]) < 2 ** len(side) for side in sample if 11 not in side)
    for side in sample:
        want = rescanned_cut_identity_terms(g, side)
        assert len(swept[side]) == len(want)
        assert all(same_float(x, y) for x, y in zip(swept[side], want))


def test_overflowing_marker_weights_match_the_oracle():
    # products overflow to inf, and inf times a zero minor is nan: kept, silently, as math.prod does
    g = WeightedGraph(5, ((1, 2, 1e200), (1, 3, -1e200), (2, 4, 1e155), (3, 4, 2.0), (4, 5, 1e-200), (2, 5, -3e170)))
    for side, terms in cut_identity_sweep(g):
        want = rescanned_cut_identity_terms(g, side)
        assert len(terms) == len(want)
        assert all(same_float(x, y) for x, y in zip(terms, want))
    assert any(math.isnan(t) for _, terms in cut_identity_sweep(g) for t in terms)


def test_sweep_is_guarded_at_twelve_vertices():
    assert len(list(cut_identity_sweep(WeightedGraph(12, ((1, 2, 1.0),))))) == 2**12 - 2
    with pytest.raises(GuardLimitError, match="guarded at n=12, got n=13"):
        cut_identity_sweep(WeightedGraph(13, ((1, 2, 1.0),)))
