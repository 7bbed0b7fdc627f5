"""The exhaustive subset sweeps against their one-shot forms.

The principal-minor sweep streams each subset size in chunks and stops at
its verdict; the cut identity sums each side's crossing pools once, and
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
    unchunked_sweep,
)
from mesostab import (
    GuardLimitError,
    WeightedGraph,
    check_equivalences,
    cut_identity_sweep,
    cut_identity_terms,
    is_psd_full,
    laplacian,
    structure,
    sylvester,
)
from mesostab.cli import main
from mesostab.io import format_edge_list
from mesostab.selftest import random_signed_graph, random_zero_row_sum_matrix


def same_float(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("n", range(1, 13))
def test_combination_builder_matches_itertools(n):
    combos = np.empty((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        combos = sylvester._extend_combinations(combos, n)
        assert combos.tolist() == [list(c) for c in itertools.combinations(range(n), k)]


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


def _counted_minors(monkeypatch) -> list:
    calls = []
    direct = structure.principal_minor_direct

    def counted(L, s):
        calls.append(tuple(s))
        return direct(L, s)

    monkeypatch.setattr(structure, "principal_minor_direct", counted)
    return calls


def test_all_sides_sweep_computes_each_minor_once(tmp_path, capsys, monkeypatch):
    n = 8
    g = random_signed_graph(np.random.default_rng(11), n, 2 * n)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    calls = _counted_minors(monkeypatch)
    assert main(["--format", "json", "verify-identity", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2**n - 2
    assert len(set(calls)) == len(calls)


def test_one_side_computes_only_the_minors_of_its_nonzero_markers(monkeypatch):
    # a 16-vertex path side with one boundary vertex: markers {} and {16}
    n = 18
    g = WeightedGraph(n, tuple((v, v + 1, 1.0 + v / 10) for v in range(1, n)))
    side = tuple(range(1, 17))
    calls = _counted_minors(monkeypatch)
    terms = cut_identity_terms(g, side)
    assert calls == [side, side[:-1]]
    assert terms == rescanned_cut_identity_terms(g, side)


@settings(max_examples=150, deadline=None)
@given(st.one_of(identity_graphs(), st.integers(min_value=0, max_value=2).map(lambda n: WeightedGraph(n, ()))))
def test_sweep_matches_per_side_terms(g):
    swept = list(cut_identity_sweep(g))
    sides = [side for size in range(1, g.n) for side in itertools.combinations(range(1, g.n + 1), size)]
    assert [side for side, _ in swept] == sides
    for side, terms in swept:
        want = cut_identity_terms(g, side)
        assert terms == want
        assert all(same_float(x, y) for x, y in zip(terms, want))


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
