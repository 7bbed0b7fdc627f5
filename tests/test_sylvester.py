"""Definiteness verdicts: full sweeps, the maximal-rank certificate, and
the five-way agreement."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_positive_graph, random_signed_graph, random_zero_row_sum_matrix
from mesostab import (
    DefinitenessVerdict,
    EquivalenceReport,
    GuardLimitError,
    KuramotoSystem,
    MinorWitness,
    VectorWitness,
    WeightedGraph,
    check_equivalences,
    find_equilibrium,
    is_psd_full,
    is_psd_zero_row_sum,
    jacobian,
    laplacian,
    quadratic_form,
)
from mesostab import sylvester
from mesostab.numerics import REL_TOL, det_partial_pivot
from mesostab.sylvester import _classify_by_eigenvalues, _leading_minor_refusal

C_MATRIX = np.array([
    [0.0, 0.0, 1.0, -1.0],
    [0.0, -1.0, 1.0, 0.0],
    [1.0, 1.0, -2.0, 0.0],
    [-1.0, 0.0, 0.0, 1.0],
])


def triangle_laplacian():
    return laplacian(WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0))))


class TestFullSweep:
    def test_counterexample_is_indefinite(self):
        verdict = is_psd_full(C_MATRIX)
        assert verdict.kind == "indefinite"
        assert isinstance(verdict.witness, MinorWitness)
        assert verdict.witness.value < 0
        assert quadratic_form(C_MATRIX, [1, 1, 0, 0]) == -1.0

    def test_identity_is_positive_definite(self):
        verdict = is_psd_full(np.eye(4))
        assert verdict.kind == "positive-definite"
        assert verdict.rank_estimate == 4
        assert verdict.witness is None

    def test_triangle_laplacian_is_psd_rank_two(self):
        verdict = is_psd_full(triangle_laplacian())
        assert verdict.kind == "positive-semi-definite"
        assert verdict.rank_estimate == 2

    def test_negative_identity(self):
        verdict = is_psd_full(-np.eye(3))
        assert verdict.kind == "negative-definite"

    def test_zero_matrix(self):
        verdict = is_psd_full(np.zeros((3, 3)))
        assert verdict.kind == "positive-semi-definite"
        assert verdict.rank_estimate == 0

    def test_guard_refusal_names_limit(self):
        with pytest.raises(GuardLimitError, match="n_max=4"):
            is_psd_full(np.eye(5), n_max=4)

    def test_overflowing_row_norms_keep_finite_tolerances(self):
        # 1e308 squared overflows; rescaled rows give the {3} minor a finite tolerance
        big = laplacian(WeightedGraph(4, ((1, 2, 1e308), (1, 3, -1e308), (1, 4, 1e308))))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            verdict = is_psd_full(big)
            small = triangle_laplacian()
            tols = sylvester._minor_tolerances(np.stack([small, np.diag([1e200, 1e-100, 1.0]), big[1:, 1:]]), REL_TOL)
        assert verdict.kind == "indefinite" and verdict.witness.subset == (3,)
        assert tols[0] == REL_TOL * np.prod(np.sqrt((small * small).sum(axis=1)))
        assert tols[1] == REL_TOL * np.prod([1e200, 1e-100, 1.0])
        assert tols[2] == np.inf

    @pytest.mark.parametrize("sweep", [is_psd_full, check_equivalences])
    def test_overflowing_minor_names_its_subset(self, sweep):
        two_blocks = laplacian(WeightedGraph(4, ((1, 2, 1e200), (3, 4, 1e200))))
        with warnings.catch_warnings(), pytest.raises(ValueError, match=r"principal minor on S=\{1,2\} overflows"):
            warnings.simplefilter("error", RuntimeWarning)
            sweep(two_blocks)

    def test_verdict_before_an_overflowing_minor_stands(self):
        # the {1,2} minor decides both sweeps before the {3,4} tolerance overflows
        a = np.diag([1.0, 1.0, 1e200, 1e200])
        a[0, 1] = a[1, 0] = 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            verdict = is_psd_full(a)
            report = check_equivalences(laplacian(WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1e200)))))
        assert verdict.kind == "indefinite" and verdict.witness.subset == (1, 2)
        assert not report.proper_minors_positive

    def test_first_overflow_in_sweep_order_is_named_across_blocks(self):
        # block {1,2,3} first breaks the positive side at size 3; block {4,5,6},
        # swept after it, overflows at {4,5}, which comes first in sweep order
        a = np.zeros((6, 6))
        a[:3, :3] = [[1.0, -0.6, -0.6], [-0.6, 1.0, -0.6], [-0.6, -0.6, 1.0]]
        a[3:, 3:] = 1e200 * np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        with warnings.catch_warnings(), pytest.raises(ValueError, match=r"principal minor on S=\{4,5\} overflows"):
            warnings.simplefilter("error", RuntimeWarning)
            is_psd_full(a)
        # without the overflowing block, {1,2,3} is the witness
        verdict = is_psd_full(a[:3, :3])
        assert verdict.kind == "indefinite" and verdict.witness.subset == (1, 2, 3)

    def test_product_across_blocks_is_never_formed(self):
        # each 1e200 block is finite; their product on {1,2} overflows, which
        # the whole-matrix sweep reported as "principal minor on S={1,2} overflows"
        a = np.diag([1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            verdict = is_psd_full(a)
        assert verdict == DefinitenessVerdict("positive-definite", 2)
        with np.errstate(over="ignore"):
            assert np.linalg.det(a) == np.inf

    def test_witness_is_first_in_scan_order(self):
        verdict = is_psd_full(C_MATRIX)
        assert verdict.witness.subset == (2,)

    def test_agrees_with_eigenvalue_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            if rng.integers(0, 2):
                a = rng.integers(-3, 4, size=(n, n)).astype(float)
                a = np.triu(a) + np.triu(a, 1).T
            else:
                b = rng.normal(size=(n, n))
                a = b @ b.T  # PSD by construction
            verdict = is_psd_full(a)
            w = np.linalg.eigvalsh(a)
            tol = 1e-8 * n * max(1.0, np.abs(a).max())
            assert verdict.is_psd == bool(w[0] >= -tol)

    def test_rank_estimates_match_numpy(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_zero_row_sum_matrix(rng, n)
            verdict = is_psd_full(a)
            assert verdict.rank_estimate == np.linalg.matrix_rank(a, tol=1e-8 * n * max(1.0, np.abs(a).max()))

    def test_monotone_witness_for_max_rank_indefinite(self):
        # an indefinite zero-row-sum matrix of rank n-1 must show a
        # non-positive proper principal minor
        rng = np.random.default_rng(53)
        seen = 0
        while seen < 25:
            n = int(rng.integers(3, 7))
            a = random_zero_row_sum_matrix(rng, n)
            verdict = is_psd_full(a)
            if verdict.kind != "indefinite" or verdict.rank_estimate != n - 1:
                continue
            seen += 1
            minors = [
                np.linalg.det(a[np.ix_(s, s)])
                for size in range(1, n)
                for s in itertools.combinations(range(n), size)
            ]
            assert min(minors) <= 1e-9


class TestZeroRowSumCertificate:
    def test_two_node_lock(self):
        w = 0.5 * np.sqrt(3.0)
        L = w * np.array([[1.0, -1.0], [-1.0, 1.0]])
        verdict = is_psd_zero_row_sum(L)
        assert verdict.kind == "positive-semi-definite"
        assert verdict.rank_estimate == 1
        assert verdict.witness is None

    def test_path_graph_leading_minors(self):
        L = laplacian(WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0))))
        assert np.array_equal(L, np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]))
        verdict = is_psd_zero_row_sum(L)
        assert verdict.kind == "positive-semi-definite"
        assert verdict.rank_estimate == 2

    def test_refuses_indefinite_counterexample(self):
        # leading minors of -C are (0, ...): the strict test must refuse at k=1
        verdict = is_psd_zero_row_sum(-C_MATRIX)
        assert verdict.kind == "indefinite"
        assert not (verdict.kind == "positive-semi-definite" and verdict.witness is None)

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValueError, match="zero row sums"):
            is_psd_zero_row_sum(np.eye(2))

    def test_negative_leading_minor_becomes_witness(self):
        L = laplacian(WeightedGraph(2, ((1, 2, -1.0),)))
        verdict = is_psd_zero_row_sum(L)
        assert isinstance(verdict.witness, MinorWitness)
        assert verdict.witness.subset == (1,)
        assert verdict.witness.value == -1.0

    def test_one_by_one_zero_matrix(self):
        verdict = is_psd_zero_row_sum(np.zeros((1, 1)))
        assert verdict.kind == "positive-semi-definite"
        assert verdict.rank_estimate == 0

    def test_agrees_with_full_sweep_on_random_input(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_zero_row_sum_matrix(rng, n)
            cheap = is_psd_zero_row_sum(a)
            full = is_psd_full(a)
            certified = cheap.kind == "positive-semi-definite" and cheap.rank_estimate == n - 1 \
                and cheap.witness is None
            expected = full.kind == "positive-semi-definite" and full.rank_estimate == n - 1
            assert certified == expected


class TestEquivalences:
    def test_triangle_all_true(self):
        report = check_equivalences(triangle_laplacian())
        assert report.values() == (True,) * 5
        assert report.all_agree

    def test_counterexample_all_false(self):
        report = check_equivalences(-C_MATRIX)
        assert report.values() == (False,) * 5
        assert not report.eigen_psd_max_rank
        assert not report.leading_minors_positive

    def test_zero_matrix_all_false(self):
        report = check_equivalences(np.zeros((2, 2)))
        assert report.values() == (False,) * 5

    def test_five_way_agreement_sample(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            report = check_equivalences(random_zero_row_sum_matrix(rng, n))
            assert report.all_agree, report.disagreements()

    def test_singular_block_does_not_pass_cholesky_by_rounding(self):
        # Cholesky of the leading block [[2, -2], [-2, 2]] succeeds with a last
        # pivot of rounding size; the pivot tolerance must refuse it
        report = check_equivalences(laplacian(WeightedGraph(3, ((1, 2, 2.0),))))
        assert report.values() == (False,) * 5
        assert report.all_agree

    def test_verdicts_are_scale_invariant(self):
        # all tolerances scale with the data, so rescaling must not flip
        # any verdict
        rng = np.random.default_rng(63)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            a = random_zero_row_sum_matrix(rng, n)
            base_full = is_psd_full(a).kind
            base_cheap = is_psd_zero_row_sum(a).kind
            base_five = check_equivalences(a).values()
            for s in (1e-8, 1e-3, 1e3, 1e8):
                assert is_psd_full(s * a).kind == base_full
                assert is_psd_zero_row_sum(s * a).kind == base_cheap
                assert check_equivalences(s * a).values() == base_five

    def test_guard(self):
        with pytest.raises(GuardLimitError, match="n_max=3"):
            check_equivalences(np.zeros((4, 4)), n_max=3)

    def test_disagreements_name_each_differing_pair(self):
        report = EquivalenceReport(True, False, True, True, False)
        assert report.names() == (
            "eigen_psd_max_rank",
            "proper_minors_positive",
            "proper_submatrices_pd",
            "leading_minors_positive",
            "reduced_block_pd",
        )
        assert report.values() == (True, False, True, True, False)
        assert not report.all_agree
        assert report.disagreements() == (
            ("eigen_psd_max_rank", "proper_minors_positive"),
            ("eigen_psd_max_rank", "reduced_block_pd"),
            ("proper_minors_positive", "proper_submatrices_pd"),
            ("proper_minors_positive", "leading_minors_positive"),
            ("proper_submatrices_pd", "reduced_block_pd"),
            ("leading_minors_positive", "reduced_block_pd"),
        )
        assert EquivalenceReport(False, False, False, False, False).disagreements() == ()


def reference_certificate(L, rel=REL_TOL):
    """The per-k certificate: each pivot taken afresh as a ratio of elimination determinants."""
    n = L.shape[0]
    for k in range(1, n):
        minor = det_partial_pivot(L[:k, :k])
        pivot = minor / det_partial_pivot(L[:k - 1, :k - 1])
        floor = rel * abs(float(L[k - 1, k - 1]))
        if pivot <= floor:
            kind, rank, w = _classify_by_eigenvalues(L)
            if pivot < -floor:
                witness = MinorWitness(tuple(range(1, k + 1)), minor)
            elif kind in ("indefinite", "negative-semi-definite", "negative-definite"):
                v = np.linalg.eigh(L)[1][:, 0]
                witness = VectorWitness(tuple(float(x) for x in v), float(w[0]))
            else:
                witness = None
            return DefinitenessVerdict(kind, rank, witness)
    return DefinitenessVerdict("positive-semi-definite", n - 1)


def dense_kuramoto_jacobian(rng, n, scale=1.0):
    """Coupling-weighted cosines of phase differences, rows balanced to zero.

    Phases sit near synchrony, with an anti-phase cluster half of the time.
    """
    b = rng.uniform(0.5, 1.5, size=(n, n)) * (3.0 * scale / n)
    b = np.triu(b, 1)
    b = b + b.T
    x = rng.normal(0.0, 0.3, n)
    if rng.integers(0, 2):
        x[rng.choice(n, int(rng.integers(1, n // 2 + 1)), replace=False)] += np.pi
    a = b * np.cos(x[None, :] - x[:, None])
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def _no_eigenvalues(*args, **kwargs):
    raise AssertionError("the certificate fell back to eigenvalues")


class TestLeadingMinorKernel:
    def test_matches_per_k_reference_on_integer_matrices(self):
        rng = np.random.default_rng(67)
        routes = set()
        for trial in range(1200):
            n = int(rng.integers(1, 9))
            if trial % 3 == 2:
                a = laplacian(random_positive_graph(rng, n, int(rng.integers(n - 1, n * (n - 1) // 2 + 1))))
            else:
                a = random_zero_row_sum_matrix(rng, n)
            for L in (a, -a):
                verdict = is_psd_zero_row_sum(L)
                expected = reference_certificate(L)
                assert verdict == expected
                routes.add(type(verdict.witness).__name__ if verdict.witness else verdict.kind)
                if trial % 10 == 0:
                    certified = expected.witness is None and expected.rank_estimate == n - 1 \
                        and expected.kind == "positive-semi-definite"
                    assert check_equivalences(L).leading_minors_positive == certified
        assert {"MinorWitness", "VectorWitness", "positive-semi-definite"} <= routes

    def test_matches_per_k_reference_on_dense_kuramoto_jacobians(self):
        rng = np.random.default_rng(71)
        certified = 0
        for _ in range(40):
            n = int(rng.integers(2, 61))
            a = dense_kuramoto_jacobian(rng, n, scale=10.0 ** rng.uniform(-2, 2))
            for L in (-a, a):
                verdict = is_psd_zero_row_sum(L)
                assert verdict == reference_certificate(L)
                certified += verdict.witness is None and verdict.rank_estimate == n - 1
        assert certified >= 10

    @pytest.mark.parametrize("n, scale", [(10, 1e-150), (10, 1e150), (25, 1.0), (60, 1.0), (1000, 1.0)])
    def test_certifies_path_without_eigenvalues(self, monkeypatch, n, scale):
        monkeypatch.setattr(sylvester.np.linalg, "eigvalsh", _no_eigenvalues)
        monkeypatch.setattr(sylvester.np.linalg, "eigh", _no_eigenvalues)
        path = WeightedGraph(n, tuple((i, i + 1, 1.0) for i in range(1, n)))
        verdict = is_psd_zero_row_sum(scale * laplacian(path))
        assert verdict == DefinitenessVerdict("positive-semi-definite", n - 1)

    def test_certifies_permuted_weighted_path_without_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(sylvester.np.linalg, "eigvalsh", _no_eigenvalues)
        monkeypatch.setattr(sylvester.np.linalg, "eigh", _no_eigenvalues)
        rng = np.random.default_rng(79)
        n = 40
        L = laplacian(WeightedGraph(n, tuple((i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(1, n))))
        for _ in range(5):
            p = rng.permutation(n)
            assert is_psd_zero_row_sum(L[np.ix_(p, p)]) == DefinitenessVerdict("positive-semi-definite", n - 1)

    @pytest.mark.parametrize("weights, tail", [
        ((0.1, 0.1, 0.2), 1.0),  # Cholesky runs through a pivot of rounding size
        ((0.1, 0.1, 0.2), -1.0),  # the elimination meets it positive, then a negative pivot
        ((0.1, 0.1, 0.5), -1.0),  # the elimination meets it negative
    ])
    def test_rounding_size_pivot_refuses_without_witness(self, weights, tail):
        # a triangle's Laplacian is singular, so the third pivot is rounding noise:
        # it must neither pass nor count as a negative minor
        w12, w13, w23 = weights
        g = WeightedGraph(5, ((1, 2, w12), (1, 3, w13), (2, 3, w23), (4, 5, tail)))
        assert _leading_minor_refusal(laplacian(g), REL_TOL) == (3, False)

    def test_minor_witnesses_reverify(self):
        # each emitted leading minor is negative by an elimination of its own
        rng = np.random.default_rng(83)
        seen = 0
        for trial in range(300):
            n = int(rng.integers(2, 13))
            if trial % 3 == 0:
                a = dense_kuramoto_jacobian(rng, n, scale=10.0 ** rng.uniform(-2, 2))
            elif trial % 3 == 1:
                a = laplacian(random_signed_graph(rng, n, int(rng.integers(n - 1, n * (n - 1) // 2 + 1))))
            else:
                a = random_zero_row_sum_matrix(rng, n)
            for L in (a, -a):
                witness = is_psd_zero_row_sum(L).witness
                if isinstance(witness, MinorWitness):
                    seen += 1
                    k = len(witness.subset)
                    assert witness.subset == tuple(range(1, k + 1))
                    assert witness.value == det_partial_pivot(L[:k, :k]) < 0
        assert seen >= 100

    def test_certifies_dense_jacobian_without_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(73)
        n = 176
        omega = rng.normal(0.0, 0.5, n) * 100.0
        b = np.triu(rng.uniform(0.5, 1.5, size=(n, n)) * (300.0 / n), 1)
        system = KuramotoSystem(omega, b + b.T)
        x = find_equilibrium(system, np.zeros(n))
        assert x is not None
        monkeypatch.setattr(sylvester.np.linalg, "eigvalsh", _no_eigenvalues)
        monkeypatch.setattr(sylvester.np.linalg, "eigh", _no_eigenvalues)
        with np.errstate(all="raise"):
            verdict = is_psd_zero_row_sum(-jacobian(system, x))
        assert verdict == DefinitenessVerdict("positive-semi-definite", n - 1)


SCALES = (1e-6, 1.0, 1e6)


def _permuted_laplacian(seed, n, signed):
    """A random connected graph's Laplacian with its vertices permuted: weights
    log-uniform in [0.1, 10], or integers in [-3, 3] when ``signed``."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
    if signed:
        L = laplacian(random_signed_graph(rng, n, m))
    else:
        g = random_positive_graph(rng, n, m)
        L = laplacian(WeightedGraph(n, tuple((i, j, float(10.0 ** rng.uniform(-1, 1))) for i, j, _ in g.edges)))
    p = rng.permutation(n)
    return L[np.ix_(p, p)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.sampled_from(SCALES))
def test_certificate_holds_wherever_eigenvalues_find_rank_n_minus_one(seed, n, scale):
    # A PSD rank n-1 classification puts lambda_2 above 1e-8 * n * max|a|. Every
    # pivot is at least the grounded block's least eigenvalue, which is at least
    # lambda_2 / n, ten times the pivot floor rel * |a_jj|: the eigenvalue
    # fallback is never what certifies.
    L = scale * _permuted_laplacian(seed, n, signed=False)
    kind, rank, _ = _classify_by_eigenvalues(L)
    if (kind, rank) == ("positive-semi-definite", n - 1):
        assert _leading_minor_refusal(L, REL_TOL) == (0, False)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.booleans())
def test_certificate_refusal_is_scale_invariant(seed, n, signed):
    L = _permuted_laplacian(seed, n, signed)
    assert len({_leading_minor_refusal(s * L, REL_TOL) for s in SCALES}) == 1
