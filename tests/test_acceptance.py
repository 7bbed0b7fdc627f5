"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configured elsewhere.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from helpers import (
    brute_force_negative_cut,
    brute_force_spanning_trees,
    characteristic_polynomial_exact,
    random_positive_graph,
    random_signed_graph,
    random_zero_row_sum_matrix,
)
from mesostab import (
    KuramotoSystem,
    WeightedGraph,
    check_equivalences,
    classify_stability,
    coates_graph,
    cut_identity_terms,
    enumerate_forest_family,
    find_equilibrium,
    jacobian,
    laplacian,
    line_obstruction_scan,
    positive_spanning_tree,
    principal_minor_combinatorial,
    principal_minor_direct,
    quadratic_form,
    spanning_phase_condition,
    is_psd_full,
)

C_MATRIX = np.array([
    [0.0, 0.0, 1.0, -1.0],
    [0.0, -1.0, 1.0, 0.0],
    [1.0, 1.0, -2.0, 0.0],
    [-1.0, 0.0, 0.0, 1.0],
])


def _announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_counterexample_reproduction():
    started = time.perf_counter()
    assert principal_minor_direct(C_MATRIX, [1]) == 0.0
    assert principal_minor_direct(C_MATRIX, [1, 2]) == 0.0
    assert principal_minor_direct(C_MATRIX, [1, 2, 3]) == 1.0
    coeffs = characteristic_polynomial_exact(C_MATRIX)
    assert coeffs == [Fraction(1), Fraction(2), Fraction(-4), Fraction(-4), Fraction(0)]
    assert quadratic_form(C_MATRIX, [1, 1, 0, 0]) == -1.0
    assert is_psd_full(C_MATRIX).kind == "indefinite"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(1, f"leading minors (0, 0, 1), char poly (1, 2, -4, -4, 0), "
                 f"v'Cv = -1, indefinite, in {elapsed:.3f}s")


def test_criterion_02_worked_laplacian():
    a = np.array([
        [0.0, 0.5, 0.0, -3.0],
        [0.5, 0.0, 1.0, -2.0],
        [0.0, 1.0, 0.0, 1.0],
        [-3.0, -2.0, 1.0, 0.0],
    ])
    expected = np.array([
        [-2.5, -0.5, 0.0, 3.0],
        [-0.5, -0.5, -1.0, 2.0],
        [0.0, -1.0, 2.0, -1.0],
        [3.0, 2.0, -1.0, -4.0],
    ])
    assert np.array_equal(laplacian(coates_graph(a)), expected)
    _announce(2, "Laplacian of the 4x4 worked example matches entrywise exactly")


def test_criterion_03_forest_sum_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240810)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(3, 8))
        max_edges = min(12, n * (n - 1) // 2)
        g = random_signed_graph(rng, n, int(rng.integers(n - 1, max_edges + 1)), connected=False)
        L = laplacian(g)
        for size in range(1, n):
            for s in itertools.combinations(range(1, n + 1), size):
                direct = principal_minor_direct(L, s)
                forest = principal_minor_combinatorial(g, s)
                assert abs(forest - direct) <= max(1e-12, 1e-9 * abs(direct)), (
                    f"mismatch on {g.edges} S={s}: forest={forest} direct={direct}"
                )
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(3, f"forest sums equal direct minors on 500 graphs "
                 f"({checked} subsets) in {elapsed:.1f}s")


def test_criterion_04_kirchhoff_specialization():
    rng = np.random.default_rng(404)
    graphs_checked = 0
    for _ in range(40):
        n = int(rng.integers(3, 8))
        g = random_positive_graph(rng, n, int(rng.integers(n - 1, min(12, n * (n - 1) // 2) + 1)))
        tree_sum = math.fsum(
            math.prod(g.edges[idx][2] for idx in tree)
            for tree in brute_force_spanning_trees(g)
        )
        values = []
        for root in range(1, n + 1):
            s = [v for v in range(1, n + 1) if v != root]
            values.append(principal_minor_combinatorial(g, s))
        for a, b in itertools.combinations(values, 2):
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)
        assert abs(values[0] - tree_sum) <= 1e-9 * max(abs(tree_sum), 1.0)
        graphs_checked += 1
    _announce(4, f"omitted-vertex minors agree pairwise and equal the spanning-tree "
                 f"sum on {graphs_checked} positive connected graphs")


def test_criterion_05_five_way_agreement():
    rng = np.random.default_rng(505)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        report = check_equivalences(random_zero_row_sum_matrix(rng, n))
        assert report.all_agree, f"trial {trial}: disagreement {report.disagreements()}"
    _announce(5, "all five maximal-rank tests agree on 200 random zero-row-sum matrices")


def test_criterion_06_cut_identity():
    rng = np.random.default_rng(606)
    sides_checked = 0
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g = random_signed_graph(rng, n, int(rng.integers(n - 1, min(10, n * (n - 1) // 2) + 1)))
        for size in range(1, n):
            for side in itertools.combinations(range(1, n + 1), size):
                terms = cut_identity_terms(g, side)
                scale = sum(abs(t) for t in terms)
                assert abs(math.fsum(terms)) <= 1e-9 * max(1.0, scale)
                sides_checked += 1
    _announce(6, f"alternating cut identity vanishes on {sides_checked} (graph, side) pairs")


def test_criterion_07_duality():
    rng = np.random.default_rng(707)
    for trial in range(300):
        n = int(rng.integers(3, 9))
        g = random_signed_graph(rng, n, int(rng.integers(n - 1, n + 5)))
        tree = positive_spanning_tree(g)
        negative_cut = brute_force_negative_cut(g)
        assert (tree is not None) == (not negative_cut), f"trial {trial}: {g.edges}"
    _announce(7, "positive spanning tree exists iff exhaustive search finds no "
                 "negative cut, on 300 signed graphs")


def test_criterion_08_line_bound_sharpness():
    cases = 0
    for k in range(2, 7):
        for w in (0.5, 1.0, 2.0):
            edges = [(i, i + 1, w) for i in range(1, k + 1)]
            interior = list(range(2, k + 2))

            boundary = tuple(edges + [(k + 1, k + 2, -(w / k))])
            g = WeightedGraph(k + 2, boundary)
            family = enumerate_forest_family(g, interior)
            scale = math.fsum(abs(member.weight_product()) for member in family.members)
            minor = principal_minor_direct(laplacian(g), interior)
            assert abs(minor) <= 1e-9 * scale
            (report,) = line_obstruction_scan(g)
            assert not report.violated

            beyond = tuple(edges + [(k + 1, k + 2, -(w / k) * (1 + 1e-3))])
            g2 = WeightedGraph(k + 2, beyond)
            minor2 = principal_minor_direct(laplacian(g2), interior)
            assert minor2 < -1e-12
            (report2,) = line_obstruction_scan(g2)
            assert report2.violated
            cases += 1
    _announce(8, f"line bound boundary gives a zero interior minor and a 0.1% "
                 f"overshoot goes negative, across {cases} (k, w) cases")


def test_criterion_09_two_oscillator_closed_form():
    b = 1.0
    sys_ = KuramotoSystem(np.array([0.5, -0.5]), np.array([[0.0, b], [b, 0.0]]))
    x = find_equilibrium(sys_, np.array([0.0, 0.1]))
    assert x is not None
    phi = float(x[0] - x[1])
    assert abs(phi - math.asin(0.5)) < 1e-8
    w = np.linalg.eigvalsh(jacobian(sys_, x))
    assert abs(w[0] - (-2 * b * math.cos(phi))) < 1e-8
    assert abs(w[1]) < 1e-8
    report = classify_stability(sys_, x)
    assert report.verdict == "passes necessary condition"

    reflected = np.array([math.pi - math.asin(0.5), 0.0])
    report2 = classify_stability(sys_, reflected)
    assert report2.verdict == "fails necessary condition"
    assert report2.spanning_forest is None
    _announce(9, "lock at asin(1/2) passes with eigenvalues {0, -2B cos phi}; "
                 "the reflected state fails for want of a positive spanning tree")


def test_criterion_10_certificate_implies_phase_tree():
    rng = np.random.default_rng(1010)
    systems_checked = 0
    certified = 0
    attempts = 0
    while systems_checked < 50 and attempts < 500:
        attempts += 1
        n = int(rng.integers(2, 7))
        g = random_positive_graph(rng, n, int(rng.integers(n - 1, n + 3)))
        b = np.zeros((n, n))
        for i, j, w in g.edges:
            b[i - 1, j - 1] = w
            b[j - 1, i - 1] = w
        omega = rng.normal(scale=0.3, size=n)
        omega -= omega.mean()
        sys_ = KuramotoSystem(omega, b)
        seed = rng.uniform(-math.pi, math.pi, size=n) * rng.uniform(0.1, 1.0)
        x = find_equilibrium(sys_, seed)
        if x is None:
            continue
        systems_checked += 1
        report = classify_stability(sys_, x)
        if report.certified:
            certified += 1
            assert spanning_phase_condition(sys_, x), "certificate without phase tree"
            assert all(not r.violated for r in report.line_reports), "certificate with line violation"
    assert systems_checked == 50
    assert certified > 0
    _announce(10, f"PSD certificate implied the phase tree and clean lines in "
                  f"{certified} certified of {systems_checked} locked systems")
