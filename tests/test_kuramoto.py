"""Oscillator systems: equilibria, linearizations, and stability verdicts."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dense_residual_jacobian, dense_rotating_frame_residual, random_positive_graph, ring_system
from mesostab import kuramoto
from mesostab import (
    KuramotoSystem,
    MinorWitness,
    classify_stability,
    find_equilibrium,
    jacobian,
    laplacian,
    negated_adjacency_check,
    rotating_frame_residual,
    spanning_phase_condition,
    wrap_phases,
    wrap_to_pi,
)


def two_node(omega0=0.5, b=1.0):
    return KuramotoSystem(np.array([omega0, -omega0]), np.array([[0.0, b], [b, 0.0]]))


def random_system(rng, n):
    g = random_positive_graph(rng, n, n + 1)
    b = np.zeros((n, n))
    for i, j, w in g.edges:
        b[i - 1, j - 1] = w
        b[j - 1, i - 1] = w
    omega = rng.normal(scale=0.2, size=n)
    omega -= omega.mean()
    return KuramotoSystem(omega, b)


def _components(n, pairs):
    """Vertex sets (0-based) of the graph on ``range(n)`` with edges ``pairs``, by flood fill."""
    adj = {v: set() for v in range(n)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    seen, comps = set(), []
    for v in range(n):
        if v in seen:
            continue
        stack, comp = [v], {v}
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(sorted(comp))
    return comps


class TestSystemValidation:
    def test_rejects_asymmetric_coupling(self):
        with pytest.raises(ValueError, match="symmetric"):
            KuramotoSystem(np.zeros(2), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="non-negative"):
            KuramotoSystem(np.zeros(2), np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            KuramotoSystem(np.zeros(2), np.eye(2))

    def test_mean_frequency(self):
        sys_ = KuramotoSystem(np.array([1.0, 2.0, 6.0]), np.zeros((3, 3)))
        assert sys_.mean_frequency == 3.0


class TestCoupledPairs:
    def test_one_scan_feeds_every_reader(self, monkeypatch):
        scans = []

        class CountingNumpy:
            """numpy as the Kuramoto module sees it, counting its ``nonzero`` scans."""

            def __getattr__(self, name):
                return getattr(np, name)

            def nonzero(self, a):
                scans.append(np.shape(a))
                return np.nonzero(a)

            def triu(self, a, k=0):
                triangles.append(a)
                return np.triu(a, k)

        scans, triangles, seen = [], [], []
        monkeypatch.setattr(kuramoto, "np", CountingNumpy())
        for name in ("_coupling_mask", "_coupled_pairs"):
            cached = KuramotoSystem.__dict__[name]
            monkeypatch.setattr(KuramotoSystem, name,
                                property(lambda s, cached=cached: seen.append(cached.__get__(s)) or seen[-1]))
        sys_ = random_system(np.random.default_rng(7), 6)
        x = find_equilibrium(sys_, np.zeros(6))
        assert x is not None
        readers = {
            "coupling_graph": lambda: sys_.coupling_graph(),
            "spanning_phase_condition": lambda: spanning_phase_condition(sys_, x),
            "classify_stability": lambda: classify_stability(sys_, x),
            "_cut_refutes_locking": lambda: kuramoto._cut_refutes_locking(sys_, kuramoto.equilibrium_tolerance(sys_)),
            "rotating_frame_residual": lambda: rotating_frame_residual(sys_, x + 0.5),
        }
        got = {}
        for name, read in readers.items():
            seen.clear()
            read()
            got[name] = list(seen)
        assert all(got.values())
        pairs = got["coupling_graph"][0]
        [mask] = got["rotating_frame_residual"]
        assert all(taken is (pairs if isinstance(taken, tuple) else mask) for read in got.values() for taken in read)
        # the pairs were read off the cached mask: b > 0 is formed once
        assert len(triangles) == 1 and triangles[0] is mask
        assert scans == [(6, 6)]

    def test_pairs_are_the_upper_triangle_in_row_major_order(self):
        sys_ = random_system(np.random.default_rng(11), 7)
        i, j, w = sys_._coupled_pairs
        want_i, want_j = np.nonzero(np.triu(sys_.b > 0, 1))
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        assert np.array_equal(w, sys_.b[want_i, want_j])

    def test_cached_pairs_are_read_only(self):
        sys_ = random_system(np.random.default_rng(13), 5)
        for column in sys_._coupled_pairs:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]

    def test_cached_mask_is_read_only(self):
        sys_ = random_system(np.random.default_rng(17), 5)
        mask = sys_._coupling_mask
        assert mask.dtype == bool and np.array_equal(mask, sys_.b > 0)
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = True


class TestPhaseWrapping:
    def test_wrap_to_pi_half_open_interval(self):
        assert wrap_to_pi(math.pi) == math.pi
        assert wrap_to_pi(-math.pi) == math.pi
        assert wrap_to_pi(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_to_pi(0.25) == pytest.approx(0.25)
        assert wrap_to_pi(-0.25) == pytest.approx(-0.25)
        assert float(wrap_to_pi(2 * math.pi + 0.1)) == pytest.approx(0.1)

    def test_remainder_rounding_up_to_a_full_turn_wraps_to_zero(self):
        # -1e-20 mod 2*pi and (pi - nextafter(pi, 4)) mod 2*pi both round to 2*pi
        assert wrap_phases(-1e-20) == 0.0
        assert wrap_phases(np.array([-1e-20, 1.0]))[0] == 0.0
        assert wrap_to_pi(math.nextafter(math.pi, 4)) == math.pi
        assert wrap_to_pi(np.array([math.nextafter(math.pi, 4)]))[0] == math.pi


class TestResidual:
    def test_two_node_closed_form(self):
        sys_ = two_node()
        phi = math.asin(0.5)
        r = rotating_frame_residual(sys_, np.array([phi, 0.0]))
        assert np.allclose(r, 0.0, atol=1e-15)

    def test_synchronized_identical_frequencies(self):
        sys_ = KuramotoSystem(np.full(4, 2.0), np.ones((4, 4)) - np.eye(4))
        assert np.allclose(rotating_frame_residual(sys_, np.full(4, 0.7)), 0.0)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            sys_ = random_system(rng, int(rng.integers(2, 7)))
            x = rng.uniform(0, 2 * math.pi, size=sys_.n)
            assert abs(rotating_frame_residual(sys_, x).sum()) < 1e-12

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equal_to_the_dense_form_byte_for_byte(self, data):
        # isolated oscillators, uncoupled pairs with either zero, and phases
        # with signed zeros, infinities, NaN and a pair whose difference overflows
        n = data.draw(st.integers(1, 7), label="n")
        zero = st.sampled_from([0.0, -0.0])
        weight = zero | st.floats(0.0, 2.0) | st.floats(0.0, 1e300)
        b = np.zeros((n, n))
        b[np.diag_indices(n)] = data.draw(st.lists(zero, min_size=n, max_size=n), label="diagonal")
        upper = np.triu_indices(n, 1)
        b[upper] = b[upper[::-1]] = data.draw(st.lists(weight, min_size=len(upper[0]), max_size=len(upper[0])),
                                               label="upper")
        isolated = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="isolated"))
        b[isolated] = b[:, isolated] = 0.0
        frequency = zero | st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)
        omega = data.draw(st.lists(frequency, min_size=n, max_size=n), label="omega")
        phase = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]) | st.floats(-7.0, 7.0)
        x = np.array(data.draw(st.lists(phase, min_size=n, max_size=n), label="x"))
        if n > 1 and data.draw(st.booleans(), label="overflowing pair"):
            x[0], x[-1] = 1e308, -1e308
        sys_ = KuramotoSystem(omega, b)
        assert not np.any(np.signbit(sys_.b))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = rotating_frame_residual(sys_, x), dense_rotating_frame_residual(sys_, x)
        assert got.tobytes() == want.tobytes()

    def test_non_finite_phase_of_an_isolated_oscillator_is_no_equilibrium(self):
        # oscillator 2 is uncoupled at the mean frequency and the pair is at
        # its lock; 0 * sin(inf) must still make the residual NaN there
        b = np.zeros((3, 3))
        b[0, 1] = b[1, 0] = 1.0
        sys_ = KuramotoSystem(np.array([0.5, -0.5, 0.0]), b)
        x = np.array([math.asin(0.5), 0.0, 1.0])
        assert np.linalg.norm(rotating_frame_residual(sys_, x)) < 1e-15
        for bad in (math.inf, -math.inf, math.nan):
            x[2] = bad
            with np.errstate(invalid="ignore"):
                assert np.isnan(rotating_frame_residual(sys_, x)[2])
                with pytest.raises(ValueError, match="not an equilibrium: residual norm nan"):
                    jacobian(sys_, x)


class TestFindEquilibrium:
    def test_two_node_arcsine(self):
        x = find_equilibrium(two_node(), np.array([0.0, 0.1]))
        assert x is not None
        phi = float(wrap_to_pi(x[0] - x[1]))
        assert abs(phi - math.asin(0.5)) < 1e-8

    def test_identical_frequencies_converge_to_sync(self):
        sys_ = KuramotoSystem(np.zeros(3), np.ones((3, 3)) - np.eye(3))
        x = find_equilibrium(sys_, np.array([0.05, -0.03, 0.0]))
        assert x is not None
        diffs = wrap_to_pi(x - x[0])
        assert np.allclose(diffs, 0.0, atol=1e-9)

    def test_no_lock_when_frequency_exceeds_coupling(self):
        assert find_equilibrium(two_node(omega0=1.5), np.array([0.0, 0.1])) is None

    def test_converges_near_the_locking_margin(self):
        x = find_equilibrium(two_node(omega0=0.999), np.array([0.0, 0.0]))
        assert x is not None
        phi = float(wrap_to_pi(x[0] - x[1]))
        assert abs(phi - math.asin(0.999)) < 1e-8

    def test_found_point_is_a_fixed_point(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            sys_ = random_system(rng, int(rng.integers(2, 6)))
            x = find_equilibrium(sys_, rng.uniform(0, 2 * math.pi, size=sys_.n))
            if x is None:
                continue
            again = find_equilibrium(sys_, x)
            assert again is not None
            assert np.allclose(wrap_to_pi(again - x), 0.0, atol=1e-8)

    @pytest.mark.parametrize("omega0, locks", [(0.5, True), (1.5, False)])
    def test_each_phase_vector_takes_one_residual(self, monkeypatch, omega0, locks):
        seen = []
        residual = kuramoto.rotating_frame_residual
        monkeypatch.setattr(kuramoto, "rotating_frame_residual",
                            lambda sys_, x: seen.append(np.asarray(x).tobytes()) or residual(sys_, x))
        x = find_equilibrium(two_node(omega0=omega0), np.array([0.0, 0.1]))
        assert (x is not None) == locks
        assert len(seen) > 2 and len(set(seen)) == len(seen)

    @pytest.mark.parametrize("seed", [0.0, 7.25, -1e300])
    def test_single_oscillator_locks_at_zero_after_one_evaluation(self, monkeypatch, seed):
        sys_ = KuramotoSystem(np.array([0.7]), np.zeros((1, 1)))
        seen = []
        residual = kuramoto.rotating_frame_residual
        monkeypatch.setattr(kuramoto, "rotating_frame_residual", lambda s, x: seen.append(1) or residual(s, x))
        x = find_equilibrium(sys_, np.array([seed]))
        assert x is not None and x.tobytes() == np.array([0.0]).tobytes()
        assert len(seen) == 1
        # the search kept the norm at the phases it returned
        assert np.array_equal(jacobian(sys_, x), np.zeros((1, 1)))
        assert kuramoto._residual_norm(sys_, x) == 0.0
        assert len(seen) == 1

    def test_gauge_is_pinned(self):
        x = find_equilibrium(two_node(), np.array([1.0, 4.0]))
        assert x is not None and x[-1] == 0.0

    def test_isolated_oscillator_takes_least_squares_path(self, caplog):
        # oscillator 3 is uncoupled, so the gauge-fixed Jacobian is exactly
        # singular at every iterate; the search must still converge
        b2 = np.zeros((4, 4))
        b2[0, 1] = b2[1, 0] = 1.0
        sys_iso = KuramotoSystem(np.array([0.3, -0.3, 0.0, 0.0]), b2)
        with caplog.at_level("WARNING", logger="mesostab.kuramoto"):
            x = find_equilibrium(sys_iso, np.array([0.2, 0.1, 0.05, 0.0]))
        assert x is not None
        assert any("singular" in rec.message for rec in caplog.records)
        assert np.linalg.norm(rotating_frame_residual(sys_iso, x)) < 1e-10

    @pytest.mark.parametrize("n, pair, weight, drift",
                             [(2, (0, 1), 5e-324, 1.0), (6, (2, 4), 2.22507386e-311, 2e-3)])
    def test_subnormal_coupling_rejects_overflowing_steps_quietly(self, n, pair, weight, drift):
        # drift / weight overflows the Newton step (5e-324) or the phase
        # differences (2.2e-311); either trial's residual is NaN, and it is
        # rejected without a warning
        omega = np.zeros(n)
        omega[pair[1]] = drift
        b = np.zeros((n, n))
        b[pair] = b[pair[::-1]] = weight
        sys_ = KuramotoSystem(omega, b)
        x0 = np.random.default_rng(0).uniform(0, 2 * math.pi, size=n)
        for after in (0, 1, kuramoto.NEWTON_MAX_ITER):
            with mock.patch.object(kuramoto, "NEWTON_CUT_AFTER", after):
                assert find_equilibrium(sys_, x0) is None

    @pytest.mark.parametrize("e", [1000, 1019, 1020, 1021])
    def test_overflowing_elimination_is_no_singular_jacobian(self, caplog, e):
        # near the largest float np.linalg.solve overflows inside the
        # elimination; the step is retried on a power-of-two scaled system
        # instead of taking the least-squares fallback and its warning
        s = 2.0 ** e
        idx = np.arange(6)
        b = np.zeros((6, 6))
        b[idx, (idx + 1) % 6] = s / 8
        sys_ = KuramotoSystem(s * np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), b + b.T)
        with caplog.at_level("INFO", logger="mesostab.kuramoto"):
            assert find_equilibrium(sys_, np.zeros(6)) is None
        assert [rec.levelname for rec in caplog.records] == ["INFO"]
        assert caplog.records[0].getMessage().startswith("no phase-locked state: |S| = ")

    def test_lock_does_not_depend_on_the_scale(self):
        # omega = +-s/2 and b = s lock at pi/6, omega = +-2s never; from
        # about s = 2**512 on the residual's sum of squares overflows
        phases = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in (0, 500, 532, 1000, 1020):
                s = 2.0 ** e
                phases.append(find_equilibrium(two_node(0.5 * s, s), np.array([0.0, 0.1])))
                for after in (kuramoto.NEWTON_CUT_AFTER, kuramoto.NEWTON_MAX_ITER):
                    with mock.patch.object(kuramoto, "NEWTON_CUT_AFTER", after):
                        assert find_equilibrium(two_node(2.0 * s, s), np.array([0.0, 0.1])) is None
        assert abs(phases[0][0] - math.pi / 6) < 1e-12
        assert all(x is not None and x.tobytes() == phases[0].tobytes() for x in phases)

    @pytest.mark.parametrize("v", [[3.0, 4.0], [3e300, -4e300], [1.5e308, -5e307], [-1.5e308, 1.5e308],
                                   [1e300, math.inf], [1e300, math.nan]])
    def test_norm_survives_overflowing_squares(self, v):
        # [-1.5e308, 1.5e308] has a norm past the largest float, so inf is right
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kuramoto._norm(np.array(v))
        if math.isnan(v[1]):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(math.hypot(*v), rel=1e-15)

    def test_stall_logs_its_iteration_and_residual_norm(self, caplog, monkeypatch):
        # without the cut the unlockable pair slides to the residual's floor,
        # 0.5 * sqrt 2 at a right angle, where no damped step helps
        monkeypatch.setattr(kuramoto, "NEWTON_CUT_AFTER", kuramoto.NEWTON_MAX_ITER)
        with caplog.at_level("INFO", logger="mesostab.kuramoto"):
            assert find_equilibrium(two_node(omega0=1.5), np.zeros(2)) is None
        [rec] = caplog.records
        assert rec.levelname == "INFO"
        assert rec.getMessage().startswith("no phase-locked state: no damped step lowered the residual norm ")
        norm, iteration = rec.args
        assert norm == pytest.approx(0.5 * math.sqrt(2), rel=1e-12)
        assert 0 < iteration < kuramoto.NEWTON_MAX_ITER

    def test_iteration_cap_logs_its_count(self, caplog, monkeypatch):
        # the lockable pair converges in its fourth step, the last one allowed
        monkeypatch.setattr(kuramoto, "NEWTON_MAX_ITER", 4)
        monkeypatch.setattr(kuramoto, "NEWTON_CUT_AFTER", 4)
        with caplog.at_level("INFO", logger="mesostab.kuramoto"):
            assert find_equilibrium(two_node(omega0=1.5), np.zeros(2)) is None
            assert find_equilibrium(two_node(omega0=0.5), np.zeros(2)) is not None
        [rec] = caplog.records
        assert rec.levelname == "INFO"
        assert rec.getMessage().startswith("no phase-locked state: the residual norm is ")
        assert rec.getMessage().endswith(" after 4 iterations")

    @pytest.mark.parametrize("seed", [[1e308, -1e308], [0.0, math.inf], [math.nan, 0.0]])
    def test_rejects_a_seed_whose_pinned_differences_are_not_finite(self, seed):
        with pytest.raises(ValueError, match="seed phases minus the last seed phase must be finite"):
            find_equilibrium(two_node(), np.array(seed))


def brute_force_excess(sys_):
    """Largest |sum_S (omega - mean)| - (coupling crossing S) over all 2^n vertex sets S."""
    n = sys_.n
    om = sys_.omega - sys_.mean_frequency
    masks = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    crossing = ((masks[:, :, None] != masks[:, None, :]) * sys_.b).sum(axis=(1, 2)) / 2
    return float(np.max(np.abs(masks @ om) - crossing))


def refutes(sys_):
    return kuramoto._cut_refutes_locking(sys_, kuramoto.equilibrium_tolerance(sys_))


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    omega = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    upper = draw(st.lists(weight, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    b = np.zeros((n, n))
    b[np.triu_indices(n, 1)] = upper
    return KuramotoSystem(omega * scale, (b + b.T) * scale)


class TestKeptResidualNorm:
    # Every evaluation keeps its norm, so the kept norm is always that of
    # the phases it is keyed by, whichever way the search ended.
    @settings(max_examples=150, deadline=None)
    @given(small_systems(), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_never_stale(self, sys_, seed):
        x0 = np.random.default_rng(seed).uniform(-4 * math.pi, 4 * math.pi, size=sys_.n)
        found = find_equilibrium(sys_, x0)
        for y in ([] if found is None else [found]) + [x0, x0 + 0.5]:
            expected = kuramoto._norm(rotating_frame_residual(sys_, y))
            assert np.float64(kuramoto._residual_norm(sys_, y)).tobytes() == np.float64(expected).tobytes()


def searches_at_every_trigger(sys_, x0):
    """``find_equilibrium`` from ``x0`` with the cut run at each trigger in turn."""
    results = []
    for after in (0, 1, 3, kuramoto.NEWTON_CUT_AFTER, 14, 24, kuramoto.NEWTON_MAX_ITER):
        with mock.patch.object(kuramoto, "NEWTON_CUT_AFTER", after):
            results.append(find_equilibrium(sys_, x0))
    return results


def assert_trigger_invariant(results):
    if results[0] is None:
        assert all(x is None for x in results)
    else:
        assert all(x is not None and x.tobytes() == results[0].tobytes() for x in results)


class TestLockingCut:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_min_cut_matches_brute_force(self, data):
        n_nodes = data.draw(st.integers(min_value=2, max_value=8))
        node = st.integers(min_value=0, max_value=n_nodes - 1)
        capacity = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
        links = data.draw(st.lists(st.tuples(node, node, capacity, capacity).filter(lambda t: t[0] != t[1]),
                                   max_size=20))
        u, v, cap_uv, cap_vu = (np.array([t[k] for t in links], dtype=int if k < 2 else float) for k in range(4))
        source, sink = 0, n_nodes - 1
        side = kuramoto._min_cut_source_side(n_nodes, u, v, cap_uv, cap_vu, source, sink)

        def cut(mask):
            return math.fsum(cap_uv[mask[u] & ~mask[v]]) + math.fsum(cap_vu[mask[v] & ~mask[u]])

        masks = ((np.arange(2 ** n_nodes)[:, None] >> np.arange(n_nodes)) & 1).astype(bool)
        best = min(cut(m) for m in masks if m[source] and not m[sink])
        assert side[source] and not side[sink]
        assert cut(side) == pytest.approx(best, rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_refutes_exactly_when_some_vertex_set_does(self, sys_):
        # away from the slack boundary: the rounding slack is below 1e-12 of
        # the frequencies and degrees, and no set refutes below sqrt|S| * tol
        tol = kuramoto.equilibrium_tolerance(sys_)
        om = sys_.omega - sys_.mean_frequency
        boundary = 2 * math.sqrt(sys_.n) * tol + 1e-12 * (np.abs(om).sum() + sys_.b.sum())
        excess = brute_force_excess(sys_)
        assume(excess <= tol / 2 or excess > boundary)
        assert refutes(sys_) == (excess > boundary)

    def test_rings_agree_with_the_arc_bound(self):
        rng = np.random.default_rng(113)
        outcomes = set()
        for _ in range(120):
            n = int(rng.integers(3, 13))
            factor = float(rng.uniform(0.5, 1.5))
            if abs(factor - 1.0) < 1e-6:
                continue
            sys_ = ring_system(rng, n, factor)
            outcomes.add(factor < 1.0)
            assert refutes(sys_) == (factor < 1.0)
        assert outcomes == {True, False}

    # A refusal proves that no float iterate passes the residual test, so
    # the trigger changes only how soon a hopeless search stops.
    @settings(max_examples=60, deadline=None)
    @given(small_systems(), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_trigger_never_changes_the_result(self, sys_, seed):
        x0 = np.random.default_rng(seed).uniform(0, 2 * math.pi, size=sys_.n)
        for start in (np.zeros(sys_.n), x0):
            assert_trigger_invariant(searches_at_every_trigger(sys_, start))

    def test_trigger_never_changes_the_result_on_rings(self):
        rng = np.random.default_rng(137)
        outcomes = []
        for n, factor in ((12, 0.85), (12, 1.6), (24, 0.9), (24, 2.0), (48, 0.85), (48, 1.5)):
            sys_ = ring_system(rng, n, factor, chords=n // 10)
            results = searches_at_every_trigger(sys_, np.zeros(n))
            assert_trigger_invariant(results)
            outcomes.append((results[0] is None, refutes(sys_)))
        assert (True, True) in outcomes and (False, False) in outcomes

    def test_never_refuses_a_system_newton_locks(self, monkeypatch):
        monkeypatch.setattr(kuramoto, "NEWTON_CUT_AFTER", kuramoto.NEWTON_MAX_ITER)
        rng = np.random.default_rng(127)
        systems = [two_node(omega0) for omega0 in (0.5, 0.999, 1 - 1e-9, 1.0, 1 + 1e-13, 1 + 1e-11, 1.5)]
        systems += [random_system(rng, int(rng.integers(2, 9))) for _ in range(40)]
        systems += [ring_system(rng, int(rng.integers(3, 17)), float(rng.uniform(0.8, 2.0))) for _ in range(40)]
        locked = refuted = 0
        for sys_ in systems:
            for x0 in (np.zeros(sys_.n), rng.uniform(0, 2 * math.pi, size=sys_.n)):
                if find_equilibrium(sys_, x0) is not None:
                    locked += 1
                    assert not refutes(sys_)
                else:
                    refuted += refutes(sys_)
        assert locked >= 40 and refuted >= 10

    def test_searches_that_lock_early_never_run_the_cut(self, monkeypatch):
        cuts, jacobians = [], []
        cut, jac = kuramoto._cut_refutes_locking, kuramoto._residual_jacobian
        monkeypatch.setattr(kuramoto, "_cut_refutes_locking", lambda s, t: cuts.append(1) or cut(s, t))
        monkeypatch.setattr(kuramoto, "_residual_jacobian", lambda s, x: jacobians.append(1) or jac(s, x))
        rng = np.random.default_rng(131)
        early = 0
        for k in range(80):
            sys_ = random_system(rng, int(rng.integers(2, 9))) if k % 2 else ring_system(rng, 12, 1.5)
            cuts.clear()
            jacobians.clear()
            x = find_equilibrium(sys_, np.zeros(sys_.n))
            assert len(cuts) <= 1
            if x is not None and len(jacobians) <= kuramoto.NEWTON_CUT_AFTER:
                early += 1
                assert cuts == []
        assert early >= 40

    def test_refusal_stops_the_search_at_the_trigger(self, monkeypatch):
        jacobians = []
        jac = kuramoto._residual_jacobian
        monkeypatch.setattr(kuramoto, "_residual_jacobian", lambda s, x: jacobians.append(1) or jac(s, x))
        monkeypatch.setattr(kuramoto, "NEWTON_CUT_AFTER", 3)
        assert find_equilibrium(two_node(omega0=1.5), np.zeros(2)) is None
        assert len(jacobians) == 3

    def test_search_goes_on_when_the_cut_cannot_refute(self, monkeypatch):
        cuts = []
        cut = kuramoto._cut_refutes_locking
        monkeypatch.setattr(kuramoto, "_cut_refutes_locking", lambda s, t: cuts.append(cut(s, t)) or cuts[-1])
        monkeypatch.setattr(kuramoto, "NEWTON_CUT_AFTER", 1)
        x = find_equilibrium(two_node(omega0=0.999), np.zeros(2))
        assert x is not None and cuts == [False]

    def test_refusal_logs_the_cut(self, caplog, monkeypatch):
        monkeypatch.setattr(kuramoto, "NEWTON_CUT_AFTER", 0)
        with caplog.at_level("INFO", logger="mesostab.kuramoto"):
            assert find_equilibrium(two_node(omega0=1.5), np.zeros(2)) is None
            assert find_equilibrium(two_node(omega0=0.5), np.zeros(2)) is not None
        assert [(rec.levelname, rec.getMessage()) for rec in caplog.records] == [
            ("INFO", "no phase-locked state: |S| = 1, sum over S of the centred frequencies = 1.5, "
                     "coupling crossing S = 1"),
        ]


class TestJacobian:
    def test_two_node_closed_form(self):
        phi = math.asin(0.5)
        a = jacobian(two_node(), np.array([phi, 0.0]))
        c = math.cos(phi)
        assert np.allclose(a, c * np.array([[-1.0, 1.0], [1.0, -1.0]]), atol=1e-15)
        w = np.linalg.eigvalsh(a)
        assert abs(w[0] + 2 * c) < 1e-12 and abs(w[1]) < 1e-15

    def test_synchronized_state_gives_negated_laplacian(self):
        sys_ = KuramotoSystem(np.zeros(3), np.array([
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 0.5],
            [2.0, 0.5, 0.0],
        ]))
        a = jacobian(sys_, np.zeros(3))
        assert np.array_equal(a, -laplacian(sys_.coupling_graph()))

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            sys_ = random_system(rng, int(rng.integers(2, 6)))
            x = find_equilibrium(sys_, rng.uniform(0, 2 * math.pi, size=sys_.n))
            if x is None:
                continue
            a = jacobian(sys_, x)
            assert np.max(np.abs(a.sum(axis=1))) <= 1e-9 * sys_.n * max(1.0, np.abs(a).max())
            assert negated_adjacency_check(a)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(101)
        sys_ = random_system(rng, 5)
        x = find_equilibrium(sys_, rng.uniform(0, 2 * math.pi, size=5))
        assert x is not None
        a = jacobian(sys_, x)
        for c in (0.3, -1.7, 2 * math.pi):
            shifted = jacobian(sys_, x + c)
            assert np.allclose(shifted, a, atol=1e-9 * max(1.0, np.abs(a).max()))

    def test_rejects_non_equilibrium(self):
        with pytest.raises(ValueError, match="not an equilibrium"):
            jacobian(two_node(), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_phases(self, bad):
        with np.errstate(invalid="ignore"):
            for refuse in (jacobian, classify_stability):
                with pytest.raises(ValueError, match="not an equilibrium: residual norm nan"):
                    refuse(two_node(), np.array([bad, 0.0]))

    def test_remembered_norm_never_admits_a_non_equilibrium(self, monkeypatch):
        # the system keeps the last norm it was asked for; a non-equilibrium
        # is still refused, each time, by jacobian and by classify_stability
        sys_ = two_node()
        x = find_equilibrium(sys_, np.array([0.0, 0.1]))
        residuals = []
        residual = kuramoto.rotating_frame_residual
        monkeypatch.setattr(kuramoto, "rotating_frame_residual", lambda s, y: residuals.append(1) or residual(s, y))
        a = jacobian(sys_, x)
        for refuse in (jacobian, classify_stability, jacobian):
            with pytest.raises(ValueError, match="not an equilibrium"):
                refuse(sys_, np.array([1.0, 0.0]))
            with pytest.raises(ValueError, match="shape"):
                refuse(sys_, x[None, :])
        residuals.clear()
        assert np.array_equal(jacobian(sys_, x), a)
        assert classify_stability(sys_, x).verdict == "passes necessary condition"
        assert residuals == [1]  # classify_stability took the norm that jacobian had just asked for

    def test_equal_to_the_dense_form_on_underflowing_weights(self):
        # 5e-324 * cos(2) rounds to -0.0; the dense form's mirrored sum turns it into +0.0
        b = np.array([[0.0, 5e-324, 0.0], [5e-324, 0.0, 1.0], [0.0, 1.0, 0.0]])
        sys_ = KuramotoSystem(np.zeros(3), b)
        x = np.array([0.0, 2.0, -1.5])
        got, want = kuramoto._residual_jacobian(sys_, x), dense_residual_jacobian(sys_, x)
        assert want[0, 1] == 0.0 and not np.signbit(want[0, 1])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equal_to_the_dense_form_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 64), label="n")
        density = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), label="density")
        scale = 10.0 ** data.draw(st.integers(-6, 6), label="weight exponent")
        spread = 10.0 ** data.draw(st.integers(-3, 3), label="phase exponent")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        upper = np.triu(rng.random((n, n)) < density, 1) * rng.uniform(0.5, 2.0, size=(n, n)) * scale
        isolated = rng.random(n) < 0.1
        upper[isolated] = 0.0
        upper[:, isolated] = 0.0
        sys_ = KuramotoSystem(rng.normal(size=n), upper + upper.T)
        x = rng.uniform(-spread, spread, size=n)
        x[rng.random(n) < 0.2] = x[0]  # equal phases: cos(0) = 1 exactly
        got, want = kuramoto._residual_jacobian(sys_, x), dense_residual_jacobian(sys_, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestClassify:
    def test_two_node_lock_passes(self):
        sys_ = two_node()
        x = find_equilibrium(sys_, np.array([0.0, 0.1]))
        report = classify_stability(sys_, x)
        assert report.verdict == "passes necessary condition"
        assert report.spanning_forest == ((1, 2, pytest.approx(math.cos(math.asin(0.5)))),)
        assert report.rank_estimate == 1

    def test_two_node_anti_lock_fails_without_tree(self):
        sys_ = two_node()
        phi = math.pi - math.asin(0.5)
        report = classify_stability(sys_, np.array([phi, 0.0]))
        assert report.verdict == "fails necessary condition"
        assert report.spanning_forest is None
        assert report.negative_cut is not None

    def test_synchronized_passes(self):
        sys_ = KuramotoSystem(np.zeros(4), np.ones((4, 4)) - np.eye(4))
        report = classify_stability(sys_, np.zeros(4))
        assert report.verdict == "passes necessary condition"

    def test_in_phase_report_does_not_depend_on_coupling_scale(self):
        # all-to-all coupling in phase, with omega = 0: x = 0 is an exact equilibrium at any scale
        def summary(scale):
            sys_ = KuramotoSystem(np.zeros(5), scale * (np.ones((5, 5)) - np.eye(5)))
            report = classify_stability(sys_, np.zeros(5))
            forest = None if report.spanning_forest is None else [(i, j) for i, j, _ in report.spanning_forest]
            return report.verdict, report.certified, forest

        assert summary(1.0) == ("passes necessary condition", True, [(1, 2), (1, 3), (1, 4), (1, 5)])
        assert [summary(scale) for scale in (1e-13, 1e-11, 1e2)] == [summary(1.0)] * 3

    def test_disconnected_coupling_is_degenerate(self):
        # two independent pairs: the zero eigenvalue has multiplicity two
        b = np.zeros((4, 4))
        b[0, 1] = b[1, 0] = 1.0
        b[2, 3] = b[3, 2] = 1.0
        sys_ = KuramotoSystem(np.zeros(4), b)
        report = classify_stability(sys_, np.zeros(4))
        assert report.verdict == "degenerate"
        assert report.rank_estimate == 2
        assert any("degenerate" in note for note in report.notes)

    def test_degenerate_rank_keeps_a_minor_witness(self):
        # path 1-2-3 at phases (pi, 0, pi/2): the Jacobian's eigenvalues are
        # (0, 0, +2), so the rank is short and yet the state is unstable
        b = np.zeros((3, 3))
        b[0, 1] = b[1, 0] = b[1, 2] = b[2, 1] = 1.0
        x = np.array([math.pi, 0.0, math.pi / 2])
        sys_ = KuramotoSystem(-(b * np.sin(x[None, :] - x[:, None])).sum(axis=1), b)
        report = classify_stability(sys_, x)
        assert report.verdict == "fails necessary condition"
        assert report.rank_estimate == 1
        assert report.definiteness.witness == MinorWitness((1,), -1.0)
        assert any("degenerate" in note for note in report.notes)

    def test_splay_ring_fails(self):
        b = np.array([
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ])
        sys_ = KuramotoSystem(np.zeros(3), b)
        x = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
        report = classify_stability(sys_, x)
        assert report.verdict == "fails necessary condition"
        assert not spanning_phase_condition(sys_, x)


class TestSpanningPhaseCondition:
    def test_synchronized_true(self):
        sys_ = KuramotoSystem(np.zeros(3), np.ones((3, 3)) - np.eye(3))
        assert spanning_phase_condition(sys_, np.zeros(3))

    def test_anti_lock_false(self):
        sys_ = two_node()
        assert not spanning_phase_condition(sys_, np.array([math.pi - math.asin(0.5), 0.0]))

    @pytest.mark.parametrize("length", [5, 2])
    def test_rejects_phase_vector_of_wrong_length(self, length):
        sys_ = KuramotoSystem(np.zeros(3), np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValueError, match=r"phase vector has shape \(%d,\), expected \(3,\)" % length):
            spanning_phase_condition(sys_, np.zeros(length))

    def test_matches_bipartition_oracle_on_random_phases(self):
        # every bipartition of every coupling component must be crossed by a
        # coupled pair within pi/2 of phase; phases need not be an equilibrium
        rng = np.random.default_rng(109)
        outcomes = set()
        for _ in range(150):
            n = int(rng.integers(1, 8))
            b = np.triu(rng.uniform(0.5, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
            sys_ = KuramotoSystem(np.zeros(n), b + b.T)
            x = rng.uniform(-2 * math.pi, 4 * math.pi, size=n) * rng.uniform(0.05, 1.0)
            coupled = [(i, j) for i in range(n) for j in range(i + 1, n) if b[i, j] > 0]
            near = {(i, j) for i, j in coupled if abs(wrap_to_pi(x[j] - x[i])) < math.pi / 2}
            expected = True
            for comp in _components(n, coupled):
                for size in range(1, len(comp)):
                    for side in itertools.combinations(comp, size):
                        if not any((i in side) != (j in side) for i, j in near):
                            expected = False
            outcomes.add(expected)
            assert spanning_phase_condition(sys_, x) == expected
        assert outcomes == {True, False}

    def test_matches_tree_diagnostic_on_random_equilibria(self):
        rng = np.random.default_rng(103)
        checked = 0
        while checked < 25:
            sys_ = random_system(rng, int(rng.integers(2, 7)))
            x = find_equilibrium(sys_, rng.uniform(0, 2 * math.pi, size=sys_.n))
            if x is None:
                continue
            checked += 1
            report = classify_stability(sys_, x)
            assert (report.spanning_forest is not None) == spanning_phase_condition(sys_, x)

    def test_necessity_direction(self):
        # a certified PSD negated Jacobian must come with the phase tree and
        # no line violations
        rng = np.random.default_rng(107)
        certified = 0
        for _ in range(60):
            sys_ = random_system(rng, int(rng.integers(2, 6)))
            seed = rng.uniform(-0.4, 0.4, size=sys_.n)
            x = find_equilibrium(sys_, seed)
            if x is None:
                continue
            report = classify_stability(sys_, x)
            if report.certified:
                certified += 1
                assert spanning_phase_condition(sys_, x)
                assert all(not r.violated for r in report.line_reports)
        assert certified >= 10
