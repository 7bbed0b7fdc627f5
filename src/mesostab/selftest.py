"""Built-in consistency checks behind the `self-test` CLI command.

A condensed, seeded version of the oracle comparisons the test suite runs:
forest sums against direct determinants, the five-way agreement of the
maximal-rank tests, the alternating cut identity, spanning-tree/negative-cut
duality, the two-oscillator closed form, the same pair's lock at a scale
where its residual's sum of squares overflows, and the min cut that
refutes locking of a pair beyond its coupling.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .graphs import WeightedGraph, laplacian
from .kuramoto import KuramotoSystem, _cut_refutes_locking, equilibrium_tolerance, find_equilibrium, jacobian
from .minors import principal_minor_combinatorial, principal_minor_direct
from .structure import cut_identity_sweep, identity_check, positive_spanning_tree
from .sylvester import check_equivalences


def random_signed_graph(rng, n: int, m: int, connected: bool = True) -> WeightedGraph:
    """Random graph with nonzero integer weights in [-3, 3]."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = []
    chosen = set()
    if connected:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            chosen.add((min(a, b), max(a, b)))
    extra = [p for p in pairs if p not in chosen]
    rng.shuffle(extra)
    for p in extra[: max(0, m - len(chosen))]:
        chosen.add(p)
    for i, j in sorted(chosen):
        w = 0
        while w == 0:
            w = int(rng.integers(-3, 4))
        edges.append((i, j, float(w)))
    return WeightedGraph(n, tuple(edges))


def random_zero_row_sum_matrix(rng, n: int) -> np.ndarray:
    m = rng.integers(-3, 4, size=(n, n))
    a = np.triu(m, 1)
    a = a + a.T
    a = a.astype(float)
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def _check_minor_oracle(rng, rounds: int) -> int:
    failures = 0
    for _ in range(rounds):
        n = int(rng.integers(3, 7))
        g = random_signed_graph(rng, n, int(rng.integers(n - 1, min(10, n * (n - 1) // 2) + 1)))
        L = laplacian(g)
        for size in range(1, n):
            subsets = np.array(list(itertools.combinations(range(1, n + 1), size)))
            for s, direct in zip(subsets.tolist(), principal_minor_direct(L, subsets).tolist()):
                forest = principal_minor_combinatorial(g, s)
                if abs(forest - direct) > max(1e-12, 1e-9 * abs(direct)):
                    failures += 1
    return failures


def _check_five_way(rng, rounds: int) -> int:
    failures = 0
    for _ in range(rounds):
        n = int(rng.integers(2, 8))
        if not check_equivalences(random_zero_row_sum_matrix(rng, n)).all_agree:
            failures += 1
    return failures


def _check_identity(rng, rounds: int) -> int:
    failures = 0
    for _ in range(rounds):
        n = int(rng.integers(3, 6))
        g = random_signed_graph(rng, n, int(rng.integers(n - 1, n + 3)))
        for side, terms in cut_identity_sweep(g):
            if not identity_check(side, terms).within_tolerance:
                failures += 1
    return failures


def _check_duality(rng, rounds: int) -> int:
    failures = 0
    for _ in range(rounds):
        n = int(rng.integers(3, 8))
        g = random_signed_graph(rng, n, int(rng.integers(n - 1, n + 4)))
        tree = positive_spanning_tree(g)
        has_negative_cut = False
        for size in range(1, n):
            for side in itertools.combinations(range(2, n + 1), size - 1):
                v1 = {1, *side}
                crossing = [w for _, i, j, w in g.simple_edges() if (i in v1) != (j in v1)]
                if crossing and all(w < 0 for w in crossing):
                    has_negative_cut = True
        if (tree is not None) == has_negative_cut:
            failures += 1
    return failures


def _check_two_oscillators() -> int:
    sys_ = KuramotoSystem(np.array([0.5, -0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = find_equilibrium(sys_, np.array([0.0, 0.1]))
    if x is None:
        return 1
    phi = float(x[0] - x[1])
    if abs(math.sin(phi) - 0.5) > 1e-9:
        return 1
    w = np.linalg.eigvalsh(jacobian(sys_, x))
    return 0 if abs(w[0] + 2 * math.cos(phi)) < 1e-8 and abs(w[1]) < 1e-10 else 1


def _check_lock_at_a_huge_scale() -> int:
    """The pair of the closed form, frequencies and coupling scaled by
    2**532 (the squares of its residual overflow), locks at the same phases."""
    phases = []
    for s in (1.0, 2.0 ** 532):
        sys_ = KuramotoSystem(np.array([0.5 * s, -0.5 * s]), np.array([[0.0, s], [s, 0.0]]))
        phases.append(find_equilibrium(sys_, np.array([0.0, 0.1])))
    return 0 if phases[1] is not None and np.array_equal(phases[0], phases[1]) else 1


def _check_unlockable_pair() -> int:
    """A pair with coupling b = 1 locks iff |omega_1 - omega_2| <= 2b: beyond
    it the search finds nothing and the cut refutes; just inside, it must not."""
    failures = 0
    for gap, lockable in ((3.0, False), (1.998, True)):
        sys_ = KuramotoSystem(np.array([gap / 2, -gap / 2]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        refuted = _cut_refutes_locking(sys_, equilibrium_tolerance(sys_))
        failures += refuted == lockable
        if not lockable:
            failures += find_equilibrium(sys_, np.array([0.0, 0.1])) is not None
    return failures


def run_self_test() -> int:
    """Run every check, print a PASS or FAIL line for each, and return the failure count."""
    rng = np.random.default_rng(20240801)
    checks = [
        ("forest sums match direct minors", lambda: _check_minor_oracle(rng, 25)),
        ("five-way maximal-rank agreement", lambda: _check_five_way(rng, 50)),
        ("alternating cut identity", lambda: _check_identity(rng, 10)),
        ("spanning tree / negative cut duality", lambda: _check_duality(rng, 50)),
        ("two-oscillator closed form", _check_two_oscillators),
        ("two-oscillator lock at coupling scale 2**532", _check_lock_at_a_huge_scale),
        ("min cut refutes an unlockable pair", _check_unlockable_pair),
    ]
    total = 0
    for name, fn in checks:
        bad = fn()
        total += bad
        print(f"{'PASS' if bad == 0 else 'FAIL'}  {name}" + ("" if bad == 0 else f" ({bad} failures)"))
    return total
