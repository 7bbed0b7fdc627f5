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

from .analysis import DEGENERATE, StabilityReport, analyze_matrix
from .graphs import WeightedGraph, _index_forest
from .numerics import REL_TOL
from .sylvester import DEFAULT_N_MAX

logger = logging.getLogger(__name__)

NEWTON_MAX_ITER = 200
NEWTON_MAX_HALVINGS = 50
# On the benchmark's pools (seeds 1-4) every locking search converges
# within 6 iterations, while a non-locking one wanders for 8-200; the min
# cut runs once, at this iteration, a margin of 3. Since a refusal is a
# proof, the trigger sets only how soon a hopeless search stops. Trigger 8
# is faster still, but the benchmark harness keeps each op's stdout, so
# its extra ops raised lock-sparse's peak RSS by 8.7 % and 9.9 % (medians
# at seeds 1 and 4) against a bound of 10 %.
NEWTON_CUT_AFTER = 9


@dataclass(frozen=True, eq=False)
class KuramotoSystem:
    """Oscillator network: frequencies ``omega`` and coupling matrix ``b``.

    The coupling matrix must be symmetric with zero diagonal and
    non-negative entries; two oscillators are coupled iff their entry is
    positive. A zero entry is stored as +0.0, also where it was given as
    -0.0.
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
        b += 0.0  # -0.0 + 0.0 is +0.0
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
        return WeightedGraph._from_columns(self.n, *self._coupled_pairs)

    @cached_property
    def _coupling_mask(self) -> np.ndarray:
        """``b > 0``: the one scan of ``b``, read-only, true at both (i, j)
        and (j, i) of each coupled pair."""
        mask = self.b > 0
        mask.flags.writeable = False
        return mask

    @cached_property
    def _coupled_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """0-based endpoints i < j of the coupled pairs, in row-major order,
        and their weights, read from ``_coupling_mask``; the arrays are read-only."""
        i, j = np.nonzero(np.triu(self._coupling_mask, 1))
        pairs = (i, j, self.b[i, j])
        for column in pairs:
            column.flags.writeable = False
        return pairs


def wrap_phases(x) -> np.ndarray:
    """Reduce phases componentwise to [0, 2*pi)."""
    r = np.mod(np.asarray(x, dtype=float), 2.0 * math.pi)
    # A tiny negative phase leaves a remainder that rounds up to 2*pi itself.
    return np.where(r == 2.0 * math.pi, 0.0, r)[()]


def wrap_to_pi(d):
    """Reduce phase differences to (-pi, pi]."""
    return math.pi - wrap_phases(math.pi - np.asarray(d, dtype=float))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v``, also where the sum of squares overflows.

    That sum overflows once an entry passes about 1e154; a finite vector's
    norm is then taken of ``v`` scaled by a power of two, which is exact,
    and is inf only when the norm itself is past the largest float.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if norm == math.inf and np.all(np.isfinite(v)):
            exponent = np.frexp(np.max(np.abs(v)))[1]
            norm = float(np.ldexp(np.linalg.norm(np.ldexp(v, -exponent)), exponent))
    return norm


def equilibrium_tolerance(sys: KuramotoSystem) -> float:
    return 1e-10 * max(1.0, _norm(sys.omega))


def rotating_frame_residual(sys: KuramotoSystem, x) -> np.ndarray:
    """Right-hand side of the rotating-frame dynamics; zero at equilibria.

    Row i is omega_i - mean + sum_j b_ij sin(x_j - x_i), a dense row sum
    whose sines are taken at the coupled pairs only. An uncoupled product
    is then 0.0 * 0.0 instead of 0.0 * sin(x_j - x_i): only the sign of a
    zero can differ, which a nonzero sum never shows, and both forms hold
    the diagonal term 0.0 * sin(+0.0) = +0.0, so neither row sums to -0.0.
    The result therefore has the bytes of the form with every sine, in any
    summation order. Phases whose spread is not finite (an inf or NaN
    phase, or a difference that overflows) take every sine, so that
    0 * sin(inf) still writes its NaN.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"phase vector has shape {x.shape}, expected ({sys.n},)")
    diff = x[None, :] - x[:, None]
    if np.isfinite(np.ptp(x)):
        sines = np.sin(diff, out=np.zeros_like(diff), where=sys._coupling_mask)
    else:
        sines = np.sin(diff)
    return sys.omega - sys.mean_frequency + (sys.b * sines).sum(axis=1)


def _evaluate(sys: KuramotoSystem, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Residual at the float array ``x`` and its norm, the one evaluation in this module.

    The system keeps the last phase vector evaluated (its shape and bytes)
    with its norm. The search returns the phases it evaluated last, so a
    caller that reports the norm at an equilibrium and then asks
    ``jacobian`` for the linearization there evaluates no residual again.
    """
    r = rotating_frame_residual(sys, x)
    norm = _norm(r)
    object.__setattr__(sys, "_last_residual_norm", ((x.shape, x.tobytes()), norm))
    return r, norm


def _residual_norm(sys: KuramotoSystem, x) -> float:
    """Euclidean norm of the residual at ``x``: the kept norm when ``x`` was evaluated last."""
    x = np.asarray(x, dtype=float)
    last = sys.__dict__.get("_last_residual_norm")
    if last is not None and last[0] == (x.shape, x.tobytes()):
        return last[1]
    return _evaluate(sys, x)[1]


def _residual_jacobian(sys: KuramotoSystem, x: np.ndarray) -> np.ndarray:
    """Jacobian of the residual at any phase vector (symmetric, zero row sums).

    Entry (i, j) of a coupled pair is b_ij cos(x_j - x_i), one cosine per
    pair; every other off-diagonal entry is +0.0 and the diagonal balances
    each row. For finite phases these are the floats of the dense form
    (mirror the upper triangle of b * cos(x_j - x_i), the zero added to
    the empty lower half turning a -0.0 into +0.0, then the same row sums).
    """
    i, j, w = sys._coupled_pairs
    c = w * np.cos(x[j] - x[i]) + 0.0
    a = np.zeros((sys.n, sys.n))
    a[i, j] = c
    a[j, i] = c
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
    i, j, weights = sys._coupled_pairs
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


def _solve_finite(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    step = np.linalg.solve(jac, rhs)
    if not np.all(np.isfinite(step)):
        raise np.linalg.LinAlgError("non-finite Newton step")
    return step


def _newton_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution of ``jac @ step = rhs``, finite, or LinAlgError.

    Near the largest float the elimination inside ``np.linalg.solve`` can
    overflow on a Jacobian that is not singular. A first solve that raises
    or gives a non-finite step is retried once on ``jac`` and ``rhs`` both
    scaled by the power of two of max|jac|, which is exact and keeps the
    solution; a step whose first solve succeeds is never touched. A scaled
    ``rhs`` that overflows (a subnormal Jacobian) fails as the first solve did.
    """
    try:
        return _solve_finite(jac, rhs)
    except np.linalg.LinAlgError:
        exponent = np.frexp(np.max(np.abs(jac)))[1]
        with np.errstate(over="ignore"):
            rhs = np.ldexp(rhs, -exponent)
        return _solve_finite(np.ldexp(jac, -exponent), rhs)


def find_equilibrium(sys: KuramotoSystem, x0) -> Optional[np.ndarray]:
    """Damped Newton search for a phase-locked state near ``x0``.

    The last phase is pinned to zero to remove the rotational degeneracy and
    Newton runs on the remaining coordinates. Steps are halved until the
    residual norm decreases; the accepted trial's residual carries over, so
    each phase vector is evaluated once. Each iteration opens with the
    residual test. An iterate that passes is wrapped to [0, 2*pi), which
    moves the residual by roundoff; wrapped phases that differ from the
    iterate are evaluated again, and Newton goes on from them if they miss.
    The search ends in one of four ways:

    - lock: the passing phases are returned, last entry zero, with their
      residual norm kept for ``_residual_norm``;
    - iteration cap: no lock after ``NEWTON_MAX_ITER`` iterations;
    - stalled line search: none of ``NEWTON_MAX_HALVINGS`` halvings of a
      step lowers the residual norm;
    - min cut: after ``NEWTON_CUT_AFTER`` iterations one minimum cut proves
      that no phase vector could pass. Since that is a proof, the trigger
      changes only the cost of a search, never its result; locking searches
      on the benchmark converge within 6 iterations, inside the trigger of 9.

    The last three return None and are logged at INFO. A seed whose
    differences from its last phase are not finite is refused with
    ValueError.
    """
    tol = equilibrium_tolerance(sys)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ValueError(f"seed has shape {x.shape}, expected ({sys.n},)")
    with np.errstate(over="ignore", invalid="ignore"):
        x = x - x[-1]
    if not np.all(np.isfinite(x)):
        raise ValueError("seed phases minus the last seed phase must be finite")
    r, norm = _evaluate(sys, x)
    for iteration in range(NEWTON_MAX_ITER + 1):
        if norm < tol:
            wrapped = wrap_phases(x)
            if wrapped.tobytes() != x.tobytes():
                x = wrapped
                r, norm = _evaluate(sys, x)
            if norm < tol:
                return x
        if iteration == NEWTON_MAX_ITER:
            logger.info("no phase-locked state: the residual norm is %.17g after %d iterations", norm, iteration)
            return None
        if iteration == NEWTON_CUT_AFTER and _cut_refutes_locking(sys, tol):
            return None
        jac = _residual_jacobian(sys, x)[:-1, :-1]
        rhs = -r[:-1]
        try:
            step = _newton_step(jac, rhs)
        except np.linalg.LinAlgError:
            logger.warning("singular gauge-fixed Jacobian at an iterate; using least-squares step")
            step = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        scale = 1.0
        # Subnormal coupling can make the step overflow the phases or their
        # differences; such a trial's residual norm is NaN, which is never
        # below norm, so it is halved like any other rejected trial.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(NEWTON_MAX_HALVINGS):
                trial = x.copy()
                trial[:-1] += scale * step
                trial_r, trial_norm = _evaluate(sys, trial)
                if trial_norm < norm:
                    x, r, norm = trial, trial_r, trial_norm
                    break
                scale *= 0.5
            else:
                logger.info("no phase-locked state: no damped step lowered the residual norm %.17g "
                            "at iteration %d", norm, iteration)
                return None


def jacobian(sys: KuramotoSystem, xstar) -> np.ndarray:
    """Linearization at an equilibrium: symmetric with zero row sums.

    Off-diagonal entries couple through the cosine of the phase difference;
    the diagonal balances each row to zero. The input must actually be an
    equilibrium (residual below the solver tolerance).
    """
    xstar = np.asarray(xstar, dtype=float)
    tol = equilibrium_tolerance(sys)
    norm = _residual_norm(sys, xstar)
    if not norm < tol:  # a NaN norm (phases with NaN or inf) is no equilibrium either
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
    i, j, _ = sys._coupled_pairs
    near = np.abs(wrap_to_pi(x[j] - x[i])) < math.pi / 2
    labels, _ = _index_forest(sys.n, i[near], j[near])
    return bool(np.all(labels[i] == labels[j]))


def classify_stability(sys: KuramotoSystem, xstar, *, rel: float = REL_TOL,
                       n_max: int = DEFAULT_N_MAX) -> StabilityReport:
    """Full obstruction pipeline at an equilibrium.

    Degenerate linearizations (zero eigenvalue not simple) are reported as such
    unless a witness shows instability; the negated Jacobian goes through the
    minor certificate and the Jacobian's exact graph through the structural
    scans. That graph is the coupling graph with each pair signed by its
    cosine: an uncoupled pair's entry is exactly +0.0, and a coupled pair's
    is nonzero unless b_ij cos(x_j - x_i) underflows, so its components are
    the coupling components at any coupling scale. Passing means the
    necessary linear-stability condition holds; attractivity is out of scope
    and is never claimed.
    """
    report = analyze_matrix(jacobian(sys, xstar), rel=rel, n_max=n_max)
    if report.rank_estimate < sys.n - 1 and not report.certified:
        note = f"rank estimate {report.rank_estimate} below {sys.n - 1}: linearization is degenerate"
        if not (report.definiteness.witness or (report.full_sweep and report.full_sweep.witness)):
            report = replace(report, verdict=DEGENERATE)
        return replace(report, notes=report.notes + (note,))
    return report
