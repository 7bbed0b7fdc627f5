"""Seeded workload generators, expectation oracles and per-op correctness checks.

Every workload is a list of *rounds*. A round is a fixed template of op slots
(sizes, scales and op kinds); the seed draws everything inside a slot (the
random weights, frequencies, chords, clusters and subsets) and the order of
the ops within the round. The timed loop only stops at a round boundary, so
every run measures the same mix of sizes and the end-to-end numbers do not
depend on where a time limit happened to cut a round.

The program sees only the files written here (edge lists, CSV matrices,
oscillator files, seed-phase files) or, for library ops, the arrays and
graphs built from the same data. Expectations are computed here, never by
the program: eigenvalues for verdict classes, an arc-cut bound that proves a
Kuramoto system has no phase-locked state, a coupling far above that bound
for systems that must lock (a separate Newton solve re-examines any system
the program fails to lock), and ``np.linalg.det`` for direct minors.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

WORKLOADS = ("lock-dense", "lock-sparse", "sweep-small", "forest-oracle")

# Rounds of distinct instances generated per run, about as many as a 20 s
# run completes at this repository's speed. The timed loop cycles through
# them when it needs more rounds than this.
POOL_ROUNDS = {"lock-dense": 3, "lock-sparse": 24, "sweep-small": 8, "forest-oracle": 8}

PASSES = "passes necessary condition"
FAILS = "fails necessary condition"
DEGENERATE = "degenerate"

# Oracle classes of a symmetric zero-row-sum matrix ``a`` (the question is
# whether -a is PSD with a simple zero eigenvalue).
PSD_SIMPLE = "psd-simple-zero"
PSD_MULTI = "psd-multiple-zero"
NOT_PSD = "not-psd"
VERDICT_OF_CLASS = {PSD_SIMPLE: PASSES, PSD_MULTI: DEGENERATE, NOT_PSD: FAILS}


@dataclass
class Op:
    """One benchmark operation and what its result must satisfy.

    ``argv`` is set for ops that go through ``mesostab.cli.main``; library
    ops carry their inputs in ``args`` and name the function in ``kind``.
    ``expect`` holds the benchmark's own expectations for the checks.
    """

    kind: str
    size: int
    argv: Optional[list[str]] = None
    args: tuple = ()
    expect: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Oracles


def eigen_class(neg_a: np.ndarray) -> str:
    """Classify ``neg_a`` = -a: PSD with a simple zero, PSD with more, or not PSD.

    An eigenvalue inside the band between "numerically zero" and "clearly
    nonzero" raises ValueError, so a doubtful class is never used as an
    expectation.
    """
    w = np.linalg.eigvalsh(neg_a)
    scale = max(1.0, float(np.max(np.abs(neg_a))))
    tol = 1e-9 * neg_a.shape[0] * scale
    doubtful = (np.abs(w) > tol) & (np.abs(w) <= 1000.0 * tol)
    if doubtful.any():
        raise ValueError(f"eigenvalue {w[doubtful][0]:.3e} is too close to zero to classify")
    if w[0] < -tol:
        return NOT_PSD
    zeros = int(np.count_nonzero(np.abs(w) <= tol))
    return PSD_SIMPLE if zeros == 1 else PSD_MULTI


def _clear_class(neg_a: np.ndarray) -> Optional[str]:
    """eigen_class, or None for a spectrum too close to zero: generators redraw those."""
    try:
        return eigen_class(neg_a)
    except ValueError:
        return None


def kuramoto_residual(omega: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    d = x[None, :] - x[:, None]
    return omega - omega.mean() + (b * np.sin(d)).sum(axis=1)


def kuramoto_jacobian(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    a = b * np.cos(x[None, :] - x[:, None])
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def newton_lock(omega: np.ndarray, b: np.ndarray, x0: np.ndarray, max_iter: int = 100) -> bool:
    """True when a gauge-fixed Newton solve from ``x0`` reaches an equilibrium.

    A converged iterate with residual below the package's own acceptance
    threshold proves that a phase-locked state exists.
    """
    tol = 1e-10 * max(1.0, float(np.linalg.norm(omega)))
    x = x0 - x0[-1]
    r = kuramoto_residual(omega, b, x)
    norm = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if norm < tol:
            return True
        jac = kuramoto_jacobian(b, x)[:-1, :-1]
        try:
            step = np.linalg.solve(jac, -r[:-1])
        except np.linalg.LinAlgError:
            return False
        scale = 1.0
        while scale > 1e-6:
            trial = x.copy()
            trial[:-1] += scale * step
            rt = kuramoto_residual(omega, b, trial)
            nt = float(np.linalg.norm(rt))
            if nt < norm:
                x, r, norm = trial, rt, nt
                break
            scale *= 0.5
        else:
            return False
    return norm < tol


def arc_cut_bound(omega: np.ndarray, b: np.ndarray) -> float:
    """Largest |sum of centred frequencies| / crossing coupling over ring arcs.

    Summing the equilibrium equations over any vertex set S cancels the
    coupling inside S, so a locked state needs |sum_S (omega - mean)| to be at
    most the coupling crossing S. Scaling ``b`` by a factor below 1 / bound
    therefore leaves no phase-locked state at all.
    """
    n = omega.size
    om = omega - omega.mean()
    c = np.concatenate([[0.0], np.cumsum(om)])
    deg = np.concatenate([[0.0], np.cumsum(b.sum(axis=1))])
    up = np.zeros((n + 1, n + 1))
    up[1:, 1:] = np.cumsum(np.cumsum(np.triu(b, 1), axis=0), axis=1)
    s, e = np.triu_indices(n + 1, 1)
    keep = (e - s) < n
    s, e = s[keep], e[keep]
    inside = up[e, e] - up[s, e] - up[e, s] + up[s, s]
    crossing = deg[e] - deg[s] - 2.0 * inside
    return float(np.max(np.abs(c[e] - c[s]) / crossing))


def direct_minor(lap: np.ndarray, subset: tuple[int, ...]) -> float:
    idx = [v - 1 for v in subset]
    return float(np.linalg.det(lap[np.ix_(idx, idx)]))


# --------------------------------------------------------------------------
# Generators and file formats


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _sym_uniform(rng, n: int, lo: float, hi: float) -> np.ndarray:
    w = np.triu(rng.uniform(lo, hi, (n, n)), 1)
    return w + w.T


def _random_edges(rng, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct edges on 1..n containing a random spanning tree."""
    order = rng.permutation(n) + 1
    chosen = set()
    for k in range(1, n):
        a, c = int(order[k]), int(order[rng.integers(0, k)])
        chosen.add((min(a, c), max(a, c)))
    while len(chosen) < m:
        a, c = (int(v) for v in rng.integers(1, n + 1, 2))
        if a != c:
            chosen.add((min(a, c), max(a, c)))
    return sorted(chosen)


def _signed_weights(rng, edges, neg_share: float) -> list[tuple[int, int, float]]:
    out = []
    for i, j in edges:
        w = float(rng.uniform(0.5, 2.0))
        out.append((i, j, -w if rng.random() < neg_share else w))
    return out


def _laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[i - 1, j - 1] -= w
        lap[j - 1, i - 1] -= w
        lap[i - 1, i - 1] += w
        lap[j - 1, j - 1] += w
    return lap


def format_edges(n: int, edges) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{i} {j} {w!r}" for i, j, w in edges]) + "\n"


def format_matrix(a: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"


def format_oscillators(omega: np.ndarray, b: np.ndarray) -> str:
    n = omega.size
    lines = [str(n), "omega: " + " ".join(repr(float(w)) for w in omega)]
    iu, ju = np.nonzero(np.triu(b, 1))
    lines += [f"{i + 1} {j + 1} {float(b[i, j])!r}" for i, j in zip(iu, ju)]
    return "\n".join(lines) + "\n"


class _Writer:
    """Writes generated inputs into one directory under stable names."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def put(self, suffix: str, text: str) -> str:
        path = self.root / f"in{self.count:04d}.{suffix}"
        self.count += 1
        path.write_text(text)
        return str(path)


def _kuramoto_op(out: _Writer, omega, b, x0: Optional[np.ndarray], expect_lock: bool) -> Op:
    argv = ["--format", "json", "kuramoto", out.put("osc", format_oscillators(omega, b))]
    if x0 is not None:
        argv += ["--seed-phases", out.put("phases", " ".join(repr(float(v)) for v in x0) + "\n")]
    # The package builds a Jacobian's graph with a 1e-12 cutoff for zero entries.
    expect = {"lock": expect_lock, "omega": omega, "b": b, "x0": x0, "zero_tol": 1e-12}
    return Op("kuramoto", omega.size, argv=argv, expect=expect)


# lock-dense slots: (n, u, anti-phase). Locked phases are invariant under the
# joint scaling of omega and B by 10**u, but the leading minors are not: at
# u = 2 and n = 176 they overflow before the last one, so the certificate's
# route changes with u. Two slots in seven start from an anti-phase cluster.
LOCK_DENSE_SLOTS = (
    (48, -2.0, False), (80, -1.0, False), (112, 0.0, False), (144, 1.0, False),
    (176, 2.0, False), (64, 0.0, True), (160, -1.0, True),
)


def _lock_dense_round(rng, out: _Writer) -> list[Op]:
    ops = []
    for n, u, anti in LOCK_DENSE_SLOTS:
        omega = rng.normal(0.0, 0.5, n)
        b = _sym_uniform(rng, n, 0.5, 1.5) * (3.0 / n)
        x0 = None
        if anti:
            x0 = np.zeros(n)
            # Oscillator 1 is always in the cluster, so the certificate meets
            # a negative leading minor at k = 1.
            others = rng.choice(np.arange(1, n), n // 8 - 1, replace=False)
            x0[0] = math.pi
            x0[others] = math.pi
        scale = 10.0 ** u
        ops.append(_kuramoto_op(out, omega * scale, b * scale, x0, True))
    return ops


# lock-sparse: ring plus n/10 chords with coupling f * (arc-cut bound). Slots
# with f in [0.75, 0.95] provably cannot lock. Slots with f in [1.4, 3]
# usually lock; each is kept only once a separate Newton solve locks it. A
# search that cannot lock wanders chaotically until Newton's iteration cap:
# at n = 128..256 one such search took 0.15 to 7.5 s on statistically
# identical systems, so a run would hold too few of them to be steady. The
# failing searches therefore run at n = 48 (30 ms to 0.5 s each), with fresh
# systems in every pool round, while the costlier locking systems repeat
# every LOCKING_ROUNDS rounds.
LOCK_SPARSE_SLOTS = tuple((n, True) for n in range(128, 257, 16)) + ((48, False),) * 8
LOCKING_ROUNDS = 6


def _ring_with_chords(rng, n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    mask[idx, (idx + 1) % n] = True
    chords = 0
    while chords < n // 10:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i == j or mask[i, j] or mask[j, i]:
            continue
        mask[i, j] = True
        chords += 1
    mask = mask | mask.T
    return np.where(mask, _sym_uniform(rng, n, 0.5, 1.5), 0.0)


def _lock_sparse_round(rng, out: _Writer, earlier: list[list[Op]]) -> list[Op]:
    reuse = len(earlier) >= LOCKING_ROUNDS
    ops = [op for op in earlier[len(earlier) % LOCKING_ROUNDS] if op.expect["lock"]] if reuse else []
    for n, locks in LOCK_SPARSE_SLOTS:
        if locks and reuse:
            continue
        while True:
            omega = rng.normal(0.0, 0.5, n)
            b1 = _ring_with_chords(rng, n)
            f = rng.uniform(1.4, 3.0) if locks else rng.uniform(0.75, 0.95)
            b = b1 * (arc_cut_bound(omega, b1) * f)
            if not locks or newton_lock(omega, b, np.zeros(n)):
                break
        ops.append(_kuramoto_op(out, omega, b, None, locks))
    return ops


# Eleven ops per round (n = 16 twice for graphs): with an odd count the
# median op falls inside one slot's samples instead of between two slots.
SWEEP_GRAPH_SIZES = (14, 15, 16, 16, 17, 18)
SWEEP_MATRIX_SIZES = (14, 15, 16, 17, 18)


def _indefinite_graph(rng, n: int) -> list[tuple[int, int, float]]:
    """Signed graph whose Laplacian has diagonal entries of both signs.

    Vertex 1 carries only negative edges, so both the positive and the
    negative side of the sweep are violated at subset size 1.
    """
    edges = _signed_weights(rng, _random_edges(rng, n, 2 * n), 0.25)
    edges = [(i, j, -abs(w)) if i == 1 else (i, j, w) for i, j, w in edges]
    lap = _laplacian(n, edges)
    if not (np.diag(lap).min() < 0 < np.diag(lap).max()):
        raise AssertionError("generator failed to give mixed diagonal signs")
    return edges


def _two_block_matrix(rng, n: int) -> np.ndarray:
    """a = -L for a positive graph with two components: PSD, two zero eigenvalues."""
    h = n // 2
    perm = rng.permutation(n) + 1
    edges = []
    for part in (perm[:h], perm[h:]):
        k = part.size
        for a, c in _random_edges(rng, k, min(k * (k - 1) // 2, 2 * k)):
            i, j = int(part[a - 1]), int(part[c - 1])
            edges.append((min(i, j), max(i, j), float(rng.uniform(0.5, 1.5))))
    return -_laplacian(n, edges)


def _sweep_round(rng, out: _Writer) -> list[Op]:
    ops = []
    for n in SWEEP_GRAPH_SIZES:
        cls = None
        while cls is None:
            edges = _indefinite_graph(rng, n)
            lap = _laplacian(n, edges)
            cls = _clear_class(lap)
        argv = ["--format", "json", "analyze-graph", out.put("edges", format_edges(n, edges))]
        ops.append(Op("analyze-graph", n, argv=argv, expect={"a": -lap, "class": cls, "zero_tol": 0.0}))
    for n in SWEEP_MATRIX_SIZES:
        cls = None
        while cls is None:
            a = _two_block_matrix(rng, n)
            cls = _clear_class(-a)
        argv = ["--format", "json", "analyze-matrix", out.put("csv", format_matrix(a))]
        ops.append(Op("analyze-matrix", n, argv=argv, expect={"a": a, "class": cls, "zero_tol": 0.0}))
    return ops


IDENTITY_SIZES = (8, 9, 10)
FOREST_EDGES = (24, 28, 28, 32)  # 28 twice: thirteen ops per round, an odd count
EQUIVALENCE_SIZES = (8, 10, 12)
# Forest-family sizes vary by orders of magnitude between random graphs with
# the same edge count, and so do enumeration time and memory. Each forest op
# therefore draws graphs and subsets until the family has FOREST_MEMBERS
# members within 10 %, counted beforehand by the matrix-tree theorem (the
# unit-weight principal minor).
FOREST_MEMBERS = 3000


def _forest_round(rng, out: _Writer, graph_type) -> list[Op]:
    ops = []
    for n in IDENTITY_SIZES:
        edges = _signed_weights(rng, _random_edges(rng, n, 2 * n), 0.3)
        argv = ["--format", "json", "verify-identity", out.put("edges", format_edges(n, edges))]
        ops.append(Op("verify-identity", n, argv=argv))
    for m in FOREST_EDGES:
        n = m // 2 + 2
        while True:
            pairs = _random_edges(rng, n, m)
            subset = tuple(sorted(int(v) for v in rng.choice(np.arange(1, n + 1), n // 2, replace=False)))
            members = direct_minor(_laplacian(n, [(i, j, 1.0) for i, j in pairs]), subset)
            if abs(members - FOREST_MEMBERS) <= 0.1 * FOREST_MEMBERS:
                break
        edges = _signed_weights(rng, pairs, 0.3)
        # The same minor with |weights| sums the absolute forest products,
        # which scales the roundoff of both forest sums.
        scale = direct_minor(_laplacian(n, [(i, j, abs(w)) for i, j, w in edges]), subset)
        ops.append(Op("forest", m, args=(graph_type(n, tuple(edges)), subset),
                      expect={"minor": direct_minor(_laplacian(n, edges), subset), "scale": scale}))
    for n in EQUIVALENCE_SIZES:
        for psd in (True, False):
            while True:
                edges = _signed_weights(rng, _random_edges(rng, n, 2 * n), 0.0 if psd else 0.3)
                lap = _laplacian(n, edges)
                if _clear_class(lap) == (PSD_SIMPLE if psd else NOT_PSD):
                    break
            ops.append(Op("equivalences", n, args=(lap,), expect={"max_rank_psd": psd}))
    return ops


def build(workload: str, seed: int, root: Path, graph_type=None) -> list[list[Op]]:
    """Generate the pool of rounds for ``workload`` into ``root``.

    ``graph_type`` is the program's graph constructor, needed only by the
    library ops of forest-oracle. Op order within each round is a seeded
    shuffle.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = _rng(workload, seed)
    root.mkdir(parents=True, exist_ok=True)
    out = _Writer(root)
    rounds = []
    for _ in range(POOL_ROUNDS[workload]):
        if workload == "lock-dense":
            ops = _lock_dense_round(rng, out)
        elif workload == "lock-sparse":
            ops = _lock_sparse_round(rng, out, rounds)
        elif workload == "sweep-small":
            ops = _sweep_round(rng, out)
        else:
            ops = _forest_round(rng, out, graph_type)
        rounds.append([ops[k] for k in rng.permutation(len(ops))])
    return rounds


# --------------------------------------------------------------------------
# Per-op correctness checks (run after the timed loop)


def _check_minor_witness(neg_a: np.ndarray, witness: Optional[dict]) -> list[str]:
    if not witness:
        return []
    if witness["type"] == "minor":
        idx = [v - 1 for v in witness["subset"]]
        value = float(np.linalg.det(neg_a[np.ix_(idx, idx)]))
        if np.sign(value) != np.sign(witness["value"]) or witness["value"] == 0.0:
            return [f"minor witness {witness['subset']} cites {witness['value']!r}, det gives {value!r}"]
        return []
    v = np.asarray(witness["vector"])
    q = float(v @ neg_a @ v)
    if np.sign(q) != np.sign(witness["value"]):
        return [f"vector witness cites {witness['value']!r}, quadratic form gives {q!r}"]
    return []


def _check_cut(a: np.ndarray, cut: Optional[dict], zero_tol: float) -> list[str]:
    if cut is None:
        return []
    n = a.shape[0]
    side = np.zeros(n, dtype=bool)
    side[[v - 1 for v in cut["vertices"]]] = True
    block = a[np.ix_(side, ~side)]
    present = np.abs(block) > zero_tol
    if not present.any() or np.any(block[present] >= 0):
        return [f"negative cut {cut['vertices']} has a non-negative or no crossing edge"]
    if any(w >= 0 for _, _, w in cut["crossing_edges"]):
        return ["cited crossing edge is not negative"]
    return []


def _check_report(a: np.ndarray, report: dict, zero_tol: float, expected_class: Optional[str] = None) -> list[str]:
    neg_a = -a
    cls = eigen_class(neg_a)
    errors = []
    if expected_class is not None and cls != expected_class:
        errors.append(f"eigen oracle gives {cls}, expected {expected_class}")
    if report["verdict"] != VERDICT_OF_CLASS[cls]:
        errors.append(f"verdict {report['verdict']!r} but eigen oracle says {cls}")
    errors += _check_minor_witness(neg_a, report["definiteness"]["witness"])
    if report["full_sweep"] is not None:
        errors += _check_minor_witness(neg_a, report["full_sweep"]["witness"])
    errors += _check_cut(a, report["negative_cut"], zero_tol)
    return errors


def check_op(op: Op, outcome) -> list[str]:
    """Errors for one completed op; empty when the result is correct.

    ``outcome`` is (exit code, stdout text) for CLI ops and the reduced
    return value for library ops.
    """
    if op.argv is not None:
        code, text = outcome
        if code == 2:
            return ["exit code 2"]
        payload = json.loads(text)
        if op.kind == "verify-identity":
            ok = payload["identity"]["all_within_tolerance"]
            return [] if code == 0 and ok else [f"verify-identity exit {code}, all within tolerance {ok}"]
        if op.kind == "kuramoto":
            return _check_kuramoto(op, code, payload)
        expected_code = 0 if op.expect["class"] == PSD_SIMPLE else 1
        errors = _check_report(op.expect["a"], payload["report"], op.expect["zero_tol"], op.expect["class"])
        if code != expected_code:
            errors.append(f"exit code {code}, expected {expected_code}")
        return errors
    if op.kind == "forest":
        members, family_sum, combinatorial = outcome
        want, tol = op.expect["minor"], 1e-9 * max(1.0, op.expect["scale"])
        errors = []
        if abs(family_sum - want) > tol or abs(combinatorial - want) > tol:
            errors.append(f"forest sums {family_sum!r}/{combinatorial!r} differ from direct minor {want!r}")
        if members == 0 and want != 0.0:
            errors.append("empty forest family for a nonzero minor")
        return errors
    values = outcome
    want = op.expect["max_rank_psd"]
    if any(v != want for v in values):
        return [f"five-way check gives {values}, expected all {want}"]
    return []


def _check_kuramoto(op: Op, code: int, payload: dict) -> list[str]:
    from mesostab.kuramoto import KuramotoSystem, equilibrium_tolerance

    locked = payload["equilibrium"] is not None
    if locked != op.expect["lock"]:
        message = f"lock outcome {locked}, expected {op.expect['lock']}"
        if op.expect["lock"]:
            x0 = op.expect["x0"]
            exists = newton_lock(op.expect["omega"], op.expect["b"], np.zeros(op.size) if x0 is None else x0)
            message += f" (separate Newton solve {'finds' if exists else 'does not find'} a locked state)"
        return [message]
    if not locked:
        return [] if code == 1 else [f"exit code {code} without a locked state"]
    omega, b = op.expect["omega"], op.expect["b"]
    x = np.asarray(payload["equilibrium"]["phases"])
    residual = float(np.linalg.norm(kuramoto_residual(omega, b, x)))
    tol = equilibrium_tolerance(KuramotoSystem(omega, b))
    errors = []
    if not residual < tol:
        errors.append(f"phase residual {residual:.3e} not below {tol:.3e}")
    report = payload["report"]
    errors += _check_report(kuramoto_jacobian(b, x), report, op.expect["zero_tol"])
    expected_code = 0 if report["verdict"] == PASSES else 1
    if code != expected_code:
        errors.append(f"exit code {code} for verdict {report['verdict']!r}")
    return errors
