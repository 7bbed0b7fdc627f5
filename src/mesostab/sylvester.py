"""Semi-definiteness verdicts for symmetric matrices.

Two routes are provided: the exhaustive principal-minor sweep (exponential,
guarded) and the cheap leading-minor certificate that is valid for symmetric
matrices with zero row sums and maximal rank. The sweep takes only the
minors of subsets inside one component of the matrix's graph, the sum over
components of 2^{n_c} - 1 determinants: a minor spanning several
components is a product of theirs, and the first violation lies inside one
of them. The certificate tests the leading minors pivot by pivot on one
Cholesky factorization; when it refuses, the matrix is classified by its
eigenvalues so that the verdict kind stays meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass, fields
from typing import Optional, Union

import numpy as np

from .graphs import _index_forest
from .numerics import (
    EIG_REL_TOL,
    REL_TOL,
    GuardLimitError,
    det_partial_pivot,
    require_symmetric,
    require_zero_row_sums,
    scaled_tolerance,
)

POSITIVE_DEFINITE = "positive-definite"
POSITIVE_SEMI_DEFINITE = "positive-semi-definite"
NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMI_DEFINITE = "negative-semi-definite"
INDEFINITE = "indefinite"

DEFAULT_N_MAX = 20

# Subsets per batched determinant call in the exhaustive sweep; the stacked
# submatrices then hold at most SWEEP_CHUNK * n^2 floats (12.5 MiB at n = 20).
SWEEP_CHUNK = 4096


@dataclass(frozen=True)
class MinorWitness:
    """A principal minor that certifies a verdict: subset is 1-based."""

    subset: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class VectorWitness:
    """A vector whose quadratic form certifies a verdict."""

    vector: tuple[float, ...]
    value: float


Witness = Union[MinorWitness, VectorWitness]


@dataclass(frozen=True)
class DefinitenessVerdict:
    """``certified`` is True only where the leading-minor certificate's rule held."""

    kind: str
    rank_estimate: int
    witness: Optional[Witness] = None
    certified: bool = False

    @property
    def is_psd(self) -> bool:
        return self.kind in (POSITIVE_DEFINITE, POSITIVE_SEMI_DEFINITE)


def _classify_by_eigenvalues(L: np.ndarray) -> tuple[str, int, np.ndarray]:
    """Kind, rank estimate and ascending eigenvalues of a symmetric matrix.

    An eigenvalue counts as zero within ``scaled_tolerance(L, EIG_REL_TOL)``.
    """
    w = np.linalg.eigvalsh(L)
    tol = scaled_tolerance(L, EIG_REL_TOL)
    pos = int(np.count_nonzero(w > tol))
    neg = int(np.count_nonzero(w < -tol))
    rank = pos + neg
    n = L.shape[0]
    if neg == 0:
        kind = POSITIVE_DEFINITE if pos == n else POSITIVE_SEMI_DEFINITE
    elif pos == 0:
        kind = NEGATIVE_DEFINITE if neg == n else NEGATIVE_SEMI_DEFINITE
    else:
        kind = INDEFINITE
    return kind, rank, w


def _extend_combinations(prev: np.ndarray, order: np.ndarray, place: np.ndarray,
                         later: np.ndarray) -> np.ndarray:
    """The (k+1)-subsets from the k-subsets ``prev`` (one per row, k >= 1).

    ``order`` lists the vertices by class, ascending within each, ``place``
    is each vertex's position in it, and ``later`` counts the vertices after
    it in its class. Each row is extended by every later vertex of its last
    one's class, so lexicographic rows in give lexicographic rows out.
    """
    last = prev[:, -1]
    counts = later[last]
    rows = np.repeat(np.arange(len(prev)), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    new = order[np.repeat(place[last] + 1, counts) + (np.arange(rows.size) - starts)]
    return np.column_stack((prev[rows], new))


def _combinations(n: int, k_max: int, labels: Optional[np.ndarray] = None):
    """``(k, combos)`` for k = 1..k_max: the k-subsets of range(n) inside one class of
    ``labels`` (default: one class), one per row, in ``itertools.combinations`` order."""
    labels = np.zeros(n, dtype=np.intp) if labels is None else labels
    order = np.argsort(labels, kind="stable")
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    later = np.searchsorted(labels[order], labels, side="right") - 1 - place
    combos = np.arange(n, dtype=np.intp)[:, None]
    for k in range(1, k_max + 1):
        if k > 1:
            combos = _extend_combinations(combos, order, place, later)
        yield k, combos


def _require_n_max(n: int, n_max: int, sweep: str) -> None:
    if n > n_max:
        raise GuardLimitError(f"{sweep} refused: n={n} exceeds n_max={n_max} (override n_max to force)")


def _principal_blocks(L: np.ndarray, k_max: int, labels: Optional[np.ndarray] = None):
    """Chunks ``(subsets, blocks)`` of the principal submatrices of sizes 1..k_max on the
    subsets inside one class of ``labels`` (default: one class) in sweep order (sizes
    ascending, then 0-based subsets lexicographic), at most ``SWEEP_CHUNK`` each."""
    for _, combos in _combinations(L.shape[0], k_max, labels):
        for start in range(0, len(combos), SWEEP_CHUNK):
            cc = combos[start:start + SWEEP_CHUNK]
            yield cc, L[cc[:, :, None], cc[:, None, :]]


def _minor_tolerances(blocks: np.ndarray, rel: float) -> np.ndarray:
    """``rel`` times the Hadamard bound (product of row 2-norms) of each block.

    Where squaring overflows, the block's row norms are taken again as
    max|row| * ||row / max|row|||; finite tolerances keep their floats.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tols = rel * np.prod(np.sqrt((blocks * blocks).sum(axis=2)), axis=1)
        redo = ~np.isfinite(tols)
        if redo.any():
            b = blocks[redo]
            top = np.abs(b).max(axis=2, keepdims=True)
            b = b / np.where(top > 0.0, top, 1.0)
            tols[redo] = rel * np.prod(top[:, :, 0] * np.sqrt((b * b).sum(axis=2)), axis=1)
    return tols


def _minors(cc: np.ndarray, blocks: np.ndarray, rel: float):
    """Determinants and tolerances of a chunk of principal blocks (0-based subsets
    ``cc``), cut before the first subset where either is not finite, and a
    ValueError naming that subset (None when there is none) for the caller to
    raise unless its verdict is reached before that subset."""
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(blocks)
    tols = _minor_tolerances(blocks, rel)
    finite = np.isfinite(dets) & np.isfinite(tols)
    if finite.all():
        return dets, tols, None
    at = int(np.argmin(finite))
    subset = ",".join(str(int(v) + 1) for v in cc[at])
    return dets[:at], tols[:at], ValueError(f"principal minor on S={{{subset}}} overflows")


def is_psd_full(L: np.ndarray, n_max: int = DEFAULT_N_MAX, rel: float = REL_TOL) -> DefinitenessVerdict:
    """Classify by the full sweep over the nonempty principal minors.

    A symmetric matrix is positive semi-definite exactly when no principal
    minor is negative; here a minor counts as negative below ``-tol``, where
    tol is ``rel`` times the Hadamard bound of its submatrix. The witness is
    the first such subset, sizes ascending then lexicographic. Kind and rank
    come from the eigenvalues: without a witness the kind is
    positive-definite at full rank and positive-semi-definite below it; with
    one, the spectrum's kind stands, except that a positive kind reads
    indefinite.

    Only the subsets inside one component of the matrix's exactly nonzero
    off-diagonal entries are swept: the sum over components of 2^{n_c} - 1
    determinants instead of 2^n - 1. Any other principal minor is the
    product of its components' minors, and its Hadamard bound the product of
    theirs, so it adds no witness: if det < -rel * H on a subset spanning
    several components, some factor has d_c < -rel * H_c, since every other
    factor is at most its own bound. That factor's subset is smaller, so it
    comes first, with the submatrix, determinant and tolerance of the
    whole-matrix sweep, bit for bit.

    The subsets are visited in sweep order, in ``_principal_blocks`` chunks,
    and the sweep stops at the first chunk holding a witness. It is refused
    above ``n_max``. A subset whose determinant or tolerance overflows is a
    ValueError naming it, unless a witness comes before it; a product of
    several components' minors is never formed, so it cannot overflow.
    """
    L = require_symmetric(L)
    n = L.shape[0]
    _require_n_max(n, n_max, "exhaustive minor sweep")
    labels, _ = _index_forest(n, *np.nonzero(np.triu(L != 0, 1)))
    witness: Optional[MinorWitness] = None
    for cc, subs in _principal_blocks(L, n, labels):
        dets, tols, overflow = _minors(cc, subs, rel)
        bad = dets < -tols
        if bad.any():
            at = int(np.argmax(bad))
            witness = MinorWitness(tuple(int(v) + 1 for v in cc[at]), float(dets[at]))
            break
        if overflow is not None:
            raise overflow
    kind, rank, _ = _classify_by_eigenvalues(L)
    if witness is None:
        kind = POSITIVE_DEFINITE if rank == n else POSITIVE_SEMI_DEFINITE
    elif kind in (POSITIVE_DEFINITE, POSITIVE_SEMI_DEFINITE):
        kind = INDEFINITE
    return DefinitenessVerdict(kind, rank, witness)


def _leading_minor_refusal(L: np.ndarray, rel: float) -> tuple[int, bool]:
    """First k whose pivot fails ``D_k > rel * |a_kk|``, or 0, and whether D_k < -rel * |a_kk|.

    The pivots D_j of the unpivoted LDL^T factorization of the leading
    (n-1)-block are the ratios of consecutive leading minors; the floor on
    each follows the backward error of Cholesky (Higham, ch. 10). Dividing
    the block by its largest entry leaves the test unchanged and keeps it
    from overflowing. One Cholesky gives every D_j as its squared diagonal;
    only when it breaks down does an unpivoted elimination find the failing pivot.
    """
    m = L.shape[0] - 1
    if m == 0:
        return 0, False
    block = L[:m, :m]
    a = block / (float(np.max(np.abs(block))) or 1.0)
    floor = rel * np.abs(np.diagonal(a))
    try:
        low = np.diagonal(np.linalg.cholesky(a)) ** 2 <= floor
    except np.linalg.LinAlgError:
        for j, fj in enumerate(floor.tolist()):
            pivot = float(a[j, j])
            if pivot <= fj:
                return j + 1, pivot < -fj
            a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j] / pivot, a[j, j + 1:])
        return 0, False
    return (int(np.argmax(low)) + 1 if low.any() else 0), False


def is_psd_zero_row_sum(L: np.ndarray, rel: float = REL_TOL) -> DefinitenessVerdict:
    """Certificate for PSD with rank n-1, valid for zero-row-sum matrices.

    Strict positivity of the n-1 leading principal minors certifies the
    verdict (``certified`` is True); it holds when every pivot of one
    Cholesky factorization of the leading block clears ``rel`` times its
    diagonal entry. When some pivot fails, nothing combinatorial can be
    concluded, so the returned kind falls back to the eigenvalue
    classification, which may still read PSD with rank n-1; the failing
    leading minor is attached when it is negative outright and its
    determinant is finite, otherwise an eigenvector with a disqualifying
    quadratic form serves as the witness.
    """
    L = require_zero_row_sums(require_symmetric(L), rel)
    k, negative = _leading_minor_refusal(L, rel)
    if k == 0:
        return DefinitenessVerdict(POSITIVE_SEMI_DEFINITE, L.shape[0] - 1, certified=True)
    kind, rank, w = _classify_by_eigenvalues(L)
    witness: Optional[Witness] = None
    if negative:
        value = det_partial_pivot(L[:k, :k])
        if math.isfinite(value):  # an overflowing minor proves nothing; the eigenvector may
            witness = MinorWitness(tuple(range(1, k + 1)), value)
    if witness is None and kind in (INDEFINITE, NEGATIVE_SEMI_DEFINITE, NEGATIVE_DEFINITE):
        vecs = np.linalg.eigh(L)[1]
        v = vecs[:, 0]
        witness = VectorWitness(tuple(float(x) for x in v), float(w[0]))
    return DefinitenessVerdict(kind, rank, witness)


def _is_pd_cholesky(blocks: np.ndarray, rel: float) -> bool:
    """Cholesky test of a k x k block or a stack: every squared pivot above ``rel * k * max|block|``."""
    if blocks.size == 0:
        return True
    try:
        pivots = np.diagonal(np.linalg.cholesky(blocks), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        return False
    return bool((pivots > rel * blocks.shape[-1] * np.abs(blocks).max(axis=(-2, -1))[..., None]).all())


@dataclass(frozen=True)
class EquivalenceReport:
    """Joint evaluation of five tests that must agree on zero-row-sum input."""

    eigen_psd_max_rank: bool
    proper_minors_positive: bool
    proper_submatrices_pd: bool
    leading_minors_positive: bool
    reduced_block_pd: bool

    def values(self) -> tuple[bool, ...]:
        return astuple(self)

    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self))

    @property
    def all_agree(self) -> bool:
        return len(set(self.values())) == 1

    def disagreements(self) -> tuple[tuple[str, str], ...]:
        pairs = itertools.combinations(zip(self.names(), self.values()), 2)
        return tuple((a, b) for (a, va), (b, vb) in pairs if va != vb)


def check_equivalences(L: np.ndarray, n_max: int = DEFAULT_N_MAX, rel: float = REL_TOL) -> EquivalenceReport:
    """Evaluate each of the five equivalent maximal-rank PSD tests on its own.

    The tests: eigenvalue PSD with rank n-1; every proper principal minor
    strictly positive; every proper principal submatrix positive definite; the
    n-1 leading minors strictly positive; the leading (n-1)-block positive
    definite. The proper ones take one batched determinant and Cholesky per
    sweep chunk; Cholesky passes a block only above a pivot tolerance. Any
    disagreement signals a bug.
    """
    L = require_zero_row_sums(require_symmetric(L), rel)
    n = L.shape[0]
    _require_n_max(n, n_max, "proper-minor sweep")
    kind, rank, _ = _classify_by_eigenvalues(L)
    cond_i = (kind, rank) == (POSITIVE_SEMI_DEFINITE, n - 1)

    cond_ii = True
    cond_iii = True
    for cc, blocks in _principal_blocks(L, n - 1):
        if cond_ii:
            dets, tols, overflow = _minors(cc, blocks, rel)
            cond_ii = bool((dets > tols).all())
            if cond_ii and overflow is not None:
                raise overflow
        cond_iii = cond_iii and _is_pd_cholesky(blocks, rel)
        if not cond_ii and not cond_iii:
            break

    cond_iv = _leading_minor_refusal(L, rel)[0] == 0
    cond_v = _is_pd_cholesky(L[: n - 1, : n - 1], rel)
    return EquivalenceReport(cond_i, cond_ii, cond_iii, cond_iv, cond_v)
