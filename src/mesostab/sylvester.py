"""Semi-definiteness verdicts for symmetric matrices.

Two routes are provided: the exhaustive principal-minor sweep (exponential,
guarded) and the cheap leading-minor certificate that is valid for symmetric
matrices with zero row sums and maximal rank. The sweep takes the minors of
each component of the matrix's graph on its own, the sum over components of
2^{n_c} - 1 determinants: a minor spanning several components is a product
of theirs, and the first violation lies inside one of them. The certificate
tests the leading minors pivot by pivot on one Cholesky factorization; when
it refuses, the matrix is classified by its eigenvalues so that the verdict
kind stays meaningful.
"""

from __future__ import annotations

import itertools
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
    kind: str
    rank_estimate: int
    witness: Optional[Witness] = None

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


def eigen_rank(L: np.ndarray) -> int:
    """Rank estimate: number of eigenvalues above the zero threshold."""
    return _classify_by_eigenvalues(L)[1]


def _extend_combinations(prev: np.ndarray, n: int) -> np.ndarray:
    """The (k+1)-subsets of range(n) from the k-subsets ``prev`` (one per row).

    Each row is extended by every index above its last one, so lexicographic
    rows in give lexicographic rows out: ``itertools.combinations`` order.
    """
    last = prev[:, -1] if prev.shape[1] else np.full(len(prev), -1, dtype=np.intp)
    counts = n - 1 - last
    rows = np.repeat(np.arange(len(prev)), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    new = np.repeat(last + 1, counts) + (np.arange(rows.size) - starts)
    return np.column_stack((prev[rows], new))


def _combinations(n: int, k_max: int):
    """``(k, combos)`` for k = 1..k_max: the k-subsets of range(n), one per row, in
    ``itertools.combinations`` order."""
    combos = np.empty((1, 0), dtype=np.intp)
    for k in range(1, k_max + 1):
        combos = _extend_combinations(combos, n)
        yield k, combos


def _require_n_max(n: int, n_max: int, sweep: str) -> None:
    if n > n_max:
        raise GuardLimitError(f"{sweep} refused: n={n} exceeds n_max={n_max} (override n_max to force)")


def _principal_blocks(L: np.ndarray, k_max: int):
    """Chunks ``(k, subsets, blocks)`` of the principal submatrices of sizes 1..k_max in sweep
    order (sizes ascending, then 0-based subsets lexicographic), at most ``SWEEP_CHUNK`` each."""
    for k, combos in _combinations(L.shape[0], k_max):
        for start in range(0, len(combos), SWEEP_CHUNK):
            cc = combos[start:start + SWEEP_CHUNK]
            yield k, cc, L[cc[:, :, None], cc[:, None, :]]


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


def _one_based(row: np.ndarray) -> tuple[int, ...]:
    """The 1-based subset of a row of 0-based indices."""
    return tuple(int(v) + 1 for v in row)


def _order(subset: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sweep order of a subset: size, then lexicographic."""
    return len(subset), subset


def _earliest(witness: Optional[MinorWitness], cc: np.ndarray, dets: np.ndarray,
              bad: np.ndarray) -> Optional[MinorWitness]:
    """The earlier of ``witness`` and the first subset of the chunk ``cc`` (0-based) that ``bad`` flags."""
    if not bad.any():
        return witness
    at = int(np.argmax(bad))
    found = MinorWitness(_one_based(cc[at]), float(dets[at]))
    return found if witness is None or _order(found.subset) < _order(witness.subset) else witness


def _decided(pos: Optional[MinorWitness], neg: Optional[MinorWitness], subset: tuple[int, ...]) -> bool:
    """True once both sides are broken at subsets no later than ``subset``:
    no subset after it can change the report."""
    return pos is not None and neg is not None and max(_order(pos.subset), _order(neg.subset)) <= _order(subset)


def is_psd_full(L: np.ndarray, n_max: int = DEFAULT_N_MAX, rel: float = REL_TOL) -> DefinitenessVerdict:
    """Classify by the full sweep over all nonempty principal minors.

    Positive semi-definite means every principal minor clears ``-tol`` where
    tol scales with the Hadamard bound of each submatrix. The witness is the
    first subset, sizes ascending then lexicographic, whose minor breaks the
    positive side (or, failing that, the negative side).

    The matrix is block diagonal up to a permutation, one block per
    component of its exactly nonzero off-diagonal entries, and each block is
    swept on its own: the sum over blocks of 2^{n_c} - 1 determinants
    instead of 2^n - 1. Every other principal minor is the
    product of its blocks' minors, and its Hadamard bound the product of
    theirs, so it adds no witness: if det < -rel * H on a subset spanning
    several blocks, some factor has d_b < -rel * H_b, since every other
    factor is at most its own bound (on the negative side, (-1)^k splits the
    same way). That factor's subset is smaller, so it comes first, and
    inside one block the submatrix, its determinant and its tolerance are
    those of the whole-matrix sweep, bit for bit. Only the strict flags can
    differ: blocks whose minors all clear their tolerances make the kind
    definite even where a product of several blocks' minors would fall
    within rel of its bound.

    A block's subsets are visited in sweep order, in ``_principal_blocks``
    chunks. Its sweep stops once both sides are broken, in this block or
    another, at subsets before its next chunk: no later subset can change
    the report. The smallest blocks go first, so that their cheap verdicts
    can stop the large ones. It is refused above ``n_max``, which bounds n, not a
    block's size. A subset whose determinant or tolerance overflows is a
    ValueError naming the first such subset in sweep order, unless both
    sides were broken at earlier subsets; a product of several blocks'
    minors is never formed, so it cannot overflow.
    """
    L = require_symmetric(L)
    n = L.shape[0]
    _require_n_max(n, n_max, "exhaustive minor sweep")
    labels, _ = _index_forest(n, *np.nonzero(np.triu(L != 0, 1)))
    # Each label is the smallest vertex of its class, so the roots are the vertices labelled by themselves.
    components = sorted((np.flatnonzero(labels == r) for r in np.flatnonzero(labels == np.arange(n))), key=len)
    pos: Optional[MinorWitness] = None
    neg: Optional[MinorWitness] = None
    overflows: list[tuple[tuple[int, ...], ValueError]] = []
    all_pos_strict = True
    all_neg_strict = True
    for verts in components:
        for k, cc, subs in _principal_blocks(L[np.ix_(verts, verts)], len(verts)):
            cc = verts[cc]
            if _decided(pos, neg, _one_based(cc[0])):
                break
            sign = -1.0 if k % 2 else 1.0
            dets, tols, overflow = _minors(cc, subs, rel)
            pos = _earliest(pos, cc, dets, dets < -tols)
            neg = _earliest(neg, cc, dets, sign * dets < -tols)
            if overflow is not None:
                overflows.append((_one_based(cc[len(dets)]), overflow))
                break
            if _decided(pos, neg, _one_based(cc[-1])):
                break
            if not (dets > tols).all():
                all_pos_strict = False
            if not (sign * dets > tols).all():
                all_neg_strict = False
    if overflows:
        first, overflow = min(overflows, key=lambda o: _order(o[0]))
        if not _decided(pos, neg, first):
            raise overflow
    rank = eigen_rank(L)
    if pos is None:
        kind = POSITIVE_DEFINITE if all_pos_strict else POSITIVE_SEMI_DEFINITE
        return DefinitenessVerdict(kind, rank)
    if neg is None:
        kind = NEGATIVE_DEFINITE if all_neg_strict else NEGATIVE_SEMI_DEFINITE
        return DefinitenessVerdict(kind, rank, pos)
    return DefinitenessVerdict(INDEFINITE, rank, pos)


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
    verdict; it holds when every pivot of one Cholesky factorization of the
    leading block clears ``rel`` times its diagonal entry. When some pivot
    fails, nothing combinatorial can be concluded, so the returned kind
    falls back to the eigenvalue classification; the failing leading minor
    is attached when it is negative outright, otherwise an eigenvector with
    a disqualifying quadratic form serves as the witness.
    """
    L = require_zero_row_sums(require_symmetric(L), rel)
    k, negative = _leading_minor_refusal(L, rel)
    if k == 0:
        return DefinitenessVerdict(POSITIVE_SEMI_DEFINITE, L.shape[0] - 1)
    kind, rank, w = _classify_by_eigenvalues(L)
    witness: Optional[Witness]
    if negative:
        witness = MinorWitness(tuple(range(1, k + 1)), det_partial_pivot(L[:k, :k]))
    elif kind in (INDEFINITE, NEGATIVE_SEMI_DEFINITE, NEGATIVE_DEFINITE):
        vecs = np.linalg.eigh(L)[1]
        v = vecs[:, 0]
        witness = VectorWitness(tuple(float(x) for x in v), float(w[0]))
    else:
        witness = None
    return DefinitenessVerdict(kind, rank, witness)


def certifies_psd_max_rank(verdict: DefinitenessVerdict, n: int) -> bool:
    """True when a verdict asserts PSD with a simple zero eigenvalue."""
    return verdict.kind == POSITIVE_SEMI_DEFINITE and verdict.rank_estimate == n - 1 and verdict.witness is None


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
    for _, cc, blocks in _principal_blocks(L, n - 1):
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
