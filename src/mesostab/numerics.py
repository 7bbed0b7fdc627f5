"""Shared numerical helpers: tolerances, determinants, input validation.

All tolerances scale with the data so that verdicts are stable under
rescaling of the input matrix.
"""

from __future__ import annotations

import math

import numpy as np

# Relative coefficient used by all data-scaled tolerances.
REL_TOL = 1e-9

# Coefficient for eigenvalue thresholds (rank estimation, PSD oracle).
EIG_REL_TOL = 1e-8


class GuardLimitError(ValueError):
    """Raised when an exhaustive-subset operation exceeds its size guard."""


def scaled_tolerance(a: np.ndarray, rel: float) -> float:
    """Absolute tolerance ``rel * n * max|a_ij|`` below which a row sum or an
    eigenvalue of ``a`` counts as zero."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return rel * n * scale


def require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate exact symmetry (construction is expected to enforce it)."""
    a = require_square(a)
    bad = np.argwhere(a != a.T)
    if bad.size:
        i, j = bad[0] + 1
        raise ValueError(f"matrix is not symmetric: entries ({i},{j}) and ({j},{i}) differ")
    return a


def _worst_row_sum(a: np.ndarray, rel: float) -> int:
    """1-based row whose sum is farthest from zero (an overflowing sum is inf),
    or 0 when every row sum counts as zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.abs(a.sum(axis=1))
    return 0 if np.max(sums, initial=0.0) <= scaled_tolerance(a, rel) else int(np.argmax(sums)) + 1


def require_zero_row_sums(a: np.ndarray, rel: float = REL_TOL) -> np.ndarray:
    a = require_square(a)
    if worst := _worst_row_sum(a, rel):
        raise ValueError(f"matrix does not have zero row sums (row {worst})")
    return a


def partial_pivot_dets(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, shape ``(..., k, k)``, by
    Gaussian elimination with partial pivoting, one shape ``(...)`` array.

    Each matrix goes through the float operations, in the order, that a
    loop over its rows of Python floats would take, so each determinant is
    that loop's, bit for bit. The first strictly larger |entry| of the
    pivot column wins, so a NaN never wins and a NaN diagonal keeps its
    row. A matrix whose pivot column is entirely zero gets exactly 0.0, so
    integer matrices with singular blocks give exact zero minors, and takes
    no further steps. A row is updated only where its multiplier is
    nonzero, which keeps signed zeros and never forms 0 · inf. Overflow
    gives inf or NaN silently, as with Python floats.
    """
    m = np.array(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    shape, n = m.shape[:-2], m.shape[-1]
    m = m.reshape(math.prod(shape), n, n)
    at = np.arange(len(m))
    det = np.ones(len(m))
    done = np.zeros(len(m), dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(n):
            # fmax drops a NaN entry below every |entry|; fmin lifts a NaN diagonal above them
            col = np.fmax(np.abs(m[:, k:, k]), -1.0)
            col[:, 0] = np.fmin(np.abs(m[:, k, k]), np.inf)
            piv = col.argmax(axis=1)
            done |= col[at, piv] == 0.0
            swap = np.flatnonzero(piv)
            if swap.size:
                top = m[swap, k].copy()
                m[swap, k] = m[swap, k + piv[swap]]
                m[swap, k + piv[swap]] = top
                det[swap] = -det[swap]
            pivot = m[:, k, k]
            det = np.where(done, 0.0, det * pivot)
            f = m[:, k + 1:, k, None] / pivot[:, None, None]
            rest = m[:, k + 1:, k + 1:]
            np.subtract(rest, f * m[:, k, None, k + 1:], out=rest, where=f != 0.0)
    return det.reshape(shape)


def det_partial_pivot(a: np.ndarray) -> float:
    """Determinant of one square matrix by ``partial_pivot_dets``."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(partial_pivot_dets(m))


def det_bareiss(a) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    rows = [[int(x) for x in r] for r in a]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("expected a square integer matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1]


def quadratic_form(a: np.ndarray, v) -> float:
    v = np.asarray(v, dtype=float)
    return float(v @ np.asarray(a, dtype=float) @ v)

