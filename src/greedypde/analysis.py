"""Trace post-processing: log-log rate fits, triangular condition estimates
and singular-value decay of basis-value matrices.

The condition estimate probes C^{-1} with products when the caller holds
it (a build passes the Newton system's L = C^{-1} at every step) and with
triangular solves when it holds only C; scipy.linalg loads inside those
solves and inside singular_values, which only
scripts/run_desk_experiments.py calls.  So `build` and `report` run without
scipy.linalg.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError


def fit_rate(xs, ys, window: tuple[float, float] | None = None) -> float:
    """Least-squares slope of log(ys) against log(xs).

    `window` is an inclusive (lo, hi) range on the xs values; the default is
    the second half of the trace, which skips the pre-asymptotic steps.
    Non-finite ys are dropped; nonpositive ys inside the window are an error.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if window is None:
        window = (xs[-1] / 2.0, xs[-1])
    lo, hi = window
    mask = (xs >= lo) & (xs <= hi) & np.isfinite(ys)
    if np.any(ys[mask] <= 0.0):
        raise ValueError("rate fit needs positive values inside the window")
    if mask.sum() < 5:
        raise ValueError("rate window must contain at least 5 samples")
    return float(np.polyfit(np.log(xs[mask]), np.log(ys[mask]), 1)[0])


def _hager_norm1(apply, n: int, max_iter: int = 5) -> float:
    """Deterministic Hager estimate of ||A||_1 for the n x n matrix A that
    apply(v, trans) multiplies by: A v, or A^T v when trans is 1.

    A probe whose 1-norm is not finite raises NumericalError.  The first
    probe is A times a positive vector, so it catches any NaN or infinite
    entry of an A that apply multiplies by directly."""
    x = np.full(n, 1.0 / n)
    best = 0.0
    for _ in range(max_iter):
        y = apply(x, 0)
        norm = float(np.abs(y).sum())
        if not math.isfinite(norm):
            raise NumericalError("condition estimate probe is not finite")
        best = max(best, norm)
        xi = np.where(y >= 0.0, 1.0, -1.0)
        z = apply(xi, 1)
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    return best


def _inverse_by_solves(tri: np.ndarray):
    """apply for _hager_norm1 with A = tri^{-1}: triangular solves.

    tri is C-ordered and finite (condition_estimate checks).  The solves
    call LAPACK trtrs the way scipy.linalg.solve_triangular does for such a
    matrix, on tri.T (Fortran order) as an upper matrix with the transpose
    flag flipped, so the results are its bits without its per-call
    validation.
    """
    from scipy.linalg import get_lapack_funcs

    (trtrs,) = get_lapack_funcs(("trtrs",), (tri,))
    upper = tri.T

    def solve(b, trans):
        x, info = trtrs(upper, b, lower=False, trans=1 - trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"trtrs failed with info = {info}")
        return x

    return solve


def condition_estimate(tri, norm1: float | None = None,
                       inverse: bool = False) -> float:
    """1-norm condition estimate ||C||_1 * est(||C^{-1}||_1) of a
    lower-triangular matrix C; the inverse norm comes from Hager-style probe
    iterations, never from an explicit inverse.

    tri is C, and the probes solve with it.  With inverse=True, tri is C^{-1}
    itself, also lower triangular, and norm1 = ||C||_1 is required; the
    probes are then the products tri @ x and xi @ tri, with no solve and no
    copy of tri (a strided view serves as it is).

    A caller that already holds ||C||_1 = max of the column sums of |C|
    passes it as `norm1`.  A NaN or infinite entry of C makes its column
    sum, and so that maximum, non-finite, so the check for such entries then
    looks at norm1 alone instead of at every entry of C.  With
    inverse=True, norm1 says nothing of the entries of tri = C^{-1}; a NaN
    or infinite one there makes the first probe non-finite, which raises
    NumericalError.

    The estimate is clamped at 1 from below: cond_1 >= 1 for every matrix,
    while the product of the two norms can round to an ulp below it (at
    N = 1 it is |C[0, 0]| * |1 / C[0, 0]|).
    """
    tri = (np.asarray if inverse else np.ascontiguousarray)(tri, dtype=float)
    if tri.ndim != 2 or tri.shape[0] != tri.shape[1]:
        raise ValueError("condition_estimate needs a square matrix")
    n = tri.shape[0]
    if n == 0:
        return 1.0
    if np.any(np.diag(tri) == 0.0):
        raise NumericalError("triangular matrix is singular (zero diagonal)")
    if norm1 is None:
        if inverse:
            raise ValueError("condition_estimate of an inverse needs norm1")
        if not np.isfinite(tri).all():
            raise ValueError("array must not contain infs or NaNs")
        norm1 = float(np.abs(tri).sum(axis=0).max())
    elif not math.isfinite(norm1):
        raise ValueError("array must not contain infs or NaNs")
    if inverse:
        def apply(v, trans):
            return v @ tri if trans else tri @ v
    else:
        apply = _inverse_by_solves(tri)
    return max(norm1 * _hager_norm1(apply, n), 1.0)


def singular_values(matrix) -> np.ndarray:
    """Descending singular values (LAPACK SVD of the matrix itself)."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError("singular_values needs a 2-d matrix")
    if min(M.shape) == 0:
        return np.zeros(0)
    from scipy.linalg import svdvals

    return svdvals(M)
