"""Basis evaluation, Newton-coefficient transforms and projection solving.

The orthonormal basis functions are v_{mu_k}(x) = sum_j C[k,j] v_{lam_j}(x)
over the Riesz representers of the selected functionals; the projection of u
onto their span is sum_k mu_k(u) v_{mu_k} with coefficients obtained from the
raw data by the triangular transform.  A dense symmetric-collocation solve is
provided as the independent oracle for the whole pipeline; it imports
scipy.linalg when it is called, not when this module is imported, so that a
solve from stored basis values runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# BLOCK, grid_blocks, basis_values_in_place and basis_value_blocks are
# re-exported: a solve that computes its basis values walks the grid with
# the build's basis-value generator, and the tests import all four here
from .engine import (
    BLOCK,
    GreedyState,
    basis_value_blocks,
    basis_values_in_place,
    grid_blocks,
)
from .errors import NumericalError
from .functionals import FunctionalSet, gram, riesz_value
from .kernels import KernelSpec, radial_kernel


@dataclass
class BasisEvaluation:
    """Values of the orthonormal basis on a point set; row k is basis k."""

    points: np.ndarray
    values: np.ndarray


@dataclass
class ProjectionSolution:
    """Raw data on the selected functionals and its orthonormal coefficients."""

    data: np.ndarray
    newton_coefficients: np.ndarray


def evaluate_basis(state: GreedyState, points) -> BasisEvaluation:
    """All basis functions on the points as one N x P array, assembled from
    basis_value_blocks."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.empty((state.n, len(pts)))
    for j, block in basis_value_blocks(state, pts):
        values[:, j] = block
    return BasisEvaluation(points=pts, values=values)


def unclamped_power(spec: KernelSpec, values: np.ndarray) -> np.ndarray:
    """K(x,x) - sum_k v_{mu_k}(x)^2 per column of basis values, the squares
    added row after row: no array of the values' shape, and the same bits
    for a column at any block width (einsum sums one column in another
    order).  It is P^2(delta_x) and never below roundoff for an orthonormal
    basis, so a clearly negative value shows values that are not those of
    one."""
    total = np.zeros(values.shape[1])
    square = np.empty(values.shape[1])
    for row in values:
        total += np.square(row, out=square)
    return radial_kernel(spec, 0.0) - total


def power_on_deltas(state: GreedyState, basis_eval: BasisEvaluation) -> np.ndarray:
    """P^2(delta_x) = K(x,x) - sum_k v_{mu_k}(x)^2 per point, clamped at 0."""
    return np.maximum(unclamped_power(state.spec, basis_eval.values), 0.0)


def data_to_newton(state: GreedyState, data) -> np.ndarray:
    """Orthonormal coefficients mu_k(u) = sum_j C[k,j] lam_j(u) from the raw
    data lam_j(u)."""
    data = np.asarray(data, dtype=float)
    n = state.n
    if data.shape != (n,):
        raise ValueError(f"expected data of length {n}, got shape {data.shape}")
    return state.c_matrix() @ data


def project(state: GreedyState, data) -> ProjectionSolution:
    data = np.asarray(data, dtype=float)
    return ProjectionSolution(data=data, newton_coefficients=data_to_newton(state, data))


def approximate(newton_coefficients, basis_eval: BasisEvaluation) -> np.ndarray:
    """u~(x) = sum_k mu_k(u) v_{mu_k}(x) on the evaluation points; a prefix
    of the coefficients projects onto the corresponding prefix basis."""
    mu = np.asarray(newton_coefficients, dtype=float)
    if mu.size > basis_eval.values.shape[0]:
        raise ValueError("more coefficients than basis functions")
    return mu @ basis_eval.values[: mu.size]


def direct_collocation_solve(fset: FunctionalSet, selected, data,
                             spec: KernelSpec, points) -> np.ndarray:
    """Dense symmetric-collocation oracle: solve the selected Gram system and
    evaluate the representer combination on the points.

    Raises NumericalError when the Gram cannot be factorized, which is the
    expected failure mode for large selections; intended for modest N.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    selected = list(selected)
    entries = [fset[i] for i in selected]
    A = gram(entries, spec)
    data = np.asarray(data, dtype=float)
    try:
        factor = cho_factor(A)
    except LinAlgError as exc:
        raise NumericalError(f"collocation Gram is not factorable: {exc}") from exc
    # pivots are square roots of Schur complements; a 1e-7 relative pivot
    # means the Gram condition is past ~1e14 and the solve is garbage
    pivots = np.abs(np.diag(factor[0]))
    if pivots.min() <= 1e-7 * pivots.max():
        raise NumericalError("collocation Gram is numerically singular")
    alpha = cho_solve(factor, data)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    raw = np.array([riesz_value(f, pts, spec) for f in entries])
    return alpha @ raw
