"""Greedy selection loop with incremental orthonormalization.

After N steps the state holds the selected indices, the lower-triangular
coefficient matrix C expressing the orthonormal functionals in terms of the
selected ones (mu_k = sum_{j<=k} C[k,j] lam_{sel_j}), one "Newton column"
(lam, mu_k) per step over the whole candidate set, and the residual powers
P^2(lam) = (lam,lam) - sum_k (lam,mu_k)^2 that drive selection.  Bulk storage
is (N+2)|Lambda| floats plus C, the N column sums of |C| and, once the
condition estimate is asked for, L = C^{-1}; the candidate set itself is
d + 1 floats and a flag per candidate (FunctionalSet's packed arrays), with
no Python object per candidate.  The Newton columns at the selected indices
form L, the Cholesky factor of the selected Gram matrix (Mueller & Schaback
2009): row k of L is (lam_{sel_k}, mu_j) for j <= k, which extend gathers
anyway for its projection.
A step costs one kernel column over the set, one N x |Lambda| matvec
(O(N |Lambda|): one projection, as in the Newton-basis recursion of Pazouki
& Schaback 2011) and O(N^2) for the C row and the trace's condition
estimate: ||C||_1 comes from the column sums, which each step updates by its
new row, and Hager's probes of ||C^{-1}||_1 are products with L, so the
estimate solves nothing and copies nothing.  With an evaluation grid a step
adds one representer row over the P grid points and an O(N P) deflation of
the grid powers.  `run` allocates the Newton columns, C and the grid
tracker's raw rows once for n_max rows, and L at C's capacity on its first
condition estimate, and never copies them; np.zeros commits pages only as
rows are written, so the rows a converged run never reaches cost no
resident memory.  A state driven through init/extend directly grows its
arrays by doubling.  Nor does any reader copy C: c_matrix is a read-only
view of its storage, so the solver and the CLI hold C once per process,
and a build's peak is the run's last step (the CLI frees the state,
keeping that view and the trace, before it writes the artifacts).  The
operator-delta half of a column is the bilaplacian at radii that recur from
step to step, so the state keeps one table of them
(functionals.BilaplacianTable) and each distinct radius is evaluated once
per run, at the cost of one float pair of storage per distinct radius.

The standard rule picks the residual-power argmax over the whole set; the
extended rule prefers the strongest boundary delta whenever the delta power
over an evaluation point set peaks on the boundary.  Given an evaluation
grid, a tracker deflates the delta power P^2(delta_x) over the grid by each
basis row in the step that adds it and records rho, the sup of the remaining
delta power, after each row; that record is the trace's rho column.  The run
hands the final grid powers and the raw representer rows back in the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .errors import Converged, InvalidSelectionError, NumericalError
from .functionals import (
    BilaplacianTable,
    FunctionalSet,
    dual_inner_column,
    riesz_value,
    self_inner_column,
)
from .geometry import EvalGrid, fill_distance
from .kernels import KernelSpec, distance, radial_kernel

# No step reorthogonalizes; only perfbench's traced mode reads this name.
REORTH_THRESHOLD = 0.0

# Relative residual floor: anything below -1e-6 * diag signals a broken Gram.
_NEGATIVE_FLOOR = 1e-6

# Rows allocated up front for the per-step arrays of a state that is not
# sized for a run; they double when full.
_INITIAL_CAPACITY = 16


def _with_capacity(arr: np.ndarray, cap: int, n: int, axes: int = 1) -> np.ndarray:
    """Zero array whose first `axes` axes have length cap, holding the
    leading n entries of arr along them."""
    out = np.zeros((cap,) * axes + arr.shape[axes:])
    keep = (slice(0, n),) * axes
    out[keep] = arr[keep]
    return out


class GreedyState:
    """Mutable selection state over a fixed functional set, with room for
    `rows` selected functionals before its arrays grow."""

    def __init__(self, fset: FunctionalSet, spec: KernelSpec,
                 rows: int = _INITIAL_CAPACITY):
        self.fset = fset
        self.spec = spec
        self.diag = self_inner_column(fset, spec)
        self.residual_power = self.diag.copy()
        self.selected: list[int] = []
        # operator-delta pair values, shared by every column of the run
        self.dd_table = BilaplacianTable(spec)
        self._columns = np.zeros((rows, len(fset)))
        self._c = np.zeros((rows, rows))
        # column sums of |C|, one row added per step, and L = C^{-1}, whose
        # first _l_rows rows cond_c has written; cond_c sizes it to C's
        # capacity when it first needs it
        self._c_abs_sums = np.zeros(rows)
        self._l = np.zeros((0, 0))
        self._l_rows = 0

    @property
    def n(self) -> int:
        return len(self.selected)

    @property
    def newton_columns(self) -> np.ndarray:
        """(N, |Lambda|) matrix; row k holds (lam, mu_k) over the set.  A
        restored state holds none (0 rows)."""
        return self._columns[: self.n]

    def c_matrix(self) -> np.ndarray:
        """The coefficient matrix as a read-only view of the leading N x N
        block of the state's storage, lower-triangular (the storage above the
        diagonal is never written, so it is zero).  Each row is written once,
        by the step that adds it, so the view never changes: later steps
        write below it, and a state that grows its storage leaves the view
        on the old array.  No caller copies C, so a process holds it once."""
        view = self._c[: self.n, : self.n]
        view.flags.writeable = False
        return view

    def cond_c(self) -> float:
        """analysis.condition_estimate of the coefficient matrix.

        ||C||_1 comes from the running column sums of |C|, which equal
        np.abs(C).sum(axis=0) bit for bit (numpy reduces axis 0 of a
        C-ordered array by adding row after row).  Hager's probes multiply
        by L = C^{-1}, whose row k is Newton columns 0..k at the k-th pick.
        Each call copies in the rows of the steps since the last one (one
        row per call in a run) and reads the leading block of L in place,
        so a step allocates no N x N array, and a state that never asks
        holds no L.  A restored state has no Newton columns, so its
        estimate solves with C instead."""
        n = self.n
        norm1 = float(self._c_abs_sums[:n].max()) if n else 0.0
        if len(self._columns) < n:
            return analysis.condition_estimate(self._c[:n, :n], norm1)
        if len(self._l) < n:
            self._l = _with_capacity(self._l, len(self._c), self._l_rows, axes=2)
        for k in range(self._l_rows, n):
            self._l[k, : k + 1] = self._columns[: k + 1, self.selected[k]]
        self._l_rows = n
        return analysis.condition_estimate(self._l[:n, :n], norm1, inverse=True)

    def sigma(self) -> float:
        """Current sup of the power function over the candidate set."""
        return math.sqrt(max(float(self.residual_power.max()), 0.0))

    def bulk_float_count(self) -> int:
        """Floats allocated in the bulk arrays (storage-contract counter).

        A state sized for a run counts its n_max rows from the first step on,
        whether or not their pages are committed yet; L counts from the first
        condition estimate, which allocates it."""
        return (self._columns.size + self._c.size + self._c_abs_sums.size
                + self._l.size + self.diag.size + self.residual_power.size)

    def _reserve_row(self) -> None:
        """Make room for one more selected functional."""
        n = self.n
        if n == len(self._c):
            cap = max(2 * n, _INITIAL_CAPACITY)
            self._columns = _with_capacity(self._columns, cap, n)
            self._c = _with_capacity(self._c, cap, n, axes=2)
            self._c_abs_sums = _with_capacity(self._c_abs_sums, cap, n)


def init(fset: FunctionalSet, spec: KernelSpec) -> GreedyState:
    """Fresh state: residual power equals the squared dual norm everywhere."""
    return GreedyState(fset, spec)


def restore_state(fset: FunctionalSet, c_matrix, spec: KernelSpec) -> GreedyState:
    """State of a stored basis: the whole set is the selection, in order,
    with the given N x N coefficient matrix (only its lower triangle is kept).

    Newton columns and residual powers are not reconstructed, so the state
    holds no Newton columns, serves the solver (basis evaluation, data
    transforms) and takes no further greedy steps.  The caller checks that C
    matches the set.
    """
    n = len(fset)
    state = GreedyState(fset, spec, rows=0)
    state._c = np.tril(np.atleast_2d(np.asarray(c_matrix, dtype=float)))
    state._c_abs_sums = np.zeros(n)
    for row in state._c:  # as extend adds them, with no N x N temporary
        state._c_abs_sums += np.abs(row)
    state.selected = list(range(n))
    return state


def _threshold(state: GreedyState, stop_tol: float) -> float:
    return stop_tol * float(state.diag.max())


def select_standard(state: GreedyState, stop_tol: float = 0.0) -> int:
    """Index of the largest residual power; the lowest index wins ties.

    Raises Converged when the maximum is at or below stop_tol * max(diag).
    """
    i = int(np.argmax(state.residual_power))
    if state.residual_power[i] <= _threshold(state, stop_tol):
        raise Converged(f"residual power exhausted after {state.n} steps")
    return i


def select_extended(state: GreedyState, delta_power_argmax_is_boundary: bool,
                    stop_tol: float = 0.0) -> int:
    """Prefer the strongest boundary delta when the delta power over the
    evaluation set peaks on the boundary; otherwise fall back to the
    standard rule."""
    if delta_power_argmax_is_boundary:
        bidx = state.fset.boundary_indices
        if bidx.size:
            j = int(bidx[np.argmax(state.residual_power[bidx])])
            if state.residual_power[j] > _threshold(state, stop_tol):
                return j
    return select_standard(state, stop_tol)


def extend(state: GreedyState, chosen: int,
           distances: np.ndarray | None = None) -> GreedyState:
    """Add the chosen functional: new C row, new Newton column over the whole
    set, deflated residual powers.  `distances` is passed on to
    dual_inner_column.

    The raw cross column (lam, lam_chosen) is overwritten in place by
    (lam, mu_new): one projection onto the earlier Newton columns (none at
    N = 0, where it subtracts a zero vector), then the scale 1/sqrt(r) with
    r the chosen functional's residual power.
    """
    r = float(state.residual_power[chosen])
    if r <= 0.0 or chosen in state.selected:
        raise InvalidSelectionError(
            f"functional {chosen} has no residual power left (P^2 = {r!r})"
        )
    N = state.n
    state._reserve_row()
    cols = state._columns[:N]
    ctri = state._c[:N, :N]

    w = dual_inner_column(state.fset[chosen], state.fset, state.spec,
                          state.dd_table, distances)
    proj = cols[:, chosen].copy()
    w -= proj @ cols

    c = 1.0 / math.sqrt(r)
    w *= c
    state._columns[N] = w
    state._c[N, :N] = -c * (proj @ ctri)
    state._c[N, N] = c
    state._c_abs_sums[: N + 1] += np.abs(state._c[N, : N + 1])
    state.selected.append(int(chosen))

    res = state.residual_power - w**2
    if float((res / state.diag).min()) < -_NEGATIVE_FLOOR:
        raise NumericalError("residual power went negative beyond roundoff")
    np.maximum(res, 0.0, out=res)
    state.residual_power = res
    return state


@dataclass
class RunTrace:
    """Per-step record of the run; arrays are aligned with `steps`.

    `rho` is the sup of the delta power over the evaluation grid after each
    step, and NaN at every step of a run without a grid.
    `boundary_power_max` (max residual power over the boundary deltas),
    `grid_power` (final P^2(delta_x) per evaluation-grid point) and
    `grid_rows` (the raw representer rows of the selected functionals on the
    evaluation grid, N x P, a view of the tracker's storage) are in-memory
    results, not part of the CSV schema; the last two are None without a grid.
    """

    steps: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    kind: list[str]
    h_domain: np.ndarray
    h_boundary: np.ndarray
    cond_c: np.ndarray
    boundary_power_max: np.ndarray | None = field(default=None, repr=False)
    grid_power: np.ndarray | None = field(default=None, repr=False)
    grid_rows: np.ndarray | None = field(default=None, repr=False)

    def boundary_count(self) -> int:
        return sum(1 for k in self.kind if k == "B")


class _GridTracker:
    """Residual delta powers on a point grid, deflated by each basis row as
    the run adds it.  `rho[k]` is sqrt(max residual) after row k."""

    def __init__(self, grid: EvalGrid, spec: KernelSpec, rows: int):
        self.points = grid.points
        self.spec = spec
        p = len(grid)
        self.residual = np.full(p, radial_kernel(spec, 0.0))
        self._raw = np.zeros((rows, p))
        self.rho: list[float] = []

    def append(self, f, c_row: np.ndarray) -> None:
        """Add the representer row of the selected functional f and deflate
        the grid residual by the basis row c_row @ raw, recording rho."""
        k = len(self.rho)
        self._raw[k] = riesz_value(f, self.points, self.spec)
        row = c_row @ self._raw[: k + 1]
        np.maximum(self.residual - row**2, 0.0, out=self.residual)
        self.rho.append(math.sqrt(float(self.residual.max())))


def run(fset: FunctionalSet, spec: KernelSpec, mode: str = "standard",
        n_max: int | None = None, stop_tol: float = 1e-12,
        eval_grid: EvalGrid | None = None,
        y_indices=None) -> tuple[GreedyState, RunTrace]:
    """Execute the selection loop and record the per-step trace.

    Stops at n_max or when the residual power drops to stop_tol * max(diag).
    `eval_grid` enables the rho column, the final `grid_power` and
    `grid_rows`, and is required in extended mode, where `y_indices`
    restricts the interior evaluation points considered for selection
    (default: all of them).
    """
    if mode not in ("standard", "extended"):
        raise ValueError(f"unknown mode {mode!r}")
    n_max = len(fset) if n_max is None else n_max
    if not 0 <= n_max <= len(fset):
        raise ValueError(f"n_max={n_max} is outside [0, {len(fset)}], the candidate count")
    if mode == "extended" and eval_grid is None:
        raise ValueError("extended mode needs an evaluation grid")

    state = GreedyState(fset, spec, rows=n_max)
    tracker = _GridTracker(eval_grid, spec, n_max) if eval_grid is not None else None
    if tracker is not None:
        y_indices = (np.arange(eval_grid.n_interior) if y_indices is None
                     else np.asarray(y_indices, dtype=int))

    bnd_idx = fset.boundary_indices
    dom_mask = fset.domain_mask
    # fill distance per kind, indexed by is_boundary: the largest distance
    # from a candidate to the nearest pick of its own kind
    kind_masks = (dom_mask, ~dom_mask)
    h = [fill_distance([], fset.points[own]) if own.any() else math.nan
         for own in kind_masks]
    nearest = np.full(len(fset), np.inf)

    rows = {k: [] for k in ("sigma", "kind", "h_domain", "h_boundary",
                            "cond_c", "bmax")}
    for _ in range(n_max):
        try:
            if mode == "extended":
                y_max = float(tracker.residual[y_indices].max())
                z_max = float(state.residual_power[bnd_idx].max()) if bnd_idx.size else -np.inf
                on_boundary = z_max >= y_max
                chosen = select_extended(state, on_boundary, stop_tol)
            else:
                chosen = select_standard(state, stop_tol)
        except Converged:
            break

        is_boundary = not dom_mask[chosen]
        # one distance vector serves the kernel column and the fill distance
        dist = distance(fset.points, fset.points[chosen])
        extend(state, chosen, dist)
        if tracker is not None:
            tracker.append(fset[chosen], state._c[state.n - 1, : state.n])

        own = kind_masks[is_boundary]
        np.minimum(nearest, dist, out=nearest, where=own)
        h[is_boundary] = float(nearest[own].max())

        rows["sigma"].append(state.sigma())
        rows["kind"].append("B" if is_boundary else "D")
        rows["h_domain"].append(h[0])
        rows["h_boundary"].append(h[1])
        rows["cond_c"].append(state.cond_c())
        rows["bmax"].append(float(state.residual_power[bnd_idx].max()) if bnd_idx.size
                            else math.nan)

    n_steps = len(rows["sigma"])
    trace = RunTrace(
        steps=np.arange(1, n_steps + 1),
        sigma=np.array(rows["sigma"]),
        rho=np.array(tracker.rho) if tracker is not None else np.full(n_steps, math.nan),
        kind=rows["kind"],
        h_domain=np.array(rows["h_domain"]),
        h_boundary=np.array(rows["h_boundary"]),
        cond_c=np.array(rows["cond_c"]),
        boundary_power_max=np.array(rows["bmax"]),
        grid_power=tracker.residual if tracker is not None else None,
        grid_rows=tracker._raw[: len(tracker.rho)] if tracker is not None else None,
    )
    return state, trace
