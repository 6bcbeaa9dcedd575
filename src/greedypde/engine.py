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
estimate solves nothing and copies nothing.  `run` allocates the Newton
columns and C once for n_max rows, and L at C's capacity on its first
condition estimate, and never copies them; np.zeros commits pages only as
rows are written, so the rows a converged run never reaches cost no
resident memory.  A state driven through init/extend directly grows its
arrays by doubling.  Nor does any reader copy C: c_matrix is a read-only
view of its storage, so the solver and the CLI hold C once per process.
The operator-delta half of a column is the bilaplacian at radii that recur
from step to step, so the state keeps one table of them
(functionals.BilaplacianTable) and each distinct radius is evaluated once
per run, at the cost of one float pair of storage per distinct radius.

The standard rule picks the residual-power argmax over the whole set; the
extended rule prefers the strongest boundary delta whenever the delta power
P^2(delta_x) over the interior evaluation points Y peaks on the boundary.
So a step reads no grid value in standard mode, and in extended mode the
run keeps the representer rows at Y only (N x |Y|) and deflates the delta
power there by each basis row in the step that adds it.  Everything else
an evaluation grid gives comes from one pass after the last step, block by
block over the grid (representer_blocks): the pass turns a block's raw rows
into its basis values in place (basis_values_in_place: row k becomes
C[k, :k+1] @ raw[:k+1, J], bottom-up, one row GEMV at a time) and then
deflates the block's delta power by those rows in the order the run added
them, which is the same O(N^2 P) work a per-step deflation does; in
extended mode it copies the rows at Y instead of evaluating them again.  The
largest power over the grid after each row is the trace's rho column, and
the final powers are its grid_power.  Each block of basis values goes to
the caller's sink once used (the CLI writes gridbasis.npy from it), so a
run holds one N x |J| block, never an N x P array, and its peak is the pass
beside the state's arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .errors import Converged, InvalidSelectionError, NumericalError
from .functionals import (
    BilaplacianTable,
    FunctionalSet,
    dual_inner_column,
    representer_rows,
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

# A grid is taken in blocks that start at multiples of BLOCK, the remainder
# folded into the last block (BLOCK to 2 BLOCK - 1 points wide).  The
# build's grid pass and a solve that recomputes the basis values take the
# same blocks, so their row GEMVs (basis_values_in_place) see the same
# operands and give the same bits; one N x |J| block is the largest grid
# array either holds.
BLOCK = 512

# Selected functionals of one kind per radial call in representer_blocks:
# one call per functional pays the per-call overhead once per row, while
# more than 4 per call make the call's temporaries outgrow a solve's block
# budget.
_GROUP = 4


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
    with the given N x N coefficient matrix (only its lower triangle is kept;
    an array that is zero above the diagonal is kept as it is, not copied).

    Newton columns and residual powers are not reconstructed, so the state
    holds no Newton columns, serves the solver (basis evaluation, data
    transforms) and takes no further greedy steps.  The caller checks that C
    matches the set.
    """
    n = len(fset)
    state = GreedyState(fset, spec, rows=0)
    c = np.atleast_2d(np.asarray(c_matrix, dtype=float))
    # a C that is already zero above the diagonal (as the CLI reads it, or a
    # state's read-only c_matrix view) is kept, not copied
    if any(row[k + 1:].any() for k, row in enumerate(c)):
        c = np.tril(c)
    state._c = c
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
    `boundary_power_max` (max residual power over the boundary deltas) and
    `grid_power` (final P^2(delta_x) per evaluation-grid point, None without
    a grid) are in-memory results, not part of the CSV schema.
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

    def boundary_count(self) -> int:
        return sum(1 for k in self.kind if k == "B")


def grid_blocks(n_points: int) -> list[slice]:
    """The column blocks of a grid of n_points, in order."""
    starts = [k * BLOCK for k in range(max(n_points // BLOCK, 1))]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_points])]


def representer_blocks(state: GreedyState, points,
                       known=None) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (J, raw[:, J]) for each block J of the points (grid_blocks): the
    representer rows of the selected functionals on points[J], equal to
    riesz_value(f, points[J]) bit for bit.  The build's grid pass and a solve
    that has no stored basis values overwrite them with the basis values
    C @ raw[:, J] (basis_values_in_place).  The rows of each kind are evaluated
    _GROUP functionals at a time, one representer_rows call per group and
    block.  known, when given, is (cols, rows): the rows already evaluated at
    points[cols] (cols increasing, rows N x |cols|), which are copied, not
    evaluated again.  Every block is a view of one buffer: the caller may use
    it, as scratch too, until it asks for the next block, which overwrites
    it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    blocks = grid_blocks(len(pts))
    cols, known_rows = (np.zeros(0, dtype=int), None) if known is None else known
    sel = np.asarray(state.selected, dtype=int)
    centers = state.fset.points[sel]
    groups = []
    for operator_delta in (False, True):
        rows = np.flatnonzero(state.fset.domain_mask[sel] == operator_delta)
        groups += [(operator_delta, rows[i : i + _GROUP])
                   for i in range(0, rows.size, _GROUP)]
    flat = np.empty(state.n * max(j.stop - j.start for j in blocks))
    for j in blocks:
        width = j.stop - j.start
        raw = flat[: state.n * width].reshape(state.n, width)
        lo, hi = np.searchsorted(cols, (j.start, j.stop))
        if lo == hi:
            for operator_delta, rows in groups:
                raw[rows] = representer_rows(centers[rows], operator_delta, pts[j],
                                             state.spec)
        else:
            have = cols[lo:hi] - j.start
            raw[:, have] = known_rows[:, lo:hi]
            rest = np.delete(np.arange(width), have)
            for operator_delta, rows in groups:
                raw[rows[:, None], rest] = representer_rows(
                    centers[rows], operator_delta, pts[j][rest], state.spec)
        yield j, raw


def basis_values_in_place(c: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Overwrite raw, the N x width representer rows of a block, with the
    basis values C @ raw and return it.  C is lower-triangular, so the rows
    are formed from the bottom up, one row GEMV at a time: for k = N - 1,
    ..., 0, raw[k] = C[k, :k+1] @ raw[:k+1], computed into one width-sized
    row and then copied in.  Row k reads only rows that are still raw, none
    multiplies C's zero upper triangle, and each row has the operands, and so
    the bits, of the same row formed on its own.  OpenBLAS gives these GEMVs
    the same bits at 1 and 2 threads on the tested bases."""
    row = np.empty(raw.shape[1])
    for k in range(len(raw) - 1, -1, -1):
        raw[k] = np.matmul(c[k, : k + 1], raw[: k + 1], out=row)
    return raw


def _deflate(power: np.ndarray, row: np.ndarray, square: np.ndarray) -> None:
    """Deflate delta powers in place by the basis row, clamping at 0; square
    takes the row's squares and may be the row itself."""
    np.subtract(power, np.square(row, out=square), out=power)
    np.maximum(power, 0.0, out=power)


def _grid_pass(state: GreedyState, points: np.ndarray,
               sink: Callable[[slice, np.ndarray], None] | None, known=None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """(rho, grid_power) of the state's basis on the points, one block of
    representer_blocks at a time.  A block's raw rows become its basis
    values in place (basis_values_in_place), and its delta powers start at
    K(0) and are deflated by each basis row in the order the run added
    them; rho[k] is the square root of the
    largest power over the grid after row k, and grid_power holds the powers
    after the last row.  sink, when given, gets each (J, values[:, J]) once
    its rows are used; known is passed to representer_blocks."""
    n = state.n
    power = np.full(len(points), radial_kernel(state.spec, 0.0))
    peak = np.zeros(n)
    block_peak = np.empty(n)
    for j, values in representer_blocks(state, points, known):
        basis_values_in_place(state._c, values)
        block_power = power[j]
        square = np.empty(len(block_power))
        for k in range(n):
            _deflate(block_power, values[k], square)
            block_peak[k] = block_power.max()
        np.maximum(peak, block_peak, out=peak)
        if sink is not None:
            sink(j, values)
    return np.sqrt(peak), power


def run(fset: FunctionalSet, spec: KernelSpec, mode: str = "standard",
        n_max: int | None = None, stop_tol: float = 1e-12,
        eval_grid: EvalGrid | None = None, y_indices=None,
        grid_row_sink: Callable[[slice, np.ndarray], None] | None = None,
        ) -> tuple[GreedyState, RunTrace]:
    """Execute the selection loop and record the per-step trace.

    Stops at n_max or when the residual power drops to stop_tol * max(diag).
    `eval_grid` enables the rho column and the final `grid_power`, which one
    pass over the grid's blocks computes after the last step, and is
    required in extended mode, where `y_indices` restricts the interior
    evaluation points considered for selection (default: all of them).
    `grid_row_sink`, given a grid, is called as grid_row_sink(J, values) for
    each block J of the pass, in order, with values the N x |J| basis values
    v_{mu_k}(x) = (C @ raw)[k, x] on the block's points (a buffer that the
    next block overwrites, as in representer_blocks).  They do not depend on
    the problem, so a solve on the same grid can read them instead of
    evaluating the representers again.
    """
    if mode not in ("standard", "extended"):
        raise ValueError(f"unknown mode {mode!r}")
    n_max = len(fset) if n_max is None else n_max
    if not 0 <= n_max <= len(fset):
        raise ValueError(f"n_max={n_max} is outside [0, {len(fset)}], the candidate count")
    if mode == "extended" and eval_grid is None:
        raise ValueError("extended mode needs an evaluation grid")

    state = GreedyState(fset, spec, rows=n_max)
    if mode == "extended":
        # the rule reads the delta power only at the points Y, so only their
        # representer rows are kept, in grid order so that the grid pass can
        # copy them
        y_indices = np.unique(np.arange(eval_grid.n_interior) if y_indices is None
                              else np.asarray(y_indices, dtype=int))
        y_points = eval_grid.points[y_indices]
        y_raw = np.zeros((n_max, len(y_points)))
        y_power = np.full(len(y_points), radial_kernel(spec, 0.0))

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
                y_max = float(y_power.max())
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
        if mode == "extended":
            k = state.n - 1
            y_raw[k] = riesz_value(fset[chosen], y_points, spec)
            row = state._c[k, : k + 1] @ y_raw[: k + 1]
            _deflate(y_power, row, row)

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
    if eval_grid is not None:
        # the rows at Y are already evaluated
        known = (y_indices, y_raw[: state.n]) if mode == "extended" else None
        rho, grid_power = _grid_pass(state, eval_grid.points, grid_row_sink, known)
    else:
        rho, grid_power = np.full(n_steps, math.nan), None
    trace = RunTrace(
        steps=np.arange(1, n_steps + 1),
        sigma=np.array(rows["sigma"]),
        rho=rho,
        kind=rows["kind"],
        h_domain=np.array(rows["h_domain"]),
        h_boundary=np.array(rows["h_boundary"]),
        cond_c=np.array(rows["cond_c"]),
        boundary_power_max=np.array(rows["bmax"]),
        grid_power=grid_power,
    )
    return state, trace
