import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedypde.analysis import condition_estimate
from greedypde.engine import (
    BLOCK,
    GreedyState,
    RunTrace,
    extend,
    grid_blocks,
    init,
    restore_state,
    run,
    select_extended,
    select_standard,
)
from greedypde.errors import Converged, InvalidSelectionError, NumericalError
from greedypde.functionals import (
    FunctionalSet,
    GaussianBump,
    boundary_delta,
    data_vector,
    disk_functional_set,
    domain_op_delta,
    dual_inner,
    dual_inner_column,
    gram,
    read_functionals,
    riesz_value,
    write_functionals,
)
from greedypde.geometry import DiskGeometry, disk_candidates, evaluation_grid, fill_distance
from greedypde.kernels import KernelSpec, kernel_value, radial_kernel
from greedypde.parallel import resolve_workers
from greedypde.solver import (
    basis_values_in_place,
    data_to_newton,
    evaluate_basis,
    power_on_deltas,
    unclamped_power,
)

SPEC = KernelSpec(m=4, d=2)


def toy_three():
    return FunctionalSet([
        domain_op_delta((0.25, 0.1), 0),
        domain_op_delta((-0.4, 0.35), 1),
        boundary_delta((1.0, 0.0), 2),
    ])


def toy_disk(n_domain=180, n_boundary=20):
    return disk_functional_set(disk_candidates(n_domain, n_boundary))


def brute_residuals(fset, spec, selected):
    """Direct Gram-solve oracle for the residual powers."""
    diag = np.array([dual_inner(f, f, spec) for f in fset])
    if not selected:
        return diag
    A = gram([fset[i] for i in selected], spec)
    B = np.array([
        [dual_inner(f, fset[i], spec) for i in selected]
        for f in fset
    ])
    return diag - np.einsum("ij,ij->i", B, np.linalg.solve(A, B.T).T)


# ---------------------------------------------------------------------------
# init


def test_init_state():
    fset = toy_disk(60, 10)
    state = init(fset, SPEC)
    assert state.n == 0
    assert np.allclose(state.diag, 8.0)  # both kinds share the norm at scale 1
    assert np.array_equal(state.residual_power, state.diag)
    assert state.residual_power.max() == state.diag.max()


# ---------------------------------------------------------------------------
# selection


def test_select_tie_breaks_to_lowest_index():
    state = init(toy_disk(40, 8), SPEC)
    # all residual powers are equal at init for m=4, scale=1
    assert select_standard(state) == 0


def test_select_converged_signal():
    state = init(toy_three(), SPEC)
    with pytest.raises(Converged):
        select_standard(state, stop_tol=1.0)


def test_stop_threshold_is_relative_to_the_largest_dual_norm():
    # at m = 5 toy_three's squared dual norms differ by kind (at m = 4,
    # scale 1, they are all 8), and a residual power between stop_tol times
    # the smallest and stop_tol times the largest counts as exhausted
    state = init(toy_three(), KernelSpec(m=5, d=2))
    lo, hi = state.diag.min(), state.diag.max()
    assert hi > 2.0 * lo
    state.residual_power = np.full(3, 1e-3 * (lo + hi) / 2.0)
    with pytest.raises(Converged):
        select_standard(state, stop_tol=1e-3)


def test_greedy_matches_brute_force_on_toy_triplet():
    fset = toy_three()
    state = init(fset, SPEC)
    for _ in range(2):
        oracle = brute_residuals(fset, SPEC, state.selected)
        oracle_pick = int(np.argmax(np.where(
            np.isin(np.arange(len(fset)), state.selected), -np.inf, oracle)))
        pick = select_standard(state)
        assert pick == oracle_pick
        extend(state, pick)


def test_select_extended_branches():
    fset = toy_disk(50, 10)
    state = init(fset, SPEC)
    boundary = fset.boundary_indices
    # delta power peaks on the boundary: strongest boundary delta is returned
    chosen = select_extended(state, True)
    assert chosen in boundary
    assert state.residual_power[chosen] == state.residual_power[boundary].max()
    # otherwise: standard rule
    assert select_extended(state, False) == select_standard(state)


def test_extended_run_breaks_the_first_tie_toward_the_boundary():
    # before the first pick the delta power is K(0) at every point of Y and
    # at every boundary delta, so it peaks on the boundary too: the first
    # pick is the strongest boundary delta, where the standard rule would
    # take domain functional 0, whose norm ties at m = 4 and scale 1
    geometry = disk_candidates(300, 30)
    fset = disk_functional_set(geometry)
    state, trace = run(fset, SPEC, mode="extended", n_max=1,
                       eval_grid=evaluation_grid(geometry, 0.1))
    fresh = init(fset, SPEC)
    assert select_standard(fresh) not in fset.boundary_indices
    assert state.selected == [select_extended(fresh, True)] and trace.kind == ["B"]


def test_select_extended_honours_stop_tol_on_the_boundary():
    # boundary deltas at 1e-3 of their norm: the boundary branch takes one
    # without a tolerance, and with stop_tol = 1e-2 leaves the pick to the
    # standard rule, which converges once the domain is spent too
    fset = toy_disk(50, 10)
    state = init(fset, SPEC)
    boundary = fset.boundary_indices
    state.residual_power[boundary] *= 1e-3
    assert select_extended(state, True) in boundary
    chosen = select_extended(state, True, stop_tol=1e-2)
    assert chosen not in boundary and chosen == select_standard(state, 1e-2)
    state.residual_power *= 1e-3
    with pytest.raises(Converged):
        select_extended(state, True, stop_tol=1e-2)


# ---------------------------------------------------------------------------
# extend


def test_extend_zeroes_chosen_residual():
    state = init(toy_disk(), SPEC)
    pick = select_standard(state)
    extend(state, pick)
    assert state.residual_power[pick] <= 1e-10


def test_extend_rejects_exhausted_functional():
    state = init(toy_disk(), SPEC)
    pick = select_standard(state)
    extend(state, pick)
    with pytest.raises(InvalidSelectionError):
        extend(state, pick)


@pytest.mark.parametrize("scale, broken", [(10.0, True), (1.00005, True),
                                           (1.0 + 1e-13, False)])
def test_extend_refuses_a_column_that_is_no_gram_column(monkeypatch, scale, broken):
    # a cross column scaled by s leaves the chosen functional a residual
    # power of (1 - s^2) P^2: -99 P^2 at s = 10 and about -1e-4 P^2 at
    # s = 1.00005, a broken Gram, which extend reports instead of clamping
    # the power at zero; about -2e-13 P^2 at s = 1 + 1e-13 is roundoff,
    # which it clamps
    import greedypde.engine as engine

    real = engine.dual_inner_column
    monkeypatch.setattr(engine, "dual_inner_column",
                        lambda *args, **kwargs: scale * real(*args, **kwargs))
    state = init(toy_three(), SPEC)
    chosen = select_standard(state)
    if broken:
        with pytest.raises(NumericalError, match="negative"):
            extend(state, chosen)
    else:
        extend(state, chosen)
        assert state.residual_power[chosen] == 0.0


def test_a_finished_run_takes_no_further_steps(small_run):
    # its state holds no Newton columns to project a new column onto
    state = small_run["state"]
    with pytest.raises(ValueError, match="no Newton columns"):
        extend(state, select_standard(state))
    assert state.n == 60


def test_extend_makes_one_projection_per_step():
    # four boundary deltas 1e-3 rad apart at m=6: from step 1 on each chosen
    # functional keeps under 1e-6 of its dual norm, where a twice-is-enough
    # Gram-Schmidt would project a second time; extend projects once
    spec = KernelSpec(m=6, d=2)
    angles = 1e-3 * np.arange(4)
    fset = FunctionalSet([boundary_delta((np.cos(a), np.sin(a)), i)
                          for i, a in enumerate(angles)])
    state = init(fset, spec)
    for chosen in range(4):
        n = state.n
        cols = state.newton_columns.copy()
        ctri = state.c_matrix()
        r = float(state.residual_power[chosen])
        if n:
            assert r < 1e-6 * state.diag[chosen]
        proj = cols[:, chosen].copy()
        w = dual_inner_column(fset[chosen], fset, spec)
        brow = np.zeros(n + 1)
        brow[n] = 1.0
        if n:
            w -= proj @ cols
            brow[:n] = -(proj @ ctri)
        c = 1.0 / np.sqrt(r)
        extend(state, chosen)
        assert np.array_equal(state.newton_columns[n], c * w)
        assert np.array_equal(state.c_matrix()[n, : n + 1], c * brow)


def test_two_step_power_formula():
    # P^2 after one step: (lam,lam) - (lam,lam_1)^2 / (lam_1,lam_1)
    fset = toy_three()
    state = init(fset, SPEC)
    extend(state, 0)
    e0 = fset[0]
    for i, f in enumerate(fset):
        expected = dual_inner(f, f, SPEC) - dual_inner(f, e0, SPEC) ** 2 / dual_inner(e0, e0, SPEC)
        assert state.residual_power[i] == pytest.approx(expected, abs=1e-12)


def test_diagonal_of_c_is_inverse_power():
    fset = toy_disk()
    state = init(fset, SPEC)
    for _ in range(12):
        pick = select_standard(state)
        p = np.sqrt(state.residual_power[pick])
        extend(state, pick)
        c = state.c_matrix()
        assert c[state.n - 1, state.n - 1] == pytest.approx(1.0 / p, rel=1e-12)
        assert c[state.n - 1, state.n - 1] > 0


def test_residuals_match_gram_oracle_up_to_thirty_steps():
    fset = toy_disk(180, 20)  # ~200 functionals
    state = init(fset, SPEC)
    scale = float(state.diag.max())
    for step in range(30):
        extend(state, select_standard(state))
        if step + 1 in (1, 10, 30):
            oracle = brute_residuals(fset, SPEC, state.selected)
            assert np.allclose(state.residual_power, np.maximum(oracle, 0.0),
                               rtol=1e-8, atol=1e-10 * scale)


def test_orthonormality_c_gram_identity(small_run):
    state = small_run["state"]
    fset = small_run["fset"]
    A = gram([fset[i] for i in state.selected], small_run["spec"])
    C = state.c_matrix()
    assert np.abs(C @ A @ C.T - np.eye(state.n)).max() <= 1e-8


def test_selected_residuals_stay_zero(small_run):
    state = small_run["state"]
    assert max(state.residual_power[i] for i in state.selected) <= 1e-10


def test_sigma_trace_monotone(small_run):
    sigma = small_run["trace"].sigma
    assert np.all(np.diff(sigma) <= 1e-12)


def test_rho_never_exceeds_initial_power(small_run):
    trace = small_run["trace"]
    kxx = 8.0
    assert np.all(trace.rho[np.isfinite(trace.rho)] <= np.sqrt(kxx) + 1e-12)


# ---------------------------------------------------------------------------
# run-level properties


def test_run_determinism():
    fset = toy_disk(120, 16)
    grid = evaluation_grid(disk_candidates(120, 16), 0.1)
    out = [run(fset, SPEC, n_max=25, eval_grid=grid) for _ in range(2)]
    (s1, t1), (s2, t2) = out
    assert s1.selected == s2.selected
    assert np.array_equal(t1.sigma, t2.sigma)
    assert np.array_equal(t1.rho, t2.rho)
    assert np.array_equal(t1.cond_c, t2.cond_c)


@pytest.mark.parametrize("m", [4, 6])
def test_standard_selection_ignores_the_evaluation_grid(m):
    # the grid rows feed rho and the grid powers only: the standard picks, C,
    # sigma and cond_C come from the candidate columns, bit for bit
    geometry = disk_candidates(300, 24)
    fset = disk_functional_set(geometry)
    spec = KernelSpec(m=m, d=2)
    s1, t1 = run(fset, spec, n_max=60, eval_grid=evaluation_grid(geometry, 0.1))
    s2, t2 = run(fset, spec, n_max=60)
    assert s1.selected == s2.selected
    assert np.array_equal(s1.c_matrix(), s2.c_matrix())
    assert np.array_equal(t1.sigma, t2.sigma)
    assert np.array_equal(t1.cond_c, t2.cond_c)
    assert np.isfinite(t1.rho).all() and np.isnan(t2.rho).all()


def newton_factor(state) -> np.ndarray:
    """L = C^{-1} as the Newton columns hold it: row k is columns 0..k at the
    k-th pick."""
    return np.tril(state.newton_columns[:, state.selected].T)


def replayed(state):
    """The run's picks taken again through init/extend: a state whose Newton
    columns, which the run frees after its last step, are the run's bit for
    bit, as its C is."""
    again = init(state.fset, state.spec)
    for i in state.selected:
        extend(again, i)
    assert again.c_matrix().tobytes() == state.c_matrix().tobytes()
    return again


def assert_hager_on_inverse(cond, C, L):
    """cond is ||C||_1 times Hager's loop probed with L, bit for bit; it is
    within roundoff of the loop that solves with C, and never above the
    exact cond_1(C)."""
    norm1 = float(np.abs(C).sum(axis=0).max())
    assert cond == condition_estimate(L, norm1, inverse=True)
    assert cond == pytest.approx(condition_estimate(C), rel=1e-13, abs=0.0)
    exact = norm1 * float(np.abs(np.linalg.inv(C)).sum(axis=0).max())
    assert cond <= exact * (1 + 1e-12)


# 6-standard-early stops at stop_tol after 29 steps, so C's storage (n_max =
# 60 rows) is larger than the N x N block that the cond_C pass reads
@pytest.mark.parametrize("m, mode, n_max, stop_tol, steps", [
    pytest.param(m, mode, 30, 1e-12, 30, id=f"{m}-{mode}")
    for mode in ("standard", "extended") for m in (4, 6)
] + [pytest.param(6, "standard", 60, 1e-4, 29, id="6-standard-early")])
def test_cond_c_column_equals_condition_estimate_of_each_block(m, mode, n_max,
                                                                stop_tol, steps):
    geometry = disk_candidates(120, 16)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.1)
    state, trace = run(fset, KernelSpec(m=m, d=2), mode=mode, n_max=n_max,
                       stop_tol=stop_tol, eval_grid=grid)
    C, L = state.c_matrix(), newton_factor(replayed(state))
    assert len(trace.cond_c) == state.n == steps
    for k, cond in enumerate(trace.cond_c, start=1):
        assert_hager_on_inverse(cond, C[:k, :k], L[:k, :k])


def test_cond_c_past_the_initial_capacity():
    # init/extend doubles C from 16 rows; cond_c estimates the leading block
    # by solves with C, within roundoff of the L-probed estimate of the
    # trace, and keeps nothing, at every step or only now and then
    fset = toy_disk(120, 16)
    state = init(fset, SPEC)
    conds = []
    for _ in range(40):
        extend(state, select_standard(state))
        before = state.bulk_float_count()
        conds.append(state.cond_c())
        assert state.bulk_float_count() == before
        C, L = state.c_matrix(), newton_factor(state)
        assert conds[-1] == condition_estimate(C)
        norm1 = float(np.abs(C).sum(axis=0).max())
        assert conds[-1] == pytest.approx(condition_estimate(L, norm1, inverse=True),
                                          rel=1e-13, abs=0.0)
        exact = norm1 * float(np.abs(np.linalg.inv(C)).sum(axis=0).max())
        assert conds[-1] <= exact * (1 + 1e-12)
    late = init(fset, SPEC)
    for step in range(1, 41):
        extend(late, select_standard(late))
        if step in (5, 23, 40):
            before = late.bulk_float_count()
            assert late.cond_c() == conds[step - 1], step
            assert late.bulk_float_count() == before
    rng = np.random.default_rng(3)
    L = np.tril(rng.standard_normal((3, 3))) + 3.0 * np.eye(3)
    restored = restore_state(toy_three(), L, SPEC)
    assert restored.cond_c() == condition_estimate(restored.c_matrix()) == condition_estimate(L)


def test_run_rejects_bad_arguments():
    fset = toy_three()
    with pytest.raises(ValueError):
        run(fset, SPEC, mode="chaotic", n_max=1)
    with pytest.raises(ValueError):
        run(fset, SPEC, n_max=10)
    with pytest.raises(ValueError):
        run(fset, SPEC, n_max=-1)
    with pytest.raises(ValueError):
        run(fset, SPEC, mode="extended", n_max=1)  # needs a grid


def test_zero_step_run_leaves_an_extendable_state():
    # a run sized for n_max = 0 rows, or one that converges before its first
    # step (its freed Newton columns held no row), still grows when
    # extended afterwards
    fset = toy_three()
    for n_max, stop_tol in ((0, 1e-12), (3, 1.0)):
        state, trace = run(fset, SPEC, n_max=n_max, stop_tol=stop_tol)
        assert len(trace.steps) == 0
        extend(state, select_standard(state))
        assert state.n == 1


def test_run_stops_early_on_large_tolerance():
    fset = toy_disk(60, 10)
    state, trace = run(fset, SPEC, n_max=len(fset), stop_tol=1e-2)
    assert state.n < len(fset)
    assert len(trace.steps) == state.n


@pytest.mark.parametrize("m, mode, stop_tol", [
    (4, "standard", 1e-2), (6, "extended", 1e-12), (6, "standard", 1e-12)])
def test_rho_matches_basis_oracle_at_every_step(m, mode, stop_tol):
    # rho is recorded as the tracker deflates each step's basis row; every
    # step's value must be the grid sup of K(0) minus the summed squares of
    # the first k basis functions
    geometry = disk_candidates(120, 16)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.1)
    spec = KernelSpec(m=m, d=2)
    state, trace = run(fset, spec, mode=mode, n_max=30, stop_tol=stop_tol,
                       eval_grid=grid)
    k0 = kernel_value(spec, np.zeros(2), np.zeros(2))
    values = evaluate_basis(state, grid.points).values
    oracle = np.maximum(k0 - np.cumsum(values**2, axis=0), 0.0).max(axis=1)
    assert len(trace.rho) == state.n
    assert np.abs(trace.rho**2 - oracle).max() <= 1e-12 * k0

    _, no_grid = run(fset, spec, n_max=5)
    assert len(no_grid.rho) == 5
    assert np.isnan(no_grid.rho).all()


def _row_gemv_values(c, raw):
    """The basis values C @ raw of the N x P representer rows, formed as the
    grid pass forms them: on each block J of grid_blocks, row k is the GEMV
    C[k, :k+1] @ raw[:k+1, J] of a C-ordered copy of the block."""
    values = np.empty_like(raw)
    for j in grid_blocks(raw.shape[1]):
        block = np.ascontiguousarray(raw[:, j])
        for k in range(len(c)):
            values[k, j] = c[k, : k + 1] @ block[: k + 1]
    return values


def test_grid_power_matches_basis_oracle_after_early_stop():
    geometry = disk_candidates(60, 10)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.04)  # 1971 points: four blocks
    blocks = []
    state, trace = run(fset, SPEC, n_max=len(fset), stop_tol=1e-2,
                       eval_grid=grid,
                       grid_row_sink=lambda j, raw: blocks.append((j, raw.copy())))
    # stopped on Converged; every row the run added is in the grid power
    # and rho
    assert state.n < len(fset)
    assert trace.rho[-1] == np.sqrt(trace.grid_power.max())
    basis = evaluate_basis(state, points=grid.points)
    oracle = power_on_deltas(state, basis)
    assert np.abs(trace.grid_power - oracle).max() <= 1e-12
    # the pass hands over each block of the grid once, in order, holding
    # the basis values of the picks: bit for bit the row GEMVs of C and the
    # block's representer rows, which basis_values_in_place forms too
    assert [j for j, _ in blocks] == grid_blocks(len(grid)) and len(blocks) == 4
    raw = np.array([riesz_value(fset[i], grid.points, SPEC) for i in state.selected])
    expected = _row_gemv_values(state.c_matrix(), raw)
    values = np.hstack([block for _, block in blocks])
    assert values.shape == expected.shape and values.tobytes() == expected.tobytes()
    for j, block in blocks:
        in_place = basis_values_in_place(state.c_matrix(), np.ascontiguousarray(raw[:, j]))
        assert in_place.tobytes() == block.tobytes()

    _, no_grid = run(fset, SPEC, n_max=5, grid_row_sink=blocks.append)
    assert no_grid.grid_power is None
    assert len(blocks) == 4


def test_extended_grid_pass_copies_the_rows_at_y():
    # the pass copies the rows that the extended rule evaluated at Y instead
    # of evaluating them again; the blocks it hands over are still the
    # basis values of the representer rows bit for bit, and Y given
    # unsorted and with repeats
    # selects and reports what its sorted, unique indices do
    geometry = disk_candidates(60, 10)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.04)  # four blocks, Y in each
    y = np.arange(0, grid.n_interior, 3)
    assert y[-1] >= 3 * BLOCK
    spec = KernelSpec(m=6, d=2)
    blocks = []
    state, trace = run(fset, spec, mode="extended", n_max=30, eval_grid=grid,
                       y_indices=np.r_[y[::-1], y[:5]],
                       grid_row_sink=lambda j, raw: blocks.append(raw.copy()))
    raw = np.array([riesz_value(fset[i], grid.points, spec) for i in state.selected])
    assert np.hstack(blocks).tobytes() == _row_gemv_values(state.c_matrix(), raw).tobytes()
    sorted_state, sorted_trace = run(fset, spec, mode="extended", n_max=30,
                                     eval_grid=grid, y_indices=y)
    assert state.selected == sorted_state.selected
    assert trace.rho.tobytes() == sorted_trace.rho.tobytes()
    assert trace.grid_power.tobytes() == sorted_trace.grid_power.tobytes()


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_grid_pass_evaluates_each_representer_once(monkeypatch, mode):
    # the grid pass evaluates N x P representer values, less the N x |Y|
    # that the extended rule's loop already evaluated (through riesz_value,
    # which this count leaves out) and the pass copies
    import greedypde.engine as engine

    work = []
    real = engine.representer_rows

    def counted(centers, operator_delta, points, spec):
        work.append(len(centers) * len(points))
        return real(centers, operator_delta, points, spec)

    monkeypatch.setattr(engine, "representer_rows", counted)
    geometry = disk_candidates(60, 10)
    grid = evaluation_grid(geometry, 0.04)  # four blocks, Y in each
    y = np.arange(0, grid.n_interior, 3)
    state, _ = run(disk_functional_set(geometry), SPEC, mode=mode, n_max=30,
                   eval_grid=grid, y_indices=y)
    assert state.n == 30
    evaluated = len(grid) - (len(y) if mode == "extended" else 0)
    assert sum(work) == state.n * evaluated


@given(st.integers(1, 20000))
def test_grid_blocks_tile_the_grid_in_block_wide_blocks(n):
    blocks = grid_blocks(n)
    # in order, with no gap and no overlap
    assert np.array_equal(np.concatenate([np.arange(n)[j] for j in blocks]), np.arange(n))
    assert all(j.start % BLOCK == 0 and 0 < j.stop - j.start <= BLOCK for j in blocks)
    assert all(j.stop - j.start == BLOCK for j in blocks[:-1])


def test_grid_blocks_of_no_points_are_one_empty_block():
    assert grid_blocks(0) == [slice(0, 0)]


def test_fill_distance_columns(small_run):
    trace = small_run["trace"]
    # h_boundary only moves on boundary steps, and never upward
    for i in range(1, len(trace.steps)):
        if trace.h_boundary[i] < trace.h_boundary[i - 1]:
            assert trace.kind[i] == "B"
        assert trace.h_boundary[i] <= trace.h_boundary[i - 1] + 1e-15
        assert trace.h_domain[i] <= trace.h_domain[i - 1] + 1e-15
    # and each step's values are the fill distances of each kind's picks so
    # far over that kind's candidates (the diameter before its first pick)
    fset, state = small_run["fset"], small_run["state"]
    own = (fset.domain_mask, ~fset.domain_mask)
    for k in range(1, len(trace.steps) + 1):
        picks = np.array(state.selected[:k])
        for h, mask in zip((trace.h_domain, trace.h_boundary), own):
            oracle = fill_distance(fset.points[picks[mask[picks]]], fset.points[mask])
            assert h[k - 1] == pytest.approx(oracle, rel=1e-12), k


def test_storage_counter_linear_in_steps():
    fset = toy_disk(300, 30)
    n = len(fset)
    counts = {}
    state = init(fset, SPEC)
    for step in range(1, 51):
        extend(state, select_standard(state))
        if step in (25, 50):
            counts[step] = state.bulk_float_count()
    # bulk arrays are the Newton columns (|Lambda| zero-padded to a multiple
    # of 8) and C at the state's capacity (32 rows at 25 steps, 64 at 50) and
    # two |Lambda| vectors, which stay within a small constant of the
    # (N+2)|Lambda| contract
    padded = n + (-n) % 8
    assert padded > n
    for step, floats in counts.items():
        cap = 32 if step == 25 else 64
        assert floats == cap * padded + cap**2 + 2 * n
        assert floats <= 2.5 * (step + 2) * n + 4 * step**2
    assert counts[50] <= 2.2 * counts[25]


def test_resolve_workers_counts_affinity_mask(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert resolve_workers(0) == 3
    assert resolve_workers(2) == 2
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    assert resolve_workers(0) == 64


def test_restore_state_round_trip(small_run, tmp_path):
    # the selection goes through selected.txt as `solve` reloads it, and the
    # reloaded basis must solve exactly as the in-memory one does
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    path = tmp_path / "selected.txt"
    write_functionals(path, [fset[i] for i in state.selected])
    stub = restore_state(FunctionalSet(read_functionals(path)), state.c_matrix(), spec)
    assert np.array_equal(stub.c_matrix(), state.c_matrix())
    assert stub.n == state.n
    problem = GaussianBump(center=(-0.3, 0.1))
    mu = data_to_newton(state, data_vector(fset, state.selected, problem))
    mu_stub = data_to_newton(stub, data_vector(stub.fset, range(stub.n), problem))
    assert mu_stub.tobytes() == mu.tobytes()
    points = small_run["grid"].points
    assert (evaluate_basis(stub, points).values.tobytes()
            == evaluate_basis(state, points).values.tobytes())


def test_restore_state_keeps_only_the_lower_triangle():
    # the CLI refuses a C with an upper triangle, but a library caller may
    # pass a full matrix: the state drops what lies above the diagonal
    rng = np.random.default_rng(5)
    full = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    state = restore_state(toy_three(), full, SPEC)
    assert np.array_equal(state.c_matrix(), np.tril(full))
    assert state.cond_c() == condition_estimate(np.tril(full))


def test_c_matrix_is_a_read_only_view_with_the_copys_bits(small_run):
    # a run state, a state grown past its rows (so the view strides over
    # spare columns) and a restored state: each hands out its own storage,
    # bit for bit what a copy of the leading block holds, and refuses writes
    state, spec = small_run["state"], small_run["spec"]
    grown = init(small_run["fset"], spec)
    for _ in range(20):
        extend(grown, select_standard(grown))
    sel = state.selected
    restored = restore_state(
        FunctionalSet.from_arrays(state.fset.points[sel], state.fset.domain_mask[sel]),
        state.c_matrix(), spec)
    for s in (state, grown, restored):
        c = s.c_matrix()
        copy = s._c[: s.n, : s.n].copy()
        assert c.shape == copy.shape and c.tobytes() == copy.tobytes()
        assert np.shares_memory(c, s._c)
        with pytest.raises(ValueError):
            c[-1, 0] = 1.0
        assert s._c[s.n - 1, 0] == copy[-1, 0]
    assert not grown.c_matrix().flags.c_contiguous


def test_run_holds_only_the_contract_arrays():
    # a run sizes its Newton columns and C once for n_max and evaluates the
    # grid one block at a time after the last step, so its traced peak stays
    # near (n_max + 2)|Lambda| floats plus one widest block of n_max raw rows,
    # instead of holding old and doubled copies or an n_max x P array
    geometry = disk_candidates(1000, 60)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.02)
    n_max, lam, p = 40, len(fset), len(grid)
    assert p > 4 * BLOCK
    run(fset, SPEC, n_max=5, eval_grid=grid)  # load what the first run loads lazily
    tracemalloc.start()
    try:
        run(fset, SPEC, n_max=n_max, eval_grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    contract = 8 * ((n_max + 2) * lam + n_max * BLOCK)
    # a step's temporaries: a few vectors over the set and the grid, the
    # radius table and the per-step trace values
    slack = 8 * 8 * (lam + p) + 2**19
    assert peak <= contract + slack, (peak, contract)


def test_grid_pass_adds_nothing_to_the_runs_peak():
    # run frees the Newton columns and L after its last step, so its grid
    # pass holds its block beside C alone.  The 4597-point grid's blocks
    # are BLOCK points wide, all but its last, and the n_max x |Lambda|
    # columns are more than twice a block: the run peaks at its last step
    # with or without a grid, where a pass beside the columns would add the
    # block
    geometry = disk_candidates(2000, 120)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.0265)
    n_max = 100
    widest = max(j.stop - j.start for j in grid_blocks(len(grid)))
    block_bytes = 8 * n_max * widest
    assert widest == BLOCK and len(fset) > 2 * widest
    run(fset, SPEC, n_max=5, eval_grid=grid)  # load what the first run loads lazily
    peaks = {}
    for points in (None, grid):
        tracemalloc.start()
        try:
            state, _ = run(fset, SPEC, n_max=n_max, eval_grid=points)
            _, peaks[points is not None] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.n == n_max and state.newton_columns.shape == (0, len(fset))
    assert peaks[True] - peaks[False] < block_bytes / 2, (
        (peaks[True] - peaks[False]) / block_bytes)


def test_run_copies_no_coefficient_matrix_per_step(monkeypatch):
    # the pass that gives the cond_C column reads C's storage and the
    # Newton columns in place, not a fresh copy of C
    calls = []
    real = GreedyState.c_matrix

    def counted(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(GreedyState, "c_matrix", counted)
    geometry = disk_candidates(120, 16)
    run(disk_functional_set(geometry), SPEC, n_max=12,
        eval_grid=evaluation_grid(geometry, 0.1))
    assert calls == []


def test_run_computes_one_distance_vector_per_step(monkeypatch):
    import greedypde.engine as engine
    import greedypde.kernels as kernels

    calls = []
    real = kernels.distance

    def counted(x, y):
        if np.ndim(x) == 2:  # single-point calls are K(x, x) on the diagonal
            calls.append(np.shape(x))
        return real(x, y)

    monkeypatch.setattr(kernels, "distance", counted)
    monkeypatch.setattr(engine, "distance", counted)
    fset = toy_disk(120, 16)
    state, trace = run(fset, SPEC, n_max=12)
    assert calls == [fset.points.shape] * 12
    monkeypatch.undo()
    again, again_trace = run(fset, SPEC, n_max=12)
    assert again.selected == state.selected
    assert np.array_equal(again_trace.h_domain, trace.h_domain)
    assert np.array_equal(again_trace.h_boundary, trace.h_boundary)


def _run_keeping_rows(fset, spec, mode, n_max, grid):
    """run with a grid, and copies of the blocks of basis values it hands
    over."""
    blocks = []
    state, trace = run(fset, spec, mode=mode, n_max=n_max, eval_grid=grid,
                       grid_row_sink=lambda j, raw: blocks.append((j, raw.copy())))
    return state, trace, blocks


@settings(deadline=None, max_examples=60)
@given(m=st.integers(4, 9),
       scale=st.sampled_from([0.05, 0.3, 1.0, 5.0]) | st.floats(0.05, 5.0),
       mode=st.sampled_from(["standard", "extended"]),
       n_domain=st.integers(30, 300), n_boundary=st.integers(6, 40),
       n_max=st.integers(1, 80))
def test_run_invariants_over_the_config_space(m, scale, mode, n_domain, n_boundary,
                                              n_max):
    # the other run tests keep to scale 1 and m <= 6; a factor of the scale
    # dropped from one pairing, or an extend change that breaks only at a
    # high cond_C, shows here
    geometry = disk_candidates(n_domain, n_boundary)
    fset = disk_functional_set(geometry)
    spec = KernelSpec(m=m, d=2, scale=scale)
    grid = evaluation_grid(geometry, 0.1)
    n_max = min(n_max, len(fset))
    state, trace, blocks = _run_keeping_rows(fset, spec, mode, n_max, grid)
    assert len(set(state.selected)) == state.n == len(trace.steps)
    assert (np.diff(trace.sigma) <= 0.0).all(), np.diff(trace.sigma).max()
    assert np.isfinite(trace.rho).all() and np.isfinite(trace.cond_c).all()
    # cond_1 >= 1 for every matrix: the estimate of C[0, 0] * L[0, 0] = 1 at
    # the first step must not round below it
    assert (trace.cond_c >= 1.0).all(), trace.cond_c.min()
    # the solve's own gate on the stored values: a build must never write a
    # basis that its solve rejects
    c = state.c_matrix()
    kxx = radial_kernel(spec, 0.0)
    p2_min = min(unclamped_power(spec, values).min() for _, values in blocks)
    assert p2_min >= -1e-10 * kxx, p2_min / kxx

    again, again_trace, again_blocks = _run_keeping_rows(fset, spec, mode, n_max, grid)
    assert again.selected == state.selected and again_trace.kind == trace.kind
    assert again.c_matrix().tobytes() == c.tobytes()
    for name in ("sigma", "rho", "h_domain", "h_boundary", "cond_c", "grid_power"):
        assert getattr(again_trace, name).tobytes() == getattr(trace, name).tobytes(), name
    assert [j for j, _ in again_blocks] == [j for j, _ in blocks]
    for (_, rows), (_, again_rows) in zip(blocks, again_blocks):
        assert again_rows.tobytes() == rows.tobytes()


# ---------------------------------------------------------------------------
# metamorphic oracles: a run's results do not depend on the order of the
# candidates, nor on an isometry of the square that is exact in floating
# point, bit for bit; they need no reference data and hold at every m,
# scale and mode


def _tie_free_set():
    """(points, domain_mask, grid): 600 uniform domain candidates in r < 0.99
    and 60 boundary candidates at random angles, so that no two candidates
    tie after the first step, and a coarse evaluation grid on them."""
    rng = np.random.default_rng(0)
    r, t = 0.99 * np.sqrt(rng.uniform(size=600)), rng.uniform(0.0, 2 * np.pi, 600)
    domain = np.column_stack([r * np.cos(t), r * np.sin(t)])
    a = rng.uniform(0.0, 2 * np.pi, 60)
    boundary = np.column_stack([np.cos(a), np.sin(a)])
    points = np.vstack([domain, boundary])
    grid = evaluation_grid(DiskGeometry(domain, boundary), 0.25)
    return points, np.arange(len(points)) < len(domain), grid


def _assert_same_run(state, trace, other_state, other_trace, names):
    assert other_state.c_matrix().tobytes() == state.c_matrix().tobytes()
    for name in names:
        ours, theirs = getattr(trace, name), getattr(other_trace, name)
        if isinstance(ours, np.ndarray):
            assert theirs.dtype == ours.dtype and theirs.tobytes() == ours.tobytes(), name
        else:
            assert theirs == ours, name


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([4, 5, 6]),
       scale=st.sampled_from([0.5, 1.0, 2.0]),
       mode=st.sampled_from(["standard", "extended"]))
def test_run_is_equivariant_under_candidate_permutation(seed, m, scale, mode):
    points, domain_mask, grid = _tie_free_set()
    spec = KernelSpec(m=m, d=2, scale=scale)
    state, trace = run(FunctionalSet.from_arrays(points, domain_mask), spec,
                       mode=mode, n_max=60, eval_grid=grid)
    # step 1 is an exact tie among the candidates of one kind, which the
    # lowest index settles, so the first pick keeps index 0
    perm = np.random.default_rng(seed).permutation(len(points))
    perm = np.r_[state.selected[0], perm[perm != state.selected[0]]]
    p_state, p_trace = run(FunctionalSet.from_arrays(points[perm], domain_mask[perm]),
                           spec, mode=mode, n_max=60, eval_grid=grid)
    assert perm[p_state.selected].tolist() == state.selected
    _assert_same_run(state, trace, p_state, p_trace, [f.name for f in fields(RunTrace)])


@pytest.mark.parametrize("m", [4, 6])
def test_run_is_invariant_under_the_squares_isometries(m):
    points, domain_mask, _ = _tie_free_set()
    spec = KernelSpec(m=m, d=2)
    state, trace = run(FunctionalSet.from_arrays(points, domain_mask), spec, n_max=60)
    x, y = points.T
    # reflect x, reflect y, swap the coordinates, rotate by 90 degrees
    for image in (np.c_[-x, y], np.c_[x, -y], np.c_[y, x], np.c_[-y, x]):
        i_state, i_trace = run(FunctionalSet.from_arrays(image, domain_mask), spec,
                               n_max=60)
        assert i_state.selected == state.selected
        _assert_same_run(state, trace, i_state, i_trace,
                         ["sigma", "h_domain", "h_boundary"])
