import tracemalloc

import numpy as np
import pytest

from greedypde.analysis import condition_estimate
from greedypde.engine import (
    GreedyState,
    extend,
    init,
    restore_state,
    run,
    select_extended,
    select_standard,
)
from greedypde.errors import Converged, InvalidSelectionError
from greedypde.functionals import (
    FunctionalSet,
    GaussianBump,
    boundary_delta,
    data_vector,
    disk_functional_set,
    domain_op_delta,
    dual_inner,
    gram,
    read_functionals,
    write_functionals,
)
from greedypde.geometry import disk_candidates, evaluation_grid
from greedypde.kernels import KernelSpec, kernel_value
from greedypde.parallel import resolve_workers
from greedypde.solver import data_to_newton, evaluate_basis, power_on_deltas

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


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("m", [4, 6])
def test_cond_c_column_equals_condition_estimate_of_each_block(m, mode):
    geometry = disk_candidates(120, 16)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.1)
    state, trace = run(fset, KernelSpec(m=m, d=2), mode=mode, n_max=30,
                       eval_grid=grid)
    C = state.c_matrix()
    assert len(trace.cond_c) == state.n == 30
    for k, cond in enumerate(trace.cond_c, start=1):
        assert cond == condition_estimate(C[:k, :k]), k


def test_cond_c_past_the_initial_capacity():
    # init/extend doubles C from 16 rows, which must carry the column sums
    # of |C| and regrow the buffer the estimate solves in
    state = init(toy_disk(120, 16), SPEC)
    for _ in range(40):
        extend(state, select_standard(state))
        assert state.cond_c() == condition_estimate(state.c_matrix()), state.n
    rng = np.random.default_rng(3)
    L = np.tril(rng.standard_normal((3, 3))) + 3.0 * np.eye(3)
    restored = restore_state(toy_three(), L, SPEC)
    assert restored.cond_c() == condition_estimate(L)


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
    # a run sized for n_max = 0 rows still grows when extended afterwards
    fset = toy_three()
    state, trace = run(fset, SPEC, n_max=0)
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
    # rho is recorded as the tracker deflates, which a standard run does only
    # after the loop and an extended run before each selection; every step's
    # value must still be the grid sup of K(0) minus the summed squares of
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


def test_grid_power_matches_basis_oracle_after_early_stop():
    geometry = disk_candidates(60, 10)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.1)
    state, trace = run(fset, SPEC, n_max=len(fset), stop_tol=1e-2,
                       eval_grid=grid)
    # stopped on Converged; a standard run syncs the grid only after the
    # loop, so that sync brings every row into the grid power and rho
    assert state.n < len(fset)
    assert trace.rho[-1] == np.sqrt(trace.grid_power.max())
    basis = evaluate_basis(state, points=grid.points)
    oracle = power_on_deltas(state, basis)
    assert np.abs(trace.grid_power - oracle).max() <= 1e-12
    # the tracker's raw rows give the basis values bit for bit
    assert trace.grid_rows.shape == (state.n, len(grid))
    assert np.array_equal(state.c_matrix() @ trace.grid_rows, basis.values)

    _, no_grid = run(fset, SPEC, n_max=5)
    assert no_grid.grid_power is None
    assert no_grid.grid_rows is None


def test_fill_distance_columns(small_run):
    trace = small_run["trace"]
    # h_boundary only moves on boundary steps, and never upward
    for i in range(1, len(trace.steps)):
        if trace.h_boundary[i] < trace.h_boundary[i - 1]:
            assert trace.kind[i] == "B"
        assert trace.h_boundary[i] <= trace.h_boundary[i - 1] + 1e-15
        assert trace.h_domain[i] <= trace.h_domain[i - 1] + 1e-15


def test_storage_counter_linear_in_steps():
    fset = toy_disk(300, 30)
    n = len(fset)
    counts = {}
    state = init(fset, SPEC)
    for step in range(1, 51):
        extend(state, select_standard(state))
        if step in (25, 50):
            counts[step] = state.bulk_float_count()
    # bulk arrays stay within a small constant of the (N+2)|Lambda| contract
    for step, floats in counts.items():
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


def test_run_holds_only_the_contract_arrays():
    # a run sizes its Newton columns, C and grid rows once for n_max, so its
    # traced peak stays near (n_max + 2)|Lambda| + n_max P floats instead of
    # holding old and doubled copies side by side
    geometry = disk_candidates(1000, 60)
    fset = disk_functional_set(geometry)
    grid = evaluation_grid(geometry, 0.02)
    n_max, lam, p = 40, len(fset), len(grid)
    run(fset, SPEC, n_max=5, eval_grid=grid)  # load what the first run loads lazily
    tracemalloc.start()
    try:
        run(fset, SPEC, n_max=n_max, eval_grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    contract = 8 * ((n_max + 2) * lam + n_max * p)
    # a step's temporaries: a few vectors over the set and the grid, the
    # radius table and the per-step trace values
    slack = 8 * 8 * (lam + p) + 2**19
    assert peak <= contract + slack, (peak, contract)


def test_run_copies_no_coefficient_matrix_per_step(monkeypatch):
    # the condition estimate reads the running column sums and the reused
    # buffer, not a fresh copy of C
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
