import numpy as np
import pytest
from scipy.linalg import solve_triangular

from greedypde.engine import extend, init, select_standard
from greedypde.errors import NumericalError
from greedypde.functionals import (
    FunctionalSet,
    GaussianBump,
    boundary_delta,
    data_vector,
    domain_op_delta,
    dual_inner,
    gram,
    riesz_value,
)
from greedypde.kernels import KernelSpec, kernel_value
from greedypde.solver import (
    approximate,
    data_to_newton,
    direct_collocation_solve,
    evaluate_basis,
    power_on_deltas,
    project,
)

SPEC = KernelSpec(m=4, d=2)


def grid_points(n=120, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(4 * n, 2))
    return pts[np.linalg.norm(pts, axis=1) <= 1.0][:n]


# ---------------------------------------------------------------------------
# basis evaluation


def test_single_step_basis_is_normalized_representer(small_run):
    fset, spec = small_run["fset"], small_run["spec"]
    state = init(fset, spec)
    pick = select_standard(state)
    extend(state, pick)
    pts = grid_points()
    basis = evaluate_basis(state, pts)
    f = fset[pick]
    expected = riesz_value(f, pts, spec) / np.sqrt(dual_inner(f, f, spec))
    assert np.allclose(basis.values[0], expected, rtol=1e-12, atol=1e-12)


def test_basis_rows_are_dual_orthonormal(small_run):
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    # applying mu_j to v_{mu_k} gives (mu_j, mu_k) = C A C^T
    A = gram([fset[i] for i in state.selected[:50]], spec)
    C = state.c_matrix()[:50, :50]
    assert np.abs(C @ A @ C.T - np.eye(50)).max() <= 1e-8


def test_power_on_deltas_with_empty_selection(small_run):
    fset, spec = small_run["fset"], small_run["spec"]
    state = init(fset, spec)
    pts = grid_points(40)
    basis = evaluate_basis(state, pts)
    assert np.allclose(power_on_deltas(state, basis), 8.0)


def test_power_telescoping_identity(small_run):
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    pts = grid_points(60)
    basis = evaluate_basis(state, pts)
    kxx = kernel_value(spec, np.zeros(2), np.zeros(2))
    p2 = kxx - np.cumsum(basis.values**2, axis=0)  # P^2 after each prefix
    drops = -np.diff(p2, axis=0)
    assert np.abs(drops - basis.values[1:] ** 2).max() <= 1e-10


def test_power_zero_at_selected_boundary_points(small_run):
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    zsel = [i for i in state.selected if not fset.domain_mask[i]]
    assert zsel, "run selected no boundary functionals"
    pts = fset.points[zsel]
    basis = evaluate_basis(state, pts)
    assert power_on_deltas(state, basis).max() <= 1e-10


def test_power_matches_direct_gram_formula(small_run):
    fset, spec = small_run["fset"], small_run["spec"]
    state = init(fset, spec)
    for _ in range(30):
        extend(state, select_standard(state))
    pts = grid_points(80)
    basis = evaluate_basis(state, pts)
    mine = power_on_deltas(state, basis)
    A = gram([fset[i] for i in state.selected], spec)
    B = np.array([riesz_value(fset[i], pts, spec) for i in state.selected])
    kxx = kernel_value(spec, np.zeros(2), np.zeros(2))
    direct = kxx - np.einsum("ip,ip->p", B, np.linalg.solve(A, B))
    assert np.abs(mine - direct).max() <= 1e-8


# ---------------------------------------------------------------------------
# newton transform


def test_data_to_newton_single_step(small_run):
    fset, spec = small_run["fset"], small_run["spec"]
    state = init(fset, spec)
    extend(state, select_standard(state))
    f = fset[state.selected[0]]
    data = np.array([3.2])
    mu = data_to_newton(state, data)
    assert mu[0] == pytest.approx(3.2 / np.sqrt(dual_inner(f, f, spec)), rel=1e-13)


def test_data_to_newton_needs_one_value_per_functional(small_run):
    # a column vector would pass through the product as an N x 1 result
    state = small_run["state"]
    data = np.ones(state.n)
    for bad in (data[:-1], data[:, None]):
        with pytest.raises(ValueError, match="expected data of length"):
            data_to_newton(state, bad)


def test_newton_round_trip(small_run):
    state = small_run["state"]
    rng = np.random.default_rng(11)
    data = rng.standard_normal(state.n)
    mu = data_to_newton(state, data)
    back = solve_triangular(state.c_matrix(), mu, lower=True)
    assert np.allclose(back, data, rtol=1e-10, atol=1e-12)


def test_project_wraps_transform(small_run):
    state = small_run["state"]
    data = np.linspace(-1, 1, state.n)
    sol = project(state, data)
    assert np.array_equal(sol.data, data)
    assert np.array_equal(sol.newton_coefficients, data_to_newton(state, data))


def test_newton_coefficient_cumsum_nondecreasing(small_run):
    state, fset = small_run["state"], small_run["fset"]
    u = GaussianBump(center=(-np.pi / 10, 0.0))
    data = data_vector(fset, state.selected, u)
    mu = data_to_newton(state, data)
    cum = np.cumsum(mu**2)
    assert np.all(np.diff(cum) >= 0)


# ---------------------------------------------------------------------------
# projection and the dense oracle


def test_projection_reproduces_own_representer(small_run):
    fset, spec = small_run["fset"], small_run["spec"]
    state = init(fset, spec)
    extend(state, select_standard(state))
    f = fset[state.selected[0]]
    # u = v_{lam_1}: its data on lam_1 is (lam_1, lam_1)
    data = np.array([dual_inner(f, f, spec)])
    mu = data_to_newton(state, data)
    pts = grid_points(50)
    basis = evaluate_basis(state, pts)
    u_tilde = approximate(mu, basis)
    assert np.abs(u_tilde - riesz_value(f, pts, spec)).max() <= 1e-10


def test_data_reproduction_via_dual_inner_sums(small_run):
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    u = GaussianBump(center=(-np.pi / 10, 0.0))
    data = data_vector(fset, state.selected, u)
    mu = data_to_newton(state, data)
    A = gram([fset[i] for i in state.selected], spec)
    recovered = A @ state.c_matrix().T @ mu  # lam_k(u~) = sum_j mu_j (lam_k, mu_j)
    assert np.abs(recovered - data).max() <= 1e-6 * np.abs(data).max()


def test_direct_collocation_single_step(small_run):
    fset, spec = small_run["fset"], small_run["spec"]
    f = fset[0]
    data = np.array([2.0])
    pts = grid_points(20)
    vals = direct_collocation_solve(fset, [0], data, spec, pts)
    alpha = 2.0 / dual_inner(f, f, spec)
    assert np.allclose(vals, alpha * riesz_value(f, pts, spec), rtol=1e-12)


def test_newton_pipeline_agrees_with_dense_oracle(small_run):
    fset, spec = small_run["fset"], small_run["spec"]
    state = init(fset, spec)
    for _ in range(30):
        extend(state, select_standard(state))
    u = GaussianBump(center=(0.1, -0.2), shape=1.3)
    data = data_vector(fset, state.selected, u)
    pts = grid_points(100)
    direct = direct_collocation_solve(fset, state.selected, data, spec, pts)
    basis = evaluate_basis(state, pts)
    mine = approximate(data_to_newton(state, data), basis)
    scale = np.abs(direct).max()
    assert np.abs(mine - direct).max() <= 1e-8 * scale


def test_pythagoras_for_span_member(small_run):
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    # u in the span of the first 50 selected representers, projected onto 30
    rng = np.random.default_rng(5)
    span = state.selected[:50]
    beta = rng.standard_normal(50)
    A50 = gram([fset[i] for i in span], spec)
    norm_u_sq = beta @ A50 @ beta
    data30 = (A50 @ beta)[:30]  # lam_k(u) for the first 30 selected
    sub = init(fset, spec)
    for i in span[:30]:
        extend(sub, i)
    mu = data_to_newton(sub, data30)
    norm_proj_sq = float(mu @ mu)
    # (u, u~) from explicit Grams; orthogonality makes it equal ||u~||^2
    cross = gram([fset[i] for i in span], spec)[:, :30]
    u_dot_proj = beta @ cross @ sub.c_matrix().T @ mu
    err_sq = norm_u_sq - 2 * u_dot_proj + norm_proj_sq
    assert norm_u_sq == pytest.approx(err_sq + norm_proj_sq, rel=1e-8)
    assert norm_proj_sq <= norm_u_sq * (1 + 1e-12)  # Bessel inequality


def test_error_bound_validity(small_run):
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    # u = v_lam / ||lam|| has unit Hilbert norm
    lam = fset[37]
    norm = np.sqrt(dual_inner(lam, lam, spec))
    data = np.array([
        dual_inner(fset[i], lam, spec) for i in state.selected
    ]) / norm
    mu = data_to_newton(state, data)
    pts = grid_points(100)
    basis = evaluate_basis(state, pts)
    u_vals = riesz_value(lam, pts, spec) / norm
    err = np.abs(u_vals - approximate(mu, basis))
    bound = np.sqrt(power_on_deltas(state, basis))
    assert np.all(err <= bound + 1e-8)


def test_direct_collocation_rejects_singular_gram():
    p = (0.2, 0.3)
    fset = FunctionalSet([
        domain_op_delta(p, 0), domain_op_delta(p, 1), boundary_delta((1, 0), 2)
    ])
    with pytest.raises(NumericalError):
        direct_collocation_solve(fset, [0, 1], np.ones(2), SPEC, grid_points(5))


@pytest.mark.parametrize("angle, singular", [(2e-5, False), (2e-9, True)])
def test_direct_collocation_pivot_floor(angle, singular):
    # two boundary deltas `angle` apart on the unit circle have a relative
    # Cholesky pivot of about angle / 2 at m = 4: 1e-5 is a well-posed,
    # if ill-conditioned, Gram, while 1e-9 (which the factorization rounds
    # to sqrt(eps)) is below the oracle's 1e-7 floor
    fset = FunctionalSet([boundary_delta((1.0, 0.0), 0),
                          boundary_delta((np.cos(angle), np.sin(angle)), 1)])
    if singular:
        with pytest.raises(NumericalError, match="singular"):
            direct_collocation_solve(fset, [0, 1], np.ones(2), SPEC, grid_points(5))
    else:
        vals = direct_collocation_solve(fset, [0, 1], np.ones(2), SPEC, grid_points(5))
        assert np.isfinite(vals).all()


def test_approximate_rejects_too_many_coefficients(small_run):
    state, fset, spec = small_run["state"], small_run["fset"], small_run["spec"]
    basis = evaluate_basis(state, grid_points(10))
    with pytest.raises(ValueError):
        approximate(np.ones(state.n + 1), basis)


def test_desk_basis_sup_norms_decay(desk_m4_basis):
    from greedypde.analysis import fit_rate

    sup = np.abs(desk_m4_basis.values).max(axis=1)
    idx = np.arange(1, len(sup) + 1, dtype=float)
    assert fit_rate(idx, sup, window=(5, len(sup))) < -0.5
