"""Acceptance suite at desk scale (~2000 domain + 120 boundary candidates,
200 steps).  Each test prints one [PASS]/[FAIL] line; run with `pytest -s`
to see them all."""

import math

import numpy as np
import pytest

from greedypde.analysis import fit_rate
from greedypde.engine import extend, init
from greedypde.functionals import (
    GaussianBump,
    PowerCusp,
    data_vector,
    disk_functional_set,
    dual_inner,
    gram,
)
from greedypde.geometry import disk_candidates
from greedypde.kernels import KernelSpec, bessel_k, bilaplacian, kernel_value, laplacian_y
from greedypde.solver import (
    approximate,
    data_to_newton,
    direct_collocation_solve,
    evaluate_basis,
)

from conftest import DESK, desk_run


def criterion(num, desc, ok, details=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} {details}".rstrip())
    assert ok, f"criterion {num}: {desc} {details}"


@pytest.fixture(scope="session")
def m6_solves(desk_m6, desk_grid):
    """Normalized error traces of the two test problems on the m=6 basis."""
    state, fset, spec = desk_m6["state"], desk_m6["fset"], desk_m6["spec"]
    basis = evaluate_basis(state, desk_grid.points)
    out = {}
    center = (-math.pi / 10, 0.0)
    for name, problem in (("gaussian", GaussianBump(center=center)),
                          ("powercusp", PowerCusp(center=center, exponent=2.5))):
        data = data_vector(fset, state.selected, problem)
        mu = data_to_newton(state, data)
        partial = np.cumsum(mu[:, None] * basis.values, axis=0)
        errors = np.abs(problem.value(desk_grid.points)[None, :] - partial).max(axis=1)
        out[name] = errors / errors[0]
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    geometry = disk_candidates(180, 20)  # ~200 functionals
    fset = disk_functional_set(geometry)
    spec = KernelSpec(m=4, d=2)
    state = init(fset, spec)
    for _ in range(30):
        extend(state, int(np.argmax(state.residual_power)))
    A = gram([fset[i] for i in state.selected], spec)
    B = np.array([[dual_inner(f, fset[i], spec) for i in state.selected]
                  for f in fset])
    direct = state.diag - np.einsum("ij,ij->i", B, np.linalg.solve(A, B.T).T)
    scale = float(state.diag.max())
    power_ok = np.all(
        np.abs(state.residual_power - np.maximum(direct, 0.0))
        <= 1e-8 * np.maximum(np.abs(direct), 1e-2 * scale)
    )

    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.7, 0.7, size=(200, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    u = GaussianBump(center=(0.05, -0.15), shape=1.1)
    data = data_vector(fset, state.selected, u)
    dense = direct_collocation_solve(fset, state.selected, data, spec, pts)
    basis = evaluate_basis(state, pts)
    newton = approximate(data_to_newton(state, data), basis)
    sol_err = np.abs(newton - dense).max() / np.abs(dense).max()
    criterion(1, "Newton pipeline matches dense Gram solves",
              power_ok and sol_err <= 1e-8,
              f"(solution rel dev {sol_err:.2e})")


def test_criterion_2_orthonormality_and_pythagoras(desk_m4):
    state, fset, spec = desk_m4["state"], desk_m4["fset"], desk_m4["spec"]
    sel = state.selected[:100]
    A = gram([fset[i] for i in sel], spec)
    C = state.c_matrix()[:100, :100]
    ortho_dev = float(np.abs(C @ A @ C.T - np.eye(100)).max())

    # u in the span of the first 50 selected representers, projected onto 30
    rng = np.random.default_rng(9)
    beta = rng.standard_normal(50)
    A50 = A[:50, :50]
    norm_u_sq = float(beta @ A50 @ beta)
    data30 = (A50 @ beta)[:30]
    sub = init(fset, spec)
    for i in sel[:30]:
        extend(sub, i)
    mu = data_to_newton(sub, data30)
    norm_proj_sq = float(mu @ mu)
    u_dot_proj = float(beta @ A50[:, :30] @ sub.c_matrix().T @ mu)
    err_sq = norm_u_sq - 2 * u_dot_proj + norm_proj_sq
    pyth_dev = abs(norm_u_sq - (err_sq + norm_proj_sq)) / norm_u_sq
    criterion(2, "orthonormality and Pythagoras",
              ortho_dev <= 1e-8 and pyth_dev <= 1e-8,
              f"(|CAC^T - I| {ortho_dev:.2e}, Pythagoras rel dev {pyth_dev:.2e})")


def test_orthonormality_at_m6(desk_m6):
    # criterion 2's C G C^T = I on the whole m=6 desk basis, where cond_C is
    # far larger than at m=4
    state, fset, spec = desk_m6["state"], desk_m6["fset"], desk_m6["spec"]
    G = gram([fset[i] for i in state.selected], spec)
    C = state.c_matrix()
    assert np.abs(C @ G @ C.T - np.eye(state.n)).max() <= 1e-6


@pytest.mark.parametrize("name, bound", [("desk_m4", 1e-10), ("desk_m4_extended", 1e-10),
                                         ("desk_m6", 1e-6)])
def test_newton_factor_inverts_c(name, bound, request):
    # the L that the cond_C estimate probes, the lower triangle of the Newton
    # columns at the picks, is C^{-1}: what it leaves out above the diagonal
    # is roundoff, and C L = I to roundoff (at m=6 within the bound of
    # test_orthonormality_at_m6).  The run frees its Newton columns after the
    # last step, so its picks are taken again through init/extend, which
    # gives the run's columns, and so its C, bit for bit
    res = request.getfixturevalue(name)
    state, replay = res["state"], init(res["fset"], res["spec"])
    for i in state.selected:
        extend(replay, i)
    assert replay.c_matrix().tobytes() == state.c_matrix().tobytes()
    at_picks = replay.newton_columns[:, state.selected].T
    L = np.tril(at_picks)
    assert np.abs(np.triu(at_picks, 1)).max() <= bound
    assert np.abs(state.c_matrix() @ L - np.eye(state.n)).max() <= bound


def test_criterion_3_sigma_rates(desk_m4, desk_m5, desk_m6):
    slopes = {}
    for m, res in ((4, desk_m4), (5, desk_m5), (6, desk_m6)):
        t = res["trace"]
        slopes[m] = fit_rate(t.steps, t.sigma, window=(50, 200))
    ok = (
        abs(slopes[4] - (-0.5)) <= 0.15
        and abs(slopes[5] - (-1.0)) <= 0.3
        and abs(slopes[6] - (-1.5)) <= 0.45
        and slopes[4] > slopes[5] > slopes[6]  # strictly improving with m
    )
    criterion(3, "sigma rates follow -(m-3)/2", ok,
              "(" + ", ".join(f"m={m}: {s:+.3f}" for m, s in slopes.items()) + ")")


def test_criterion_4_rho_tracks_sigma(desk_m4):
    # rho decays through drops at boundary selections, all early at desk
    # scale, so the envelope comparison uses the full trace
    t = desk_m4["trace"]
    window = (1, DESK["n_max"])
    s_rate = fit_rate(t.steps, t.sigma, window)
    r_rate = fit_rate(t.steps, t.rho, window)
    criterion(4, "rho decays as fast as sigma", abs(r_rate - s_rate) <= 0.3,
              f"(sigma {s_rate:+.3f}, rho {r_rate:+.3f})")


def test_criterion_5_boundary_scarcity(desk_m4, desk_m4_extended):
    nb_std = desk_m4["trace"].boundary_count()
    nb_ext = desk_m4_extended["trace"].boundary_count()
    ok = nb_std <= 0.05 * DESK["n_max"] and nb_ext > nb_std
    criterion(5, "boundary picks scarce; extended picks more", ok,
              f"(standard {nb_std}/200, extended {nb_ext}/200)")


def test_criterion_6_drop_alignment(desk_m4, desk_m4_extended):
    from greedypde.geometry import fill_distance

    ok = True
    details = []
    for name, res in (("standard", desk_m4), ("extended", desk_m4_extended)):
        t = res["trace"]
        fset = res["fset"]
        init_bmax = float(res["state"].diag[fset.boundary_indices].max())
        h_init = fill_distance([], fset.points[~fset.domain_mask])
        for i in range(len(t.steps)):
            h_prev = t.h_boundary[i - 1] if i else h_init
            if t.h_boundary[i] < h_prev - 1e-15 and t.kind[i] != "B":
                ok = False
                details.append(f"{name}: h_G dropped at non-boundary step {i + 1}")
            if t.kind[i] == "B":
                before = t.boundary_power_max[i - 1] if i else init_bmax
                if not t.boundary_power_max[i] < before:
                    ok = False
                    details.append(f"{name}: no boundary power drop at step {i + 1}")
    criterion(6, "h_Gamma and boundary-power drops align with boundary picks",
              ok, "; ".join(details))


def test_criterion_7_basis_reuse(m6_solves):
    gauss = m6_solves["gaussian"]
    cusp = m6_solves["powercusp"]
    final_ok = gauss[-1] < 1e-3
    order_ok = bool(np.all(cusp[49:] > gauss[49:]))
    criterion(7, "m=6 basis reuse: gaussian below 1e-3, cusp above gaussian",
              final_ok and order_ok,
              f"(gaussian final {gauss[-1]:.2e}, cusp final {cusp[-1]:.2e})")


def test_criterion_8_bessel_and_derivative_layer():
    import mpmath as mp

    mp.mp.dps = 30
    radii = np.logspace(math.log10(1e-3), math.log10(30.0), 25)
    worst = 0.0
    for order in [0, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 7, 8]:
        mine = bessel_k(order, radii)
        for r, v in zip(radii, mine):
            ref = float(mp.besselk(order, mp.mpf(float(r))))
            worst = max(worst, abs(v - ref) / abs(ref))
    bessel_ok = worst <= 1e-10

    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, size=(100, 2))
    theta = rng.uniform(0, 2 * math.pi, size=100)
    rr = rng.uniform(0.05, 2.0, size=100)
    y = x + rr[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])

    def fd_lap(f, at, h):
        total = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            total += (-f(at + 2 * e) + 16 * f(at + e) - 30 * f(at)
                      + 16 * f(at - e) - f(at - 2 * e)) / (12 * h * h)
        return total

    spec = KernelSpec(m=4, d=2)
    lap_scale = abs(laplacian_y(spec, np.zeros(2), np.zeros(2)))
    bil_scale = abs(bilaplacian(spec, np.zeros(2), np.zeros(2)))
    lap_ok = True
    bil_ok = True
    lap_vals = laplacian_y(spec, x, y)
    bil_vals = bilaplacian(spec, x, y)
    for i in range(100):
        fd1 = fd_lap(lambda yy: kernel_value(spec, x[i], yy), y[i], 1e-3)
        if abs(lap_vals[i] - fd1) > 1e-6 * max(abs(fd1), lap_scale):
            lap_ok = False
        fd2 = fd_lap(lambda xx: fd_lap(lambda yy: kernel_value(spec, xx, yy),
                                       y[i], 1e-2), x[i], 1e-2)
        if abs(bil_vals[i] - fd2) > 1e-4 * max(abs(fd2), bil_scale):
            bil_ok = False
    criterion(8, "Bessel layer vs mpmath and FD oracles",
              bessel_ok and lap_ok and bil_ok,
              f"(worst Bessel rel err {worst:.2e})")


def test_criterion_9_condition_growth(desk_m4):
    t = desk_m4["trace"]
    slope = fit_rate(t.steps, t.cond_c)  # default window: second half
    first = float(np.mean(t.cond_c[:50]))
    last = float(np.mean(t.cond_c[-50:]))
    ok = 0.5 <= slope <= 3.0 and last >= first
    criterion(9, "condition estimate grows like a power of N", ok,
              f"(slope {slope:+.3f}, quartile means {first:.2f} -> {last:.2f})")


def test_criterion_10_determinism(desk_m4, desk_geometry, desk_grid):
    rerun = desk_run(desk_geometry, desk_grid, m=4)
    a, b = desk_m4, rerun
    same_sel = a["state"].selected == b["state"].selected
    dev = max(
        float(np.abs(a["trace"].sigma - b["trace"].sigma).max()),
        float(np.abs(a["trace"].rho - b["trace"].rho).max()),
        float(np.abs(a["trace"].cond_c - b["trace"].cond_c).max()),
    )
    criterion(10, "identical configs give identical runs",
              same_sel and dev <= 1e-12, f"(max trace deviation {dev:.1e})")
