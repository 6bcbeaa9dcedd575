import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedypde.analysis import condition_estimate, fit_rate, singular_values
from greedypde.errors import NumericalError


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_exact_power_law():
    xs = np.arange(1, 101, dtype=float)
    assert fit_rate(xs, xs**-2.0, window=(1, 100)) == pytest.approx(-2.0, abs=1e-12)


def test_fit_rate_constant_series():
    xs = np.arange(1, 51, dtype=float)
    assert fit_rate(xs, np.full(50, 3.7), window=(1, 50)) == pytest.approx(0.0, abs=1e-13)


def test_fit_rate_noisy_half_power(rng):
    xs = np.arange(1, 201, dtype=float)
    ys = 2.3 * xs**-0.5 * (1 + 0.01 * rng.standard_normal(200))
    assert fit_rate(xs, ys, window=(1, 200)) == pytest.approx(-0.5, abs=0.05)


def test_fit_rate_default_window_is_second_half():
    xs = np.arange(1, 101, dtype=float)
    ys = np.where(xs <= 50, 1.0, xs**-1.0 * 50.0)  # flat early, -1 late
    assert fit_rate(xs, ys) == pytest.approx(fit_rate(xs, ys, window=(50, 100)))


def test_fit_rate_window_is_inclusive_at_both_ends():
    # a rate -1 law with the samples at 3 and 10 moved off it: the window
    # [3, 10] fits both of them, and [4, 9] neither
    xs = np.arange(1, 16, dtype=float)
    ys = 1.0 / xs
    ys[[2, 9]] *= (2.0, 0.5)
    inside = slice(2, 10)
    expected = np.polyfit(np.log(xs[inside]), np.log(ys[inside]), 1)[0]
    assert fit_rate(xs, ys, window=(3, 10)) == expected
    assert fit_rate(xs, ys, window=(4, 9)) == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_errors():
    xs = np.arange(1, 21, dtype=float)
    with pytest.raises(ValueError):
        fit_rate(xs, np.concatenate([np.ones(19), [0.0]]), window=(1, 20))
    with pytest.raises(ValueError):
        fit_rate(xs, np.ones(20), window=(1, 4))  # fewer than 5 samples


def test_fit_rate_ignores_nan_entries():
    xs = np.arange(1, 41, dtype=float)
    ys = xs**-1.5
    ys[::4] = np.nan
    assert fit_rate(xs, ys, window=(1, 40)) == pytest.approx(-1.5, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_fit_rate_invariant_under_positive_scaling(c):
    xs = np.arange(1, 31, dtype=float)
    ys = xs**-0.8
    assert fit_rate(xs, c * ys, window=(1, 30)) == pytest.approx(
        fit_rate(xs, ys, window=(1, 30)), abs=1e-9)


# ---------------------------------------------------------------------------
# condition_estimate


def test_condition_identity():
    assert condition_estimate(np.eye(7)) == pytest.approx(1.0)


def test_condition_diagonal_exact():
    # ||C||_1 * ||C^{-1}||_1 = 10 * 1; Hager is exact on diagonal matrices
    assert condition_estimate(np.diag([1.0, 10.0])) == pytest.approx(10.0)
    assert condition_estimate(np.diag([0.1, 10.0])) == pytest.approx(100.0)


def test_condition_within_factor_three_of_exact(rng):
    for _ in range(20):
        n = 20
        L = np.tril(rng.uniform(-1, 1, size=(n, n)))
        L[np.diag_indices(n)] = rng.uniform(1.0, 2.0, size=n)
        exact = np.abs(L).sum(0).max() * np.abs(np.linalg.inv(L)).sum(0).max()
        est = condition_estimate(L)
        assert est <= exact * (1 + 1e-12)  # estimator never exceeds the true value
        assert est >= exact / 3.0


def _hager_through_solve_triangular(tri, max_iter=5):
    """Reference Hager iteration on scipy.linalg.solve_triangular."""
    from scipy.linalg import solve_triangular

    n = tri.shape[0]
    x = np.full(n, 1.0 / n)
    best = 0.0
    for _ in range(max_iter):
        y = solve_triangular(tri, x, lower=True)
        best = max(best, float(np.abs(y).sum()))
        xi = np.where(y >= 0.0, 1.0, -1.0)
        z = solve_triangular(tri, xi, lower=True, trans="T")
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    return best


def test_condition_estimate_equals_solve_triangular_bits(rng, small_run):
    mats = [small_run["state"].c_matrix()]
    for n in (1, 2, 9, 60):
        L = np.tril(rng.standard_normal((n, n)))
        L[np.diag_indices(n)] = rng.uniform(0.05, 2.0, size=n) * rng.choice([-1.0, 1.0], n)
        mats.append(L)
    for L in mats:
        norm1 = float(np.abs(L).sum(axis=0).max())
        assert condition_estimate(L) == norm1 * _hager_through_solve_triangular(L)


def test_condition_estimate_of_an_inverse_needs_the_norm_of_c():
    L = np.tril(np.ones((3, 3)))
    with pytest.raises(ValueError):
        condition_estimate(L, inverse=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_condition_estimate_of_an_inverse_rejects_non_finite(bad):
    # norm1 is that of C, so the bad entry of C^{-1} shows in the probes
    L = np.tril(np.ones((3, 3)))
    L[2, 0] = bad
    with pytest.raises(NumericalError):
        condition_estimate(L, 1.0, inverse=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_condition_rejects_non_finite(bad):
    L = np.tril(np.ones((3, 3)))
    L[2, 0] = bad
    with pytest.raises(ValueError):
        condition_estimate(L)
    # a known 1-norm carries the bad entry through its column sum
    with pytest.raises(ValueError):
        condition_estimate(L, float(np.abs(L).sum(axis=0).max()))


def test_condition_singular_and_shape_errors():
    with pytest.raises(NumericalError):
        condition_estimate(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        condition_estimate(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# singular_values


def test_singular_values_of_scaled_orthonormal_rows():
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
    M = np.diag([3.0, 2.0, 1.0]) @ q[:3]
    assert np.allclose(singular_values(M), [3.0, 2.0, 1.0], atol=1e-8)


def test_singular_values_rank_one():
    u = np.array([1.0, 2.0, -2.0])
    v = np.array([0.5, 0.5, 0.5, 0.5])
    s = singular_values(np.outer(u, v))
    assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    assert np.all(s[1:] <= 1e-10 * s[0])


def test_singular_values_against_lapack(rng):
    for shape in [(8, 8), (5, 12), (12, 5), (1, 7)]:
        M = rng.standard_normal(shape)
        mine = singular_values(M)
        ref = np.linalg.svd(M, compute_uv=False)
        assert np.allclose(mine, ref, rtol=1e-8, atol=1e-10)


def test_singular_values_transpose_agreement(rng):
    M = rng.standard_normal((7, 15))
    assert np.allclose(singular_values(M), singular_values(M.T), atol=1e-8)


def test_singular_values_shape_errors():
    with pytest.raises(ValueError):
        singular_values(np.ones(3))
    assert singular_values(np.zeros((0, 4))).size == 0


def test_desk_basis_singular_value_decay(desk_m4_basis):
    # full-scale runs show roughly N^-2.4; at desk scale assert <= -1.5
    sv = singular_values(desk_m4_basis.values)
    idx = np.arange(1, len(sv) + 1, dtype=float)
    assert fit_rate(idx, sv, window=(5, 150)) <= -1.5
