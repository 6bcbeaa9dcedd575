import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpstrf
from scipy.special import k0, k1, kv

from greedypde import kernels
from greedypde.kernels import (
    KernelSpec,
    bessel_k,
    bilaplacian,
    distance,
    kernel_value,
    laplacian_y,
    radial_kernel,
    radial_stack,
    scaled_distance,
)
from greedypde.engine import init
from greedypde.functionals import (
    boundary_delta,
    disk_functional_set,
    domain_op_delta,
    riesz_value,
)
from greedypde.geometry import disk_candidates
from greedypde.solver import BasisEvaluation, power_on_deltas

SPEC42 = KernelSpec(m=4, d=2, scale=1.0)


# ---------------------------------------------------------------------------
# finite-difference oracles (4th-order central stencils)


def fd_laplacian(f, x, h):
    total = 0.0
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        total += (
            -f(x + 2 * e) + 16 * f(x + e) - 30 * f(x) + 16 * f(x - e) - f(x - 2 * e)
        ) / (12 * h * h)
    return total


def fd_bilaplacian(spec, x, y, h):
    def inner(xx):
        return fd_laplacian(lambda yy: kernel_value(spec, xx, yy), y, h)

    return fd_laplacian(inner, x, h)


def random_pairs(rng, n, lo=0.05, hi=2.0):
    x = rng.uniform(-1, 1, size=(n, 2))
    theta = rng.uniform(0, 2 * math.pi, size=n)
    r = rng.uniform(lo, hi, size=n)
    y = x + r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    return x, y


# ---------------------------------------------------------------------------
# bessel_k


def test_bessel_half_integer_closed_form():
    # K_{1/2}(r) = sqrt(pi/(2 r)) exp(-r)
    assert bessel_k(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-1), rel=1e-13)
    for r in (0.1, 2.3, 7.0):
        assert bessel_k(0.5, r) == pytest.approx(
            math.sqrt(math.pi / (2 * r)) * math.exp(-r), rel=1e-13
        )


def test_bessel_frozen_values():
    # high-precision mpmath values, frozen
    assert bessel_k(0.0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-12)
    assert bessel_k(1.0, 1.0) == pytest.approx(0.60190723019723458, rel=1e-12)
    assert bessel_k(3.0, 2.0) == pytest.approx(0.64738539094863415, rel=1e-12)


def test_bessel_three_term_recurrence_spot():
    # K_3(2) = K_1(2) + (2*2/2) K_2(2)
    lhs = bessel_k(3, 2.0)
    rhs = bessel_k(1, 2.0) + 2.0 * bessel_k(2, 2.0)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_bessel_recurrence_residual_on_log_grid():
    r = np.logspace(-2, math.log10(20.0), 60)
    for mu in (1.0, 2.0, 3.5, 5.0):
        lhs = bessel_k(mu + 1, r)
        rhs = bessel_k(mu - 1, r) + (2 * mu / r) * bessel_k(mu, r)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * lhs)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -2.0)
    with pytest.raises(ValueError):
        bessel_k(-1.0, 1.0)


# ---------------------------------------------------------------------------
# radial stack


def test_stack_limits_at_zero():
    stack = radial_stack(SPEC42, 0.0)
    assert stack.orders == (3.0, 2.0, 1.0, 0.0, -1.0)
    assert stack.values[0] == pytest.approx(8.0)  # 2^2 Gamma(3)
    assert stack.values[2] == pytest.approx(1.0)  # 2^0 Gamma(1)
    assert list(stack.singular) == [False, False, False, True, True]


def test_stack_finite_and_positive_for_positive_radius():
    for r in (1e-6, 0.01, 0.5, 3.0, 10.0):
        stack = radial_stack(SPEC42, r)
        assert np.all(np.isfinite(stack.values))
        assert np.all(stack.values > 0)
        assert not stack.singular.any()


def test_stack_monotone_decreasing_for_positive_orders():
    radii = np.linspace(0.0, 4.0, 40)
    for mu_pos in range(3):  # orders 3, 2, 1 for m=4, d=2
        vals = [radial_stack(SPEC42, r).values[mu_pos] for r in radii]
        assert np.all(np.diff(vals) < 0)


def test_stack_rejects_negative_radius():
    with pytest.raises(ValueError):
        radial_stack(SPEC42, -0.1)


# ---------------------------------------------------------------------------
# the shared Bessel stack against one kv call per order


def _phi_per_order(mu, t):
    out = np.empty_like(t)
    small = t < 1e-8
    out[small] = 2.0 ** (mu - 1.0) * math.gamma(mu) if mu > 0 else np.inf
    tt = t[~small]
    out[~small] = tt**mu * kv(abs(mu), tt)
    return out


def _phi_prefactored_per_order(power, mu, t):
    out = np.zeros_like(t)
    big = t >= 1e-8
    tt = t[big]
    out[big] = tt ** (power + mu) * kv(abs(mu), tt)
    return out


def per_order_evaluators(spec, x, y):
    """kernel_value, laplacian_y and bilaplacian with one kv call per order."""
    t = np.linalg.norm(x - y, axis=-1) / spec.scale
    nu, d = spec.nu, spec.d
    value = _phi_per_order(nu, t)
    lap = (_phi_prefactored_per_order(2, nu - 2, t)
           - d * _phi_per_order(nu - 1, t)) / spec.scale**2
    bilap = (
        _phi_prefactored_per_order(4, nu - 4, t)
        - 2.0 * (d + 2) * _phi_prefactored_per_order(2, nu - 3, t)
        + d * (d + 2) * _phi_per_order(nu - 2, t)
    ) / spec.scale**4
    return value, lap, bilap


# Radii up to 33, so t <= 660 at every scale: above t = 664.87 kv rescales
# against underflow and no longer rounds like the stack, and is no reference
# there (test_kv_seeded_point_forms_match_mpmath_far_out covers that range).
@given(m=st.integers(min_value=4, max_value=9), d=st.sampled_from([1, 2, 3]),
       scale=st.sampled_from([0.05, 1.0, 3.0]),
       radii=st.lists(st.floats(min_value=1e-8, max_value=33.0), max_size=20),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
# t up to the cap at 660, and t around the limit radius
@example(m=9, d=2, scale=0.05, radii=[30.5, 32.5, 33.0], seed=0)
@example(m=4, d=2, scale=3.0, radii=[1e-8, 2.9e-8, 3.1e-8], seed=1)
def test_stack_equals_per_order_kv_exactly(m, d, scale, radii, seed):
    spec = KernelSpec(m=m, d=d, scale=scale)
    # hypothesis favours round radii, on which differently rounded recurrences
    # can agree; the log-uniform draw supplies generic ones
    rng = np.random.default_rng(seed)
    spread = np.exp(rng.uniform(math.log(1e-8), math.log(33.0), 200))
    r = np.concatenate([[0.0], radii, spread])  # t = 0 takes the analytic limits
    x = np.zeros((len(r), d))
    y = np.zeros((len(r), d))
    y[:, 0] = r
    expected = per_order_evaluators(spec, x, y)
    for fn, want in zip((kernel_value, laplacian_y, bilaplacian), expected):
        assert np.array_equal(fn(spec, x, y), want), fn.__name__


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scaled_distance_equals_norm_exactly(rng, d):
    # point sets, single points and the broadcast pairs gram() forms
    spec = KernelSpec(m=5, d=d, scale=0.7)
    x = rng.uniform(-1, 1, size=(40, d))
    y = rng.uniform(-1, 1, size=(40, d))
    pairs = ((x, y), (x, y[3]), (y[3], x), (x[5], y[7]),
             (x[:, None, :], y[None, :, :]), (x[:, None, :], x[None, :, :]))
    for a, b in pairs:
        norm = np.linalg.norm(a - b, axis=-1)
        assert np.array_equal(distance(a, b), norm)
        assert np.array_equal(scaled_distance(spec, a, b), norm / spec.scale)
    with pytest.raises(ValueError):
        distance(x, y[:, 1:])


@pytest.mark.parametrize("m", [4, 6])
def test_kv_calls_per_evaluation(monkeypatch, rng, m):
    calls = []

    def counting_kv(order, t):
        calls.append(order)
        return kv(order, t)

    monkeypatch.setattr(kernels, "kv", counting_kv)
    spec = KernelSpec(m=m, d=2)
    x, y = random_pairs(rng, 200)
    for fn in (kernel_value, laplacian_y, bilaplacian):
        calls.clear()
        fn(spec, x, y)
        assert sorted(calls) == [0, 1], (fn.__name__, calls)


# ---------------------------------------------------------------------------
# the representer rows' stack, seeded with Cephes k0/k1


def representer_rows(spec, x, centre):
    """riesz_value of a boundary delta and an operator delta at `centre`,
    over the points x."""
    return (riesz_value(boundary_delta(centre, 0), x, spec),
            riesz_value(domain_op_delta(centre, 1), x, spec))


def _cephes_recurrence(top, t):
    """K_0..K_top on t > 0: k0/k1 seeds climbed by K_{n+1} = ck K_n + K_{n-1}
    with ck accumulated as rz, rz + rz, ..."""
    ks = [k0(t), k1(t)]
    rz = 2.0 / t
    ck = rz
    for _ in range(top - 1):
        ks.append(ck * ks[-1] + ks[-2])
        ck = ck + rz
    return ks


@given(m=st.integers(min_value=4, max_value=9),
       scale=st.sampled_from([0.05, 1.0, 3.0]),
       radii=st.lists(st.floats(min_value=1e-8, max_value=50.0), max_size=20),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
# t past where kv rescales against underflow (664.87), and t around the
# limit radius
@example(m=9, scale=0.05, radii=[30.5, 33.0, 34.0], seed=0)
@example(m=4, scale=3.0, radii=[1e-8, 2.9e-8, 3.1e-8], seed=1)
def test_representer_rows_equal_cephes_recurrence_exactly(m, scale, radii, seed):
    spec = KernelSpec(m=m, d=2, scale=scale)
    rng = np.random.default_rng(seed)
    spread = np.exp(rng.uniform(math.log(1e-8), math.log(50.0), 200))
    r = np.concatenate([[0.0], radii, spread])  # t = 0 takes the analytic limits
    theta = rng.uniform(0, 2 * math.pi, len(r))
    centre = rng.uniform(-1, 1, 2)
    x = centre + r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    t = scaled_distance(spec, x, centre)
    big = t >= 1e-8
    tt = t[big]
    nu = spec.nu
    ks = _cephes_recurrence(m - 1, tt)
    value = np.full_like(t, 2.0 ** (nu - 1) * math.gamma(nu))
    value[big] = tt**nu * ks[m - 1]
    a = np.zeros_like(t)
    a[big] = tt ** (2 + nu - 2) * ks[m - 3]
    b = np.full_like(t, 2.0 ** (nu - 2) * math.gamma(nu - 1))
    b[big] = tt ** (nu - 1) * ks[m - 2]
    lap = (a - 2 * b) / scale**2
    got_value, got_lap = representer_rows(spec, x, centre)
    assert np.array_equal(got_value, value)
    assert np.array_equal(got_lap, lap)


def _mpmath_bessel_k(tv, top=8):
    """(t, [K_0(t), ..., K_top(t)]) in mpmath's working precision: mpmath
    seeds climbed by the upward recurrence, which is stable for K."""
    import mpmath

    tm = mpmath.mpf(float(tv))
    ks = [mpmath.besselk(0, tm), mpmath.besselk(1, tm)]
    for n in range(1, top):
        ks.append(ks[n - 1] + 2 * n / tm * ks[n])
    return tm, ks


def test_representer_rows_match_mpmath():
    """Against 40-digit mpmath for m = 4..9: the kernel row within 2e-15
    relative, the Laplacian row within 2e-15 of |t^2 phi_{nu-2}| +
    d |phi_{nu-1}| (its terms' magnitudes, which cancel near the sign
    change), on log-uniform radii and a few on (660, 705], where kv is off by
    up to 5.7e-14 and from t = 697.9 on returns 0."""
    import mpmath

    rng = np.random.default_rng(14)
    worst_value = worst_lap = 0.0
    with mpmath.workdps(40):
        for scale in (0.05, 1.0, 3.0):
            t_draw = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(600.0), 20)),
                                     705.0 - rng.uniform(0.0, 45.0, 3)])
            theta = rng.uniform(0, 2 * math.pi, len(t_draw))
            x = scale * t_draw[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
            centre = np.zeros(2)
            t = scaled_distance(KernelSpec(m=4, d=2, scale=scale), x, centre)
            exact = [_mpmath_bessel_k(tv) for tv in t]
            for m in range(4, 10):
                spec = KernelSpec(m=m, d=2, scale=scale)
                nu = m - 1
                got_value, got_lap = representer_rows(spec, x, centre)
                for (tm, ks), v, lap in zip(exact, got_value, got_lap):
                    phi = [tm**mu * ks[mu] for mu in range(nu + 1)]
                    want = phi[nu]
                    worst_value = max(worst_value, float(abs(v - want) / want))
                    a, b = tm**2 * phi[nu - 2], 2 * phi[nu - 1]
                    err = abs(lap * scale**2 - (a - b)) / (abs(a) + abs(b))
                    worst_lap = max(worst_lap, float(err))
    assert worst_value <= 2e-15
    assert worst_lap <= 2e-15


def test_kv_seeded_point_forms_match_mpmath_far_out():
    """On t in (664, 697], across where kv starts rescaling against
    underflow (664.87) and is off by up to 5.7e-14 relative from there
    (per-order kv calls and the kv-seeded stack alike), kernel_value,
    laplacian_y and bilaplacian for m = 4..9 are within 1e-13 of the sum of
    their terms' magnitudes against 40-digit mpmath."""
    import mpmath

    rng = np.random.default_rng(18)
    worst = {}
    with mpmath.workdps(40):
        for scale in (0.05, 1.0, 3.0):
            t_draw = 697.0 - rng.uniform(0.0, 33.0, 5)
            theta = rng.uniform(0, 2 * math.pi, len(t_draw))
            x = scale * t_draw[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
            centre = np.zeros(2)
            t = scaled_distance(KernelSpec(m=4, d=2, scale=scale), x, centre)
            exact = [_mpmath_bessel_k(tv) for tv in t]
            for m in range(4, 10):
                spec = KernelSpec(m=m, d=2, scale=scale)
                nu, d = m - 1, 2
                # (evaluator, scale power, [(coefficient, t power, order)])
                forms = (
                    (kernel_value, 0, [(1, 0, nu)]),
                    (laplacian_y, 2, [(1, 2, nu - 2), (-d, 0, nu - 1)]),
                    (bilaplacian, 4, [(1, 4, nu - 4), (-2 * (d + 2), 2, nu - 3),
                                      (d * (d + 2), 0, nu - 2)]),
                )
                for fn, sp, terms in forms:
                    got = fn(spec, x, centre)
                    for (tm, ks), g in zip(exact, got):
                        parts = [c * tm ** (p + mu) * ks[abs(mu)] for c, p, mu in terms]
                        err = abs(g * scale**sp - sum(parts)) / sum(abs(v) for v in parts)
                        worst[fn.__name__] = max(worst.get(fn.__name__, 0.0), float(err))
    assert max(worst.values()) <= 1e-13, worst


@pytest.mark.parametrize("m", [4, 6])
def test_representer_row_seeds_with_k0_and_k1_only(monkeypatch, rng, m):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(kernels, "kv", counting("kv", kv))
    monkeypatch.setattr(kernels, "k0", counting("k0", k0))
    monkeypatch.setattr(kernels, "k1", counting("k1", k1))
    for scale in (0.05, 1.0):
        spec = KernelSpec(m=m, d=2, scale=scale)
        # radii up to nearly 600 scale, and the centre itself (t = 0)
        x = np.concatenate([rng.uniform(-1, 1, size=(200, 2)), [[0.0, 599.0 * scale]],
                            np.zeros((1, 2))])
        for f in (boundary_delta((0.0, 0.0), 0), domain_op_delta((0.0, 0.0), 1)):
            assert np.all(np.isfinite(riesz_value(f, x, spec)))
            assert sorted(calls) == ["k0", "k1"]
            calls.clear()


@pytest.mark.parametrize("m", [4, 6])
def test_kernel_on_the_diagonal_calls_no_kv(monkeypatch, m):
    # K(x, x) is the analytic limit 2^(nu-1) Gamma(nu): a solve from stored
    # basis values needs it for the power function and must not load SciPy
    calls = []
    monkeypatch.setattr(kernels, "kv", lambda order, t: calls.append(order))
    spec = KernelSpec(m=m, d=2)
    kxx = 2.0 ** (spec.nu - 1) * math.gamma(spec.nu)
    origin = np.zeros(2)
    assert radial_kernel(spec, 0.0) == kxx
    assert kernel_value(spec, origin, origin) == kxx
    state = init(disk_functional_set(disk_candidates(20, 8)), spec)
    values = np.array([[0.5, -1.0, 0.0]])
    basis = BasisEvaluation(points=np.zeros((3, 2)), values=values)
    assert np.array_equal(power_on_deltas(state, basis), kxx - values[0] ** 2)
    assert calls == []


# ---------------------------------------------------------------------------
# kernel values


def test_kernel_at_coincident_points():
    assert kernel_value(SPEC42, np.zeros(2), np.zeros(2)) == pytest.approx(8.0)


def test_kernel_at_unit_distance_is_k3():
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    assert kernel_value(SPEC42, x, y) == pytest.approx(bessel_k(3.0, 1.0), rel=1e-14)


def test_kernel_symmetry(rng):
    x, y = random_pairs(rng, 50)
    assert np.allclose(kernel_value(SPEC42, x, y), kernel_value(SPEC42, y, x),
                       rtol=0, atol=0)


def test_kernel_positive_definite_sample(rng):
    pts = rng.uniform(-1, 1, size=(10, 2))
    K = kernel_value(SPEC42, pts[:, None, :], pts[None, :, :])
    _, _, rank, _ = dpstrf(K)  # pivoted Cholesky
    assert rank == 10


# ---------------------------------------------------------------------------
# Laplacians vs finite differences


def test_laplacian_at_coincident_points():
    assert laplacian_y(SPEC42, np.zeros(2), np.zeros(2)) == pytest.approx(-4.0)


def test_laplacian_negative_at_center_for_valid_specs():
    for m, d in [(4, 2), (5, 2), (6, 2), (5, 3), (4, 1)]:
        spec = KernelSpec(m=m, d=d)
        assert laplacian_y(spec, np.zeros(d), np.zeros(d)) < 0


def test_laplacian_matches_finite_differences(rng):
    x, y = random_pairs(rng, 100)
    for spec in (SPEC42, KernelSpec(m=6, d=2)):
        vals = laplacian_y(spec, x, y)
        # rel 1e-6 with an absolute floor at the operator's r=0 magnitude:
        # the FD oracle has an absolute truncation floor, so a pure relative
        # comparison is meaningless at the sign changes of the Laplacian
        scale = abs(laplacian_y(spec, np.zeros(2), np.zeros(2)))
        for i in range(len(x)):
            fd = fd_laplacian(lambda yy: kernel_value(spec, x[i], yy), y[i], 1e-3)
            assert abs(vals[i] - fd) <= 1e-6 * max(abs(fd), scale)


def test_bilaplacian_at_coincident_points():
    assert bilaplacian(SPEC42, np.zeros(2), np.zeros(2)) == pytest.approx(8.0)


def test_bilaplacian_matches_nested_finite_differences(rng):
    x, y = random_pairs(rng, 100)
    for spec in (SPEC42, KernelSpec(m=6, d=2)):
        vals = bilaplacian(spec, x, y)
        scale = abs(bilaplacian(spec, np.zeros(2), np.zeros(2)))
        for i in range(len(x)):
            fd = fd_bilaplacian(spec, x[i], y[i], 1e-2)
            assert abs(vals[i] - fd) <= 1e-4 * max(abs(fd), scale)


def test_bilaplacian_symmetry(rng):
    x, y = random_pairs(rng, 30)
    assert np.allclose(bilaplacian(SPEC42, x, y), bilaplacian(SPEC42, y, x),
                       rtol=0, atol=0)


# ---------------------------------------------------------------------------
# scale covariance


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1),
       st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1))
def test_scale_covariance(s, x0, x1, y0, y1):
    scaled = KernelSpec(m=4, d=2, scale=s)
    x = np.array([x0, x1])
    y = np.array([y0, y1])
    assert kernel_value(scaled, x, y) == pytest.approx(
        kernel_value(SPEC42, x / s, y / s), rel=1e-12)
    assert laplacian_y(scaled, x, y) == pytest.approx(
        laplacian_y(SPEC42, x / s, y / s) / s**2, rel=1e-12)
    assert bilaplacian(scaled, x, y) == pytest.approx(
        bilaplacian(SPEC42, x / s, y / s) / s**4, rel=1e-12)


# ---------------------------------------------------------------------------
# KernelSpec validation


def test_spec_rejects_low_smoothness():
    with pytest.raises(ValueError, match="2 \\+ d/2"):
        KernelSpec(m=3, d=2)


def test_spec_rejects_bad_scale_and_dimension():
    with pytest.raises(ValueError):
        KernelSpec(m=4, d=2, scale=0.0)
    with pytest.raises(ValueError):
        KernelSpec(m=4, d=0)
