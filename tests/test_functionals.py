import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpstrf

import greedypde.functionals as functionals
from greedypde.engine import run
from greedypde.functionals import (
    BilaplacianTable,
    Functional,
    FunctionalSet,
    GaussianBump,
    PowerCusp,
    apply_to_solution,
    boundary_delta,
    data_vector,
    disk_functional_set,
    domain_op_delta,
    dual_inner,
    dual_inner_column,
    gram,
    read_functionals,
    riesz_value,
    self_inner_column,
    write_functionals,
)
from greedypde.geometry import disk_candidates
from greedypde.kernels import (
    KernelSpec,
    distance,
    kernel_value,
    laplacian_y,
    radial_bilaplacian,
)

SPEC = KernelSpec(m=4, d=2)


def coords(rng, n):
    return rng.uniform(-0.9, 0.9, size=(n, 2))


# ---------------------------------------------------------------------------
# dual inner products


def test_self_inner_values_match_limit_oracles():
    p = (0.3, -0.1)
    b = boundary_delta(p, 0)
    d = domain_op_delta(p, 1)
    assert dual_inner(b, b, SPEC) == pytest.approx(8.0)
    assert dual_inner(d, d, SPEC) == pytest.approx(8.0)


def test_dual_inner_symmetry(rng):
    pts = coords(rng, 12)
    fs = [domain_op_delta(p, i) for i, p in enumerate(pts[:6])]
    fs += [boundary_delta(p, 6 + i) for i, p in enumerate(pts[6:])]
    for a in fs:
        for b in fs:
            assert dual_inner(a, b, SPEC) == dual_inner(b, a, SPEC)


def test_dual_inner_cross_kind_is_laplacian(rng):
    x, z = coords(rng, 2)
    a = domain_op_delta(x, 0)
    b = boundary_delta(z, 1)
    assert dual_inner(a, b, SPEC) == pytest.approx(laplacian_y(SPEC, x, z), rel=1e-14)


def test_riesz_definitions(rng):
    z = np.array([0.4, -0.3])
    x = np.array([-0.1, 0.6])
    assert riesz_value(boundary_delta(z, 0), x, SPEC) == pytest.approx(
        kernel_value(SPEC, z, x), rel=1e-14)
    p = np.array([0.1, 0.1])
    assert riesz_value(domain_op_delta(p, 0), p, SPEC) == pytest.approx(-4.0)


def test_riesz_is_reproduction_of_dual_inner(rng):
    # (delta_x, lam) == v_lam(x) for both kinds
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9, size=2)
        p = rng.uniform(-0.9, 0.9, size=2)
        dx = boundary_delta(x, 0)
        for lam in (boundary_delta(p, 1), domain_op_delta(p, 1)):
            assert dual_inner(dx, lam, SPEC) == pytest.approx(
                riesz_value(lam, x, SPEC), abs=1e-13)


def test_dual_inner_column_matches_scalar_path():
    # exact: the column and the scalar path evaluate the same pure functions
    # of the distance
    geometry = disk_candidates(60, 12)
    fset = disk_functional_set(geometry)
    for spec in (SPEC, KernelSpec(m=6, d=2)):
        for f in (fset[5], fset[len(fset) - 3]):  # a D and a B centre
            expected = np.array([dual_inner(g, f, spec) for g in fset])
            col = dual_inner_column(f, fset, spec)
            assert np.array_equal(col, expected), f.kind
            given_distances = dual_inner_column(f, fset, spec,
                                                distances=distance(fset.points, f.point))
            assert np.array_equal(given_distances, expected), f.kind


def test_shared_table_columns_match_scalar_path():
    # one table through a run of D and B columns, as a greedy run uses it
    geometry = disk_candidates(80, 12)
    fset = disk_functional_set(geometry)
    n_dom = fset.counts[0]
    for spec in (KernelSpec(m=4, d=2, scale=0.8), KernelSpec(m=6, d=2, scale=1.7)):
        table = BilaplacianTable(spec)
        sizes = []
        for i in (5, n_dom + 2, 5, 40, len(fset) - 1, 41):
            f = fset[i]
            expected = np.array([dual_inner(g, f, spec) for g in fset])
            assert np.array_equal(dual_inner_column(f, fset, spec, table), expected), i
            sizes.append(len(table))
        assert sizes[0] > 0
        assert sizes[1] == sizes[0]  # a B column leaves the table alone
        assert sizes[2] == sizes[1]  # the repeated D centre: all hits
        assert sizes[3] > sizes[2]   # a new D centre: fresh misses
        with pytest.raises(ValueError):
            dual_inner_column(fset[5], fset, SPEC, table)


def test_bilaplacian_table_lookup_equals_direct_evaluation(rng):
    # duplicates within and across lookups, t = 0, and growth far past the
    # initial capacity
    spec = KernelSpec(m=6, d=2, scale=1.7)
    table = BilaplacianTable(spec)
    pool = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 3000)])
    seen = set()
    for _ in range(8):
        t = rng.choice(pool, 900)
        assert np.array_equal(table.lookup(t), radial_bilaplacian(spec, t))
        seen.update(t.tolist())
        assert len(table) == len(seen)


def test_bilaplacian_table_evaluates_each_radius_once(monkeypatch):
    evaluated = []

    def counting(spec, t):
        evaluated.extend(np.asarray(t).tolist())
        return radial_bilaplacian(spec, t)

    monkeypatch.setattr(functionals, "radial_bilaplacian", counting)
    fset = disk_functional_set(disk_candidates(300, 30))
    spec = KernelSpec(m=6, d=2)
    table = BilaplacianTable(spec)
    dual_inner_column(fset[7], fset, spec, table)
    first = len(evaluated)
    assert first == len(table) > 0
    dual_inner_column(fset[7], fset, spec, table)
    assert len(evaluated) == first  # a repeated D centre evaluates no radius

    evaluated.clear()
    state, trace = run(fset, spec, n_max=25)
    assert trace.kind.count("D") > 1
    assert len(evaluated) == len(set(evaluated)) == len(state.dd_table)


def test_self_inner_column_matches_scalar_path():
    geometry = disk_candidates(40, 8)
    fset = disk_functional_set(geometry)
    diag = self_inner_column(fset, SPEC)
    expected = np.array([dual_inner(f, f, SPEC) for f in fset])
    assert np.array_equal(diag, expected)


def test_gram_symmetric_and_psd(rng):
    geometry = disk_candidates(200, 30)
    fset = disk_functional_set(geometry)
    idx = rng.choice(len(fset), size=50, replace=False)
    disk = [fset[i] for i in idx]
    # a mixed set in d = 3, where the Bessel orders are not integers
    ball = [(domain_op_delta if k % 2 else boundary_delta)(p, k)
            for k, p in enumerate(rng.uniform(-0.6, 0.6, (20, 3)))]
    for entries, spec in ((disk, SPEC), (disk, KernelSpec(m=6, d=2)),
                          (ball, KernelSpec(m=4, d=3))):
        G = gram(entries, spec)
        # exact: picks at mirror ties depend on these bits
        assert np.array_equal(G, G.T)
        assert np.array_equal(G, [[dual_inner(a, b, spec) for b in entries]
                                  for a in entries])
    # pivoted Cholesky completes through full rank for distinct functionals
    _, _, rank, _ = dpstrf(gram(disk, SPEC), tol=1e-10)
    assert rank == 50


# ---------------------------------------------------------------------------
# assembled disk set


def test_disk_set_counts_and_invariants():
    geometry = disk_candidates(300, 40)
    fset = disk_functional_set(geometry)
    nd, nb = fset.counts
    assert nd == len(geometry.domain_points)
    assert nb == 40
    # boundary entries satisfy the boundary predicate
    bpts = fset.points[~fset.domain_mask]
    assert np.all(np.abs(np.linalg.norm(bpts, axis=1) - 1.0) <= 1e-12)
    # no two functionals are identical
    seen = {(f.kind, f.point) for f in fset}
    assert len(seen) == len(fset)


def test_functional_set_rejects_bad_indices():
    with pytest.raises(ValueError):
        FunctionalSet([boundary_delta((1.0, 0.0), 3)])


def test_disk_functional_set_constructs_no_functional(monkeypatch):
    built = []
    check = Functional.__post_init__

    def counting(self):
        built.append(self.index)
        check(self)

    monkeypatch.setattr(Functional, "__post_init__", counting)
    fset = disk_functional_set(disk_candidates(300, 40))
    assert built == []
    fset[7]
    assert built == [7]  # one entry, built on demand


@pytest.mark.parametrize("n_domain, n_boundary", [(2000, 120), (17570, 150)])
def test_array_set_equals_list_built_set(n_domain, n_boundary):
    geometry = disk_candidates(n_domain, n_boundary)
    fset = disk_functional_set(geometry)
    nd = len(geometry.domain_points)
    listed = [domain_op_delta(p, i) for i, p in enumerate(geometry.domain_points)]
    listed += [boundary_delta(p, nd + i)
               for i, p in enumerate(geometry.boundary_points)]
    ref = FunctionalSet(listed)
    for name in ("points", "domain_mask", "boundary_indices"):
        got, want = getattr(fset, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert fset.counts == ref.counts == (nd, n_boundary)
    for i in (0, nd - 1, nd, -1):
        assert fset[i] == listed[i]
    assert fset[nd - 2: nd + 2] == listed[nd - 2: nd + 2]
    for bad in (len(fset), -len(fset) - 1):
        with pytest.raises(IndexError):
            fset[bad]


def test_functional_rejects_unknown_kind():
    from greedypde.functionals import Functional

    with pytest.raises(ValueError):
        Functional("X", (0.0, 0.0), 0)


# ---------------------------------------------------------------------------
# analytic test solutions


def test_gaussian_bump_laplacian_at_center():
    u = GaussianBump(center=(0.2, -0.6), shape=1.7)
    f = domain_op_delta(u.center, 0)
    assert apply_to_solution(f, u) == pytest.approx(-2 * 2 * 1.7)


def test_power_cusp_laplacian_closed_form():
    u = PowerCusp(center=(0.0, 0.0), exponent=2.5)
    x = np.array([1.0, 0.0])
    assert u.laplacian(x) == pytest.approx(2.5 * 2.5 * 1.0)  # beta(beta+d-2) r^0.5
    assert u.laplacian(np.array([0.0, 0.0])) == pytest.approx(0.0)


def test_power_cusp_singular_center_rejected():
    u = PowerCusp(center=(0.0, 0.0), exponent=1.5)
    with pytest.raises(ValueError):
        u.laplacian(np.zeros(2))


def test_solution_laplacians_match_finite_differences(rng):
    def fd_lap(fun, x, h=1e-3):
        total = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            total += (
                -fun(x + 2 * e) + 16 * fun(x + e) - 30 * fun(x)
                + 16 * fun(x - e) - fun(x - 2 * e)
            ) / (12 * h * h)
        return total

    gauss = GaussianBump(center=(-0.3, 0.1), shape=2.0)
    cusp = PowerCusp(center=(-0.3, 0.1), exponent=2.5)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        assert gauss.laplacian(x) == pytest.approx(fd_lap(gauss.value, x), rel=1e-6)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        if np.linalg.norm(x - np.array(cusp.center)) < 0.2:
            continue  # FD stencil would straddle the cusp
        assert cusp.laplacian(x) == pytest.approx(fd_lap(cusp.value, x), rel=1e-6)


def test_apply_to_solution_by_kind():
    u = GaussianBump(center=(0.0, 0.0), shape=1.0)
    z = (0.5, 0.5)
    assert apply_to_solution(boundary_delta(z, 0), u) == pytest.approx(
        math.exp(-0.5))
    got = apply_to_solution(domain_op_delta(z, 0), u)
    r2 = 0.5
    assert got == pytest.approx((4 * r2 - 4) * math.exp(-r2))


def test_data_vector_matches_scalar_application(rng):
    geometry = disk_candidates(50, 10)
    fset = disk_functional_set(geometry)
    u = GaussianBump(center=(0.1, 0.2), shape=1.0)
    idx = rng.choice(len(fset), size=20, replace=False)
    vec = data_vector(fset, idx, u)
    expected = np.array([apply_to_solution(fset[i], u) for i in idx])
    assert np.allclose(vec, expected, rtol=1e-14)


# ---------------------------------------------------------------------------
# serialization


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(
        st.booleans(),
        st.tuples(*[st.floats(min_value=-1, max_value=1, allow_nan=False)] * d),
    ),
    min_size=0, max_size=20,
)))
@example([])
@example([(True, (0.1, -0.2, 1 / 3)), (False, (-1.0, 0.5, 2**-40))])
def test_functional_round_trip(tmp_path_factory, records):
    # any dimension d, and no functionals at all (an empty file)
    entries = []
    for is_boundary, point in records:
        make = boundary_delta if is_boundary else domain_op_delta
        entries.append(make(point, len(entries)))
    path = tmp_path_factory.mktemp("io") / "funcs.txt"
    write_functionals(path, entries)
    back = read_functionals(path)
    assert len(back) == len(entries)
    for f, g in zip(entries, back):
        assert f.kind == g.kind
        assert f.point == g.point  # exact float round trip
        assert f.index == g.index
