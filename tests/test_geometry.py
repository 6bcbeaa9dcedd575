import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedypde.geometry import (
    disk_candidates,
    evaluation_grid,
    fill_distance,
    read_points,
    write_points,
)


def test_boundary_points_are_equispaced_angles():
    geo = disk_candidates(100, 150)
    ang = 2 * math.pi * np.arange(150) / 150
    expected = np.column_stack([np.cos(ang), np.sin(ang)])
    assert np.array_equal(geo.boundary_points, expected)


def test_domain_count_within_one_percent_of_target():
    for target in (2000, 17570):
        geo = disk_candidates(target, 10)
        assert abs(len(geo.domain_points) - target) <= 0.01 * target


def test_candidate_invariants():
    geo = disk_candidates(500, 64)
    assert np.all(np.linalg.norm(geo.domain_points, axis=1) <= 1 + 1e-12)
    assert np.all(np.abs(np.linalg.norm(geo.boundary_points, axis=1) - 1) <= 1e-12)
    assert geo.on_boundary(geo.boundary_points).all()
    assert len(geo.boundary_points) == 64


def test_counts_validation():
    with pytest.raises(ValueError):
        disk_candidates(0, 10)
    with pytest.raises(ValueError):
        disk_candidates(10, 0)


# ---------------------------------------------------------------------------
# fill distance


def test_fill_distance_zero_when_selected_equals_reference(rng):
    pts = rng.uniform(-1, 1, size=(40, 2))
    assert fill_distance(pts, pts) == 0.0


def test_fill_distance_origin_vs_circle():
    geo = disk_candidates(10, 200)
    h = fill_distance(np.zeros((1, 2)), geo.boundary_points)
    assert h == pytest.approx(1.0, abs=1e-12)


def test_fill_distance_empty_selected_returns_diameter():
    geo = disk_candidates(10, 100)
    # antipodal pairs exist for an even count, so the diameter is exactly 2
    assert fill_distance([], geo.boundary_points) == pytest.approx(2.0, abs=1e-12)


def test_fill_distance_monotone_under_growing_selection(rng):
    reference = rng.uniform(-1, 1, size=(200, 2))
    pool = rng.uniform(-1, 1, size=(30, 2))
    values = [fill_distance(pool[: k + 1], reference) for k in range(len(pool))]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def _qhull_diameter(points):
    """The diameter over scipy's convex hull vertices, or over all points
    when Qhull rejects a degenerate set."""
    from scipy.spatial import ConvexHull, QhullError

    if len(points) < 2:
        return 0.0
    try:
        vs = points[ConvexHull(points).vertices]
    except QhullError:
        vs = points
    diff = vs[:, None, :] - vs[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())


_coordinate = st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False)
_random_sets = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=60)
# lattice points i*h, clipped or not, as the candidate grids are built
_lattice_sets = st.builds(
    lambda ij, h: [(i * h, j * h) for i, j in ij],
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=80),
    st.floats(1e-3, 10.0),
)
# exactly collinear: integer base and direction, integer steps
_collinear_sets = st.builds(
    lambda base, step, ks: [(base[0] + k * step[0], base[1] + k * step[1]) for k in ks],
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.lists(st.integers(-40, 40), min_size=1, max_size=40),
)


@settings(max_examples=300)
@given(st.one_of(_random_sets, _lattice_sets, _collinear_sets))
def test_empty_selection_diameter_equals_qhull_bits(points):
    points = np.array(points, dtype=float)
    assert fill_distance([], points) == _qhull_diameter(points)


def test_empty_selection_diameter_of_candidate_sets():
    for target in (300, 2000, 17570):
        geo = disk_candidates(target, 150)
        for points in (geo.domain_points, geo.boundary_points):
            assert fill_distance([], points) == _qhull_diameter(points)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=20, max_value=300))
def test_equispaced_boundary_fill_distance_near_pi_over_n(n):
    geo = disk_candidates(10, n)
    dense = disk_candidates(10, 40 * n).boundary_points
    h = fill_distance(geo.boundary_points, dense)
    assert h == pytest.approx(math.pi / n, rel=0.01)


# ---------------------------------------------------------------------------
# evaluation grid


def test_evaluation_grid_composition():
    geo = disk_candidates(100, 30)
    grid = evaluation_grid(geo, 0.025)
    assert len(grid) == grid.n_interior + 30
    assert 4000 <= grid.n_interior <= 6000  # ~pi / 0.025^2
    assert np.array_equal(grid.boundary_points, geo.boundary_points)
    assert np.all(np.linalg.norm(grid.interior_points, axis=1) <= 1 + 1e-12)


def test_evaluation_grid_rejects_bad_spacing():
    geo = disk_candidates(100, 30)
    with pytest.raises(ValueError):
        evaluation_grid(geo, 0.0)


def test_point_list_round_trip(tmp_path, rng):
    pts = rng.uniform(-1, 1, size=(25, 2))
    path = tmp_path / "points.txt"
    write_points(path, pts)
    back = read_points(path)
    assert np.array_equal(back, pts)
