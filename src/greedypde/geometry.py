"""Unit-disk candidate geometry, evaluation grids and fill distances.

scipy.spatial loads inside fill_distance once something is selected, which
a greedy run never asks for; the empty-selection diameter finds the convex
hull in numpy, so `build`, `solve` and `report` run without scipy.spatial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DiskGeometry:
    """Candidate points for the closed unit disk.

    domain_points: square grid clipped to ||x|| <= 1;
    boundary_points: equispaced points on the unit circle.
    """

    domain_points: np.ndarray
    boundary_points: np.ndarray

    def on_boundary(self, points, tol: float = BOUNDARY_TOL) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(np.linalg.norm(pts, axis=-1) - 1.0) <= tol


def _disk_grid(spacing: float) -> np.ndarray:
    k = int(math.floor(1.0 / spacing))
    coords = np.arange(-k, k + 1) * spacing
    X, Y = np.meshgrid(coords, coords)
    mask = X**2 + Y**2 <= 1.0 + BOUNDARY_TOL
    return np.column_stack([X[mask], Y[mask]])


def disk_candidates(target_domain_count: int, target_boundary_count: int) -> DiskGeometry:
    """Deterministic candidate sets sized to the targets.

    Domain points come from a square grid of spacing sqrt(pi / target)
    intersected with the closed disk, which lands within 1% of the target;
    boundary points sit at angles 2*pi*k/n.
    """
    if target_domain_count < 1 or target_boundary_count < 1:
        raise ValueError("candidate counts must be >= 1")
    domain = _disk_grid(math.sqrt(math.pi / target_domain_count))
    return DiskGeometry(domain_points=domain,
                        boundary_points=circle_points(target_boundary_count))


def circle_points(count: int) -> np.ndarray:
    """The boundary sample of disk_candidates: count points on the unit
    circle at angles 2*pi*k/count."""
    ang = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of 2-D points, by Andrew's monotone
    chain; points inside an edge are not vertices, so a collinear set gives
    its two ends."""
    p = points[np.lexsort((points[:, 1], points[:, 0]))]
    # of the points sharing an x, only the lowest and the highest can be
    # vertices, which leaves a lattice's chain a few hundred points
    new_x = p[1:, 0] != p[:-1, 0]
    p = p[np.r_[True, new_x] | np.r_[new_x, True]]
    pts = p.tolist()

    def half(seq):
        chain = []
        for q in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], q) <= 0.0:
                chain.pop()
            chain.append(q)
        return chain[:-1]

    return np.array(half(pts) + half(pts[::-1]))


def _diameter(points: np.ndarray) -> float:
    if points.shape[-1] != 2:
        raise ValueError(f"the diameter needs 2-D points, got shape {points.shape}")
    if len(points) < 2:
        return 0.0
    vs = _hull_vertices(points)
    diff = vs[:, None, :] - vs[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())


def fill_distance(selected, reference) -> float:
    """max over reference of the distance to the nearest selected point;
    falls back to the diameter of the (2-D) reference when nothing is
    selected yet."""
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    selected = np.asarray(selected, dtype=float)
    if selected.size == 0:
        return _diameter(reference)
    from scipy.spatial import cKDTree

    selected = np.atleast_2d(selected)
    dist, _ = cKDTree(selected).query(reference)
    return float(np.max(dist))


@dataclass(frozen=True)
class EvalGrid:
    """Point set for power-function and error evaluation: a disk grid
    followed by the boundary sample."""

    points: np.ndarray
    n_interior: int

    @property
    def interior_points(self) -> np.ndarray:
        return self.points[: self.n_interior]

    @property
    def boundary_points(self) -> np.ndarray:
        return self.points[self.n_interior:]

    def __len__(self) -> int:
        return len(self.points)


def evaluation_grid(geometry: DiskGeometry, spacing: float) -> EvalGrid:
    """Regular grid of the given spacing clipped to the closed disk, plus the
    geometry's boundary sample."""
    if spacing <= 0:
        raise ValueError("grid spacing must be positive")
    interior = _disk_grid(spacing)
    pts = np.vstack([interior, geometry.boundary_points])
    return EvalGrid(points=pts, n_interior=len(interior))


def write_points(path, points) -> None:
    """Plain point list, one 'x1 ... xd' line per point."""
    np.savetxt(path, np.atleast_2d(np.asarray(points, dtype=float)), fmt="%.17g",
               delimiter=" ")


def read_points(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(c) for c in line.split()])
    return np.array(rows, dtype=float)
