import numpy as np
import pytest
from hypothesis import settings

from greedypde import (
    KernelSpec,
    disk_candidates,
    disk_functional_set,
    evaluate_basis,
    evaluation_grid,
    run,
)

# Property tests without an explicit @settings: no deadline, because the
# first example pays numpy/scipy warm-up and timings on a loaded 2-core
# machine vary, and a fixed example count so the suite's run time is fixed.
settings.register_profile("greedypde", deadline=None, max_examples=40)
settings.load_profile("greedypde")

# desk-scale experiment shape: scaled-down counts, 200 steps
DESK = dict(domain=2000, boundary=120, n_max=200, spacing=0.025)


@pytest.fixture(scope="session")
def small_run():
    """Mid-size disk run shared by engine and solver tests: ~500 domain and
    60 boundary candidates, m=4, 60 steps."""
    geometry = disk_candidates(500, 60)
    fset = disk_functional_set(geometry)
    spec = KernelSpec(m=4, d=2)
    grid = evaluation_grid(geometry, 0.06)
    state, trace = run(fset, spec, mode="standard", n_max=60, eval_grid=grid)
    return dict(geometry=geometry, fset=fset, spec=spec, grid=grid,
                state=state, trace=trace)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# desk-scale session fixtures (acceptance suite and trend tests)


@pytest.fixture(scope="session")
def desk_geometry():
    return disk_candidates(DESK["domain"], DESK["boundary"])


@pytest.fixture(scope="session")
def desk_grid(desk_geometry):
    return evaluation_grid(desk_geometry, DESK["spacing"])


def desk_run(geometry, grid, m, mode="standard"):
    fset = disk_functional_set(geometry)
    spec = KernelSpec(m=m, d=2)
    y_indices = np.unique(np.linspace(0, grid.n_interior - 1, 1000).astype(int))
    state, trace = run(fset, spec, mode=mode, n_max=DESK["n_max"],
                       stop_tol=1e-12, eval_grid=grid, y_indices=y_indices)
    return dict(fset=fset, spec=spec, state=state, trace=trace)


@pytest.fixture(scope="session")
def desk_m4(desk_geometry, desk_grid):
    return desk_run(desk_geometry, desk_grid, m=4)


@pytest.fixture(scope="session")
def desk_m5(desk_geometry, desk_grid):
    return desk_run(desk_geometry, desk_grid, m=5)


@pytest.fixture(scope="session")
def desk_m6(desk_geometry, desk_grid):
    return desk_run(desk_geometry, desk_grid, m=6)


@pytest.fixture(scope="session")
def desk_m4_extended(desk_geometry, desk_grid):
    return desk_run(desk_geometry, desk_grid, m=4, mode="extended")


@pytest.fixture(scope="session")
def desk_m4_basis(desk_m4, desk_grid):
    """Basis values of the desk m=4 run on the full evaluation grid."""
    return evaluate_basis(desk_m4["state"], desk_grid.points)
