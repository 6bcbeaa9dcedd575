"""Greedy selection of data functionals for kernel collocation of elliptic
Dirichlet problems, with the orthonormal reduced basis that falls out of it."""

from .analysis import condition_estimate, fit_rate, singular_values
from .config import RunConfig, load_config, parse_config
from .engine import GreedyState, RunTrace, extend, init, restore_state, run, \
    select_extended, select_standard
from .errors import ConfigError, Converged, GreedyPDEError, \
    InvalidSelectionError, NumericalError
from .functionals import BOUNDARY_DELTA, DOMAIN_OP_DELTA, Functional, \
    FunctionalSet, GaussianBump, PowerCusp, apply_to_solution, boundary_delta, \
    data_vector, disk_functional_set, domain_op_delta, dual_inner, \
    dual_inner_column, gram, read_functionals, riesz_value, \
    self_inner_column, write_functionals
from .geometry import DiskGeometry, EvalGrid, disk_candidates, \
    evaluation_grid, fill_distance, read_points, write_points
from .kernels import KernelSpec, RadialStack, bessel_k, bilaplacian, \
    kernel_value, laplacian_y, radial_stack
from .parallel import resolve_workers
from .solver import BasisEvaluation, ProjectionSolution, approximate, \
    data_to_newton, direct_collocation_solve, evaluate_basis, \
    power_on_deltas, project

__version__ = "0.1.0"
