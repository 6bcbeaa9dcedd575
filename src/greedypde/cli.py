"""Command line interface.

Subcommands: `build` runs the greedy selection and writes the basis and trace
artifacts, `solve` applies a stored basis to an analytic test problem, and
`report` re-runs the trace analysis on an existing output directory.  Exit
codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import pathlib
import shutil
import sys
from dataclasses import asdict

import numpy as np

from . import runio, solver
from .analysis import fit_rate
from .config import RunConfig, dump_config, load_config, parse_pairs
from .engine import GreedyState, restore_state, run
from .errors import ConfigError, GreedyPDEError, NumericalError
from .functionals import (
    FunctionalSet,
    GaussianBump,
    PowerCusp,
    data_vector,
    disk_functional_set,
    read_functionals,
    write_functionals,
)
from .geometry import DiskGeometry, circle_points, disk_candidates, evaluation_grid
from .kernels import KernelSpec, radial_kernel


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="greedypde", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("build", "run the greedy selection and write basis artifacts"),
        ("solve", "solve a test problem with a stored basis"),
        ("report", "re-run the analysis on an existing trace"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        if name == "solve":
            p.add_argument("--basis", required=True,
                           help="directory produced by `build`")
    return top


@contextlib.contextmanager
def _output_dir(out_dir: str):
    """Yield a fresh `<out_dir>.partial-<pid>` directory, created before the
    block runs so that an unusable out_dir fails at once; it becomes out_dir
    when the block completes and is removed when the block raises."""
    if os.path.exists(out_dir):
        raise ConfigError(f"output directory {out_dir!r} already exists; remove it first")
    tmp = f"{out_dir}.partial-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.makedirs(tmp)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir!r} cannot be created: "
                          f"{exc.strerror or exc}") from exc
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    os.replace(tmp, out_dir)


@contextlib.contextmanager
def _naming(path: str):
    """Report a file that cannot be read or is malformed as a ConfigError
    that names it."""
    try:
        yield
    except OSError as exc:  # the file the system names may be another one
        raise ConfigError(f"{exc.filename or path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_artifact(reader, path: str, *args):
    """reader(path, *args), with errors reported as _naming does."""
    with _naming(path):
        return reader(path, *args)


def _read_c_matrix(path: str) -> np.ndarray:
    """cmatrix.csv, checked to be a valid Newton change of basis: finite and
    lower-triangular with a strictly positive diagonal.  The checks go row
    by row, so that they allocate nothing of C's size."""
    cmat = runio.read_matrix_csv(path)
    if not all(np.isfinite(row).all() for row in cmat):
        raise ValueError("C has a non-finite entry")
    if any(row[k + 1:].any() for k, row in enumerate(cmat)):
        raise ValueError("C is not lower-triangular")
    if not (np.diagonal(cmat) > 0.0).all():
        raise ValueError("C needs a strictly positive diagonal")
    return cmat


def _stored_value_blocks(values_path: str, shape, blocks):
    with _naming(values_path):
        yield from runio.read_grid_blocks(values_path, shape, blocks)


def _basis_value_blocks(basis_dir: str, state: GreedyState, points: np.ndarray):
    """(blocks, source): the basis values on the points as (J, values[:, J])
    per block J of solver.grid_blocks, and a name for where they come from.

    When the basis directory holds gridbasis.npy with gridbasis.crc32, and
    its build grid (the x1,x2 columns of powergrid.csv) is exactly these
    points, the values are read from the file block by block, once the
    CRC-32s that gridbasis.crc32 records for it and for cmatrix.csv match
    both files: the stored values were formed with that C, so an edit of
    either file exits 2 naming it.  That path evaluates no kernel and does
    not hold the state, and so not C.  Otherwise (another grid, or an older
    build's directory, whose gridrows.npy holds raw rows and is never read)
    solver.basis_value_blocks computes them with the row GEMVs of the
    build's grid pass, so both paths give the same bits.
    """
    values_path = os.path.join(basis_dir, "gridbasis.npy")
    crc_path = os.path.join(basis_dir, "gridbasis.crc32")
    cmat_path = os.path.join(basis_dir, "cmatrix.csv")
    if os.path.exists(values_path) and os.path.exists(crc_path):
        _, table = _read_artifact(runio.read_table_csv,
                                  os.path.join(basis_dir, "powergrid.csv"))
        stored = table[:, :2]
        if stored.shape == points.shape and stored.tobytes() == points.tobytes():
            _read_artifact(runio.check_checksums, crc_path, (values_path, cmat_path))
            blocks = _stored_value_blocks(values_path, (state.n, len(points)),
                                          solver.grid_blocks(len(points)))
            return blocks, values_path
    selected_path = os.path.join(basis_dir, "selected.txt")
    return (solver.basis_value_blocks(state, points),
            f"{cmat_path} and the representer rows of {selected_path}")


def _problem(cfg: RunConfig):
    if cfg.problem == "gaussian":
        return GaussianBump(center=cfg.problem_center, shape=cfg.problem_shape)
    if cfg.problem == "powercusp":
        return PowerCusp(center=cfg.problem_center, exponent=cfg.problem_exponent)
    raise ConfigError("problem: solve needs 'gaussian' or 'powercusp'")


def _safe_rate(xs, ys, window=None):
    try:
        return fit_rate(xs, ys, window)
    except ValueError:
        return math.nan


def _write_analysis(out: str, trace) -> None:
    """report.txt, rates.csv and the plot script for a trace."""
    window = (trace.steps[-1] / 2.0, float(trace.steps[-1]))
    sigma_rate = _safe_rate(trace.steps, trace.sigma, window)
    rho_rate = _safe_rate(trace.steps, trace.rho, window)
    cond_rate = _safe_rate(trace.steps, trace.cond_c, window)
    nb = trace.boundary_count()
    finite = np.isfinite(trace.rho)
    ratio = trace.rho[finite] / trace.sigma[finite]
    report = {
        "steps": len(trace.steps),
        "fit window": f"[{window[0]:g}, {window[1]:g}]",
        "sigma rate": f"{sigma_rate:+.4f}",
        "rho rate": f"{rho_rate:+.4f}",
        "cond growth rate": f"{cond_rate:+.4f}",
        "boundary selections": f"{nb} of {len(trace.steps)}",
        "final sigma": f"{trace.sigma[-1]:.6e}",
        "final rho": f"{trace.rho[-1]:.6e}",
        "max rho/sigma": f"{ratio.max():.4f}" if ratio.size else "n/a",
    }
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(runio.format_report(report))
    runio.write_rates_csv(
        os.path.join(out, "rates.csv"),
        [("sigma", sigma_rate, *window), ("rho", rho_rate, *window),
         ("cond_C", cond_rate, *window)],
    )
    runio.write_plot_script(os.path.join(out, "make_plots.py"))


def cmd_build(cfg: RunConfig, out_dir: str) -> None:
    with _output_dir(out_dir) as tmp:
        geometry = disk_candidates(cfg.domain_count, cfg.boundary_count)
        fset = disk_functional_set(geometry)
        if cfg.n_max > len(fset):
            raise ConfigError(f"n_max: {cfg.n_max} exceeds the {len(fset)} candidates")
        spec = KernelSpec(m=cfg.m, d=cfg.d, scale=cfg.scale)
        grid = evaluation_grid(geometry, cfg.grid_spacing)
        y_size = min(cfg.y_size, grid.n_interior)
        y_indices = np.unique(np.linspace(0, grid.n_interior - 1, y_size).astype(int))

        # The run's last pass over the grid writes each block of the basis
        # values into gridbasis.npy, so no N x P array is held.
        values_path = os.path.join(tmp, "gridbasis.npy")
        with runio.write_grid_blocks(values_path, len(grid)) as grid_value_sink:
            state, trace = run(
                fset, spec, mode=cfg.mode, n_max=cfg.n_max, stop_tol=cfg.stop_tol,
                eval_grid=grid, y_indices=y_indices, grid_row_sink=grid_value_sink,
            )
        # The other writes need only the picks, C and the trace: the Newton
        # columns, L and the rest of the selection state go first, so that
        # the writes' buffers land below the run's peak.
        selected, cmat = state.selected, state.c_matrix()
        del state

        runio.write_trace_csv(os.path.join(tmp, "trace.csv"), trace)
        write_functionals(os.path.join(tmp, "selected.txt"),
                          [fset[i] for i in selected])
        cmat_path = os.path.join(tmp, "cmatrix.csv")
        runio.write_matrix_csv(cmat_path, cmat)
        # once both files exist: the stored values hold only with this C
        runio.write_checksums(os.path.join(tmp, "gridbasis.crc32"),
                              (values_path, cmat_path))
        runio.write_table_csv(
            os.path.join(tmp, "powergrid.csv"),
            ["x1", "x2", "p2_delta"],
            [grid.points[:, 0], grid.points[:, 1], trace.grid_power],
        )
        with open(os.path.join(tmp, "kernel.txt"), "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in asdict(spec).items()))
        with open(os.path.join(tmp, "config.txt"), "w") as fh:
            fh.write(dump_config(cfg))
        _write_analysis(tmp, trace)


def load_basis(basis_dir: str, cfg: RunConfig) -> GreedyState:
    """The basis that `build` stored under basis_dir, as a solver state.

    Raises ConfigError naming the file when the directory is not a build
    output, the kernel parameters that kernel.txt sets (in the config
    grammar) are not exactly the config's m, d and scale, or selected.txt or
    cmatrix.csv is malformed or does not match the other.
    """
    kernel_path = os.path.join(basis_dir, "kernel.txt")
    if not os.path.exists(kernel_path):
        raise ConfigError(f"basis: {basis_dir!r} does not look like a build output")
    params = _read_artifact(lambda p: parse_pairs(pathlib.Path(p).read_text()), kernel_path)
    spec = KernelSpec(m=cfg.m, d=cfg.d, scale=cfg.scale)
    ours = asdict(spec)
    if params != ours:
        raise ConfigError(
            f"{kernel_path}: kernel parameters {params} do not match the config {ours}"
        )
    selected_path = os.path.join(basis_dir, "selected.txt")
    fset = _read_artifact(lambda p: FunctionalSet(read_functionals(p)), selected_path)
    if fset.points.shape[1] != spec.d:
        raise ConfigError(f"{selected_path}: points have {fset.points.shape[1]} "
                          f"coordinates, the kernel needs d = {spec.d}")
    if not np.isfinite(fset.points).all():
        raise ConfigError(f"{selected_path}: a point has a non-finite coordinate")
    cmat_path = os.path.join(basis_dir, "cmatrix.csv")
    cmat = _read_artifact(_read_c_matrix, cmat_path)
    if cmat.shape != (len(fset), len(fset)):
        raise ConfigError(f"{cmat_path}: shape {cmat.shape} does not match the "
                          f"{len(fset)} functionals of selected.txt")
    return restore_state(fset, cmat, spec)


# An orthonormal basis keeps K(x,x) - sum_k v_k(x)^2 above -3.2e-15 K(0) on
# the benchmark's three bases; an edit of C that matters drives it far lower
# (one unit moved in one entry of a desk-scale C: -2 K(0)).
_POWER_TOL = 1e-10


def _check_power(p2: np.ndarray, spec: KernelSpec, points: np.ndarray,
                 source: str) -> None:
    """Raise NumericalError, naming the values' source, when the unclamped
    P^2(delta_x) on the grid shows a basis that is not orthonormal."""
    kxx = radial_kernel(spec, 0.0)
    k = int(np.argmin(p2))
    if p2[k] < -_POWER_TOL * kxx:
        raise NumericalError(
            f"the basis values from {source} are not orthonormal: "
            f"K(x,x) - sum_k v_k(x)^2 is {p2[k] / kxx:.3g} K(0) at x = "
            f"{tuple(float(v) for v in points[k])}, below -{_POWER_TOL:g} K(0)")


def cmd_solve(cfg: RunConfig, basis_dir: str, out_dir: str) -> None:
    with _output_dir(out_dir) as tmp:
        state = load_basis(basis_dir, cfg)
        problem = _problem(cfg)

        # the build's grid needs only its boundary sample, not the lattice
        # of domain candidates
        boundary = circle_points(cfg.boundary_count)
        grid = evaluation_grid(DiskGeometry(np.empty((0, 2)), boundary),
                               cfg.grid_spacing)
        try:
            data = data_vector(state.fset, range(state.n), problem)
        except ValueError as exc:  # a cusp's Laplacian at an operator delta
            raise ConfigError(
                f"problem_center, problem_exponent: {exc}, and the center "
                f"{cfg.problem_center} is the point of an operator delta in "
                f"{os.path.join(basis_dir, 'selected.txt')}") from exc
        mu = solver.data_to_newton(state, data)
        u_true = problem.value(grid.points)
        n, spec = state.n, state.spec
        # The stored values' blocks do not hold the state, so C goes here;
        # recomputed ones keep it for their products.
        blocks, source = _basis_value_blocks(basis_dir, state, grid.points)
        del state

        # One block of basis values at a time: its squares' column sums give
        # P^2 (and show a non-finite value, at the cost of one width-sized
        # check), then the block becomes its partial sums and then their
        # errors in place, and only per-point results and the running
        # maximum error per N are kept.  So the loop holds one block and
        # O(P) arrays, and C only when it computes the values; it is the
        # solve's peak, since the block goes before the check and the writes.
        p2 = np.empty(len(grid.points))
        u_approx = np.empty(len(grid.points))
        errors = np.zeros(n)
        for j, values in blocks:
            p2[j] = solver.unclamped_power(spec, values)
            if not np.isfinite(p2[j]).all():
                raise ConfigError(f"{source}: a basis value in columns "
                                  f"[{j.start}, {j.stop}) is not finite")
            values *= mu[:, None]
            np.cumsum(values, axis=0, out=values)
            u_approx[j] = values[-1]
            np.subtract(u_true[j], values, out=values)
            np.maximum(errors, np.abs(values, out=values).max(axis=1), out=errors)
        # the reader has finished, so the last block is the only hold on its
        # buffer
        del values
        _check_power(p2, spec, grid.points, source)
        p_delta = np.sqrt(np.maximum(p2, 0.0))
        if not errors[0] > 0.0:
            raise ConfigError(
                f"problem: the error at N=1 is {errors[0]!r} on the evaluation grid, "
                "so errors.csv has nothing to normalize by")
        normalized = errors / errors[0]
        steps = np.arange(1, n + 1)

        runio.write_table_csv(
            os.path.join(tmp, "errors.csv"),
            ["N", "max_abs_error", "normalized_error"],
            [steps, errors, normalized],
        )
        runio.write_table_csv(
            os.path.join(tmp, "coeffs.csv"),
            ["N", "coeff_sq_cumsum"],
            [steps, np.cumsum(mu**2)],
        )
        runio.write_table_csv(
            os.path.join(tmp, "solution.csv"),
            ["x1", "x2", "u_true", "u_approx", "abs_error", "power_delta"],
            [grid.points[:, 0], grid.points[:, 1], u_true, u_approx,
             np.abs(u_true - u_approx), p_delta],
        )
        with open(os.path.join(tmp, "config.txt"), "w") as fh:
            fh.write(dump_config(cfg))


def cmd_report(cfg: RunConfig, out_dir: str) -> None:
    trace_path = os.path.join(out_dir, "trace.csv")
    if not os.path.exists(trace_path):
        raise ConfigError(f"report: no trace.csv under {out_dir!r}")
    trace = _read_artifact(runio.read_trace_csv, trace_path)
    _write_analysis(out_dir, trace)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _read_artifact(load_config, args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.command == "build":
            cmd_build(cfg, out_dir)
        elif args.command == "solve":
            cmd_solve(cfg, args.basis, out_dir)
        else:
            cmd_report(cfg, out_dir)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, GreedyPDEError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
