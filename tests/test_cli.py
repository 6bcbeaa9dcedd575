import contextlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import greedypde.cli
import greedypde.solver
from greedypde.cli import main
from greedypde.config import RunConfig, load_config, parse_config
from greedypde.engine import restore_state, run
from greedypde.errors import ConfigError, NumericalError
from greedypde.functionals import FunctionalSet, disk_functional_set, read_functionals
from greedypde.geometry import disk_candidates, evaluation_grid
from greedypde.kernels import KernelSpec
from greedypde.runio import (
    read_matrix_csv,
    read_table_csv,
    read_trace_csv,
    write_matrix_csv,
    write_trace_csv,
)
from greedypde.solver import BLOCK, evaluate_basis, power_on_deltas

SMALL_CFG = """\
# desk config scaled way down for test speed
m = 5
domain_count = 300
boundary_count = 30
n_max = 40
grid_spacing = 0.08
y_size = 150
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_match_desk_scale():
    cfg = RunConfig()
    assert (cfg.m, cfg.domain_count, cfg.boundary_count, cfg.n_max) == (4, 2000, 120, 200)
    assert cfg.problem_center == (-math.pi / 10, 0.0)
    cfg.validate()


def test_config_parsing_with_comments_and_overrides():
    cfg = parse_config("m = 6    # smoother\nmode=extended\nproblem_center = 0.1, -0.2\n")
    assert cfg.m == 6
    assert cfg.mode == "extended"
    assert cfg.problem_center == (0.1, -0.2)


def test_config_unknown_key_is_named():
    # a removed key (rho_every) is refused like any other unknown key
    for key in ("frobnicate", "rho_every"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(f"{key} = 1\n")


def test_config_rejects_low_smoothness_with_constraint():
    with pytest.raises(ConfigError, match="m > 2 \\+ d/2 = 3"):
        parse_config("m = 3\n")


def test_config_rejects_bad_mode_and_problem():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = fancy\n")
    with pytest.raises(ConfigError, match="problem"):
        parse_config("problem = heat\n")


_REAL_FIELDS = ("scale", "stop_tol", "grid_spacing", "problem_shape",
                "problem_exponent")


@given(st.lists(st.tuples(
    st.sampled_from([f.name for f in fields(RunConfig)])
    | st.sampled_from(["", "frobnicate", "M", "n max"]) | st.text(max_size=8),
    st.integers(-10**6, 10**6).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "", "0.1, nan",
                       "inf, 0", "0.5, 0.5", "extended", "gaussian", "1_0",
                       "0x10", "garbage"])
    | st.text(max_size=12),
), max_size=4))
@example([("scale", "inf")])
@example([("grid_spacing", "nan")])
@example([("problem_center", "0.1, -inf")])
def test_parse_config_fuzz_finite_or_config_error(pairs):
    text = "".join(f"{k} = {v}\n" for k, v in pairs)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    for key in _REAL_FIELDS:
        assert math.isfinite(getattr(cfg, key)), key
    assert all(math.isfinite(c) for c in cfg.problem_center)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", _REAL_FIELDS + ("problem_center",))
def test_non_finite_config_value_exits_2_naming_key(tmp_path, capsys, key, value):
    if key == "problem_center":
        value = f"0.1, {value}"
    cfg = write_cfg(tmp_path, SMALL_CFG + f"{key} = {value}\n")
    capsys.readouterr()
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"{key}: must be finite" in err
    assert not (tmp_path / "x").exists()


def test_load_config_round_trip(tmp_path):
    path = write_cfg(tmp_path)
    cfg = load_config(path)
    assert cfg.m == 5
    assert cfg.n_max == 40


# ---------------------------------------------------------------------------
# build


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_build")
    cfg = write_cfg(tmp)
    out = str(tmp / "out")
    assert main(["build", "--config", cfg, "--out", out]) == 0
    return dict(cfg=cfg, out=out, tmp=tmp)


def test_build_writes_all_artifacts(built):
    expected = {"trace.csv", "selected.txt", "cmatrix.csv", "powergrid.csv",
                "gridrows.npy", "gridrows.crc32", "report.txt", "rates.csv", "kernel.txt",
                "config.txt", "make_plots.py"}
    assert expected <= set(os.listdir(built["out"]))


def test_build_report_has_rate_fields(built):
    text = open(os.path.join(built["out"], "report.txt")).read()
    assert "sigma rate" in text
    assert "rho rate" in text
    assert "boundary selections" in text


def test_build_artifacts_round_trip(built):
    out = built["out"]
    trace = read_trace_csv(os.path.join(out, "trace.csv"))
    assert len(trace.steps) == 40
    assert np.all(np.diff(trace.sigma) <= 1e-12)
    C = read_matrix_csv(os.path.join(out, "cmatrix.csv"))
    assert C.shape == (40, 40)
    assert np.allclose(C, np.tril(C))
    selected = read_functionals(os.path.join(out, "selected.txt"))
    assert len(selected) == 40
    header, tbl = read_table_csv(os.path.join(out, "powergrid.csv"))
    assert header == ["x1", "x2", "p2_delta"]
    assert np.all(tbl[:, 2] >= 0)
    # the tracked grid power equals a recomputation from the stored basis
    state = restore_state(FunctionalSet(selected), C, KernelSpec(m=5, d=2))
    oracle = power_on_deltas(state, evaluate_basis(state, points=tbl[:, :2]))
    assert np.abs(tbl[:, 2] - oracle).max() <= 1e-12


def count_runs(monkeypatch):
    """Make greedypde.cli.run count its calls; returns the counter list."""
    calls = []
    real_run = greedypde.cli.run

    def counted(*args, **kwargs):
        calls.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(greedypde.cli, "run", counted)
    return calls


def test_build_refuses_existing_output(built, monkeypatch):
    calls = count_runs(monkeypatch)
    rc = main(["build", "--config", built["cfg"], "--out", built["out"]])
    assert rc == 2
    assert not calls  # refused before the greedy run


def test_build_numerical_failure_leaves_no_output(tmp_path, monkeypatch, capsys):
    def failing_run(*args, **kwargs):
        raise NumericalError("residual power went negative beyond roundoff")

    monkeypatch.setattr(greedypde.cli, "run", failing_run)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["build", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("out.partial-*"))


def test_build_exit_code_on_bad_config(tmp_path):
    cfg = write_cfg(tmp_path, "m = 3\n")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert main(["build", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
def test_unreadable_config_exits_2_naming_path(tmp_path, capsys, kind):
    if kind == "directory":
        cfg = tmp_path / "cfg.d"
        cfg.mkdir()
    else:
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"m = 4\n# r\xe9sum\xe9\n")
    capsys.readouterr()
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_output_directory_under_a_file_exits_2_naming_it(tmp_path, capsys,
                                                         monkeypatch):
    calls = count_runs(monkeypatch)
    cfg = write_cfg(tmp_path)
    out = os.path.join(cfg, "sub")
    capsys.readouterr()
    assert main(["build", "--config", cfg, "--out", out]) == 2
    assert out in capsys.readouterr().err
    assert os.path.isfile(cfg)
    assert not calls  # refused before the greedy run


@pytest.mark.parametrize("key, value", [("workers", "-3"), ("stop_tol", "1")],
                         ids=["workers", "stop_tol"])
def test_build_out_of_range_key_exits_2_naming_it(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, SMALL_CFG + f"{key} = {value}\n")
    out = tmp_path / "w"
    capsys.readouterr()
    assert main(["build", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_build_rejects_oversized_n_max(tmp_path):
    cfg = write_cfg(tmp_path, "domain_count = 20\nboundary_count = 4\nn_max = 500\n")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "z")]) == 2


def test_build_determinism_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("n_max = 40", "n_max = 15"))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["build", "--config", cfg, "--out", out1]) == 0
    assert main(["build", "--config", cfg, "--out", out2]) == 0
    for name in ("trace.csv", "cmatrix.csv", "selected.txt", "powergrid.csv"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


# ---------------------------------------------------------------------------
# solve


def test_solve_gaussian_and_powercusp(built, tmp_path):
    cfg_g = write_cfg(tmp_path, SMALL_CFG + "problem = gaussian\n", "g.cfg")
    out_g = str(tmp_path / "sol_g")
    assert main(["solve", "--config", cfg_g, "--basis", built["out"],
                 "--out", out_g]) == 0
    header, errs = read_table_csv(os.path.join(out_g, "errors.csv"))
    assert header == ["N", "max_abs_error", "normalized_error"]
    assert errs[0, 2] == pytest.approx(1.0)  # aligned to start at error one
    assert errs[-1, 2] < errs[0, 2]  # improving overall

    cfg_p = write_cfg(tmp_path, SMALL_CFG + "problem = powercusp\n", "p.cfg")
    out_p = str(tmp_path / "sol_p")
    assert main(["solve", "--config", cfg_p, "--basis", built["out"],
                 "--out", out_p]) == 0
    _, cg = read_table_csv(os.path.join(out_g, "coeffs.csv"))
    _, cp = read_table_csv(os.path.join(out_p, "coeffs.csv"))
    # slower coefficient decay for the cusp: more of the total mass arrives late
    half = len(cg) // 2
    tail_g = 1.0 - cg[half, 1] / cg[-1, 1]
    tail_p = 1.0 - cp[half, 1] / cp[-1, 1]
    assert tail_p > tail_g

    _, sol = read_table_csv(os.path.join(out_g, "solution.csv"))
    assert sol.shape[1] == 6


def test_solve_rejects_problem_none(built, tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG + "problem = none\n", "none.cfg")
    assert main(["solve", "--config", cfg, "--basis", built["out"],
                 "--out", str(tmp_path / "s")]) == 2


def test_solve_refuses_kernel_mismatch(built, tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("m = 5", "m = 6"), "mm.cfg")
    rc = main(["solve", "--config", cfg, "--basis", built["out"],
               "--out", str(tmp_path / "s2")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'m': 5" in err and "'m': 6" in err  # both parameter sets printed


def test_cli_round_trip_at_scale_0_3(tmp_path, capsys):
    # the other CLI tests all run at scale 1
    cfg = write_cfg(tmp_path, SMALL_CFG + "scale = 0.3\n")
    basis = str(tmp_path / "basis")
    assert main(["build", "--config", cfg, "--out", basis]) == 0
    assert open(os.path.join(basis, "kernel.txt")).read() == "m = 5\nd = 2\nscale = 0.3\n"
    fallback = str(tmp_path / "fallback")
    shutil.copytree(basis, fallback)
    os.remove(os.path.join(fallback, "gridrows.npy"))
    stored, recomputed = str(tmp_path / "stored"), str(tmp_path / "recomputed")
    assert main(["solve", "--config", cfg, "--basis", basis, "--out", stored]) == 0
    assert main(["solve", "--config", cfg, "--basis", fallback, "--out", recomputed]) == 0
    _assert_same_solve_outputs(stored, recomputed)
    built = {name: open(os.path.join(basis, name), "rb").read()
             for name in ("report.txt", "rates.csv")}
    assert main(["report", "--config", cfg, "--out", basis]) == 0
    for name, content in built.items():
        assert open(os.path.join(basis, name), "rb").read() == content, name

    near = write_cfg(tmp_path, SMALL_CFG + "scale = 0.30000000000000004\n", "near.cfg")
    capsys.readouterr()
    assert main(["solve", "--config", near, "--basis", basis,
                 "--out", str(tmp_path / "near")]) == 2
    assert "kernel.txt" in capsys.readouterr().err


def test_solve_rejects_non_basis_directory(built, tmp_path):
    rc = main(["solve", "--config", built["cfg"], "--basis", str(tmp_path),
               "--out", str(tmp_path / "s3")])
    assert rc == 2


def test_solve_refuses_zero_first_error(built, tmp_path, capsys):
    # a bump this narrow underflows to 0 at every grid point and functional,
    # so every error is 0 and normalized_error would be 0/0
    cfg = write_cfg(tmp_path, SMALL_CFG + "problem_shape = 1e9\n"
                    "problem_center = 0.0123, 0.0456\n", "flat.cfg")
    out = tmp_path / "s4"
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--basis", built["out"],
                 "--out", str(out)]) == 2
    assert "errors.csv" in capsys.readouterr().err
    assert not out.exists()


def _count_riesz_rows(monkeypatch):
    calls = []
    real = greedypde.solver.riesz_value

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(greedypde.solver, "riesz_value", counted)
    return calls


def _assert_same_solve_outputs(out1, out2):
    for name in ("errors.csv", "coeffs.csv", "solution.csv"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_solve_from_stored_rows_matches_recomputation(built, tmp_path):
    basis = str(tmp_path / "basis")
    shutil.copytree(built["out"], basis)
    os.remove(os.path.join(basis, "gridrows.npy"))
    stored, recomputed = str(tmp_path / "stored"), str(tmp_path / "recomputed")
    assert main(["solve", "--config", built["cfg"], "--basis", built["out"],
                 "--out", stored]) == 0
    assert main(["solve", "--config", built["cfg"], "--basis", basis,
                 "--out", recomputed]) == 0
    _assert_same_solve_outputs(stored, recomputed)


def test_solve_from_stored_rows_evaluates_no_kernel(built, tmp_path, monkeypatch):
    calls = _count_riesz_rows(monkeypatch)
    assert main(["solve", "--config", built["cfg"], "--basis", built["out"],
                 "--out", str(tmp_path / "s")]) == 0
    assert calls == []


def test_solve_without_checksum_falls_back(built, tmp_path, monkeypatch):
    # a basis built before gridrows.crc32 existed is solved as if it had no rows
    basis = str(tmp_path / "basis")
    shutil.copytree(built["out"], basis)
    os.remove(os.path.join(basis, "gridrows.crc32"))
    stored, recomputed = str(tmp_path / "stored"), str(tmp_path / "recomputed")
    assert main(["solve", "--config", built["cfg"], "--basis", built["out"],
                 "--out", stored]) == 0
    calls = _count_riesz_rows(monkeypatch)
    assert main(["solve", "--config", built["cfg"], "--basis", basis,
                 "--out", recomputed]) == 0
    assert len(calls) == 40
    _assert_same_solve_outputs(stored, recomputed)


_NO_SCIPY_CHILD = """\
import sys
from greedypde.cli import main
cfg, basis = sys.argv[1:]
assert main(["solve", "--config", cfg, "--basis", basis, "--out", basis + "-solved"]) == 0
assert main(["report", "--config", cfg, "--out", basis]) == 0
print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_stored_rows_solve_and_report_load_no_scipy(built, tmp_path):
    basis = str(tmp_path / "basis")
    shutil.copytree(built["out"], basis)
    src = os.path.dirname(os.path.dirname(greedypde.solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, built["cfg"], basis],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == ""


_BUILD_CHILD = """\
import sys
from greedypde.cli import main
cfg, out = sys.argv[1:]
assert main(["build", "--config", cfg, "--out", out]) == 0
print(" ".join(m for m in sys.modules if m.startswith(("scipy.spatial", "scipy.linalg"))))
"""


def test_build_loads_no_scipy_spatial(tmp_path):
    # nor scipy.linalg: the condition estimate probes L = C^{-1} with products
    src = os.path.dirname(os.path.dirname(greedypde.solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("n_max = 40", "n_max = 5"))
    child = subprocess.run([sys.executable, "-c", _BUILD_CHILD, cfg, str(tmp_path / "b")],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == ""


def test_solve_holds_at_most_two_basis_sized_arrays(tmp_path):
    # a fine grid makes two N x P arrays far larger than the block budget
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("grid_spacing = 0.08", "grid_spacing = 0.02"))
    stored = str(tmp_path / "stored")
    assert main(["build", "--config", cfg, "--out", stored]) == 0
    recomputed = str(tmp_path / "recomputed")
    shutil.copytree(stored, recomputed)
    os.remove(os.path.join(recomputed, "gridrows.npy"))
    rows = np.load(os.path.join(stored, "gridrows.npy"))
    basis_bytes = rows.nbytes
    assert rows.shape[0] == 40 and basis_bytes > 2_000_000
    block_bytes = 8 * rows.shape[0] * (2 * BLOCK - 1)  # the widest block
    del rows
    for k, basis in enumerate((stored, recomputed)):
        # the first solve loads whatever the traced one would load lazily
        assert main(["solve", "--config", cfg, "--basis", basis,
                     "--out", str(tmp_path / f"warm{k}")]) == 0
        tracemalloc.start()
        try:
            assert main(["solve", "--config", cfg, "--basis", basis,
                         "--out", str(tmp_path / f"s{k}")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block's raw rows and its values (the squares reuse the rows'
        # buffer); the slack covers the CSVs and the grid
        assert peak <= 2 * block_bytes + 1_000_000, (basis, peak / block_bytes)


@pytest.fixture(scope="module")
def grid_bases(tmp_path_factory):
    """Bases built on a grid of fewer than BLOCK points and on one of more than
    2 BLOCK points that is no multiple of BLOCK: {P: like `built`}."""
    tmp = tmp_path_factory.mktemp("grid_bases")
    bases = {}
    for spacing in ("0.1", "0.05"):
        cfg = write_cfg(tmp, SMALL_CFG.replace("0.08", spacing), f"{spacing}.cfg")
        out = str(tmp / f"basis{spacing}")
        assert main(["build", "--config", cfg, "--out", out]) == 0
        _, table = read_table_csv(os.path.join(out, "powergrid.csv"))
        bases[len(table)] = dict(cfg=cfg, out=out)
    small, large = sorted(bases)
    assert small < BLOCK and large > 2 * BLOCK and large % BLOCK
    return bases


# Solves a basis, from its stored rows and from a copy without them, and
# compares the outputs byte for byte with the one-product reference: the
# formulas a solve used before it was streamed, on C @ gridrows.npy whole.
_BIT_IDENTITY_CHILD = """\
import filecmp, os, shutil, sys
import numpy as np
from greedypde import runio
from greedypde.cli import load_basis, main
from greedypde.config import load_config
from greedypde.functionals import GaussianBump, data_vector
from greedypde.geometry import disk_candidates, evaluation_grid
from greedypde.kernels import kernel_value
from greedypde.solver import data_to_newton

cfg_path, basis, out = sys.argv[1:]
cfg = load_config(cfg_path)
state = load_basis(basis, cfg)
problem = GaussianBump(center=cfg.problem_center, shape=cfg.problem_shape)
points = evaluation_grid(disk_candidates(cfg.domain_count, cfg.boundary_count),
                         cfg.grid_spacing).points
mu = data_to_newton(state, data_vector(state.fset, range(state.n), problem))
values = state.c_matrix() @ np.load(os.path.join(basis, "gridrows.npy"))
kxx = kernel_value(state.spec, np.zeros(2), np.zeros(2))
p_delta = np.sqrt(np.maximum(kxx - (values**2).sum(axis=0), 0.0))
partial = np.cumsum(values * mu[:, None], axis=0)
u_true = problem.value(points)
u_approx = partial[-1]
errors = np.abs(u_true - partial).max(axis=1)
steps = np.arange(1, state.n + 1)
os.makedirs(out + "-ref")
runio.write_table_csv(os.path.join(out + "-ref", "errors.csv"),
                      ["N", "max_abs_error", "normalized_error"],
                      [steps, errors, errors / errors[0]])
runio.write_table_csv(os.path.join(out + "-ref", "coeffs.csv"),
                      ["N", "coeff_sq_cumsum"], [steps, np.cumsum(mu**2)])
runio.write_table_csv(os.path.join(out + "-ref", "solution.csv"),
                      ["x1", "x2", "u_true", "u_approx", "abs_error", "power_delta"],
                      [points[:, 0], points[:, 1], u_true, u_approx,
                       np.abs(u_true - u_approx), p_delta])

fallback = out + "-basis"
shutil.copytree(basis, fallback)
os.remove(os.path.join(fallback, "gridrows.npy"))
for path, source in (("stored", basis), ("fallback", fallback)):
    assert main(["solve", "--config", cfg_path, "--basis", source,
                 "--out", f"{out}-{path}"]) == 0
    for name in ("errors.csv", "coeffs.csv", "solution.csv"):
        if not filecmp.cmp(f"{out}-{path}/{name}", f"{out}-ref/{name}", shallow=False):
            print(path, name)
"""


@pytest.mark.parametrize("threads", [None, "1"], ids=["default-threads", "one-thread"])
def test_streamed_solve_is_bit_identical_to_one_product(grid_bases, tmp_path, threads):
    src = os.path.dirname(os.path.dirname(greedypde.solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    for n_points, built in grid_bases.items():
        child = subprocess.run(
            [sys.executable, "-c", _BIT_IDENTITY_CHILD, built["cfg"], built["out"],
             str(tmp_path / f"s{n_points}")],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "", (n_points, child.stdout)


@pytest.mark.parametrize("override", ["grid_spacing = 0.1", "boundary_count = 24"])
def test_solve_on_another_grid_falls_back(built, tmp_path, monkeypatch, override):
    assert os.path.exists(os.path.join(built["out"], "gridrows.npy"))
    cfg_text = SMALL_CFG + override + "\n"
    out = str(tmp_path / "s")
    calls = _count_riesz_rows(monkeypatch)
    assert main(["solve", "--config", write_cfg(tmp_path, cfg_text), "--basis",
                 built["out"], "--out", out]) == 0
    assert len(calls) == 40

    cfg = parse_config(cfg_text)
    grid = evaluation_grid(disk_candidates(cfg.domain_count, cfg.boundary_count),
                           cfg.grid_spacing)
    selected = read_functionals(os.path.join(built["out"], "selected.txt"))
    C = read_matrix_csv(os.path.join(built["out"], "cmatrix.csv"))
    state = restore_state(FunctionalSet(selected), C, KernelSpec(m=5, d=2))
    oracle = np.sqrt(power_on_deltas(state, evaluate_basis(state, points=grid.points)))
    header, sol = read_table_csv(os.path.join(out, "solution.csv"))
    assert header[-1] == "power_delta"
    assert np.array_equal(sol[:, :2], grid.points)
    assert np.array_equal(sol[:, -1], oracle)


def _drop_last_line(text):
    return "".join(text.splitlines(True)[:-1])


def _drop_last_entry_of_second_line(text):
    lines = text.splitlines(True)
    lines[1] = lines[1].rsplit(",", 1)[0] + "\n"
    return "".join(lines)


def _edit_npy(edit):
    def corrupt(data):
        out = io.BytesIO()
        np.save(out, edit(np.load(io.BytesIO(data))))
        return out.getvalue()
    return corrupt


def _set_nan(rows):
    rows[3, 5] = np.nan
    return rows


def _set_entry(i, j, value):
    def corrupt(text):
        rows = [line.split(",") for line in text.splitlines()]
        rows[i][j] = value
        return "".join(",".join(row) + "\n" for row in rows)
    return corrupt


def _run_on_basis(built, command, basis, out):
    """`solve` from, or `report` into, a basis directory; the exit code."""
    if command == "solve":
        return main(["solve", "--config", built["cfg"], "--basis", basis, "--out", out])
    return main(["report", "--config", built["cfg"], "--out", basis])


# in place of a corrupt function: the artifact is replaced by a directory,
# which no read can open (unlike permission bits, which root ignores)
_AS_DIRECTORY = None


def _corrupted_basis(built, tmp_path_factory, name, corrupt, binary=False):
    """A copy of the built basis with one artifact passed through corrupt."""
    basis = str(tmp_path_factory.mktemp("basis") / "basis")
    shutil.copytree(built["out"], basis)
    path = os.path.join(basis, name)
    if corrupt is _AS_DIRECTORY:
        os.remove(path)
        os.mkdir(path)
        return basis
    mode = "b" if binary else ""
    with open(path, "r" + mode) as fh:
        content = fh.read()
    with open(path, "w" + mode) as fh:
        fh.write(corrupt(content))
    return basis


def _reseal_grid_rows(basis):
    """Record the CRC-32 of gridrows.npy as it now is, so that the file's own
    checks, not the checksum, have to catch what is wrong with it."""
    with open(os.path.join(basis, "gridrows.npy"), "rb") as fh:
        crc = zlib.crc32(fh.read())
    with open(os.path.join(basis, "gridrows.crc32"), "w") as fh:
        fh.write(f"{crc}\n")


@pytest.mark.parametrize("command,name,corrupt", [
    ("solve", "cmatrix.csv", _drop_last_line),
    ("solve", "cmatrix.csv", _drop_last_entry_of_second_line),
    ("solve", "cmatrix.csv", lambda t: "abc" + t[t.index(","):]),
    ("solve", "cmatrix.csv", _set_entry(3, 1, "nan")),
    ("solve", "cmatrix.csv", _set_entry(3, 1, "-inf")),
    ("solve", "cmatrix.csv", _set_entry(1, 3, "0.5")),
    ("solve", "cmatrix.csv", _set_entry(2, 2, "0")),
    ("solve", "cmatrix.csv", _set_entry(2, 2, "-0.25")),
    ("solve", "selected.txt", lambda t: "Q" + t[1:]),
    ("solve", "selected.txt", lambda t: t.replace("\n", " 0.5\n")),
    ("solve", "kernel.txt", lambda t: t + "junk\n"),
    ("solve", "kernel.txt", lambda t: re.sub(r"^scale = .*\n", "", t, flags=re.M)),
    ("solve", "kernel.txt", lambda t: t + "foo = 1\n"),
    ("solve", "kernel.txt", lambda t: re.sub(r"^m = (\d+)$", r"m = \1.0", t, flags=re.M)),
    ("report", "trace.csv", lambda t: t.replace("cond_C", "cond", 1)),
    ("report", "trace.csv", lambda t: t + "4,0.5,nan\n"),
    ("report", "trace.csv", lambda t: t.splitlines(True)[0]),
    ("solve", "selected.txt", lambda t: t[:2] + "nan" + t[t.index(" ", 2):]),
    ("solve", "gridrows.npy", lambda b: b[: len(b) // 2]),
    ("solve", "gridrows.npy", _edit_npy(lambda rows: rows[:-1])),
    ("solve", "gridrows.npy", _edit_npy(_set_nan)),
    ("solve", "gridrows.npy", _edit_npy(lambda rows: rows.astype(object))),
    ("solve", "gridrows.npy", lambda b: b[:8] + bytes([1]) + b[9:]),
    ("solve", "cmatrix.csv", lambda t: ""),
    ("solve", "powergrid.csv", lambda t: t.splitlines(True)[0]),
    ("solve", "gridrows.crc32", lambda t: f"{int(t) ^ 1}\n"),
    ("solve", "gridrows.crc32", lambda t: "abc\n"),
    ("solve", "cmatrix.csv", _AS_DIRECTORY),
    ("solve", "selected.txt", _AS_DIRECTORY),
    ("solve", "gridrows.npy", _AS_DIRECTORY),
    ("solve", "gridrows.crc32", _AS_DIRECTORY),
    ("solve", "kernel.txt", _AS_DIRECTORY),
    ("report", "trace.csv", _AS_DIRECTORY),
], ids=["cmatrix-row-cut", "cmatrix-ragged", "cmatrix-non-numeric",
        "cmatrix-nan", "cmatrix-inf", "cmatrix-upper-entry",
        "cmatrix-zero-diagonal", "cmatrix-negative-diagonal",
        "selected-unknown-kind", "selected-wrong-dimension", "kernel-no-equals",
        "kernel-no-scale", "kernel-unknown-key", "kernel-float-m",
        "trace-bad-header", "trace-short-row", "trace-no-rows",
        "selected-nan-coordinate", "gridrows-truncated", "gridrows-row-count",
        "gridrows-nan", "gridrows-pickled", "gridrows-header-length", "cmatrix-empty",
        "powergrid-no-rows", "gridrows-wrong-checksum", "gridrows-non-numeric-checksum",
        "cmatrix-directory", "selected-directory", "gridrows-directory",
        "checksum-directory", "kernel-directory", "trace-directory"])
def test_malformed_artifact_exits_2_naming_file(built, tmp_path_factory, capsys,
                                                command, name, corrupt):
    basis = _corrupted_basis(built, tmp_path_factory, name, corrupt,
                             binary=name.endswith(".npy"))
    if name == "gridrows.npy" and corrupt is not _AS_DIRECTORY:
        _reseal_grid_rows(basis)
    capsys.readouterr()
    # pytest intercepts warnings before they reach stderr, so record them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_on_basis(built, command, basis, basis + "-solved") == 2
    assert name in capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]


def _npy_data_start(raw):
    fh = io.BytesIO(raw)
    np.lib.format.read_magic(fh)
    np.lib.format.read_array_header_1_0(fh)
    return fh.tell()


def _nan_in_last_block(rows):
    rows[-1, -1] = np.nan
    return rows


def _cut_in_a_later_row_segment(raw):
    """The file cut in the middle of the last row's segment of block 2."""
    rows = np.load(io.BytesIO(raw))
    n, p = rows.shape
    return raw[: _npy_data_start(raw) + 8 * ((n - 1) * p + BLOCK + 100) + 4]


@pytest.mark.parametrize("corrupt", [_edit_npy(_nan_in_last_block),
                                     _cut_in_a_later_row_segment],
                         ids=["nan-in-last-block", "truncated-in-a-later-segment"])
def test_grid_rows_fault_in_a_later_block_exits_2_naming_file(grid_bases, tmp_path_factory,
                                                              capsys, corrupt):
    built = grid_bases[max(grid_bases)]
    basis = _corrupted_basis(built, tmp_path_factory, "gridrows.npy", corrupt, binary=True)
    _reseal_grid_rows(basis)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_on_basis(built, "solve", basis, basis + "-solved") == 2
    assert "gridrows.npy" in capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert not os.path.exists(basis + "-solved")


@pytest.fixture(scope="module")
def desk_basis(tmp_path_factory):
    """A build with the default (desk-scale, m = 4) config, like `built`."""
    tmp = tmp_path_factory.mktemp("desk")
    cfg = write_cfg(tmp, "")
    out = str(tmp / "basis")
    assert main(["build", "--config", cfg, "--out", out]) == 0
    return dict(cfg=cfg, out=out)


def _move_on_line_151(column, step):
    """cmatrix.csv with step(value) added to the entry of line 151 that
    column(values of the line) picks."""
    def corrupt(text):
        lines = text.splitlines(True)
        row = lines[150].rstrip("\n").split(",")
        k = column([float(v) for v in row])
        row[k] = repr(float(row[k]) + step(float(row[k])))
        lines[150] = ",".join(row) + "\n"
        return "".join(lines)
    return corrupt


@pytest.mark.parametrize("path", ["stored", "fallback"])
@pytest.mark.parametrize("corrupt", [
    _move_on_line_151(lambda row: 37, lambda v: -1.0),
    _move_on_line_151(lambda row: int(np.argmax(np.abs(row))),
                      lambda v: -math.copysign(1.0, v)),
], ids=["column-38-minus-1", "largest-toward-zero"])
def test_c_that_is_not_orthonormal_exits_3_naming_it(desk_basis, tmp_path_factory, capsys,
                                                     corrupt, path):
    basis = _corrupted_basis(desk_basis, tmp_path_factory, "cmatrix.csv", corrupt)
    if path == "fallback":
        os.remove(os.path.join(basis, "gridrows.npy"))
    capsys.readouterr()
    assert _run_on_basis(desk_basis, "solve", basis, basis + "-solved") == 3
    err = capsys.readouterr().err
    assert "cmatrix.csv" in err
    assert ("gridrows.npy" if path == "stored" else "selected.txt") in err
    assert not os.path.exists(basis + "-solved")


_SEPARATORS = ", ="


def _corrupt_text(data, text):
    """Cut the text at a byte, drop one of its fields, or replace a field
    with a non-finite value, an empty string or junk."""
    how = data.draw(st.sampled_from(["cut", "drop", "replace"]))
    if how == "cut":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    field = data.draw(st.sampled_from(list(re.finditer(rf"[^{_SEPARATORS}\n]+", text))))
    lo, hi = field.span()
    if how == "replace":
        return text[:lo] + data.draw(st.sampled_from(["nan", "inf", "", "junk"])) + text[hi:]
    if lo > 0 and text[lo - 1] in _SEPARATORS:
        lo -= 1
    elif hi < len(text) and text[hi] in _SEPARATORS:
        hi += 1
    return text[:lo] + text[hi:]


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _assert_exit_names_file(built, command, basis, name):
    """The command on the basis exits 0, 2 or 3, and on 2 names the file
    (or, for a corrupted value the config catches, the key); the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = _run_on_basis(built, command, basis, basis + "-solved")
    assert rc in (0, 2, 3)
    if rc == 2:
        msg = err.getvalue()
        assert name in msg or any(f"error: {k}:" in msg for k in _CONFIG_KEYS), msg
    return rc


@given(st.sampled_from([("report", "trace.csv"), ("solve", "selected.txt"),
                        ("solve", "cmatrix.csv"), ("solve", "kernel.txt"),
                        ("solve", "powergrid.csv")]),
       st.data())
def test_corrupted_text_artifact_never_raises(built, tmp_path_factory, target, data):
    command, name = target
    basis = _corrupted_basis(built, tmp_path_factory, name,
                             lambda text: _corrupt_text(data, text))
    _assert_exit_names_file(built, command, basis, name)


def _corrupt_bytes(data, raw):
    """Cut the bytes at a position or overwrite the byte there; positions in
    the leading 128 bytes (the .npy header) are drawn as often as the rest."""
    at = data.draw(st.one_of(st.integers(0, 127), st.integers(0, len(raw) - 1)))
    if data.draw(st.booleans()):
        return raw[:at]
    return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]


@given(st.data())
def test_corrupted_grid_rows_never_raise(built, tmp_path_factory, data):
    changed = []

    def corrupt(raw):
        out = _corrupt_bytes(data, raw)
        changed.append(out != raw)
        return out

    basis = _corrupted_basis(built, tmp_path_factory, "gridrows.npy", corrupt,
                             binary=True)
    rc = _assert_exit_names_file(built, "solve", basis, "gridrows.npy")
    # any change to the file fails its checksum: never a silently wrong solve
    assert not (changed[0] and rc == 0)


# ---------------------------------------------------------------------------
# report


def test_report_rewrites_analysis(built):
    report = os.path.join(built["out"], "report.txt")
    before = open(report).read()
    os.remove(report)
    assert main(["report", "--config", built["cfg"], "--out", built["out"]]) == 0
    assert open(report).read() == before


def test_report_needs_trace(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["report", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# numerical failure exit code


@pytest.mark.parametrize("with_grid", [True, False], ids=["grid", "no-grid"])
def test_trace_round_trip_is_bit_identical(tmp_path, with_grid):
    geometry = disk_candidates(200, 24)
    grid = evaluation_grid(geometry, 0.1) if with_grid else None
    _, trace = run(disk_functional_set(geometry), KernelSpec(m=5, d=2), n_max=30,
                   eval_grid=grid)
    assert np.isnan(trace.rho).all() != with_grid  # no grid, no rho
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    back = read_trace_csv(path)
    for name in ("steps", "sigma", "rho", "h_domain", "h_boundary", "cond_c"):
        ours, read = getattr(trace, name), getattr(back, name)
        assert read.dtype == ours.dtype and read.tobytes() == ours.tobytes(), name
    assert back.kind == trace.kind


def test_matrix_round_trip(tmp_path, rng):
    M = np.tril(rng.standard_normal((12, 12)))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert np.array_equal(read_matrix_csv(path), M)
