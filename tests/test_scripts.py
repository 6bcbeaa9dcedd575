import importlib.util
import os
import re
import shutil
import subprocess
import sys

import numpy as np

import greedypde

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_desk_experiments_script_runs(tmp_path):
    # the battery builds, solves and re-reads bases through the library
    # (cmd_build, cmd_solve, load_basis, evaluate_basis, the rho column)
    src = os.path.dirname(os.path.dirname(greedypde.__file__))
    out = tmp_path / "exp"
    child = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_desk_experiments.py"),
         "--domain", "200", "--boundary", "24", "--steps", "24", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert child.returncode == 0, child.stderr
    assert sorted(os.listdir(out)) == [
        "build_m4", "build_m4_extended", "build_m5", "build_m6",
        "solve_gaussian", "solve_powercusp"]


def test_readme_library_example_runs():
    # the README's python block, run as written, against the public signatures
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    u_approx, grid = scope["u_approx"], scope["grid"]
    assert u_approx.shape == (len(grid.points),)
    assert np.isfinite(u_approx).all()


def test_mutant_catalogue_edits_the_tree(tmp_path):
    # scripts/mutants.py finds each mutant's text exactly once in its file,
    # so the catalogue edits what it says it edits
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    sys.modules["mutants"] = mutants
    try:
        spec.loader.exec_module(mutants)
    finally:
        del sys.modules["mutants"]
    assert len(mutants.CATALOGUE) == len({m.name for m in mutants.CATALOGUE}) == 49
    for m in mutants.CATALOGUE:
        target = tmp_path / m.name / m.path
        target.parent.mkdir(parents=True)
        shutil.copy(os.path.join(ROOT, m.path), target)
        before = target.read_text()
        mutants.apply(m, str(tmp_path / m.name))
        assert target.read_text() == before.replace(m.old, m.new) != before, m.name
