import os
import subprocess
import sys

import greedypde

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_desk_experiments_script_runs(tmp_path):
    # the battery builds, solves and re-reads bases through the library
    # (cmd_build, cmd_solve, restore_state, basis_on_grid, the rho column)
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
