"""Child processes for the benchmark: the working tree's `greedypde`, run in
fresh interpreters, timed and measured one child at a time."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Runs in every child.  argv: <src dir> (build|solve ... | setup <config>).
# Exits nonzero unless `greedypde` resolves to the working tree.  `setup`
# imports the CLI and builds the workload's candidates, functional set and
# evaluation grid.
CHILD_CODE = """\
import os, sys
src = os.path.realpath(sys.argv[1])
import greedypde
if not os.path.realpath(greedypde.__file__).startswith(src + os.sep):
    sys.exit(f"greedypde was imported from {greedypde.__file__}, not from {src}")
import greedypde.cli as cli
if sys.argv[2] != "setup":
    sys.exit(cli.main(sys.argv[2:]))
cfg = greedypde.load_config(sys.argv[3])
geometry = greedypde.disk_candidates(cfg.domain_count, cfg.boundary_count)
greedypde.disk_functional_set(geometry)
greedypde.evaluation_grid(geometry, cfg.grid_spacing)
"""


def import_greedypde():
    """Import the working tree's `greedypde.cli`; exits if another copy
    would be imported instead."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import greedypde
    import greedypde.cli
    if not os.path.realpath(greedypde.__file__).startswith(str(SRC) + os.sep):
        sys.exit(f"greedypde was imported from {greedypde.__file__}, not from {SRC}")
    return greedypde.cli


def library_context() -> dict:
    """Versions of the code under test and the libraries it runs on."""
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"greedypde": import_greedypde().__file__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    log: Path

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args: list, log: Path, timeout: float) -> Child:
    """Run CHILD_CODE with args; wall time from spawn to reap, and the
    child's own peak RSS from wait4 (RUSAGE_CHILDREN would report the
    maximum over every child reaped so far)."""
    cmd = [sys.executable, "-c", CHILD_CODE, str(SRC), *map(str, args)]
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, log)


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def log_tail(log: Path, lines: int = 5) -> str:
    try:
        return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no log)"
