#!/usr/bin/env python3
"""Mutation check of the tier-1 suite: does some test fail for each of a
catalogue of one-line faults in src/greedypde?

    python3 scripts/mutants.py [--work DIR] [--only NAME ...]

For each mutant the script copies the repository (without .git and caches)
to a directory under --work (default: a new temporary directory), applies
the mutant's edit there, runs `python -m pytest -x -q` in the copy and
prints KILLED with the first failing test, or SURVIVED; a mutated copy
leaves out the test that the catalogue's texts are in the tree.  An
equivalent mutant, which no test can tell from the program, carries its
reason and is expected to survive.  The unmutated copy runs first: if it fails, no result
would mean anything, and the script stops.  Each mutant costs up to one
tier-1 run (about 25 s), so the check is not part of tier-1.  Exit status 0
when every mutant that is not equivalent is killed, 1 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                  ".bench_work", "*.egg-info")
# The test that this catalogue's texts are in the tree fails on every
# mutated copy, so a mutated copy does not run it.
_CATALOGUE_TEST = "tests/test_scripts.py::test_mutant_catalogue_edits_the_tree"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    equivalent: str | None = None  # why no test can kill it


def _src(module: str) -> str:
    return os.path.join("src", "greedypde", module)


CATALOGUE = [
    Mutant("fill-distance-other-kind", _src("engine.py"),
           "out=nearest, where=own)", "out=nearest, where=~own)"),
    Mutant("negative-residual-accepted", _src("engine.py"),
           "if float((res / state.diag).min()) < -_NEGATIVE_FLOOR:", "if False:"),
    Mutant("boundary-branch-ignores-stop-tol", _src("engine.py"),
           "if state.residual_power[j] > _threshold(state, stop_tol):",
           "if state.residual_power[j] > 0.0:"),
    Mutant("restore-keeps-upper-triangle", _src("engine.py"),
           "        c = np.tril(c)\n", "        pass\n"),
    Mutant("power-tolerance-1e-3", _src("cli.py"),
           "_POWER_TOL = 1e-10", "_POWER_TOL = 1e-3"),
    Mutant("stored-grid-matched-by-shape", _src("cli.py"),
           "if stored.shape == points.shape and stored.tobytes() == points.tobytes():",
           "if stored.shape == points.shape:"),
    Mutant("fit-window-open-below", _src("analysis.py"),
           "mask = (xs >= lo) & (xs <= hi)", "mask = (xs > lo) & (xs <= hi)"),
    Mutant("data-length-unchecked", _src("solver.py"),
           "if data.shape != (n,):", "if False:"),
    Mutant("extended-rule-strict", _src("engine.py"),
           "bmax >= float(y_power.max())", "bmax > float(y_power.max())"),
    Mutant("deflation-unclamped", _src("engine.py"),
           "    np.maximum(power, 0.0, out=power)\n", ""),
    Mutant("select-threshold-strict", _src("engine.py"),
           "if state.residual_power[i] <= _threshold(state, stop_tol):",
           "if state.residual_power[i] < _threshold(state, stop_tol):"),
    Mutant("norm1-min", _src("engine.py"),
           "float(sums[: k + 1].max())", "float(sums[: k + 1].min())"),
    Mutant("hager-one-iteration", _src("analysis.py"),
           "max_iter: int = 5", "max_iter: int = 1"),
    Mutant("zero-diagonal-accepted", _src("cli.py"),
           "if not (np.diagonal(cmat) > 0.0).all():",
           "if not (np.diagonal(cmat) >= 0.0).all():"),
    Mutant("block-finiteness-unchecked", _src("cli.py"),
           "if not np.isfinite(p2[j]).all():", "if False:"),
    Mutant("errors-from-one-block", _src("cli.py"),
           "np.maximum(errors, np.abs(values, out=values).max(axis=1), out=errors)",
           "errors[:] = np.abs(values, out=values).max(axis=1)"),
    Mutant("duplicate-pick-accepted", _src("engine.py"),
           "if r <= 0.0 or chosen in state.selected:", "if r <= 0.0:"),
    Mutant("kernel-file-ignored", _src("cli.py"),
           "if params != ours:", "if False:"),
    Mutant("newton-columns-kept-through-grid-pass", _src("engine.py"),
           "    state._columns = np.zeros((0, len(fset)))\n", ""),
    Mutant("grid-blocks-drop-tail", _src("engine.py"),
           "for a in range(0, max(n_points, 1), BLOCK)]",
           "for a in range(0, max(n_points - BLOCK + 1, 1), BLOCK)]"),
    Mutant("known-rows-ignored", _src("engine.py"),
           "lo, hi = np.searchsorted(cols, (j.start, j.stop))", "lo = hi = 0"),
    Mutant("stop-tol-one-accepted", _src("config.py"),
           "if not 0 <= self.stop_tol < 1:", "if not 0 <= self.stop_tol <= 1:"),
    Mutant("fit-rate-two-samples", _src("analysis.py"),
           "if mask.sum() < 5:", "if mask.sum() < 2:"),
    Mutant("limit-radius-1e-6", _src("kernels.py"),
           "_LIMIT_RADIUS = 1e-8", "_LIMIT_RADIUS = 1e-6"),
    Mutant("zero-first-error-accepted", _src("cli.py"),
           "if not errors[0] > 0.0:", "if False:"),
    Mutant("threshold-min-diag", _src("engine.py"),
           "return stop_tol * float(state.diag.max())",
           "return stop_tol * float(state.diag.min())"),
    Mutant("real-keys-finite-unchecked", _src("config.py"),
           "if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):",
           "if False:"),
    Mutant("diameter-first-chain-only", _src("geometry.py"),
           "return np.array(half(pts) + half(pts[::-1]))", "return np.array(half(pts))"),
    Mutant("h-boundary-from-domain", _src("engine.py"),
           "h[is_boundary] = float(nearest[own].max())",
           "h[is_boundary] = float(nearest.max())"),
    Mutant("bmax-before-extend", _src("engine.py"),
           'bmax = float(state.residual_power[bnd_idx].max())',
           'bmax = float(state.diag[bnd_idx].max())'),
    Mutant("negative-floor-1e-2", _src("engine.py"),
           "_NEGATIVE_FLOOR = 1e-6", "_NEGATIVE_FLOOR = 1e-2"),
    Mutant("checksum-names-unchecked", _src("runio.py"),
           "if recorded is None or sorted(recorded) != sorted(names):",
           "if recorded is None:"),
    Mutant("npy-fortran-order-accepted", _src("runio.py"),
           "if len(stored) != 2 or fortran_order or dtype != np.float64:",
           "if len(stored) != 2 or dtype != np.float64:"),
    Mutant("report-window-full-trace", _src("cli.py"),
           "window = (trace.steps[-1] / 2.0, float(trace.steps[-1]))",
           "window = (1.0, float(trace.steps[-1]))"),
    Mutant("collocation-pivot-1e-3", _src("solver.py"),
           "if pivots.min() <= 1e-7 * pivots.max():",
           "if pivots.min() <= 1e-3 * pivots.max():"),
    Mutant("y-size-unclamped", _src("cli.py"),
           "y_size = min(cfg.y_size, grid.n_interior)", "y_size = cfg.y_size"),
    Mutant("table-quarter-full-to-half", _src("functionals.py"),
           "if 4 * (self._size + len(keys)) > len(self._keys):",
           "if 2 * (self._size + len(keys)) > len(self._keys):",
           equivalent="the bilaplacian table's load factor changes only how "
                      "far a lookup probes, never a value"),
    Mutant("solves-ignore-trans", _src("analysis.py"),
           "trans=trans, check_finite=False)", "trans=0, check_finite=False)"),
    Mutant("known-columns-not-copied", _src("engine.py"),
           "        raw[:, have] = known_rows[:, lo:hi]\n", ""),
    Mutant("cond-norm-before-row", _src("engine.py"),
           "        sums[: k + 1] += np.abs(c[k, : k + 1])\n"
           "        cond[k] = analysis.condition_estimate(\n"
           "            l[: k + 1, : k + 1], float(sums[: k + 1].max()), inverse=True)\n",
           "        cond[k] = analysis.condition_estimate(\n"
           "            l[: k + 1, : k + 1], float(sums[: k + 1].max()), inverse=True)\n"
           "        sums[: k + 1] += np.abs(c[k, : k + 1])\n"),
    Mutant("cond-l-whole-columns", _src("engine.py"),
           "l[k, : k + 1] = state._columns[: k + 1, i]", "l[k] = state._columns[:n, i]"),
    Mutant("cond-l-by-step", _src("engine.py"),
           "l[k, : k + 1] = state._columns[: k + 1, i]",
           "l[k, : k + 1] = state._columns[: k + 1, k]"),
    Mutant("known-rows-by-position", _src("engine.py"),
           "have = cols[lo:hi] - j.start", "have = np.arange(hi - lo)"),
    Mutant("trace-sigma-16-digits", _src("runio.py"),
           'fmt=["%d", _FMT, _FMT, "%s", _FMT, _FMT, _FMT]',
           'fmt=["%d", "%.16g", _FMT, "%s", _FMT, _FMT, _FMT]'),
    Mutant("selected-coordinates-16-digits", _src("functionals.py"),
           '["%.17g"] * (table.shape[-1] - 1)', '["%.16g"] * (table.shape[-1] - 1)'),
    Mutant("dump-pairs-no-trailing-newline", _src("config.py"),
           "for k, v in pairs.items())", "for k, v in pairs.items())[:-1]"),
    Mutant("newton-columns-padded-to-4", _src("engine.py"),
           "return -(-width // 8) * 8", "return -(-width // 4) * 4"),
    Mutant("newton-columns-unpadded", _src("engine.py"),
           "return -(-width // 8) * 8", "return width"),
    Mutant("npy-version-unchecked", _src("runio.py"),
           "if version != (1, 0):", "if False:"),
]


def apply(mutant: Mutant, tree: str) -> None:
    """Edit the file of tree that the mutant names."""
    path = os.path.join(tree, mutant.path)
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run_tier1(tree: str, mutated: bool) -> tuple[bool, str, float]:
    """(passed, first failing test or '', seconds) of tier-1 in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    deselect = ["--deselect", _CATALOGUE_TEST] if mutated else []
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1200)
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", child.stdout, re.M)
    return child.returncode == 0, failed.group(1) if failed else "", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", default=None,
                        help="directory for the copies (default: a new temporary one)")
    parser.add_argument("--only", nargs="+", default=None, metavar="NAME",
                        help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = [m for m in CATALOGUE if args.only is None or m.name in args.only]
    work = args.work or tempfile.mkdtemp(prefix="greedypde-mutants-")
    os.makedirs(work, exist_ok=True)

    base = os.path.join(work, "unmutated")
    shutil.rmtree(base, ignore_errors=True)
    shutil.copytree(ROOT, base, ignore=_IGNORED)
    passed, failing, seconds = run_tier1(base, mutated=False)
    shutil.rmtree(base, ignore_errors=True)
    if not passed:
        print(f"the unmutated suite fails ({failing or 'no test named'}); no mutant run")
        return 1
    print(f"unmutated: passed in {seconds:.1f} s", flush=True)

    missed = []
    for m in mutants:
        tree = os.path.join(work, m.name)
        shutil.rmtree(tree, ignore_errors=True)
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        apply(m, tree)
        passed, failing, seconds = run_tier1(tree, mutated=True)
        shutil.rmtree(tree, ignore_errors=True)
        if not passed:
            verdict = f"KILLED by {failing or 'a failed run'}"
        elif m.equivalent:
            verdict = f"SURVIVED (equivalent: {m.equivalent})"
        else:
            verdict = "SURVIVED"
            missed.append(m.name)
        print(f"{m.name:40s} {verdict} [{seconds:.1f} s]", flush=True)
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(mutants) - len(missed)} of {len(mutants)} killed or equivalent"
          + (f"; not killed: {', '.join(missed)}" if missed else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
