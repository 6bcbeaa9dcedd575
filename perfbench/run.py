"""Benchmark runner for `greedypde`.

    python3 perfbench/run.py --workload desk-m4 --seed 1 --seconds 35 --trace 0

Untraced (`--trace 0`): times a fresh set-up subprocess SETUP_REPEATS times,
then runs closed-loop sessions with one client until `--seconds` seconds
(set-up included) are used up; the first session always runs.  A session is
one `greedypde build` subprocess followed by SOLVES_PER_SESSION
`greedypde solve` subprocesses on that basis.  Every
child runs the working tree's `src/greedypde` and is measured on its own
(wall time from spawn to reap, peak RSS from wait4).  Each output is checked
against perfbench/refs/<workload>.json; a nonzero exit or a failed check
counts as a failed operation.

Traced (`--trace 1`): runs sessions in-process through `cli.cmd_build` and
`cli.cmd_solve`, alternately untraced and with every public function of the
layer modules wrapped by the span recorder (spans.py), and reports per-layer
metrics plus the tracing overhead.

The seed only picks the solve instances from the recorded pool.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
from harness import SRC, WORK, git_sha, import_greedypde, library_context, log_tail, run_child
from spans import Recorder, layer_metrics
from workloads import SOLVES_PER_SESSION, WORKLOADS, config_text, usable_cores

REFS = Path(__file__).resolve().parent / "refs"
SETUP_REPEATS = 7
# Children are killed once the run has taken this long, so that the run
# ends well within three minutes even if the program hangs.
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s", "build_s": "s", "solve_s": "s", "build_peak_rss_mb": "MB",
    "solve_peak_rss_mb": "MB", "final_sigma": "1", "solve_max_error": "ratio",
}


class Tally:
    """Attempted and failed operations; problems go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list, log: Path | None = None) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)
            if log is not None:
                print(log_tail(log), file=sys.stderr)
        return not problems


def _exit_problems(child) -> list:
    return [] if child.ok else [f"exit code {child.exit_code}"]


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.policy = self.spec["check"]
        self.ref = json.loads((REFS / f"{workload}.json").read_text())
        self.pool = self.ref["instances"]
        self.rng = random.Random(seed)
        self.work = work
        self.tally = Tally()
        self.samples = defaultdict(list)
        self.started = time.perf_counter()
        self.build_cfg = work / "build.cfg"
        self.build_cfg.write_text(config_text(workload))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def picks(self) -> list:
        return [self.rng.randrange(len(self.pool)) for _ in range(SOLVES_PER_SESSION)]

    def solve_cfg(self, sdir: Path, j: int, idx: int) -> Path:
        path = sdir / f"solve{j}.cfg"
        path.write_text(config_text(self.workload, self.pool[idx]))
        return path

    # -- untraced: subprocesses ------------------------------------------

    def setup(self) -> None:
        """Time SETUP_REPEATS fresh set-up children."""
        for i in range(SETUP_REPEATS):
            log = self.work / f"setup{i}.log"
            child = run_child(["setup", self.build_cfg], log, self.remaining())
            if self.tally.record(f"setup {i}", _exit_problems(child), log):
                self.samples["setup_s"].append(child.wall_s)

    def session(self, k: int) -> None:
        sdir = self.work / f"s{k}"
        sdir.mkdir()
        picks = self.picks()
        basis = sdir / "basis"
        child = run_child(["build", "--config", self.build_cfg, "--out", basis],
                          sdir / "build.log", self.remaining())
        problems = _exit_problems(child) or checks.check_build(basis, self.ref, self.policy)
        if child.ok:
            self.samples["build_s"].append(child.wall_s)
            self.samples["build_peak_rss_mb"].append(child.peak_rss_mb)
        if not self.tally.record(f"session {k} build", problems, child.log):
            return
        self.samples["final_sigma"].append(
            checks.read_trace(basis / "trace.csv")["sigma"][-1])
        for j, idx in enumerate(picks):
            out = sdir / f"solve{j}"
            child = run_child(["solve", "--config", self.solve_cfg(sdir, j, idx),
                               "--basis", basis, "--out", out],
                              sdir / f"solve{j}.log", self.remaining())
            problems = _exit_problems(child)
            if child.ok:
                self.samples["solve_s"].append(child.wall_s)
                self.samples["solve_peak_rss_mb"].append(child.peak_rss_mb)
                problems, final = checks.check_solve(
                    out, self.pool[idx]["max_abs_error"], self.policy)
                if not problems:
                    self.samples["solve_max_error"].append(
                        final / self.pool[idx]["max_abs_error"][-1])
            self.tally.record(f"session {k} solve {j} (instance {idx})", problems,
                              child.log)
        shutil.rmtree(sdir)

    def measure(self, seconds: float) -> int:
        """Set-up timings, then sessions; returns the session count."""
        self.setup()
        durations = []
        while True:
            s0 = time.perf_counter()
            self.session(len(durations))
            durations.append(time.perf_counter() - s0)
            # Start another session only if a typical one still fits.
            if time.perf_counter() - self.started + statistics.median(durations) > seconds:
                break
        return len(durations)

    def end_to_end(self) -> dict:
        return {name: (statistics.median(self.samples[name]) if self.samples[name]
                       else None, unit)
                for name, unit in END_TO_END_UNITS.items()}

    # -- traced: in-process ----------------------------------------------

    def _attempt(self, what: str, fn) -> tuple[bool, float]:
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # any failure of the program is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.tally.record(what, [f"{type(exc).__name__}: {exc}"])
            return False, 0.0
        return True, time.perf_counter() - t0

    def inprocess_session(self, cli, tag: str, picks: list) -> float:
        """One session through cli.cmd_build/cmd_solve; returns the time
        spent in the program (output checks excluded)."""
        sdir = self.work / tag
        sdir.mkdir()
        basis = sdir / "basis"
        ok, spent = self._attempt(f"{tag} build", lambda: cli.cmd_build(
            cli.load_config(self.build_cfg), str(basis)))
        if not ok or not self.tally.record(
                f"{tag} build", checks.check_build(basis, self.ref, self.policy)):
            return spent
        for j, idx in enumerate(picks):
            out = sdir / f"solve{j}"
            cfg = self.solve_cfg(sdir, j, idx)
            ok, t = self._attempt(f"{tag} solve {j}", lambda: cli.cmd_solve(
                cli.load_config(cfg), str(basis), str(out)))
            spent += t
            if ok:
                problems, _ = checks.check_solve(
                    out, self.pool[idx]["max_abs_error"], self.policy)
                self.tally.record(f"{tag} solve {j} (instance {idx})", problems)
        shutil.rmtree(sdir)
        return spent

    def traced(self, seconds: float) -> tuple[dict, int]:
        """Alternate untraced and traced in-process sessions on the same
        instances while a pair still fits in `seconds` (at least one pair).
        Per-layer metrics come from the first traced session; the overhead
        compares the medians of the two kinds.  Returns the metrics and the
        session count."""
        t0 = time.perf_counter()
        cli = import_greedypde()
        import_s = time.perf_counter() - t0
        picks = self.picks()
        walls = {"untraced": [], "traced": []}
        spans = None
        while True:
            p0 = time.perf_counter()
            k = len(walls["traced"])
            walls["untraced"].append(self.inprocess_session(cli, f"untraced{k}", picks))
            recorder = Recorder()
            recorder.install()
            try:
                walls["traced"].append(self.inprocess_session(cli, f"traced{k}", picks))
            finally:
                recorder.uninstall()
            if spans is None:
                spans = recorder.spans
            pair = time.perf_counter() - p0
            if time.perf_counter() - self.started + pair > seconds:
                break
        metrics = layer_metrics(spans)
        metrics["cli.import_s"] = (import_s, "s")
        untraced = statistics.median(walls["untraced"])
        metrics["trace.overhead_frac"] = (
            statistics.median(walls["traced"]) / untraced - 1.0 if untraced else 0.0, "1")
        return metrics, 2 * k + 2


def _print_table(metrics: dict, samples: dict) -> None:
    for name, (value, unit) in metrics.items():
        vals = samples.get(name, [])
        spread = (f"  (n={len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})"
                  if vals else "")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:42s} {shown:>14s} {unit}{spread}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "greedypde" / "cli.py", REFS / f"{args.workload}.json")
               if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            metrics, sessions = run.traced(args.seconds)
        else:
            sessions = run.measure(args.seconds)
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    context = library_context()
    context.update({
        "workload": args.workload, "why": run.spec["why"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sessions": sessions,
        "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": usable_cores(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    })
    print("context " + json.dumps(context))
    _print_table(metrics, run.samples)
    tally = run.tally
    print(f"{'failed_frac':42s} {tally.failed / tally.attempted:>14.6g} 1  "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
