"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [workload ...]

For each workload (default: all) this builds the basis with the working
tree's `greedypde`, solves every instance of a fixed pool of test problems on
it, and writes perfbench/refs/<workload>.json: the trace, the selection and
each instance's `max_abs_error` column.  Run it only at a commit whose
outputs are known to be right; the benchmark treats these files as truth.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
from pathlib import Path

import checks
from harness import WORK, git_sha, log_tail, run_child
from workloads import WORKLOADS, config_text

REFS = Path(__file__).resolve().parent / "refs"
POOL_SIZE = 8
POOL_SEED = 1903


def instance_pool() -> list:
    """Alternating Gaussian bumps and power cusps, centres inside r < 0.7."""
    rng = random.Random(POOL_SEED)
    pool = []
    for i in range(POOL_SIZE):
        r, t = 0.7 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
        inst = {"problem": "gaussian" if i % 2 == 0 else "powercusp",
                "problem_center": [round(r * math.cos(t), 6), round(r * math.sin(t), 6)]}
        if inst["problem"] == "gaussian":
            inst["problem_shape"] = round(rng.uniform(0.5, 2.0), 6)
        else:
            inst["problem_exponent"] = round(rng.uniform(2.2, 3.5), 6)
        pool.append(inst)
    return pool


def _run(args, log):
    child = run_child(args, log, timeout=600.0)
    if not child.ok:
        sys.exit(f"{args[0]} failed (exit {child.exit_code}):\n{log_tail(log)}")


def record(name: str) -> None:
    spec = WORKLOADS[name]
    work = WORK / f"refs-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = work / "build.cfg"
        cfg.write_text(config_text(name))
        basis = work / "basis"
        _run(["build", "--config", cfg, "--out", basis], work / "build.log")
        trace = checks.read_trace(basis / "trace.csv")
        selected = checks.read_selected(basis / "selected.txt")
        instances = []
        for j, inst in enumerate(instance_pool()):
            scfg = work / f"solve{j}.cfg"
            scfg.write_text(config_text(name, inst))
            out = work / f"solve{j}"
            _run(["solve", "--config", scfg, "--basis", basis, "--out", out],
                 work / f"solve{j}.log")
            instances.append(dict(inst, max_abs_error=checks.read_errors(out / "errors.csv")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = {"workload": name, "recorded_at": git_sha(), "config": config_text(name),
           "trace": trace, "selected": selected, "instances": instances}
    REFS.mkdir(exist_ok=True)
    (REFS / f"{name}.json").write_text(json.dumps(ref) + "\n")
    print(f"{name}: {len(trace['kind'])} steps, final sigma {trace['sigma'][-1]:.6e}, "
          f"{len(instances)} instances")


def main(argv: list) -> None:
    for name in argv or list(WORKLOADS):
        record(name)


if __name__ == "__main__":
    main(sys.argv[1:])
