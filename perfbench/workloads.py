"""Workload definitions shared by the benchmark runner and the reference
recorder.

Each workload is run as closed-loop sessions with a single client: one
`greedypde build` from a fixed config, then SOLVES_PER_SESSION calls of
`greedypde solve` on that basis.  The workload seed only picks which solve
instances (from the recorded pool in refs/<name>.json) each session uses.
"""

from __future__ import annotations

import os

SOLVES_PER_SESSION = 2

# `check` says how the outputs are compared with the references in refs/
# (see checks.py).  "strict": identical selections and traces equal to
# roundoff, the ROADMAP gate for desk scale.  "loose": at m = 6 the Newton
# system amplifies roundoff, so a 1e-15 relative change in the kernel values
# moves rho by ~1e-5 at full scale and flips a mirror-symmetric tie in the
# extended desk run at step 18; those workloads are held to tolerances that
# a roundoff-level change passes and a wrong result does not.
WORKLOADS = {
    "desk-m4": {
        "why": "default desk config (m=4, 2121 candidates, 200 steps): grid "
               "tracker, duplicate evaluate_basis and import dominate; inline "
               "map_blocks and no reorthogonalization",
        "config": {},
        "check": "strict",
    },
    "full-m6": {
        "why": "paper scale (m=6, 17711 candidates, 500 steps): bilaplacian "
               "columns, N x |Lambda| matvecs, threaded map_blocks, 354 reorth "
               "passes, O(N^2) condition estimate and 500x500 cmatrix I/O",
        "config": {"m": 6, "domain_count": 17570, "boundary_count": 150,
                   "n_max": 500},
        "check": "loose",
    },
    "desk-ext-m6": {
        "why": "extended rule at m=6, desk sizes: tracker consulted every step, "
               "29 boundary picks weight kernel_value and cross columns, 53 "
               "reorth passes at small |Lambda|",
        "config": {"m": 6, "mode": "extended"},
        "check": "loose",
    },
}


def usable_cores() -> int:
    """Cores this process may run on (the affinity mask, not os.cpu_count)."""
    return len(os.sched_getaffinity(0))


def config_text(workload: str, instance: dict | None = None) -> str:
    """Config file for the workload's build, or for one solve instance.

    `workers` is always written explicitly: the program's default of 0 means
    os.cpu_count(), which ignores the affinity mask.
    """
    keys = dict(WORKLOADS[workload]["config"])
    keys["workers"] = usable_cores()
    if instance is not None:
        keys["problem"] = instance["problem"]
        keys["problem_center"] = "{!r}, {!r}".format(*instance["problem_center"])
        if instance["problem"] == "gaussian":
            keys["problem_shape"] = instance["problem_shape"]
        else:
            keys["problem_exponent"] = instance["problem_exponent"]
    return "".join(f"{k} = {v}\n" for k, v in keys.items())
