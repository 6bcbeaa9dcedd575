#!/usr/bin/env python3
"""Desk-scale experiment battery.

Runs the smoothness sweep (m = 4, 5, 6), the extended-selection comparison at
m = 4, and the basis-reuse solves (smooth Gaussian vs. power cusp) on the m=6
basis.  Prints a summary table and leaves the full artifacts of every run
under the output directory, one subdirectory per run.

The defaults finish in well under a minute; pass --domain 17570 --boundary 150
--steps 500 to reproduce the full-scale figures (slow).
"""

import argparse
import math
import os
import sys

import numpy as np

from greedypde.analysis import fit_rate, singular_values
from greedypde.cli import basis_on_grid, cmd_build, cmd_solve
from greedypde.config import RunConfig
from greedypde.engine import restore_state
from greedypde.functionals import FunctionalSet, read_functionals
from greedypde.geometry import disk_candidates, evaluation_grid
from greedypde.kernels import KernelSpec
from greedypde.runio import read_matrix_csv, read_table_csv, read_trace_csv


def build_config(args, m, mode="standard"):
    cfg = RunConfig()
    cfg.m = m
    cfg.mode = mode
    cfg.domain_count = args.domain
    cfg.boundary_count = args.boundary
    cfg.n_max = args.steps
    cfg.grid_spacing = args.grid_spacing
    cfg.validate()
    return cfg


def trace_summary(out_dir, window):
    trace = read_trace_csv(os.path.join(out_dir, "trace.csv"))
    return dict(
        sigma=fit_rate(trace.steps, trace.sigma, window),
        rho=fit_rate(trace.steps, trace.rho, (1, window[1])),
        cond=fit_rate(trace.steps, trace.cond_c, window),
        boundary=trace.boundary_count(),
        final_sigma=trace.sigma[-1],
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="experiments_out")
    ap.add_argument("--domain", type=int, default=2000)
    ap.add_argument("--boundary", type=int, default=120)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--grid-spacing", type=float, default=0.025)
    args = ap.parse_args()

    if os.path.exists(args.out):
        sys.exit(f"output directory {args.out!r} already exists; remove it first")
    os.makedirs(args.out)
    window = (args.steps // 4, args.steps)

    print(f"== smoothness sweep ({args.domain}+{args.boundary} candidates, "
          f"{args.steps} steps) ==")
    for m in (4, 5, 6):
        out = os.path.join(args.out, f"build_m{m}")
        cmd_build(build_config(args, m), out)
        s = trace_summary(out, window)
        print(f"  m={m}: sigma rate {s['sigma']:+.3f} (expect ~{-(m - 3) / 2:+.2f}), "
              f"rho rate {s['rho']:+.3f}, cond rate {s['cond']:+.3f}, "
              f"boundary picks {s['boundary']}/{args.steps}")

    print("== extended selection, m=4 ==")
    out_ext = os.path.join(args.out, "build_m4_extended")
    cmd_build(build_config(args, 4, mode="extended"), out_ext)
    s_std = trace_summary(os.path.join(args.out, "build_m4"), window)
    s_ext = trace_summary(out_ext, window)
    print(f"  boundary picks: standard {s_std['boundary']} vs extended "
          f"{s_ext['boundary']}; rho rate {s_std['rho']:+.3f} -> {s_ext['rho']:+.3f}")

    print("== basis reuse on the m=6 basis ==")
    basis_dir = os.path.join(args.out, "build_m6")
    for problem in ("gaussian", "powercusp"):
        cfg = build_config(args, 6)
        cfg.problem = problem
        out = os.path.join(args.out, f"solve_{problem}")
        cmd_solve(cfg, basis_dir, out)
        _, errs = read_table_csv(os.path.join(out, "errors.csv"))
        print(f"  {problem}: normalized max error {errs[-1, 2]:.2e} "
              f"after {int(errs[-1, 0])} basis functions")

    print("== singular values of the m=4 basis on the evaluation grid ==")
    m4_dir = os.path.join(args.out, "build_m4")
    entries = read_functionals(os.path.join(m4_dir, "selected.txt"))
    cmat = read_matrix_csv(os.path.join(m4_dir, "cmatrix.csv"))
    state = restore_state(FunctionalSet(entries), cmat, KernelSpec(m=4, d=2))
    geometry = disk_candidates(args.domain, args.boundary)
    grid = evaluation_grid(geometry, args.grid_spacing)
    values = basis_on_grid(m4_dir, state, grid.points).values
    sv = singular_values(values)
    idx = np.arange(1, len(sv) + 1, dtype=float)
    hi = min(150, len(sv))
    print(f"  decay rate {fit_rate(idx, sv, (5, hi)):+.3f} over [5, {hi}] "
          f"(full-scale runs show about -2.4)")

    print(f"\nartifacts under {args.out}/")


if __name__ == "__main__":
    main()
