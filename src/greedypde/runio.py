"""Artifacts written by the CLI and read back by the package itself: run
traces, matrices, power grids, grid representer rows, error/coefficient
tables and reports."""

from __future__ import annotations

import math
import tokenize
import zlib

import numpy as np

from .engine import RunTrace

_FMT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FMT)


# ---------------------------------------------------------------------------
# trace.csv


def write_trace_csv(path, trace: RunTrace) -> None:
    with open(path, "w") as fh:
        fh.write("N,sigma,rho,kind,h_domain,h_boundary,cond_C\n")
        for i in range(len(trace.steps)):
            fh.write(
                f"{trace.steps[i]},{_fmt(trace.sigma[i])},{_fmt(trace.rho[i])},"
                f"{trace.kind[i]},{_fmt(trace.h_domain[i])},"
                f"{_fmt(trace.h_boundary[i])},{_fmt(trace.cond_c[i])}\n"
            )


def read_trace_csv(path) -> RunTrace:
    """A trace with at least one row of 7 fields; anything else raises
    ValueError."""
    steps, sigma, rho, kind, hd, hb, cc = [], [], [], [], [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "N,sigma,rho,kind,h_domain,h_boundary,cond_C":
            raise ValueError(f"unexpected trace header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            f = line.split(",")
            if len(f) != 7:
                raise ValueError(f"expected 7 fields, got {len(f)} in {line!r}")
            steps.append(int(f[0]))
            sigma.append(float(f[1]))
            rho.append(float(f[2]))
            kind.append(f[3])
            hd.append(float(f[4]))
            hb.append(float(f[5]))
            cc.append(float(f[6]))
    if not steps:
        raise ValueError("trace has no rows")
    return RunTrace(
        steps=np.array(steps),
        sigma=np.array(sigma),
        rho=np.array(rho),
        kind=kind,
        h_domain=np.array(hd),
        h_boundary=np.array(hb),
        cond_c=np.array(cc),
    )


# ---------------------------------------------------------------------------
# dense matrices (cmatrix.csv), comma-separated rows, no header


def write_matrix_csv(path, matrix) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)),
               fmt=f"%{_FMT}", delimiter=",")


def _read_rows(fh) -> np.ndarray:
    """The comma-separated rows from fh's position on, as a 2-D array.

    Empty lines are skipped.  A body with no data row raises ValueError:
    np.loadtxt would only warn and return an empty array.
    """
    start = fh.tell()
    if not any(line.strip() for line in iter(fh.readline, "")):
        raise ValueError("no data rows")
    fh.seek(start)
    return np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        return _read_rows(fh)


# ---------------------------------------------------------------------------
# tabular CSVs with a header row


def write_table_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt=f"%{_FMT}", delimiter=",",
               header=",".join(header), comments="")


def read_table_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, _read_rows(fh)


# ---------------------------------------------------------------------------
# raw representer rows on the evaluation grid (gridrows.npy), checked by the
# CRC-32 of the whole file, kept as one decimal line (gridrows.crc32)


def _file_crc32(path) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            crc = zlib.crc32(block, crc)
    return crc


def write_grid_rows(path, checksum_path, rows: np.ndarray) -> None:
    np.save(path, rows)
    with open(checksum_path, "w") as fh:
        fh.write(f"{_file_crc32(path)}\n")


def read_grid_rows(path, checksum_path) -> np.ndarray:
    """A 2-D, finite float64 array from a file whose CRC-32 is the one in
    checksum_path; anything else raises ValueError.

    The checksum covers the header as well as the data, since np.load reads
    some altered headers (other padding whitespace, another spelling of the
    byte order) as the original.
    """
    with open(checksum_path, "rb") as fh:
        text = fh.read()
    try:
        expected = int(text)
    except ValueError:
        raise ValueError(f"{checksum_path} holds {text[:40]!r}, not a CRC-32") from None
    actual = _file_crc32(path)
    if actual != expected:
        raise ValueError(f"CRC-32 is {actual}, but {checksum_path} records {expected}")
    try:
        rows = np.load(path, allow_pickle=False)
    except EOFError as exc:
        raise ValueError(f"truncated array file: {exc}") from exc
    except tokenize.TokenError as exc:  # from numpy's fallback header parser
        raise ValueError(f"unreadable array header: {exc}") from exc
    if not isinstance(rows, np.ndarray) or rows.ndim != 2 or rows.dtype != np.float64:
        raise ValueError("expected a 2-D float64 array")
    if not np.isfinite(rows).all():
        raise ValueError("grid rows have a non-finite entry")
    return rows


# ---------------------------------------------------------------------------
# key=value parameter files (kernel.txt)


def write_params(path, params: dict) -> None:
    with open(path, "w") as fh:
        for k, v in params.items():
            fh.write(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n")


def read_params(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got {line!r}")
            k, v = (p.strip() for p in line.split("=", 1))
            try:
                out[k] = int(v)
            except ValueError:
                out[k] = float(v)
    return out


# ---------------------------------------------------------------------------
# report + plot script


def format_report(lines: dict) -> str:
    width = max(len(k) for k in lines)
    return "\n".join(f"{k.ljust(width)} : {v}" for k, v in lines.items()) + "\n"


def write_rates_csv(path, rates: list[tuple[str, float, float, float]]) -> None:
    """Rows of (quantity, slope, window_lo, window_hi)."""
    with open(path, "w") as fh:
        fh.write("quantity,slope,window_lo,window_hi\n")
        for name, slope, lo, hi in rates:
            slope_s = "nan" if slope is None or math.isnan(slope) else _fmt(slope)
            fh.write(f"{name},{slope_s},{_fmt(lo)},{_fmt(hi)}\n")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Render the run trace written next to this script.
import csv
import math

import matplotlib.pyplot as plt

steps, sigma, rho, cond = [], [], [], []
with open("trace.csv") as fh:
    for row in csv.DictReader(fh):
        steps.append(int(row["N"]))
        sigma.append(float(row["sigma"]))
        rho.append(float(row["rho"]))
        cond.append(float(row["cond_C"]))

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
ax1.loglog(steps, sigma, label="sigma")
if any(not math.isnan(v) for v in rho):
    ax1.loglog(steps, rho, label="rho")
ax1.set_xlabel("N")
ax1.legend()
ax2.loglog(steps, cond, label="cond(C)")
ax2.set_xlabel("N")
ax2.legend()
fig.tight_layout()
fig.savefig("trace_plots.png", dpi=150)
print("wrote trace_plots.png")
"""


def write_plot_script(path) -> None:
    with open(path, "w") as fh:
        fh.write(_PLOT_SCRIPT)
