"""Artifacts written by the CLI and read back by the package itself: run
traces, matrices, power grids, grid representer rows, error/coefficient
tables and reports.

Every CSV body is read by one loader, _read_rows.  kernel.txt is not here: it
is three lines of the config grammar, read back with config.parse_pairs."""

from __future__ import annotations

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
    """The trace write_trace_csv wrote: its header, then at least one row of
    7 fields; anything else raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "N,sigma,rho,kind,h_domain,h_boundary,cond_C":
            raise ValueError(f"unexpected trace header {header!r}")
        steps, sigma, rho, kind, hd, hb, cc = _read_rows(fh, dtype=str).T
    return RunTrace(
        steps=steps.astype(int),
        sigma=sigma.astype(float),
        rho=rho.astype(float),
        kind=kind.tolist(),
        h_domain=hd.astype(float),
        h_boundary=hb.astype(float),
        cond_c=cc.astype(float),
    )


# ---------------------------------------------------------------------------
# dense matrices (cmatrix.csv), comma-separated rows, no header


def write_matrix_csv(path, matrix) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)),
               fmt=f"%{_FMT}", delimiter=",")


def _read_rows(fh, dtype=float) -> np.ndarray:
    """The comma-separated rows from fh's position on, as a 2-D array of dtype.

    Empty lines are skipped.  A body with no data row raises ValueError:
    np.loadtxt would only warn and return an empty array.
    """
    start = fh.tell()
    if not any(line.strip() for line in iter(fh.readline, "")):
        raise ValueError("no data rows")
    fh.seek(start)
    return np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, dtype=dtype)


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


def _check_crc32(path, checksum_path) -> None:
    with open(checksum_path, "rb") as fh:
        text = fh.read()
    try:
        expected = int(text)
    except ValueError:
        raise ValueError(f"{checksum_path} holds {text[:40]!r}, not a CRC-32") from None
    actual = _file_crc32(path)
    if actual != expected:
        raise ValueError(f"CRC-32 is {actual}, but {checksum_path} records {expected}")


def _read_npy_header(fh) -> tuple:
    """(shape, fortran_order, dtype) of the .npy file at fh's start; leaves
    fh at the first data byte."""
    try:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            return np.lib.format.read_array_header_1_0(fh)
        if version == (2, 0):
            return np.lib.format.read_array_header_2_0(fh)
    except tokenize.TokenError as exc:  # from numpy's fallback header parser
        raise ValueError(f"unreadable array header: {exc}") from exc
    raise ValueError(f"unsupported .npy format version {version}")


def read_grid_row_blocks(path, checksum_path, shape, blocks):
    """Yield (J, rows[:, J]) for each column slice J of blocks, in order, from
    a file whose CRC-32 is the one in checksum_path and that holds a 2-D,
    C-ordered float64 array of the given shape.

    Each block is read as one segment per row into one buffer, which the next
    block overwrites: the caller may use a block, as scratch too, until it
    asks for the next.  Anything else raises ValueError: a bad checksum or
    header before the first block, a truncated file or a non-finite entry
    when the block that holds it is reached.

    The checksum covers the header as well as the data, since numpy's header
    parser reads some altered headers (other padding whitespace, another
    spelling of the byte order) as the original.
    """
    _check_crc32(path, checksum_path)
    with open(path, "rb", buffering=0) as fh:
        stored, fortran_order, dtype = _read_npy_header(fh)
        if len(stored) != 2 or fortran_order or dtype != np.float64:
            raise ValueError("expected a 2-D, C-ordered float64 array")
        if stored != tuple(shape):
            raise ValueError(f"shape {stored}, expected {tuple(shape)}")
        n_rows, n_cols = shape
        data_start = fh.tell()
        flat = np.empty(n_rows * max(j.stop - j.start for j in blocks))
        for j in blocks:
            block = flat[: n_rows * (j.stop - j.start)].reshape(n_rows, j.stop - j.start)
            for k, row in enumerate(block):
                fh.seek(data_start + 8 * (k * n_cols + j.start))
                if fh.readinto(row) != row.nbytes:
                    raise ValueError(f"truncated array file: row {k} ends before "
                                     f"column {j.stop}")
            if not np.isfinite(block).all():
                raise ValueError("grid rows have a non-finite entry in columns "
                                 f"[{j.start}, {j.stop})")
            yield j, block


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
            fh.write(f"{name},{_fmt(slope)},{_fmt(lo)},{_fmt(hi)}\n")


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
