"""Artifacts written by the CLI and read back by the package itself: run
traces, matrices, power grids, grid basis values and their checksums,
error/coefficient tables and reports.

Every CSV body is read by one loader, _read_rows.  kernel.txt is not here: it
is three lines of the config grammar, read back with config.parse_pairs."""

from __future__ import annotations

import contextlib
import os
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
# basis values on the evaluation grid (gridbasis.npy), and the CRC-32 lines
# that tie them to the C they were formed with (gridbasis.crc32)


def _file_crc32(path) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            crc = zlib.crc32(block, crc)
    return crc


def write_checksums(checksum_path, paths) -> None:
    """One line `<CRC-32> <file name>` per path, in order, for
    check_checksums to compare with the files as they are later."""
    with open(checksum_path, "w") as fh:
        fh.writelines(f"{_file_crc32(p)} {os.path.basename(p)}\n" for p in paths)


def check_checksums(checksum_path, paths) -> None:
    """Raise ValueError unless checksum_path holds exactly the lines that
    write_checksums(checksum_path, paths) writes for the files as they are
    now; the message names the first file whose CRC-32 differs."""
    with open(checksum_path, "rb") as fh:
        text = fh.read()
    try:
        recorded = {name: int(crc) for crc, name in
                    (line.split(b" ") for line in text.splitlines())}
    except ValueError:
        recorded = None
    names = [os.path.basename(p).encode() for p in paths]
    if recorded is None or sorted(recorded) != sorted(names):
        raise ValueError(f"holds {text[:60]!r}, not one CRC-32 line for each of "
                         f"{', '.join(n.decode() for n in names)}")
    for path, name in zip(paths, names):
        actual = _file_crc32(path)
        if actual != recorded[name]:
            raise ValueError(f"the CRC-32 of {path} is {actual}, but this file "
                             f"records {recorded[name]}")


@contextlib.contextmanager
def write_grid_blocks(path, n_cols: int):
    """Yield write(J, rows[:, J]), which stores column block J of a C-ordered
    N x n_cols float64 array in the .npy file at path, one segment per row,
    where read_grid_blocks reads it back; N is the row count of the first
    block written.  Once the blocks cover every column, the file holds the
    bytes np.save writes for the array."""
    with open(path, "wb") as fh:
        data_start = None

        def write(j: slice, block: np.ndarray) -> None:
            nonlocal data_start
            if data_start is None:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                    "fortran_order": False, "shape": (len(block), int(n_cols))})
                data_start = fh.tell()
            for k, row in enumerate(block):
                fh.seek(data_start + 8 * (k * n_cols + j.start))
                fh.write(row)

        yield write


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


def read_grid_blocks(path, shape, blocks):
    """Yield (J, rows[:, J]) for each column slice J of blocks, in order, from
    a .npy file that holds a 2-D, C-ordered float64 array of the given shape.

    Each block is read as one segment per row into one buffer, which the next
    block overwrites: the caller may use a block, as scratch too, until it
    asks for the next.  A header that does not match raises ValueError
    before the first block, and a truncated file when the row segment that
    it cuts is read.  The values are not checked: the caller checks the
    file's CRC-32 before it reads (the checksum covers the header too, since
    numpy's header parser reads some altered headers, such as other padding
    whitespace or another spelling of the byte order, as the original), and
    a solve checks each block's sums of squares for finiteness.
    """
    with open(path, "rb", buffering=0) as fh:
        stored, fortran_order, dtype = _read_npy_header(fh)
        if len(stored) != 2 or fortran_order or dtype != np.float64:
            raise ValueError("expected a 2-D, C-ordered float64 array")
        if stored != tuple(shape):
            raise ValueError(f"shape {stored}, expected {tuple(shape)}")
        n_rows, n_cols = shape
        data_start = fh.tell()
        widest = max(j.stop - j.start for j in blocks)
        flat = np.empty(n_rows * widest)
        for j in blocks:
            block = flat[: n_rows * (j.stop - j.start)].reshape(n_rows, j.stop - j.start)
            for k, row in enumerate(block):
                fh.seek(data_start + 8 * (k * n_cols + j.start))
                if fh.readinto(row) != row.nbytes:
                    raise ValueError(f"truncated array file: row {k} ends before "
                                     f"column {j.stop}")
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
