"""Deterministic block-parallel evaluation of array-valued index ranges."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Ranges shorter than this run inline; thread dispatch would dominate.
_MIN_PARALLEL = 16384


def resolve_workers(workers: int) -> int:
    """0 means all cores this process may run on (its affinity mask where
    the platform has one)."""
    if workers > 0:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, n: int, workers: int = 1) -> np.ndarray:
    """Concatenate fn(lo, hi) over a fixed partition of range(n).

    The partition and the assembly order depend only on n and workers, and
    the blocks are independent, so results are bit-identical to a sequential
    evaluation.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or n < _MIN_PARALLEL:
        return fn(0, n)
    nblocks = min(workers, max(1, n // (_MIN_PARALLEL // 4)))
    edges = np.linspace(0, n, nblocks + 1, dtype=int)
    bounds = [(int(edges[i]), int(edges[i + 1])) for i in range(nblocks)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(lambda b: fn(*b), bounds))
    return np.concatenate(parts)
