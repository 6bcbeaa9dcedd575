"""Core counting for a `workers` value.

Evaluation is sequential, so the `workers` config key has no effect;
`resolve_workers` stays public for callers that size their own pools."""

from __future__ import annotations

import os


def resolve_workers(requested: int) -> int:
    """0 means all cores this process may run on (its affinity mask where
    the platform has one)."""
    if requested > 0:
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
