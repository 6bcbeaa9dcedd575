"""Span recorder for the traced run: wraps the public functions of the
`greedypde` layer modules from outside the program and derives per-layer
metrics from the spans.

Every module binding of a traced function is replaced, found by identity
across the `greedypde.*` modules, so calls through `from .x import f`
bindings are seen too.  Span stacks are per thread; the blocks that
`parallel.map_blocks` runs (inline or on worker threads) are recorded as
`parallel.block` spans parented to their `map_blocks` span.  Busy time sums
span durations and can exceed wall time when blocks overlap; self time is a
span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("config", "geometry", "kernels", "functionals", "parallel", "engine",
          "analysis", "solver", "runio", "cli")

# Per-element constructors, called once per candidate: a span each would
# cost more than the work they do.
UNTRACED = {"functionals.domain_op_delta", "functionals.boundary_delta"}

MAP_BLOCKS = "parallel.map_blocks"
BLOCK = "parallel.block"
KERNELS = ("kernels.kernel_value", "kernels.laplacian_y", "kernels.bilaplacian")


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    extra: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_size(*args, **kwargs) -> int:
    """Bytes of the file named by a runio reader's or writer's first argument."""
    try:
        return os.path.getsize(args[0] if args else kwargs["path"])
    except (OSError, KeyError):
        return 0


def _extend_pre(state, chosen, *args, **kwargs):
    """(reorth pass fires, N, |Lambda|), by the test `engine.extend` applies."""
    engine = sys.modules["greedypde.engine"]
    n = state.n
    fires = bool(n) and float(state.residual_power[chosen]) < (
        engine.REORTH_THRESHOLD * float(state.diag[chosen]))
    return fires, n, len(state.fset)


# Hooks that fill Span.extra: a PRE_HOOKS entry sees the arguments before the
# call, a POST_HOOKS entry the result (and the arguments) after it.
PRE_HOOKS = {"engine.extend": _extend_pre}
POST_HOOKS = {k: (lambda result, *a, **kw: getattr(result, "size", 1)) for k in KERNELS}
POST_HOOKS["engine.run"] = lambda result, *a, **kw: result[0].bulk_float_count()


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs, parent=None, extra=None, post=None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        if name == MAP_BLOCKS:
            args = (self._block(args[0], sid),) + tuple(args[1:])
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            span = Span(sid, parent, name, start, end, threading.get_ident(), extra)
            self.spans.append(span)
        if post is not None:
            span.extra = post(result, *args, **kwargs)
        return result

    def _block(self, fn, parent: int):
        def block(*args, **kwargs):
            return self._call(BLOCK, fn, args, kwargs, parent=parent)
        return block

    def _wrap(self, name: str, fn):
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
        if name.startswith("runio.read_"):
            pre = _path_size
        elif name.startswith("runio.write_"):
            post = lambda result, *a, **kw: _path_size(*a, **kw)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = pre(*args, **kwargs) if pre is not None else None
            return self._call(name, fn, args, kwargs, extra=extra, post=post)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each layer's public functions."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"greedypde.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "greedypde" and not modname.startswith("greedypde."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


# -- per-layer metrics -----------------------------------------------------


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Summary:
    """Aggregates over a list of spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        self.by_id = {}
        for s in spans:
            self.by_name[s.name].append(s)
            self.children[s.parent].append(s)
            self.by_id[s.sid] = s

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.by_name[name])

    def self_time(self, name: str) -> float:
        return sum(s.duration - _union_length(
            [(c.start, c.end) for c in self.children[s.sid]], s.start, s.end)
            for s in self.by_name[name])

    def extras(self, name: str) -> list:
        return [s.extra for s in self.by_name[name] if s.extra is not None]

    def outer_busy(self, prefix: str) -> float:
        """Busy time of spans under `prefix` that no other span under
        `prefix` encloses: a layer's time without double counting."""
        total = 0.0
        for s in self.spans:
            if not s.name.startswith(prefix):
                continue
            p = self.by_id.get(s.parent)
            while p is not None and not p.name.startswith(prefix):
                p = self.by_id.get(p.parent)
            if p is None:
                total += s.duration
        return total

    def threaded_calls(self) -> int:
        return sum(1 for s in self.by_name[MAP_BLOCKS]
                   if any(c.thread != s.thread for c in self.children[s.sid]))


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    t = Summary(spans)
    m = {}
    for k in KERNELS:
        m[f"{k}.busy_s"] = (t.busy(k), "s")
    points = sum(sum(t.extras(k)) for k in KERNELS)
    m["kernels.points"] = (points, "count")
    kernel_busy = sum(t.busy(k) for k in KERNELS)
    m["kernels.ns_per_point"] = (1e9 * kernel_busy / points if points else 0.0, "ns")
    for k in ("functionals.dual_inner_column", "functionals.riesz_value",
              "analysis.condition_estimate", "solver.evaluate_basis"):
        m[f"{k}.calls"] = (t.calls(k), "count")
        m[f"{k}.busy_s"] = (t.busy(k), "s")
    m["functionals.disk_functional_set.busy_s"] = (t.busy("functionals.disk_functional_set"), "s")
    m["parallel.map_blocks.calls"] = (t.calls(MAP_BLOCKS), "count")
    m["parallel.map_blocks.threaded_calls"] = (t.threaded_calls(), "count")
    m["parallel.map_blocks.self_s"] = (t.self_time(MAP_BLOCKS), "s")
    passes = t.extras("engine.extend")
    m["engine.extend.calls"] = (t.calls("engine.extend"), "count")
    m["engine.extend.self_s"] = (t.self_time("engine.extend"), "s")
    m["engine.reorth_passes"] = (sum(1 for fires, _, _ in passes if fires), "count")
    m["engine.extend.bytes_computed"] = (
        sum(8 * n * size * (1 + fires) for fires, n, size in passes), "B")
    m["engine.select.self_s"] = (t.self_time("engine.select_standard")
                                 + t.self_time("engine.select_extended"), "s")
    m["engine.run.self_s"] = (t.self_time("engine.run"), "s")
    m["engine.bulk_floats"] = (max(t.extras("engine.run"), default=0), "count")
    m["solver.data_to_newton.busy_s"] = (t.busy("solver.data_to_newton"), "s")
    m["solver.power_on_deltas.busy_s"] = (t.busy("solver.power_on_deltas"), "s")
    m["runio.write.busy_s"] = (t.outer_busy("runio.write_"), "s")
    m["runio.read.busy_s"] = (t.outer_busy("runio.read_"), "s")
    m["runio.bytes_written"] = (sum(sum(t.extras(k)) for k in t.by_name
                                    if k.startswith("runio.write_")), "B")
    m["runio.bytes_read"] = (sum(sum(t.extras(k)) for k in t.by_name
                                 if k.startswith("runio.read_")), "B")
    m["geometry.busy_s"] = (t.outer_busy("geometry."), "s")
    m["config.busy_s"] = (t.outer_busy("config."), "s")
    m["cli.cmd_build.self_s"] = (t.self_time("cli.cmd_build"), "s")
    m["cli.cmd_solve.self_s"] = (t.self_time("cli.cmd_solve"), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
