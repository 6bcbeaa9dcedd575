"""Run configuration: plain key=value text with # comments.

Defaults reproduce the desk-scale disk experiment (2000 domain candidates,
120 boundary candidates, 200 steps); the full-scale setup is reached by
overriding the counts and n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

MODES = ("standard", "extended")
PROBLEMS = ("gaussian", "powercusp", "none")


@dataclass
class RunConfig:
    m: int = 4
    d: int = 2
    scale: float = 1.0
    domain_count: int = 2000
    boundary_count: int = 120
    n_max: int = 200
    stop_tol: float = 1e-12
    mode: str = "standard"
    grid_spacing: float = 0.025
    y_size: int = 1000
    workers: int = 0  # accepted for compatibility; has no effect
    out_dir: str = "greedy_run"
    problem: str = "gaussian"
    problem_center: tuple[float, float] = (-math.pi / 10.0, 0.0)
    problem_shape: float = 1.0
    problem_exponent: float = 2.5

    def validate(self) -> None:
        """Raise ConfigError naming the offending field."""
        for key in _REAL_KEYS:
            value = getattr(self, key)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        if self.d != 2:
            raise ConfigError("d: only the d=2 disk geometry is shipped")
        if not self.m > 2 + self.d / 2:
            raise ConfigError(
                f"m: need m > 2 + d/2 = {2 + self.d / 2:g}, got m={self.m}"
            )
        if self.scale <= 0:
            raise ConfigError("scale: must be positive")
        if self.domain_count < 1 or self.boundary_count < 1:
            raise ConfigError("domain_count/boundary_count: must be >= 1")
        if self.n_max < 1:
            raise ConfigError("n_max: must be >= 1")
        if not 0 <= self.stop_tol < 1:  # at 1 or above not even the first step is taken
            raise ConfigError(f"stop_tol: must be >= 0 and < 1, got {self.stop_tol!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if self.grid_spacing <= 0:
            raise ConfigError("grid_spacing: must be positive")
        if self.y_size < 1:
            raise ConfigError("y_size: must be >= 1")
        if self.workers < 0:
            raise ConfigError("workers: must be >= 0")
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem: must be one of {PROBLEMS}, got {self.problem!r}")
        if self.problem_shape <= 0:
            raise ConfigError("problem_shape: must be positive")
        if self.problem_exponent <= 0:
            raise ConfigError("problem_exponent: must be positive")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# Real-valued keys; NaN and infinities slip through the sign checks above.
_REAL_KEYS = tuple(k for k, t in _FIELD_TYPES.items() if "float" in t)


def _coerce(key: str, raw: str):
    if key == "problem_center":
        parts = [p for p in raw.replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ConfigError(f"problem_center: expected two coordinates, got {raw!r}")
        return (float(parts[0]), float(parts[1]))
    ftype = _FIELD_TYPES[key]
    if ftype == "str":
        return raw
    if ftype == "int":
        return int(raw)
    return float(raw)


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _coerce(key, raw))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if f.name == "problem_center":
            v = f"{v[0]!r}, {v[1]!r}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
