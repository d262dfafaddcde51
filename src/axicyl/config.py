"""Flat key = value run configuration.

The config format is plain text, one `dotted.key = value` per line, with
# comments and blank lines ignored.  No sections, trivially diffable:

    grid.n_r = 129
    time.t_end = 1.0
    scheme = monotone
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

from .grid import Grid, GridError, build_grid


class ConfigError(ValueError):
    """Unusable configuration input."""


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _get(mapping, key, default, cast):
    raw = mapping.get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


# strang_cn: centred advection, Crank-Nicolson diffusion halves; monotone:
# first-order upwind advection, explicit diffusion
SCHEMES = ("strang_cn", "monotone")
INIT_KINDS = ("no_swirl_bump", "swirl_bump", "random_modes")


# config key -> (SolverConfig field, parser, allowed values): None, a tuple
# of choices, or a range in check_value's notation
SOLVER_KEYS = {
    "grid.r_min": ("r_min", float, None),
    "grid.R": ("R", float, None),
    "grid.L_z": ("L_z", float, None),
    "grid.n_r": ("n_r", int, None),
    "grid.n_z": ("n_z", int, None),
    "time.dt": ("dt", float, "> 0"),
    "time.cfl": ("cfl", float, "> 0, <= 1"),
    "time.t_end": ("t_end", float, ">= 0"),
    "time.output_interval": ("output_interval", float, "> 0"),
    "scheme": ("scheme", str, SCHEMES),
    "init.kind": ("init_kind", str, INIT_KINDS),
    "init.amplitude": ("amplitude", float, None),
    "init.omega_amplitude": ("omega_amplitude", float, None),
    "init.r_lo": ("r_lo", float, None),
    "init.r_hi": ("r_hi", float, None),
    "init.z_lo": ("z_lo", float, None),
    "init.z_hi": ("z_hi", float, None),
    "init.z_mode": ("z_mode", int, None),
    "init.n_modes": ("n_modes", int, ">= 1"),
    "init.seed": ("seed", int, ">= 0"),
    "run.blowup_threshold": ("blowup_threshold", float, None),
}

_RELATIONS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def check_value(key: str, value, allowed) -> None:
    """Raise ConfigError naming key unless value is allowed.

    allowed is None (anything), a tuple of choices, or comma-separated
    relations to a number, e.g. "> 0, <= 1".  A None value (an absent key
    without a default) passes every range.
    """
    if isinstance(allowed, tuple):
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
    elif allowed is not None and value is not None:
        for term in allowed.split(","):
            relation, bound = term.split()
            if not _RELATIONS[relation](value, float(bound)):
                raise ConfigError(f"{key} must be {allowed}, got {value}")


@dataclass
class SolverConfig:
    """Grid, stepping, scheme, and initial-data parameters of one run.

    grid is the Grid of the five grid keys, built once at construction (and
    again by dataclasses.replace); a key build_grid rejects is a
    ConfigError naming it.
    """

    r_min: float = 1.0
    R: float = 3.0
    L_z: float = 2.0
    n_r: int = 129
    n_z: int = 128

    dt: float | None = None  # None: time.dt absent, which run_simulation rejects
    cfl: float = 0.4
    t_end: float = 1.0
    output_interval: float = 0.05

    scheme: str = "strang_cn"

    init_kind: str = "swirl_bump"
    amplitude: float = 1.0
    omega_amplitude: float | None = None
    r_lo: float | None = None
    r_hi: float | None = None
    z_lo: float | None = None
    z_hi: float | None = None
    z_mode: int = 1
    n_modes: int = 4
    seed: int = 0

    blowup_threshold: float = 1e12

    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self.grid = build_grid(self.r_min, self.R, self.L_z, self.n_r, self.n_z)
        except GridError as exc:
            raise ConfigError(f"grid.{exc.param} {exc.message}") from exc
        for key, (name, _, allowed) in SOLVER_KEYS.items():
            val = getattr(self, name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val}")
            check_value(key, val, allowed)

    @classmethod
    def from_mapping(cls, m: dict[str, str]) -> "SolverConfig":
        """The config the SOLVER_KEYS present in m give; absent keys keep the defaults."""
        fields = {
            name: _get(m, key, None, cast)
            for key, (name, cast, _) in SOLVER_KEYS.items()
            if key in m
        }
        return cls(**fields)
