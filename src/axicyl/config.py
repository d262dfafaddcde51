"""Flat key = value run configuration.

The config format is plain text, one `dotted.key = value` per line, with
# comments and blank lines ignored.  No sections, trivially diffable:

    grid.n_r = 129
    time.t_end = 1.0
    scheme = monotone

Each solver key is declared once, as the SolverConfig field it sets, with
its parser, default and allowed values; SOLVER_KEYS maps each key to that
field.  The experiment keys live in cli.COMMANDS.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path

from .grid import Grid, GridError, build_grid


class ConfigError(ValueError):
    """Unusable configuration input."""


def parse_config_text(text: str) -> dict[str, str]:
    """The text's key = value lines; a key given twice is a ConfigError."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}  # each key's line
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
        if key in out:
            raise ConfigError(f"{key} given twice, on lines {lines[key]} and {lineno}")
        out[key], lines[key] = value, lineno
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


def _key(key: str, parser, default, allowed):
    """The SolverConfig field of a config key, with its default.

    Its metadata holds the key, the parser of the key's text and the
    allowed values: None, a tuple of choices, or a range in check_value's
    notation.
    """
    return field(default=default, metadata={"key": key, "parser": parser, "allowed": allowed})


@dataclass
class SolverConfig:
    """Grid, stepping, scheme, and initial-data parameters of one run.

    Each field but grid is one solver key, declared once here with its
    default, parser and allowed values (_key); SOLVER_KEYS indexes them by
    key.  grid is the Grid of the five grid keys, built once at
    construction (and again by dataclasses.replace); a key build_grid
    rejects is a ConfigError naming it.
    """

    r_min: float = _key("grid.r_min", float, 1.0, None)
    R: float = _key("grid.R", float, 3.0, None)
    L_z: float = _key("grid.L_z", float, 2.0, None)
    n_r: int = _key("grid.n_r", int, 129, None)
    n_z: int = _key("grid.n_z", int, 128, None)

    # None: time.dt absent, which run_simulation rejects
    dt: float | None = _key("time.dt", float, None, "> 0")
    cfl: float = _key("time.cfl", float, 0.4, "> 0, <= 1")
    t_end: float = _key("time.t_end", float, 1.0, ">= 0")
    output_interval: float = _key("time.output_interval", float, 0.05, "> 0")

    scheme: str = _key("scheme", str, "strang_cn", SCHEMES)

    init_kind: str = _key("init.kind", str, "swirl_bump", INIT_KINDS)
    amplitude: float = _key("init.amplitude", float, 1.0, None)
    omega_amplitude: float | None = _key("init.omega_amplitude", float, None, None)
    r_lo: float | None = _key("init.r_lo", float, None, None)
    r_hi: float | None = _key("init.r_hi", float, None, None)
    z_lo: float | None = _key("init.z_lo", float, None, None)
    z_hi: float | None = _key("init.z_hi", float, None, None)
    z_mode: int = _key("init.z_mode", int, 1, None)
    n_modes: int = _key("init.n_modes", int, 4, ">= 1")
    seed: int = _key("init.seed", int, 0, ">= 0")

    blowup_threshold: float = _key("run.blowup_threshold", float, 1e12, None)

    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self.grid = build_grid(self.r_min, self.R, self.L_z, self.n_r, self.n_z)
        except GridError as exc:
            raise ConfigError(f"grid.{exc.param} {exc.message}") from exc
        for key, f in SOLVER_KEYS.items():
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val}")
            check_value(key, val, f.metadata["allowed"])

    @classmethod
    def from_mapping(cls, m: dict[str, str]) -> "SolverConfig":
        """The config the SOLVER_KEYS present in m give; absent keys keep the defaults."""
        return cls(**{
            f.name: _get(m, key, None, f.metadata["parser"])
            for key, f in SOLVER_KEYS.items()
            if key in m
        })


# config key -> its SolverConfig field
SOLVER_KEYS = {f.metadata["key"]: f for f in fields(SolverConfig) if "key" in f.metadata}
