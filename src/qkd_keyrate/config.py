"""Run configuration for sweeps: INI ingestion with fibre-system defaults.

The file format is flat ``key = value`` pairs under fixed sections; every
key has a default matching the reference fibre system (15% detector
efficiency, 5e-7 dark counts, 0.2 dB/km, 1% misalignment), so an empty
file is already a valid configuration for the standard key-rate figure.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

from .budget import EpsilonBudget
from .channel import ChannelConfig
from .key_length import F_EC_DEFAULT
from .optimize import MAX_GRID_POINTS
from .pipeline import MAX_COUNT

__all__ = ["ConfigError", "RunConfig", "load_config", "DEFAULT_SECTIONS"]


class ConfigError(ValueError):
    """Invalid configuration file or field; message carries diagnostics."""


# section -> keys; doubles as the schema for unknown-key diagnostics
DEFAULT_SECTIONS = {
    "run": ("mode", "asymptotic", "n_total", "eps_sec", "eps_c", "f_ec"),
    "source": ("xi", "fluct_r"),
    "channel": ("det_eff", "dark_prob", "e_mis", "atten_db_per_km"),
    "sweep": ("start_km", "stop_km", "step_km"),
    "optimizer": ("strategy", "seed", "grid_points", "workers"),
    "output": ("path",),
}

_MODES = ("exact", "fluctuating")
_STRATEGIES = ("grid", "grid+nm")
# the most distances one sweep may have
MAX_DISTANCES = 10_000
# absorbs accumulated float error at the sweep's stop endpoint
_STOP_TOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """One sweep's worth of settings; validated on construction."""

    mode: str = "exact"
    asymptotic: bool = False
    n_total: float = 1e12
    eps_sec: float = 1e-10
    eps_c: float = 1e-15
    f_ec: float = F_EC_DEFAULT
    xi: float = 0.147
    fluct_r: float = 0.0
    det_eff: float = 0.15
    dark_prob: float = 5e-7
    e_mis: float = 0.01
    atten_db_per_km: float = 0.2
    start_km: float = 0.0
    stop_km: float = 200.0
    step_km: float = 10.0
    strategy: str = "grid+nm"
    seed: int = 0
    grid_points: int = 7
    workers: int = 0
    output: str = "sweep.csv"

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"{_SECTION_OF[name]}.{name} must be a finite number, "
                    f"got {value!r}"
                )
        if self.mode not in _MODES:
            raise ConfigError(
                f"run.mode must be one of {_MODES}, got {self.mode!r}"
            )
        try:
            EpsilonBudget(self.eps_sec, self.eps_c, self.bound_mode)
        except ValueError as exc:
            raise ConfigError(
                f"run.eps_sec = {self.eps_sec!r}, run.eps_c = {self.eps_c!r}: {exc}"
            ) from None
        # below one pulse a rate's key length over n_total can overflow
        if not 1.0 <= self.n_total <= MAX_COUNT:
            raise ConfigError(
                f"run.n_total must lie in [1, {MAX_COUNT:g}], got {self.n_total!r}"
            )
        if not 1.0 <= self.f_ec <= MAX_COUNT / self.n_total:
            raise ConfigError(
                f"run.f_ec must lie in [1, {MAX_COUNT:g} / run.n_total], got "
                f"{self.f_ec!r} at n_total = {self.n_total!r}"
            )
        if not 0.0 <= self.xi < math.pi / 2:
            raise ConfigError(f"source.xi must lie in [0, pi/2), got {self.xi!r}")
        if not 0.0 <= self.fluct_r < 1.0:
            raise ConfigError(
                f"source.fluct_r must lie in [0, 1), got {self.fluct_r!r}"
            )
        if self.mode == "fluctuating" and self.fluct_r <= 0.0:
            raise ConfigError(
                "run.mode = fluctuating requires source.fluct_r > 0"
            )
        # the channel would integrate the fluctuation that the exact
        # bounds assume away
        if self.mode == "exact" and self.fluct_r > 0.0:
            raise ConfigError(
                "run.mode = exact requires source.fluct_r = 0, got "
                f"{self.fluct_r!r}; set run.mode = fluctuating to bound it"
            )
        # the channel's truncated Gaussian would have no mass
        if self.fluct_r > 0.0 and 1.0 + self.fluct_r == 1.0:
            raise ConfigError(
                f"source.fluct_r = {self.fluct_r!r} is below the float spacing: "
                "(1 + r) mu rounds to mu, so the channel cannot integrate the "
                "fluctuation; it must exceed 2**-53, about 1.1e-16"
            )
        if not 0.0 < self.det_eff <= 1.0:
            raise ConfigError(
                f"channel.det_eff must lie in (0, 1], got {self.det_eff!r}"
            )
        if not 0.0 <= self.dark_prob < 1.0:
            raise ConfigError(
                f"channel.dark_prob must lie in [0, 1), got {self.dark_prob!r}"
            )
        if not 0.0 <= self.e_mis < 0.5:
            raise ConfigError(
                f"channel.e_mis must lie in [0, 0.5), got {self.e_mis!r}"
            )
        if self.atten_db_per_km < 0.0:
            raise ConfigError(
                f"channel.atten_db_per_km must be >= 0, got {self.atten_db_per_km!r}"
            )
        if self.step_km <= 0:
            raise ConfigError(
                f"sweep.step_km must be positive, got {self.step_km!r}"
            )
        if self.start_km < 0 or self.stop_km < self.start_km:
            raise ConfigError(
                "need 0 <= sweep.start_km <= sweep.stop_km, got "
                f"start={self.start_km!r} stop={self.stop_km!r}"
            )
        # distances() gives floor(span / step) + 1 points; counted here
        # before they are built
        if self._span_steps() >= MAX_DISTANCES:
            raise ConfigError(
                f"sweep.step_km = {self.step_km!r} gives more than "
                f"{MAX_DISTANCES} distances from {self.start_km!r} to "
                f"{self.stop_km!r} km"
            )
        # far out, a step below the float spacing rounds away
        distances = self.distances()
        if (self.start_km + self.step_km == self.start_km
                or len(set(distances)) < len(distances)):
            raise ConfigError(
                f"sweep.step_km = {self.step_km!r} is below the float spacing "
                f"between sweep.start_km = {self.start_km!r} and sweep.stop_km = "
                f"{self.stop_km!r}, so the distances would not advance"
            )
        if self.strategy not in _STRATEGIES:
            raise ConfigError(
                f"optimizer.strategy must be one of {_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"optimizer.seed must be >= 0, got {self.seed!r}")
        if self.grid_points < 2:
            raise ConfigError(
                f"optimizer.grid_points must be >= 2, got {self.grid_points!r}"
            )
        if self.grid_points > MAX_GRID_POINTS:
            raise ConfigError(
                f"optimizer.grid_points must be <= {MAX_GRID_POINTS} (a grid of "
                f"{MAX_GRID_POINTS}**5 points), got {self.grid_points!r}"
            )
        if self.workers < 0:
            raise ConfigError(f"optimizer.workers must be >= 0, got {self.workers!r}")
        # an empty path's directory is the working one, so the sweep's
        # output checks pass it and the sweep would run in full before
        # open('') failed
        if not self.output:
            raise ConfigError("output.path must name a file, got an empty path")

    @property
    def bound_mode(self) -> str:
        """Internal estimator-mode token ('exact' or 'fluct')."""
        return "exact" if self.mode == "exact" else "fluct"

    def _span_steps(self) -> float:
        """The steps from start to stop, with the stop's tolerance."""
        return (self.stop_km + _STOP_TOL - self.start_km) / self.step_km

    def distances(self) -> tuple[float, ...]:
        """Sweep grid start, start+step, ... up to and including stop."""
        count = int(self._span_steps()) + 1
        return tuple(self.start_km + i * self.step_km for i in range(count))

    def channel(self, distance_km: float) -> ChannelConfig:
        return ChannelConfig(
            distance_km=distance_km,
            det_eff=self.det_eff,
            dark_prob=self.dark_prob,
            e_mis=self.e_mis,
            fluct_r=self.fluct_r,
            xi=self.xi,
            atten_db_per_km=self.atten_db_per_km,
        )

    def budget(self) -> EpsilonBudget | None:
        """Epsilon allocation, or None when running asymptotically."""
        if self.asymptotic:
            return None
        return EpsilonBudget(self.eps_sec, self.eps_c, self.bound_mode)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_FLOAT_FIELDS = tuple(name for name, kind in _FIELD_TYPES.items() if kind == "float")
_SECTION_OF = {
    ("output" if key == "path" else key): section
    for section, keys in DEFAULT_SECTIONS.items()
    for key in keys
}


def _line_of(text: str, section: str, key: str) -> int | None:
    """Best-effort line number of ``key`` inside ``[section]``."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
        elif current == section and "=" in line:
            if line.split("=", 1)[0].strip().lower() == key:
                return lineno
    return None


def _convert(section: str, key: str, raw: str, text: str):
    kind = _FIELD_TYPES["output" if key == "path" else key]
    where = _line_of(text, section, key)
    loc = f" (line {where})" if where is not None else ""
    if kind == "bool":
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ConfigError(
                f"{section}.{key}: expected a boolean, got {raw!r}{loc}"
            )
        return states[raw.lower()]
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: expected an integer, got {raw!r}{loc}"
            ) from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: expected a number, got {raw!r}{loc}"
            ) from None
    return raw


def parse_config(text: str) -> RunConfig:
    """RunConfig from INI text; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser errors already carry line numbers where it has them
        raise ConfigError(f"config syntax error: {exc}") from None

    values: dict[str, object] = {}
    for section in parser.sections():
        name = section.lower()
        if name not in DEFAULT_SECTIONS:
            where = next(
                (n for n, raw in enumerate(text.splitlines(), start=1)
                 if raw.strip().lower() == f"[{name}]"),
                None,
            )
            loc = f" (line {where})" if where is not None else ""
            raise ConfigError(
                f"unknown section [{section}]{loc}; expected one of "
                f"{sorted(DEFAULT_SECTIONS)}"
            )
        for key, raw in parser.items(name):
            if key not in DEFAULT_SECTIONS[name]:
                where = _line_of(text, name, key)
                loc = f" (line {where})" if where is not None else ""
                raise ConfigError(
                    f"unknown key {key!r} in section [{name}]{loc}; "
                    f"expected one of {list(DEFAULT_SECTIONS[name])}"
                )
            field_name = "output" if key == "path" else key
            values[field_name] = _convert(name, key, raw.strip(), text)
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    """Parse the INI file at ``path``; a missing file or one that is not
    UTF-8 is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def with_overrides(cfg: RunConfig, **updates) -> RunConfig:
    """Copy with command-line overrides applied (revalidates)."""
    updates = {k: v for k, v in updates.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
