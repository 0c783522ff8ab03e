"""Scenario files: flat `key = value` text with unit suffixes.

Example::

    # source description
    pump_fwhm  = 2.5 nm
    pm_fwhm    = 0.5 nm
    tilt       = 54.7 deg
    length     = 2.1 mm

Numbers carry an optional unit token; lists are comma separated; bare
words configure modes.  Every accessor validates the unit dimension at
parse time and names the offending key in its diagnostic.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

__all__ = ["Scenario", "parse_config", "ConfigError"]

_UNIT_SCALES: dict[str, dict[str, float]] = {
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "time": {
        "s": 1.0,
        "ms": 1e-3,
        "us": 1e-6,
        "ns": 1e-9,
        "ps": 1e-12,
        "fs": 1e-15,
    },
    "angle": {"deg": 1.0, "rad": 180.0 / math.pi},
    "inverse_velocity": {"s/m": 1.0},
    "dimensionless": {"": 1.0},
}

# a number and an optional unit token after whitespace
_QUANTITY = re.compile(
    r"([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)(?:\s+(\S+))?"
)


def parse_config(text: str) -> dict[str, str]:
    """Value text by key; parse errors name the line."""
    values: dict[str, str] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(
                f"line {line_number}: expected 'key = value', got {line!r}"
            )
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (line {line_number})")
        values[key] = value
    return values


def _quantity(key: str, kind: str, raw: str) -> float:
    """raw, a number with an optional unit of the given dimension, in base
    units; a refusal names the key and raw."""
    match = _QUANTITY.fullmatch(raw)
    if match is None:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}")
    number, unit = match.groups("")
    scale = _UNIT_SCALES[kind].get(unit)
    if scale is None:
        allowed = ", ".join(u for u in _UNIT_SCALES[kind] if u) or "no unit"
        raise ConfigError(
            f"key {key!r}: unit {unit!r} of {raw!r} does not measure {kind} "
            f"(allowed: {allowed})"
        )
    value = float(number) * scale
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {raw!r}")
    return value


class Scenario:
    """The keys of one scenario file, the keys a command has read so far,
    and data_path, the file given with --data (None without it)."""

    def __init__(
        self, values: dict[str, str], data_path: str | None = None
    ) -> None:
        self.values = values
        self.data_path = data_path
        self.consumed: set[str] = set()

    @classmethod
    def from_file(
        cls, config_path: str, data_path: str | None = None
    ) -> "Scenario":
        try:
            with open(config_path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}")
        return cls(values=parse_config(text), data_path=data_path)

    # -- scalar accessors -------------------------------------------------

    def _raw(self, key: str, required: bool) -> str | None:
        if key not in self.values:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return None
        self.consumed.add(key)
        return self.values[key]

    def quantity(
        self,
        key: str,
        kind: str,
        default: float | None = None,
        required: bool = False,
    ) -> float | None:
        """Number with a unit of the given dimension, scaled to base units."""
        raw = self._raw(key, required)
        return default if raw is None else _quantity(key, kind, raw)

    def number(
        self, key: str, default: float | None = None, required: bool = False
    ) -> float | None:
        return self.quantity(key, "dimensionless", default, required)

    def integer(
        self, key: str, default: int | None = None, required: bool = False
    ) -> int | None:
        value = self.number(key, None, required)
        if value is None:
            return default
        if value != int(value):
            raise ConfigError(f"key {key!r}: expected an integer")
        return int(value)

    def word(
        self,
        key: str,
        choices: tuple[str, ...],
        default: str | None = None,
        required: bool = False,
    ) -> str | None:
        raw = self._raw(key, required)
        if raw is None:
            return default
        if raw not in choices:
            raise ConfigError(
                f"key {key!r}: expected one of {', '.join(choices)}; "
                f"got {raw!r}"
            )
        return raw

    def number_list(
        self, key: str, required: bool = False
    ) -> list[float] | None:
        raw = self._raw(key, required)
        if raw is None:
            return None
        return [
            _quantity(key, "dimensionless", entry.strip())
            for entry in raw.split(",")
        ]

    def unused_keys(self) -> list[str]:
        """Keys the command never read; extras are legal so that one
        scenario file can serve several commands."""
        return sorted(set(self.values) - self.consumed)
