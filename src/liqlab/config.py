"""Flat key=value experiment configuration.

One ``key=value`` per line, ``#`` starts a comment, values are typed by
literal inference (int, then float, then bool, else string).  Experiment
schemas coerce and validate the parsed map; unknown keys are rejected
rather than ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .errors import ConfigError

Value = int | float | bool | str
_BOOL_LITERALS = {"true": True, "false": False}


def infer_literal(raw: str) -> Value:
    """Best-effort typed value for a raw config token."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return _BOOL_LITERALS.get(raw.lower(), raw)


def parse_config(text: str) -> dict[str, Value]:
    """Parse a flat key=value document into a typed map."""
    out: dict[str, Value] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = infer_literal(raw)
    return out


@dataclass(frozen=True)
class Field:
    """Schema entry: expected type, default, optional value check."""

    kind: str  # "int" | "float" | "bool" | "str" | "floats"
    default: Value
    check: Callable[[Any], str | None] | None = None


def _finite(key: str, value: int | float) -> float:
    """``float(value)``, or a :class:`ConfigError` if that is nan or +-inf."""
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r} expects a finite number, got {value!r}")
    return number


def _coerce(key: str, value: Value, kind: str) -> Any:
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r} expects an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r} expects a number, got {value!r}")
        return _finite(key, value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r} expects true/false, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} expects a string, got {value!r}")
        return value
    if kind == "floats":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return [_finite(key, value)]
        if isinstance(value, str):
            try:
                numbers = [float(tok) for tok in value.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError(
                    f"key {key!r} expects comma-separated numbers, got {value!r}") from None
            return [_finite(key, number) for number in numbers]
        raise ConfigError(f"key {key!r} expects comma-separated numbers, got {value!r}")
    raise ConfigError(f"unknown schema kind {kind!r} for key {key!r}")


def validate_config(config: Mapping[str, Value], schema: Mapping[str, Field],
                    experiment: str) -> dict[str, Any]:
    """Apply defaults, coerce types, run range checks; reject unknown keys."""
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} for experiment {experiment!r}; "
            f"allowed: {sorted(schema)}")
    resolved: dict[str, Any] = {}
    for key, spec in schema.items():
        value = config.get(key, spec.default)
        value = _coerce(key, value, spec.kind)
        if spec.check is not None:
            problem = spec.check(value)
            if problem:
                raise ConfigError(f"key {key!r}: {problem} (got {value!r})")
        resolved[key] = value
    return resolved
