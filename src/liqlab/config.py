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
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    """Schema entry: a default, whose type is the key's type, and a check.

    An int given for a float key widens to float.  A tuple-of-floats default
    makes a list key, resolved to a non-empty ``list`` of finite floats.
    ``check`` returns a problem or ``None`` for a value, or for each entry.
    """

    default: Value | tuple[float, ...]
    check: Callable[[Any], str | None] | None = None


_EXPECTS = {int: "an integer", float: "a number", bool: "true/false", str: "a string"}


def _finite(key: str, value: int | float) -> float:
    """``float(value)``, or a :class:`ConfigError` if that is nan or +-inf."""
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r} expects a finite number, got {value!r}")
    return number


def _float_list(key: str, value: Value) -> list[float]:
    numbers = None
    if isinstance(value, str):
        try:
            numbers = [float(tok) for tok in value.split(",") if tok.strip()]
        except ValueError:
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers = [value]
    if numbers is None:
        raise ConfigError(f"key {key!r} expects comma-separated numbers, got {value!r}")
    if not numbers:
        raise ConfigError(f"key {key!r} expects at least one number, got {value!r}")
    return [_finite(key, number) for number in numbers]


def _coerce(key: str, value: Any, default: Value | tuple[float, ...]) -> Any:
    kind = type(default)
    if kind is tuple:
        return list(default) if value is default else _float_list(key, value)
    # a bool is an int to Python, but only a bool key takes one
    if isinstance(value, bool) == (kind is bool):
        if kind is float and isinstance(value, (int, float)):
            return _finite(key, value)
        if isinstance(value, kind):
            return value
    raise ConfigError(f"key {key!r} expects {_EXPECTS[kind]}, got {value!r}")


def validate_config(config: Mapping[str, Value], schema: Mapping[str, Field],
                    experiment: str) -> dict[str, Any]:
    """Apply defaults, coerce each value to its default's type, run the
    checks (on every entry of a list); reject unknown keys."""
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} for experiment {experiment!r}; "
            f"allowed: {sorted(schema)}")
    resolved: dict[str, Any] = {}
    for key, spec in schema.items():
        value = _coerce(key, config.get(key, spec.default), spec.default)
        if spec.check is not None:
            for entry in value if isinstance(value, list) else [value]:
                problem = spec.check(entry)
                if problem:
                    raise ConfigError(f"key {key!r}: {problem} (got {entry!r})")
        resolved[key] = value
    return resolved
