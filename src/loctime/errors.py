"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class.  The CLI maps these onto process exit codes (config -> 2,
accuracy -> 3, admissibility/integrability -> 4).
"""

from __future__ import annotations

import math

import numpy as np


class LoctimeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LoctimeError, ValueError):
    """Invalid argument or configuration value."""


class SingularPointError(LoctimeError, ValueError):
    """An operator was evaluated exactly at a point where it diverges."""


class AccuracyError(LoctimeError):
    """A tolerance could not be met within the evaluation budget.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message: str, value: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class ConsistencyError(LoctimeError):
    """Two independent computation routes disagree beyond tolerance."""


class NonIntegrableError(LoctimeError, ValueError):
    """The requested singular integral diverges (exponent >= 1)."""


class AdmissibilityError(LoctimeError, ValueError):
    """The (H, d, N) combination is outside the admissible region.

    ``minimal_n`` is the smallest truncation level that would be valid.
    """

    def __init__(self, message: str, minimal_n: int | None = None):
        super().__init__(message)
        self.minimal_n = minimal_n


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int >= least; integral floats are accepted, and
    booleans are refused."""
    try:
        if (not isinstance(value, (bool, np.bool_)) and value >= least
                and value == int(value)):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


# The largest n whose n! is a double: the cap on every series order.
_MAX_ORDER = 170


def _order(name: str, value, least: int = 0) -> int:
    """``value`` as a series order, an int in [least, 170]."""
    n = _integer(name, value, least)
    if n > _MAX_ORDER:
        raise ConfigError(f"{name} must be at most {_MAX_ORDER}, got {n}: "
                          f"{n}! overflows a double")
    return n


def _finite(name: str, value, least: float, *, strict: bool) -> float:
    """``value`` as a finite float >= least (> least when ``strict``);
    a string or a boolean is refused rather than converted, and so is an
    int beyond the double range."""
    try:
        if (not isinstance(value, (bool, np.bool_))
                and (value > least if strict else value >= least)
                and value < math.inf):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    sign = ">" if strict else ">="
    raise ConfigError(
        f"{name} must be a finite number {sign} {least:g}, got {value!r}")


def _floats(name: str, value, shape=None) -> np.ndarray:
    """``value`` as an array of floats, broadcast to ``shape`` if given."""
    try:
        out = np.asarray(value, dtype=float)
        return out if shape is None else np.broadcast_to(out, shape)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numbers" + (
            "" if shape is None else f" of shape {shape}")) from None


def _each(check, name: str, values, *args, **kwargs) -> list:
    """[check(name, v, *args, **kwargs) for v in values], or ConfigError."""
    try:
        return [check(name, v, *args, **kwargs) for v in values]
    except TypeError:
        raise ConfigError(f"{name} values must come as a sequence, got "
                          f"{values!r}") from None


def _instance(name: str, value, cls):
    """``value``, which must be an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got a "
                          f"{type(value).__name__}")
    return value
