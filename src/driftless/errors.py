"""Exception types shared across the package."""

import math
import numbers


class DriftlessError(Exception):
    """Base class for all package errors."""


class InputError(DriftlessError, ValueError):
    """Malformed user input: weights, bundle or weights files, JSON configs."""


def check_keys(d, allowed, what, required=()):
    """Reject a config mapping that is not a dict, lacks a required key or
    has a key outside ``allowed``."""
    if not isinstance(d, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in d]
    if missing:
        raise InputError(f"{what} lacks required key(s) {missing}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise InputError(f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}")


def check_number(value, what, integer=False):
    """Reject a config value that is not a finite number, or not an integer
    when ``integer``; a bool is neither.  Returns ``value``."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or math.isfinite(value))):
        expected = "an integer" if integer else "a finite number"
        raise InputError(f"{what} must be {expected}, got {value!r}")
    return value


def check_numbers(values, what):
    """Reject a config value that is not a non-empty list of finite numbers.
    Returns ``values``."""
    if not isinstance(values, (list, tuple)) or not values:
        raise InputError(f"{what} must be a non-empty list, got {values!r}")
    for v in values:
        check_number(v, what)
    return values


class GridDomainError(DriftlessError, ValueError):
    """A strike or maturity falls outside the surface grid span."""


class InvalidSurfaceError(DriftlessError, ValueError):
    """A surface contains non-finite or otherwise unusable values."""


class ArbitrageError(DriftlessError, ValueError):
    """A call-price grid admits static arbitrage (imaginary local vol)."""

    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node


class SingularSystemError(DriftlessError, ValueError):
    """A linear system encountered a zero pivot."""


class ClassicArbitrageError(DriftlessError, ValueError):
    """Outcomes are one-signed: no finite utility maximizer exists."""


class FitError(DriftlessError, ValueError):
    """Regression failure (rank-deficient design matrix)."""


class SimulationError(DriftlessError, RuntimeError):
    """Path simulation failed (e.g. vol ceiling exceeded repeatedly)."""


class TrainingError(DriftlessError, RuntimeError):
    """Gradient training failed (non-finite objective or gradient)."""


class TiltError(DriftlessError, ValueError):
    """The requested tilt entropy is unreachable for the given direction."""


class UtilityDomainError(DriftlessError, ValueError):
    """Argument outside the domain of a utility transform."""
