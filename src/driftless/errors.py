"""Exception types shared across the package."""

import dataclasses
import math
import numbers

import numpy as np


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


_JSON_KEY = {"gamma_prop": "gamma", "lam": "lambda"}  # config fields renamed in JSON


def from_config(cls, d, what):
    """The config dataclass ``cls`` from the mapping ``d``: one key per field
    (its name, or its _JSON_KEY), required when the field has no default,
    and a key left out takes the field's default.  ``cls`` checks values."""
    fields = {_JSON_KEY.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    check_keys(d, fields, what,
               required=[k for k, f in fields.items() if f.default is dataclasses.MISSING])
    return cls(**{fields[k].name: v for k, v in d.items()})


def check_number(value, what, integer=False):
    """Reject a config value that is not a finite number, or not an integer
    when ``integer``; a bool is neither, and an integer beyond the float
    range is not finite.  Returns ``value``."""
    kind = numbers.Integral if integer else numbers.Real
    try:
        ok = isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # math.isfinite(10**400)
        ok = False
    if not ok:
        expected = "an integer within the float range" if integer else "a finite number"
        raise InputError(f"{what} must be {expected}, got {value!r}")
    return value


def check_seed(value, what):
    """Reject a seed that is not an integer in [0, 2**64), the generator's key range."""
    if not 0 <= check_number(value, what, integer=True) < 2**64:
        raise InputError(f"{what} must lie in [0, 2**64), got {value}")
    return value


def check_numbers(values, what):
    """Reject a config value that is not a non-empty list of finite numbers.
    Returns ``values``."""
    if not isinstance(values, (list, tuple)) or not values:
        raise InputError(f"{what} must be a non-empty list, got {values!r}")
    for v in values:
        check_number(v, what)
    return values


def check_array(values, what):
    """A config array, nested lists of numbers or an array, as a float
    array.  Raises InputError unless every entry is a finite number; a bool
    or a string is not a number, and an integer beyond the float range is
    not finite."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a numeric array: {exc}") from None
    entries = np.asarray(values, dtype=object).flat
    if not (np.all(np.isfinite(array)) and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries)):
        raise InputError(f"{what} must be a numeric array of finite numbers, not bools "
                         "or strings")
    return array


class GridDomainError(DriftlessError, ValueError):
    """A strike or maturity falls outside the surface grid span."""


class InvalidSurfaceError(DriftlessError, ValueError):
    """A surface contains non-finite or otherwise unusable values."""


class ArbitrageError(DriftlessError, ValueError):
    """A call-price grid admits static arbitrage (imaginary local vol)."""

    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node


class FitError(DriftlessError, ValueError):
    """Regression failure (a history too short or non-finite, a
    rank-deficient design matrix)."""


class SimulationError(DriftlessError, RuntimeError):
    """Path simulation failed (e.g. vol ceiling exceeded repeatedly)."""


class TrainingError(DriftlessError, RuntimeError):
    """Gradient training failed (non-finite objective or gradient)."""


class TiltError(DriftlessError, ValueError):
    """The requested tilt entropy is unreachable for the given direction."""


class UtilityDomainError(DriftlessError, ValueError):
    """Argument outside the domain of a utility transform."""
