"""Utility functions, Legendre transforms and the optimized certainty
equivalent (OCE) objective.

Both supported families are normalized to u(0) = 0, u'(0) = 1:

    exponential:       u(x) = (1 - exp(-lambda x)) / lambda
    adjusted mean-vol: u(x) = (1 + lambda x - sqrt(1 + lambda^2 x^2)) / lambda

The OCE is U(X) = sup_y E[u(y + X)] - y; minus U is a convex risk
measure, and for the exponential family the sup has the entropic closed
form -(1/lambda) log E[exp(-lambda X)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UtilityDomainError, check_number, from_config
from .market import check_weights

_EXP_CLIP = 700.0  # exp argument clip; keeps float64 finite
# the bisection for y stops when its bracket is narrower than this
Y_TOL = 1e-12


def _safe_exp(x):
    return np.exp(np.clip(x, -_EXP_CLIP, _EXP_CLIP))


@dataclass(frozen=True)
class Utility:
    family: str  # "exponential" | "adjusted_mean_vol"
    lam: float = 1.0

    def __post_init__(self):
        if self.family not in ("exponential", "adjusted_mean_vol"):
            raise InputError(f"unknown utility family {self.family!r}")
        if check_number(self.lam, "utility lambda") <= 0:
            raise InputError("risk aversion lambda must be positive")
        if not math.isfinite(float(self.lam) * float(self.lam)):
            raise InputError(f"risk aversion lambda must have a finite square, got {self.lam!r}")

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d, "utility")


def u_value(u, x):
    x = np.asarray(x, dtype=float)
    lam = u.lam
    if u.family == "exponential":
        return (1.0 - _safe_exp(-lam * x)) / lam
    return (1.0 + lam * x - np.sqrt(1.0 + lam**2 * x**2)) / lam


def u_deriv(u, x):
    x = np.asarray(x, dtype=float)
    lam = u.lam
    if u.family == "exponential":
        return _safe_exp(-lam * x)
    return 1.0 - lam * x / np.sqrt(1.0 + lam**2 * x**2)


def u_deriv_inverse(u, y):
    """Solve u'(x) = y in closed form.

    Exponential: y > 0; adjusted mean-vol: y in (0, 2).
    """
    y = np.asarray(y, dtype=float)
    lam = u.lam
    if u.family == "exponential":
        if np.any(y <= 0):
            raise UtilityDomainError("u' range is (0, inf) for exponential utility")
        return -np.log(y) / lam
    if np.any(y <= 0) or np.any(y >= 2):
        raise UtilityDomainError("u' range is (0, 2) for adjusted mean-vol utility")
    return (1.0 - y) / (lam * np.sqrt(y * (2.0 - y)))


def legendre(u, y):
    """Legendre-Fenchel transform u~(y) = sup_x (u(x) - y x).

    For the exponential family u~(y) = (1 - y + y log y) / lambda; for
    adjusted mean-vol the sup is attained at the closed-form u'^{-1}(y).
    """
    y = np.asarray(y, dtype=float)
    if u.family == "exponential":
        if np.any(y <= 0):
            raise UtilityDomainError("y must be positive")
        return (1.0 - y + y * np.log(y)) / u.lam
    x = u_deriv_inverse(u, y)
    return u_value(u, x) - y * x


def oce_value(x, weights, u, y):
    """Weighted sample objective E_w[u(y + x)] - y; the weights go through
    check_weights."""
    x = np.asarray(x, dtype=float)
    w = check_weights(weights, len(x))
    return float(np.mean(w * u_value(u, y + x)) - y)


def closed_form_y(u, x, weights):
    """Optimal cash offset for the exponential family via log-sum-exp:
    y* = (1/lambda) log E_w[exp(-lambda X)]; the weights go through
    check_weights."""
    if u.family != "exponential":
        raise InputError("closed_form_y applies to the exponential family only")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    logw = np.log(check_weights(weights, n))
    return float((_logsumexp(-u.lam * x + logw) - np.log(n)) / u.lam)


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-d float array, shifted by its maximum.

    A port of the 1-d path of scipy.special.logsumexp with no ``b``
    (scipy/special/_logsumexp.py), operation for operation, so it returns
    the same float: every entry tied at the maximum is masked out of the
    shifted sum and counted in m, the result is log1p(s / m) + log(m) +
    max, and where that is not finite it is log(sum(exp(a))).
    """
    a_max = np.max(a)
    i_max = a == a_max
    m = np.sum(i_max, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(i_max, -np.inf, a) - a_max))
        s = s if s == 0 else s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return out


def concave_argmax(slope, lo, hi):
    """The maximizer of a concave scalar function whose derivative is
    ``slope``.  The bracket [lo, hi] moves past an end where ``slope`` has
    yet to change sign, by a step that doubles each time; then it is
    bisected on the sign of ``slope`` until narrower than Y_TOL or no
    longer shrinking in floating point.  Non-finite or reversed bounds, as
    a NaN or infinite sample gives, and a ``slope`` of one sign out to
    infinity raise ``InputError``."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise InputError(f"search bounds ({lo}, {hi}) must be finite with lo <= hi")
    step = max(hi - lo, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # far out, a slope's terms overflow
        while math.isfinite(hi) and slope(hi) > 0:
            lo, hi, step = hi, hi + step, 2.0 * step
        while math.isfinite(lo) and not slope(lo) > 0:
            lo, hi, step = lo - step, lo, 2.0 * step
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"the slope keeps its sign out to ({lo}, {hi}): no finite maximizer")
    while hi - lo > Y_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oce_sup(x, weights, u):
    """sup_y of the weighted objective, and the maximizing y.  A NaN or
    infinite entry of ``x``, or weights that check_weights refuses, raise
    InputError."""
    if u.family == "exponential":
        if not np.all(np.isfinite(x)):
            raise InputError("the P&L sample must be finite for the exponential OCE")
        y = closed_form_y(u, x, weights)
        return oce_value(x, weights, u, y), y
    # the first-order condition E_w[u'(y + X)] = 1 pins y* inside the
    # negated sample range; bisect on it over that interval with margin
    x = np.asarray(x, dtype=float)
    w = check_weights(weights, len(x))
    y = concave_argmax(lambda y: float(np.mean(w * u_deriv(u, y + x))) - 1.0,
                       -float(np.max(x)) - 1.0, -float(np.min(x)) + 1.0)
    return oce_value(x, weights, u, y), y
