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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from .errors import InputError, UtilityDomainError, check_keys, check_number

_EXP_CLIP = 700.0  # exp argument clip; keeps float64 finite


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
        # normalization check: u(0) = 0, u'(0) = 1
        if abs(u_value(self, 0.0)) > 1e-12 or abs(u_deriv(self, 0.0) - 1.0) > 1e-12:
            raise ValueError("utility normalization violated")

    @classmethod
    def from_dict(cls, d):
        check_keys(d, ("family", "lambda"), "utility", required=("family",))
        return cls(family=d["family"], lam=d.get("lambda", 1.0))


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
    """Weighted sample objective E_w[u(y + x)] - y."""
    x = np.asarray(x, dtype=float)
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    return float(np.mean(w * u_value(u, y + x)) - y)


def closed_form_y(u, x, weights=None):
    """Optimal cash offset for the exponential family via log-sum-exp:
    y* = (1/lambda) log E[exp(-lambda X)]."""
    if u.family != "exponential":
        raise ValueError("closed_form_y applies to the exponential family only")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if weights is None:
        logw = np.zeros(n)
    else:
        logw = np.log(np.asarray(weights, dtype=float))
    return float((logsumexp(-u.lam * x + logw) - np.log(n)) / u.lam)


def oce_sup(x, weights, u):
    """sup_y of the weighted objective, and the maximizing y."""
    if u.family == "exponential":
        y = closed_form_y(u, x, weights)
        return oce_value(x, weights, u, y), y
    # the first-order condition E_w[u'(y + X)] = 1 pins y* inside the
    # negated sample range; search that interval with margin
    x = np.asarray(x, dtype=float)
    lo = -float(np.max(x)) - 1.0
    hi = -float(np.min(x)) + 1.0
    res = minimize_scalar(
        lambda y: -oce_value(x, weights, u, y),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return -float(res.fun), float(res.x)
