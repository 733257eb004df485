"""Trading frictions: proportional marginal rates and the marginal cost.

The near-martingale measure is built from the marginal cost M_T, the
first-order bid/ask band, so only the proportional-on-mid-notional rates
gamma * |H| per instrument are modelled.  The one-sided marginal rates
gamma+/- at zero trade are equal, so one non-negative rate per instrument
gives the marginal cost m(a) = |a| . gamma >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_number, from_config


@dataclass(frozen=True)
class CostSpec:
    """Proportional trading cost description.

    ``gamma_prop`` is a scalar rate applied to every instrument (fraction
    of traded mid notional); ``mode`` is marginal (cost band M_T) or none
    (frictionless, which requires ``gamma_prop`` = 0).
    """

    gamma_prop: float = 0.0
    mode: str = "marginal"

    def __post_init__(self):
        if check_number(self.gamma_prop, "cost gamma") < 0:
            raise InputError("gamma_prop must be >= 0")
        if self.mode not in ("marginal", "none"):
            raise InputError(f"unknown cost mode {self.mode!r}")
        if self.mode == "none" and self.gamma_prop > 0:
            raise InputError("cost mode 'none' requires gamma = 0")

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d, "cost spec")


def marginal_rate(spec, mids):
    """The marginal rate gamma * |H| at zero trade, the same on both sides."""
    return spec.gamma_prop * np.abs(np.asarray(mids, dtype=float))
