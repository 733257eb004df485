"""Deep hedging of target payoffs, entropy tilts and robustness reports.

Hedging under the reweighted measure yields indifference prices: with
statistical arbitrage removed the certainty equivalent of an empty
portfolio is zero, so -CE(Z) prices the claim Z.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridDomainError,
    InputError,
    TiltError,
    check_number,
    check_numbers,
    from_config,
)
from .market import write_text
from .oce import concave_argmax, oce_sup
from .trainer import train


@dataclass(frozen=True)
class PayoffSpec:
    """Target claim: digital or vanilla at a relative strike, or a custom
    per-path table.  ``side`` is +1 long, -1 short."""

    kind: str  # digital_call | vanilla_call | vanilla_put | custom_table
    rel_strike: float = 1.0
    maturity_steps: int = 0
    side: int = -1
    table: tuple = ()

    def __post_init__(self):
        check_number(self.rel_strike, "payoff rel_strike")
        check_number(self.maturity_steps, "payoff maturity_steps", integer=True)
        check_number(self.side, "payoff side", integer=True)
        if self.kind not in ("digital_call", "vanilla_call", "vanilla_put", "custom_table"):
            raise InputError(f"unknown payoff kind {self.kind!r}")
        if self.kind == "custom_table":
            object.__setattr__(self, "table", tuple(check_numbers(self.table, "payoff table")))
        elif self.table:
            raise InputError(f"payoff kind {self.kind!r} takes no table")
        if self.kind != "custom_table" and self.rel_strike <= 0:
            raise InputError("strike must be positive")
        if self.side not in (-1, 1):
            raise InputError("side must be +1 or -1")

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d, "payoff")


def payoff(spec, bundle):
    """Per-path payoff Z in units of S_0.

    Digitals pay on a strict S/S_0 > k comparison (at-the-money ties pay
    nothing).
    """
    if spec.kind == "custom_table":
        z = np.asarray(spec.table, dtype=float)
        if z.shape[0] != bundle.n_paths:
            raise InputError("custom table length must equal n_paths")
        return z
    t = spec.maturity_steps
    if not 0 <= t <= bundle.n_steps:
        raise GridDomainError("payoff maturity beyond the simulation horizon")
    s = bundle.spots[:, t]
    k = spec.rel_strike
    if spec.kind == "digital_call":
        z = (s > k).astype(float)
    elif spec.kind == "vanilla_call":
        z = np.maximum(s - k, 0.0)
    else:
        z = np.maximum(k - s, 0.0)
    return spec.side * z


@dataclass
class HedgeResult:
    policy: object
    y_star: float
    certainty_equivalent: float
    pnl: np.ndarray  # per path, Z + G - C (no cash offset)
    stats: dict = field(default_factory=dict)

    def to_json(self, path):
        doc = {
            "policy": self.policy.to_dict(),
            "y_star": self.y_star,
            "certainty_equivalent": self.certainty_equivalent,
            "stats": self.stats,
        }
        write_text(path, json.dumps(doc))


def _pnl_stats(pnl):
    return {
        "mean": float(np.mean(pnl)),
        "std": float(np.std(pnl)),
        "q01": float(np.quantile(pnl, 0.01)),
        "q99": float(np.quantile(pnl, 0.99)),
    }


def deep_hedge(bundle, returns, weights, z, spec, utility, config):
    """Train a hedge for the claim ``z`` under the given path weights.

    The certainty equivalent of the hedged position is the trained
    objective value; under statarb-free weights -CE is an indifference
    price for the claim.
    """
    z = np.asarray(z, dtype=float)
    sol = train(bundle, returns, spec, utility, config, payoff=z, weights=weights)
    pnl = z + sol.gains - sol.costs
    return HedgeResult(policy=sol.policy, y_star=sol.y_star,
                       certainty_equivalent=sol.objective_value, pnl=pnl, stats=_pnl_stats(pnl))


def tilt(direction, c):
    """Exponential tilt w ~ exp(-theta direction), theta >= 0, at relative
    entropy E[w log w] = c: one mean-1 weight per entry of ``direction``.

    The entropy rises from 0 towards log(n/k) as theta grows, for n entries
    k of which tie at the minimum.  c = 0 returns uniform weights; a
    c >= log(n/k), or one whose weights underflow to 0, raises TiltError.
    """
    if not c >= 0:
        raise InputError(f"target entropy must be >= 0, got {c}")
    d = np.asarray(direction, dtype=float)
    if c == 0:
        return np.ones(len(d))
    if not np.all(np.isfinite(d)):
        raise InputError("tilt direction must be finite")
    n, k = len(d), int(np.sum(d == d.min()))
    bound = math.log(n / k)
    if c >= bound:
        raise TiltError(f"entropy target {c} unreachable: it must be below log(n/k) = "
                        f"{bound}, with n = {n} entries and k = {k} tied at their minimum")
    d = (d - d.min()) / np.ptp(d)  # in [0, 1], so theta * d stays finite

    def log_weights(theta):
        z = -theta * d  # at most 0, and 0 at the minima
        return z - math.log(np.mean(np.exp(z)))

    def slope(theta):
        logw = log_weights(theta)
        return c - float(np.mean(np.exp(logw) * logw))

    w = np.exp(log_weights(concave_argmax(slope, 0.0, 1.0)))
    if not np.all(w > 0):
        raise TiltError(f"entropy target {c} puts weights below the smallest float")
    return w


def robustness_eval(hedge_p, hedge_q, utility, c_list, direction=None):
    """Certainty-equivalent degradation of two fixed hedges under tilts.

    For each target entropy c, reweights the sample against ``direction``
    (default: the statistical hedge's own PnL) and evaluates both hedges'
    CE via a fresh sup over the cash offset.  Degradation is
    CE(uniform) - CE(tilted).
    """
    if direction is None:
        direction = hedge_p.pnl
    base_p, _ = oce_sup(hedge_p.pnl, None, utility)
    base_q, _ = oce_sup(hedge_q.pnl, None, utility)
    out = {
        "base_ce_p": base_p,
        "base_ce_q": base_q,
        "entries": [],
    }
    for c in c_list:
        w = tilt(direction, c)
        ce_p, _ = oce_sup(hedge_p.pnl, w, utility)
        ce_q, _ = oce_sup(hedge_q.pnl, w, utility)
        out["entries"].append(
            {
                "c": float(c),
                "ce_p": ce_p,
                "ce_q": ce_q,
                "delta_p": base_p - ce_p,
                "delta_q": base_q - ce_q,
                "tilted_mean_p": float(np.mean(w * hedge_p.pnl)),
                "tilted_mean_q": float(np.mean(w * hedge_q.pnl)),
            }
        )
    return out
