"""Construction and verification of (near-)martingale path weights.

The density over the sample is D = u'(y* + G_T(a*) - M_T(a*)) evaluated
at the trained optimum; normalized to mean one it reweights the bundle
into a measure with no statistical arbitrage within the marginal cost
band.  Verification is unconditional and on coarse state buckets.  The
adversarial check is a retraining under the weights: a near-zero
``train(..., weights=q).objective_value`` shows no statistical arbitrage
left under Q*.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import UtilityDomainError
from .frictions import CostSpec, marginal_rate
from .market import check_returns, check_weights, write_csv
from .oce import legendre, u_deriv
from .trainer import evaluate_policy, train

Z_SCORE = 3.0  # half-width of the drift bands beyond the cost rate, in standard errors


@dataclass
class DensityWeights:
    """Per-path positive weights with mean one, defining Q* on the sample.

    ``mean_error`` records |mean - 1| of the raw density before
    normalization, a training-convergence diagnostic.
    """

    weights: np.ndarray
    mean_error: float

    def __post_init__(self):
        self.weights = check_weights(self.weights, np.size(self.weights))


@dataclass
class DriftRow:
    t: int
    instrument: str
    mean_dh: float
    se: float
    band_lo: float
    band_hi: float
    passed: bool


# a drift report's columns, one per DriftRow field in order ("pass" is passed)
_FIELDS = ("t", "instrument", "mean_dh", "se", "band_lo", "band_hi", "pass")


@dataclass
class DriftReport:
    rows: list
    bucket_rows: list = field(default_factory=list)

    @property
    def all_pass(self):
        return all(r.passed for r in self.rows)

    @property
    def n_failed(self):
        return sum(not r.passed for r in self.rows)

    def to_csv(self, path):
        """The rows, one CSV column per field; ``pass`` is written 1 or 0."""
        *columns, passed = zip(*map(astuple, self.rows))
        write_csv(path, _FIELDS, [*columns, np.array(passed, dtype=int)])

    def to_dict(self):
        """The verdict, the rows and the bucket rows, each row an object
        keyed by field; a bucket row adds its ``bucket``."""
        rows = [dict(zip(_FIELDS, astuple(r))) for r in self.rows]
        buckets = [dict(zip(_FIELDS, astuple(r)), bucket=b) for b, r in self.bucket_rows]
        return {"all_pass": self.all_pass, "rows": rows, "buckets": buckets}


def density(solution, bundle, returns, spec, utility):
    """Path density D* from a trained statistical-arbitrage solution, on
    any bundle: the policy runs on ``bundle`` through ``evaluate_policy``.

    Uses D = u'(y* + G - M), with M = 0 for frictionless specs,
    renormalized to mean one.
    """
    res = evaluate_policy(
        bundle, returns, spec, utility, solution.policy, solution.y_star
    )
    return _normalized_density(u_deriv(utility, res["pre_utility"]))


def _normalized_density(raw):
    """DensityWeights from a raw path density, which must be positive and
    finite; it is normalized to mean one."""
    if np.any(raw <= 0) or not np.all(np.isfinite(raw)):
        raise UtilityDomainError(
            "non-positive density value: broken solution or u' range violation"
        )
    mean_error = abs(float(np.mean(raw)) - 1.0)
    return DensityWeights(weights=raw / raw.mean(), mean_error=mean_error)


def verify_drift(bundle, returns, weights, spec):
    """Weighted drift of every (step, instrument) against its cost band.

    Bands are [-gamma - z SE, gamma + z SE] with z = Z_SCORE and the
    marginal rate gamma of the mean mid price; buckets condition on the
    sign of the last spot return and the ATM-vol tercile to approximate
    the conditional statement.
    """
    check_returns(bundle, returns)
    P, T, n_inst = returns.dh.shape
    w = check_weights(weights, P)
    rows = []
    bucket_rows = []

    atm = _atm_series(bundle)
    last_ret = np.zeros((P, T))
    last_ret[:, 1:] = np.diff(np.log(bundle.spots[:, :T]), axis=1)

    for t in range(T):
        # (name, mask, renormalized weights) of step t's buckets of >= 30 paths
        buckets = []
        if t >= 1:
            sign = np.sign(last_ret[:, t])
            vol = np.digitize(atm[:, t], np.quantile(atm[:, t], [1 / 3, 2 / 3]))
            for b_sign in (-1, 1):
                for b_vol in range(3):
                    sel = (sign == b_sign) & (vol == b_vol)
                    if sel.sum() >= 30:
                        buckets.append((f"ret{'+' if b_sign > 0 else '-'}_vol{b_vol}",
                                        sel, w[sel] / w[sel].mean()))
        for k in range(n_inst):
            label = returns.instruments[k].label()
            dh = returns.dh[:, t, k]
            rate = float(marginal_rate(spec, np.mean(returns.mids[:, t, k])))
            rows.append(_drift_row(t, label, dh, w, rate))
            for name, sel, wb in buckets:
                bucket_rows.append((name, _drift_row(t, label, dh[sel], wb, rate)))
    return DriftReport(rows=rows, bucket_rows=bucket_rows)


def _drift_row(t, label, dh, w, rate):
    n = dh.shape[0]
    wx = w * dh
    mean = float(wx.mean())
    se = float(wx.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    se = max(se, 1e-300)
    lo = -rate - Z_SCORE * se
    hi = rate + Z_SCORE * se
    return DriftRow(
        t=t,
        instrument=label,
        mean_dh=mean,
        se=se,
        band_lo=lo,
        band_hi=hi,
        passed=bool(lo <= mean <= hi),
    )


def _atm_series(bundle):
    """Shortest-maturity ATM DLV per (path, step)."""
    i = int(np.argmin(np.abs(np.asarray(bundle.grid.strikes) - 1.0)))
    return bundle.sigmas[:, : bundle.n_steps, 0, i]


def divergence(weights, utility):
    """Sample u~-divergence of mean-1 weights from the uniform measure.
    Raises UtilityDomainError on adjusted mean-vol weights >= 2, then
    InputError on weights that check_weights refuses."""
    d = np.asarray(weights, dtype=float)
    if utility.family == "adjusted_mean_vol" and np.any(d >= 2.0):
        bad = np.nonzero(d >= 2.0)[0]
        raise UtilityDomainError(
            f"{bad.size} weight(s) outside the u~ domain [first at path {bad[0]}]"
        )
    d = check_weights(d, np.size(d))
    return float(np.mean(legendre(utility, d)))


def bounded_reweight(bundle, returns, utility, config):
    """Density from the bounded-rescaling objective.

    Scales each path by 1/(1 + M) with M = max |DH| before the utility,
    trains the frictionless objective, and returns the unscaled-problem
    density D* = u'((y* + G)/(1 + M))/(1 + M), normalized.
    """
    m_path = np.max(np.abs(returns.dh), axis=(1, 2))
    inv_scale = 1.0 / (1.0 + m_path)
    spec = CostSpec(gamma_prop=0.0, mode="none")
    sol = train(bundle, returns, spec, utility, config, inv_scale=inv_scale)
    dw = _normalized_density(u_deriv(utility, sol.pre_utility) * inv_scale)
    return dw, sol, 1.0 + m_path
