"""Construction and verification of (near-)martingale path weights.

The density over the sample is D = u'(y* + G_T(a*) - M_T(a*)) evaluated
at the trained optimum; normalized to mean one it reweights the bundle
into a measure with no statistical arbitrage within the marginal cost
band.  Verification is unconditional and on coarse state buckets, plus an
adversarial retraining test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ClassicArbitrageError, UtilityDomainError
from .frictions import marginal_rates
from .market import check_weights, write_csv, write_text
from .oce import legendre, u_deriv
from .trainer import evaluate_policy, train


@dataclass
class DensityWeights:
    """Per-path positive weights with mean one, defining Q* on the sample.

    ``mean_error`` records |mean - 1| of the raw density before
    normalization, a training-convergence diagnostic.
    """

    weights: np.ndarray
    mean_error: float
    source: str = ""
    mode: str = "martingale"

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
        rows = self.rows
        write_csv(path, ["t", "instrument", "mean_dh", "se", "band_lo", "band_hi", "pass"], [
            [r.t for r in rows], [r.instrument for r in rows], [r.mean_dh for r in rows],
            [r.se for r in rows], [r.band_lo for r in rows], [r.band_hi for r in rows],
            [int(r.passed) for r in rows],
        ])

    def to_json(self, path):
        def row_dict(r):
            return {
                "t": r.t,
                "instrument": r.instrument,
                "mean_dh": r.mean_dh,
                "se": r.se,
                "band_lo": r.band_lo,
                "band_hi": r.band_hi,
                "pass": r.passed,
            }

        doc = {
            "all_pass": self.all_pass,
            "rows": [row_dict(r) for r in self.rows],
            "buckets": [
                dict(row_dict(r), bucket=b) for b, r in self.bucket_rows
            ],
        }
        write_text(path, json.dumps(doc, indent=2))


def density(solution, bundle, returns, spec, utility):
    """Path density D* from a trained statistical-arbitrage solution.

    Uses D = u'(y* + G - M) with M absent for frictionless specs; the
    result multiplies any existing bundle weights and is renormalized to
    mean one.
    """
    res = evaluate_policy(
        bundle, returns, spec, utility, solution.policy, solution.y_star
    )
    return _normalized_density(
        bundle,
        u_deriv(utility, res["pre_utility"]),
        source=f"policy(obj={solution.objective_value:.6g})",
        mode="martingale" if spec.mode == "none" else "near_martingale",
    )


def _normalized_density(bundle, raw, source, mode):
    """DensityWeights from a raw path density, which must be positive and
    finite; it multiplies any bundle weights and is normalized to mean one."""
    if np.any(raw <= 0) or not np.all(np.isfinite(raw)):
        raise ValueError(
            "non-positive density value: broken solution or u' range violation"
        )
    combined = bundle.path_weights() * raw
    mean_error = abs(float(np.mean(combined)) - 1.0)
    return DensityWeights(
        weights=combined / combined.mean(),
        mean_error=mean_error,
        source=source,
        mode=mode,
    )


def memm_one_period(outcomes, probs, lam):
    """Analytic minimal-entropy measure for a one-period scalar market.

    Solves E[DH exp(-lam a DH)] = 0 for the scalar position a by
    safeguarded bisection; returns (a*, q*) with q* proportional to
    p exp(-lam a* x).  Requires outcomes of both signs.
    """
    x = np.asarray(outcomes, dtype=float)
    p = np.asarray(probs, dtype=float)
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probs must be positive and sum to 1")
    if np.all(x >= 0) or np.all(x <= 0):
        raise ClassicArbitrageError(
            "outcomes are one-signed: no finite utility maximizer exists"
        )

    def psi(a):
        z = -lam * a * x
        z = z - z.max()  # scale-free in the root equation
        return float(np.sum(p * x * np.exp(z)))

    lo, hi = -1.0, 1.0
    while psi(lo) < 0:
        lo *= 2.0
    while psi(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > 0:
            lo = mid
        else:
            hi = mid
    a_star = 0.5 * (lo + hi)
    logq = np.log(p) - lam * a_star * x
    logq -= logq.max()
    q = np.exp(logq)
    q /= q.sum()
    return a_star, q


def verify_drift(bundle, returns, weights, spec, z_score=3.0):
    """Weighted drift of every (step, instrument) against its cost band.

    Bands are [-|gamma-| - z SE, gamma+ + z SE] with rates from the mean
    mid price; buckets condition on the sign of the last spot return and
    the ATM-vol tercile to approximate the conditional statement.
    """
    w = check_weights(weights, bundle.n_paths)
    P, T, n_inst = returns.dh.shape
    rows = []
    bucket_rows = []

    atm = _atm_series(bundle)
    last_ret = np.zeros((P, T))
    last_ret[:, 1:] = np.diff(np.log(bundle.spots[:, :T]), axis=1)

    for t in range(T):
        for k in range(n_inst):
            label = returns.instruments[k].label()
            dh = returns.dh[:, t, k]
            gp, gm = marginal_rates(spec, np.mean(returns.mids[:, t, k]))
            rows.append(_drift_row(t, label, dh, w, float(gp), float(gm), z_score))
            if t >= 1:
                terc = np.quantile(atm[:, t], [1 / 3, 2 / 3])
                for b_sign in (-1, 1):
                    for b_vol in range(3):
                        sel = (np.sign(last_ret[:, t]) == b_sign) & (
                            np.digitize(atm[:, t], terc) == b_vol
                        )
                        if sel.sum() < 30:
                            continue
                        wb = w[sel] / w[sel].mean()
                        bucket_rows.append(
                            (
                                f"ret{'+' if b_sign > 0 else '-'}_vol{b_vol}",
                                _drift_row(
                                    t, label, dh[sel], wb, float(gp), float(gm), z_score
                                ),
                            )
                        )
    return DriftReport(rows=rows, bucket_rows=bucket_rows)


def _drift_row(t, label, dh, w, g_plus, g_minus, z):
    n = dh.shape[0]
    wx = w * dh
    mean = float(wx.mean())
    se = float(wx.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    se = max(se, 1e-300)
    lo = -g_minus - z * se
    hi = g_plus + z * se
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


@dataclass
class AdversarialReport:
    certainty_equivalent: float
    gains: np.ndarray
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def adversarial_test(bundle, returns, weights, spec2, utility, config):
    """Train a fresh policy on the reweighted sample; report its CE.

    A near-zero certainty equivalent confirms the absence of statistical
    arbitrage under the weighted measure at the (possibly larger) cost
    level of ``spec2``.
    """
    sol = train(bundle, returns, spec2, utility, config, weights=weights)
    res = evaluate_policy(
        bundle, returns, spec2, utility, sol.policy, sol.y_star, weights=weights
    )
    g = res["gains"] - res["costs"]
    counts, edges = np.histogram(g, bins=60)
    return AdversarialReport(
        certainty_equivalent=sol.objective_value,
        gains=g,
        hist_counts=counts,
        hist_edges=edges,
    )


def divergence(weights, utility, bound_scale=None):
    """Sample u~-divergence of mean-1 weights from the uniform measure.

    With ``bound_scale`` given (the per-path 1 + M factors of the bounded
    construction) evaluates E[u~((1 + M) D)] instead.
    """
    d = np.asarray(weights, dtype=float)
    if bound_scale is not None:
        d = d * np.asarray(bound_scale, dtype=float)
    if utility.family == "adjusted_mean_vol" and np.any(d >= 2.0):
        bad = np.nonzero(d >= 2.0)[0]
        raise UtilityDomainError(
            f"{bad.size} weight(s) outside the u~ domain [first at path {bad[0]}]"
        )
    return float(np.mean(legendre(utility, d)))


def bounded_reweight(bundle, returns, utility, config):
    """Density from the bounded-rescaling objective.

    Scales each path by 1/(1 + M) with M = max |DH| before the utility,
    trains the frictionless objective, and returns the unscaled-problem
    density D* = u'((y* + G)/(1 + M))/(1 + M), normalized.
    """
    from .frictions import CostSpec

    m_path = np.max(np.abs(returns.dh), axis=(1, 2))
    inv_scale = 1.0 / (1.0 + m_path)
    spec = CostSpec(gamma_prop=0.0, mode="none")
    sol = train(bundle, returns, spec, utility, config, inv_scale=inv_scale)
    res = evaluate_policy(
        bundle, returns, spec, utility, sol.policy, sol.y_star, inv_scale=inv_scale
    )
    dw = _normalized_density(
        bundle,
        u_deriv(utility, res["pre_utility"]) * inv_scale,
        source=f"bounded(obj={sol.objective_value:.6g})",
        mode="bounded",
    )
    return dw, sol, 1.0 + m_path
