"""The package against scipy, bit for bit: ``oce``'s ports of the
bounded Brent minimizer and log-sum-exp, and the desk market's DLV levels,
``var_model.DESK_DLV_LEVELS``, against their calibration with scipy's
root search and normal CDF.  scipy is a test-only oracle: the package
never imports it.
"""

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

import driftless.oce as oce
import driftless.trainer as trainer
from driftless.cli import default_instruments
from driftless.frictions import CostSpec
from driftless.market import build_returns
from driftless.oce import Utility, oce_sup
from driftless.trainer import TrainConfig, train
from driftless.var_model import (
    DESK_DLV_LEVELS,
    desk_grid,
    desk_params,
    simulate,
    stationary_init,
)

from oracles import calibrated_base_vols


def bits(x):
    """The bit patterns of a float or float array, so NaN equals NaN and
    -0.0 differs from 0.0."""
    return np.asarray(x, dtype=float).view(np.int64)


def scipy_minimize_bounded(f, lo, hi):
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": oce.MIN_XTOL, "maxiter": oce.MIN_MAXFUN})
    return res.x, res.fun


def test_desk_calibration_matches_scipy():
    """scipy's brentq (xtol 1e-12, rtol 4 eps, maxiter 100) over
    prices_from_dlv_batch on desk_grid() finds DESK_DLV_LEVELS bit for bit,
    and desk_params mean-reverts to them."""
    grid = desk_grid()
    levels = calibrated_base_vols(grid)
    assert bits(levels).tolist() == bits(np.repeat(
        np.asarray(DESK_DLV_LEVELS)[:, None], grid.n_strikes, axis=1)).tolist()
    log_vol_mean = stationary_init(desk_params(grid))[1][1:]
    assert np.allclose(np.exp(log_vol_mean), levels.ravel(), rtol=1e-12, atol=0)


def spy_minimizer(monkeypatch, module):
    """Replace ``module.minimize_bounded`` by the port that also runs scipy
    on the same function and bounds; returns the list of (port, scipy)
    results."""
    port, calls = oce.minimize_bounded, []

    def both(f, lo, hi):
        ours = port(f, lo, hi)
        calls.append((ours, scipy_minimize_bounded(f, lo, hi)))
        return ours

    monkeypatch.setattr(module, "minimize_bounded", both)
    return calls


def test_oce_sup_minimizer_matches_scipy(monkeypatch):
    calls = spy_minimizer(monkeypatch, oce)
    rng = np.random.default_rng(5)
    for scale, lam in ((0.01, 0.5), (1.0, 1.0), (30.0, 2.0)):
        x = scale * rng.standard_t(4, size=400)
        x[200:] = -x[:200]  # symmetric: unweighted, y* = 0 and MIN_XTOL sets the stop
        w = rng.uniform(0.2, 2.0, size=400)
        oce_sup(x, w / w.mean(), Utility("adjusted_mean_vol", lam))
        oce_sup(x, None, Utility("adjusted_mean_vol", lam))
    assert len(calls) == 6
    for ours, theirs in calls:
        assert bits(ours).tolist() == bits(theirs).tolist()


def test_inv_scale_refit_minimizer_matches_scipy(monkeypatch):
    calls = spy_minimizer(monkeypatch, trainer)
    grid = desk_grid()
    params = desk_params(grid)
    bundle = simulate(params, stationary_init(params), 30, 3, seed=1, grid=grid)
    rets = build_returns(bundle, default_instruments())
    inv_scale = 1.0 / (1.0 + np.max(np.abs(rets.dh), axis=(1, 2)))
    for family in ("exponential", "adjusted_mean_vol"):
        train(bundle, rets, CostSpec(gamma_prop=0.002, mode="marginal"),
              Utility(family, 1.0), TrainConfig(epochs=2, lr=0.01, seed=2, hidden=(8,)),
              inv_scale=inv_scale)
    assert len(calls) == 2
    for ours, theirs in calls:
        assert bits(ours).tolist() == bits(theirs).tolist()


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(9)
    cases = [np.array(v) for v in (
        [0.0], [-np.inf], [-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0],
        [710.0, 710.0, 1.0], [1e308, 1e308], [-1e308, -1e308, 3.0])]
    for k in range(200):
        a = rng.normal(size=rng.integers(1, 600)) * rng.uniform(0.01, 800.0)
        if k % 3 == 0:
            a[rng.integers(0, a.size, size=a.size // 2 + 1)] = a.max()  # tied maxima
        if k % 4 == 0:
            a[rng.integers(0, a.size, size=a.size // 3 + 1)] = -np.inf
        cases.append(a)
    for a in cases:
        assert bits(oce._logsumexp(a)) == bits(logsumexp(a)), a
