"""The package's ports of four scipy routines against scipy, bit for bit.

``var_model`` ports the normal CDF and Brent's root search of the desk
calibration; ``oce`` ports the bounded Brent minimizer and log-sum-exp.
scipy is a test-only oracle: the package never imports it.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar
from scipy.special import logsumexp, ndtr

import driftless.oce as oce
import driftless.trainer as trainer
import driftless.var_model as var_model
from driftless.cli import default_instruments
from driftless.errors import FitError
from driftless.frictions import CostSpec
from driftless.market import build_returns
from driftless.oce import Utility, oce_sup
from driftless.trainer import TrainConfig, train
from driftless.var_model import desk_grid, desk_params, simulate, stationary_init


def bits(x):
    """The bit patterns of a float or float array, so NaN equals NaN and
    -0.0 differs from 0.0."""
    return np.asarray(x, dtype=float).view(np.int64)


def scipy_brentq(f, a, b):
    return brentq(f, a, b, xtol=var_model.ROOT_XTOL, rtol=var_model.ROOT_RTOL,
                  maxiter=var_model.ROOT_MAXITER)


def scipy_minimize_bounded(f, lo, hi):
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": oce.MIN_XTOL, "maxiter": oce.MIN_MAXFUN})
    return res.x, res.fun


def test_ndtr_matches_scipy():
    rng = np.random.default_rng(3)
    xs = np.concatenate([
        rng.uniform(-1.5, 1.5, 40_000),  # the erf branch, |a| < 1, and erfc's 1 - erf
        rng.uniform(-12.0, 12.0, 40_000),  # erfc's P/Q (|a| < 8 sqrt 2) and R/S
        rng.uniform(-40.0, 40.0, 20_000),  # R/S and the underflow to 0 and 1
        [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 8 * math.sqrt(2), 38.5, -38.5,
         np.nan, np.inf, -np.inf],
    ])
    ours = np.array([var_model._ndtr(float(a)) for a in xs])
    assert np.array_equal(bits(ours), bits(ndtr(xs)))
    z = np.abs(xs) * math.sqrt(0.5)
    assert np.sum(z < math.sqrt(0.5)) > 10_000 and np.sum(z >= 8.0) > 10_000


def test_desk_calibration_matches_scipy(monkeypatch):
    grid = desk_grid()
    ours = var_model.calibrated_base_vols(grid)
    monkeypatch.setattr(var_model, "_brentq", scipy_brentq)
    monkeypatch.setattr(var_model, "_ndtr", ndtr)
    assert np.array_equal(bits(ours), bits(var_model.calibrated_base_vols(grid)))


def test_brentq_matches_scipy_on_random_brackets():
    """Roots of expm1(c (x - r)) + d (x - r)^3 and of a cubic with one
    root in the bracket: flat, steep and lopsided brackets."""
    rng = np.random.default_rng(11)
    for k in range(300):
        r, c, d = rng.normal(), rng.uniform(0.01, 20.0), rng.uniform(0.0, 5.0)
        lo, hi = r - rng.uniform(1e-3, 6.0), r + rng.uniform(1e-3, 6.0)
        if k % 2:
            def f(x):
                return math.expm1(c * (x - r)) + d * (x - r) ** 3
        else:
            def f(x):
                return (x - r) * ((x - r - 0.5 * c) ** 2 + d)
        assert bits(var_model._brentq(f, lo, hi)) == bits(scipy_brentq(f, lo, hi)), k


def test_brentq_raises_where_scipy_does(monkeypatch):
    """A NaN value, and no convergence after ROOT_MAXITER steps."""
    with pytest.raises(FitError, match="NaN at x=1.0"):
        var_model._brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        scipy_brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    monkeypatch.setattr(var_model, "ROOT_MAXITER", 3)
    with pytest.raises(FitError, match="after 3 steps"):
        var_model._brentq(lambda x: x**3 - 2.0, 0.0, 10.0)
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        scipy_brentq(lambda x: x**3 - 2.0, 0.0, 10.0)


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
