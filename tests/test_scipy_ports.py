"""The package against scipy.  Bit for bit: ``oce``'s port of log-sum-exp,
and the desk market's DLV levels, ``var_model.DESK_DLV_LEVELS``, against
their calibration with scipy's root search and normal CDF.  Within
scipy's own tolerance: the cash offset y of the adjusted mean-vol OCE and
of train's scaled refit, which ``oce.concave_argmax`` finds by bisection
on the first-order condition, against scipy's bounded ``minimize_scalar``.
scipy is a test-only oracle: the package never imports it.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

import driftless.oce as oce
from driftless.cli import default_instruments
from driftless.frictions import CostSpec
from driftless.market import build_returns
from driftless.oce import Utility, oce_sup, oce_value, u_deriv, u_value
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


def check_sup_against_scipy(f, slope, y, lo, hi):
    """The maximizer ``y`` of the concave ``f`` (derivative ``slope``) on
    [lo, hi] against scipy's bounded ``minimize_scalar`` on the same bounds
    (xatol 1e-12, at most 500 evaluations): its first-order residual is at
    most 1e-12, ``f(y)`` is no lower than at scipy's point less a few ulps
    of the objective's terms, and ``y`` lies within scipy's stopping width.
    That width is scipy's bracket, 2 (sqrt(eps) |y| + xatol / 3), plus the
    distance over which ``f`` stays flat to those ulps, where scipy's
    comparisons of ``f`` can no longer steer it."""
    y_scipy = minimize_scalar(lambda v: -f(v), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12, "maxiter": 500}).x
    assert abs(slope(y)) <= 1e-12
    slack = 4 * np.spacing(1.0 + abs(f(y_scipy)) + abs(y_scipy))
    assert f(y) >= f(y_scipy) - slack
    h = 1e-6
    curvature = (slope(y_scipy - h) - slope(y_scipy + h)) / (2 * h)
    width = 2 * (np.sqrt(2.2e-16) * abs(y_scipy) + 1e-12 / 3) + np.sqrt(2 * slack / curvature)
    assert abs(y - y_scipy) <= width


def test_oce_sup_bisection_against_scipy():
    """oce_sup's adjusted mean-vol y against scipy, weighted and not: the
    bisection closes E_w[u'(y + x)] = 1 where scipy stops once the
    objective turns flat."""
    rng = np.random.default_rng(5)
    for scale, lam in ((0.01, 0.5), (1.0, 1.0), (30.0, 2.0)):
        x = scale * rng.standard_t(4, size=400)
        x[200:] = -x[:200]  # symmetric: unweighted, y* = 0
        w = rng.uniform(0.2, 2.0, size=400)
        u = Utility("adjusted_mean_vol", lam)
        for weights in (w / w.mean(), np.ones(400)):
            value, y = oce_sup(x, weights, u)
            assert value == oce_value(x, weights, u, y)
            check_sup_against_scipy(
                lambda v: oce_value(x, weights, u, v),
                lambda v: float(np.mean(weights * u_deriv(u, v + x))) - 1.0,
                y, -x.max() - 1.0, -x.min() + 1.0)


@pytest.mark.parametrize("family", ["exponential", "adjusted_mean_vol"])
def test_inv_scale_refit_bisection_against_scipy(family):
    """train's refit of y for the scaled objective E[u(s (G - C + y))] - y
    against scipy."""
    grid = desk_grid()
    params = desk_params(grid)
    bundle = simulate(params, stationary_init(params), 30, 3, seed=1, grid=grid)
    rets = build_returns(bundle, default_instruments())
    s = 1.0 / (1.0 + np.max(np.abs(rets.dh), axis=(1, 2)))
    u = Utility(family, 1.0)
    sol = train(bundle, rets, CostSpec(gamma_prop=0.002, mode="marginal"), u,
                TrainConfig(epochs=2, lr=0.01, seed=2, hidden=(8,)), inv_scale=s)
    base = sol.gains - sol.costs
    span = float(np.max(np.abs(base))) + 1.0
    check_sup_against_scipy(
        lambda v: float(np.mean(u_value(u, (base + v) * s))) - v,
        lambda v: float(np.mean(s * u_deriv(u, (base + v) * s))) - 1.0,
        sol.y_star, sol.y_star - span, sol.y_star + span)


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
