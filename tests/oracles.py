"""Reference oracles the tests check the package against.

No pipeline stage runs these: the analytic one-period minimal-entropy
martingale measure, the frictionless hedge decomposition
a*_P = a*_Q + a*_0, the first-order marginal cost, a one-period toy market,
a Bachelier market whose Q* is known exactly,
a synthetic VAR history with its CSV writer, the calibration of the desk
market's DLV levels, the static arbitrage margin of a sample net of its
cost band (an LP), the bisection for y as it was before concave_argmax
widened its bracket, build_returns as it was written before it
valued each option over all steps at once (one step at a time), and the
DLV-to-price solve as it was written before prices_from_dlv_batch folded
the Thomas sweep into its row loop: a general batched tridiagonal solver
called once per maturity row.
"""

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import ndtr

from driftless.errors import DriftlessError, GridDomainError, InputError, InvalidSurfaceError
from driftless.frictions import CostSpec, marginal_rate
from driftless.hedging import deep_hedge
from driftless.market import (
    InstrumentReturn,
    InstrumentSpec,
    build_returns,
    bundle_from_sigmas,
    feature_matrix,
    write_csv,
)
from driftless.oce import Y_TOL
from driftless.surface import DAYS_PER_YEAR, DlvGrid, intrinsic_row, prices_from_dlv_batch
from driftless.trainer import forward, train
from driftless.var_model import SPOT_VOL, _noise, desk_grid, iterate_var, stationary_init


class ClassicArbitrageError(DriftlessError, ValueError):
    """Outcomes are one-signed: no finite utility maximizer exists."""


class SingularSystemError(DriftlessError, ValueError):
    """A linear system encountered a zero pivot."""


def one_period_bundle(outcomes, seed=0):
    """One step, one node grid; spot moves so DH equals ``outcomes``.

    With equal initial states the policy acts identically on all paths,
    so training collapses to a single scalar position.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    P = outcomes.shape[0]
    grid = DlvGrid(strikes=(1.0,), maturities=(20 / 252,), boundary_lo=0.5)
    spots = np.column_stack([np.ones(P), 1.0 + outcomes])
    sigmas = np.zeros((P, 2, 1, 1))
    bundle = bundle_from_sigmas(grid, spots, sigmas, seed=seed)
    rets = InstrumentReturn(
        instruments=(InstrumentSpec("spot"),),
        dh=outcomes.reshape(P, 1, 1),
        mids=np.ones((P, 1, 1)),
    )
    return bundle, rets


BACHELIER_VOL = 0.2 / np.sqrt(252)  # s, the daily sd of a spot increment


def bachelier_market(v, seed, n_paths=10_000, n_steps=10):
    """The spot-only Bachelier market whose Q* is known, for Var log w = v.

    The spot starts at 1 and its increments are i.i.d. N(m, s^2), with
    s = BACHELIER_VOL and m = s sqrt(v / T); the DLVs are a constant 0.2
    on ``desk_grid()``, so the features carry only t and S.  Under
    exponential utility with lambda = 1 and no cost, the optimum buys
    delta* = m / s^2 at step 0 and holds, so Q* has the density
    w ~ exp(-delta* (S_T - S_0)): the Gaussian Esscher change (Gerber &
    Shiu 1994), which is the minimal-entropy measure (Frittelli 2000).
    Then Var log w = T m^2 / s^2 = v, KL(Q*|P) = v / 2, and the Kish ESS
    tends to n e^-v.  Returns the bundle, its spot returns and the exact
    weights, normalized to mean 1.
    """
    s = BACHELIER_VOL
    m = s * np.sqrt(v / n_steps)
    steps = m + s * np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    spots = np.concatenate([np.ones((n_paths, 1)), 1.0 + np.cumsum(steps, axis=1)], axis=1)
    grid = desk_grid()
    sigmas = np.full((n_paths, n_steps + 1, grid.n_maturities, grid.n_strikes), 0.2)
    bundle = bundle_from_sigmas(grid, spots, sigmas, seed=seed)
    log_w = -(m / s**2) * (spots[:, -1] - spots[:, 0])
    w = np.exp(log_w - log_w.max())
    return bundle, build_returns(bundle, [InstrumentSpec("spot")]), w / w.mean()


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


def marginal_cost(spec, a, mids):
    """Positively homogeneous first-order cost m(a) = |a| . gamma."""
    return (np.abs(np.asarray(a, dtype=float)) * marginal_rate(spec, mids)).sum(axis=-1)


def static_arbitrage_margin(dh, mids, gamma):
    """The largest smallest net P&L, over every path, of a static position
    of gross size 1 in the columns of ``dh`` (paths, steps, instruments).

    Each column is held over its one step, as the trainer's actions are.
    The position has a long part and a short part, each charged
    gamma * |mid| at entry, as the trainer's marginal cost is.  A positive
    margin is an arbitrage net of the cost band; with none, it reads 0 at
    gamma = 0 (only offsetting parts reach it) and below 0 at gamma > 0.
    """
    p = dh.shape[0]
    gains = dh.reshape(p, -1)
    rates = gamma * np.abs(mids).reshape(p, -1)
    m = gains.shape[1]
    # variables: long part (m), short part (m), margin t; maximise t with
    # t <= gains . (long - short) - rates . (long + short) on every path
    a_ub = np.hstack([rates - gains, rates + gains, np.ones((p, 1))])
    a_eq = np.concatenate([np.ones(2 * m), [0.0]])[None, :]
    c = np.zeros(2 * m + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(p), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (2 * m) + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.x[-1])


def plain_bisection(slope, lo, hi):
    """concave_argmax as it was before it widened its bracket: bisection on
    the sign of ``slope`` over [lo, hi] until the bracket is narrower than
    Y_TOL or stops shrinking."""
    while hi - lo > Y_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def decompose_check(bundle, returns, utility, z, config, q_weights):
    """Check the frictionless hedge decomposition a*_P = a*_Q + a*_0 on
    trained policies.

    Trains the statistical hedge (P weights, claim), the clean hedge
    (Q* weights, claim) and the pure statarb policy (P weights, empty
    portfolio); reports per-state action residuals and the PnL comparison
    of the clean hedge vs the statistical hedge with statarb subtracted.
    """
    spec = CostSpec(gamma_prop=0.0, mode="none")
    z = np.asarray(z, dtype=float)

    hedge_p = deep_hedge(bundle, returns, None, z, spec, utility, config)
    hedge_q = deep_hedge(bundle, returns, q_weights, z, spec, utility, config)
    sol_0 = train(bundle, returns, spec, utility, config)

    feats = feature_matrix(bundle)
    a_p = forward(hedge_p.policy, feats)
    a_q = forward(hedge_q.policy, feats)
    a_0 = forward(sol_0.policy, feats)

    resid = np.linalg.norm(a_p - a_q - a_0, axis=-1)
    norm_p = np.linalg.norm(a_p, axis=-1)

    pnl_p_minus_0 = hedge_p.pnl - sol_0.gains

    return {
        "median_residual": float(np.median(resid)),
        "median_norm_p": float(np.median(norm_p)),
        "statarb_ce": sol_0.objective_value,
        "pnl_q": hedge_q.pnl,
        "pnl_p_minus_statarb": pnl_p_minus_0,
        "hedge_p": hedge_p,
        "hedge_q": hedge_q,
    }


def synthetic_history(params, n_obs, seed):
    """One long simulated Y trajectory from ``stationary_init``, for fitting
    tests and the demo."""
    return iterate_var(params, stationary_init(params), _noise(params, n_obs, seed, [0], 0))[0]


def write_history_csv(path, history, grid):
    m, n = grid.n_maturities, grid.n_strikes
    header = ["r", "dlogS"] + [
        f"logdlv_{j + 1}_{i + 1}" for j in range(m) for i in range(n)
    ]
    write_csv(path, header, [np.arange(len(history)), *np.asarray(history, dtype=float).T])


def calibrated_base_vols(grid):
    """Flat-in-strike DLV level per maturity, (m, n), at which each
    maturity row's ATM call matches the Black-Scholes ATM call at SPOT_VOL
    (S = K = 1, zero rates): Brent's root search per maturity, in order,
    with the earlier rows at their levels and the later ones at 0.2.

    DLVs are defined by the grid finite differences, so the level that
    reproduces a given implied vol depends on the grid.  On desk_grid()
    this derives var_model.DESK_DLV_LEVELS.
    """
    def bs_atm(vol, tau):
        st = vol * np.sqrt(tau)
        d1 = 0.5 * st
        return ndtr(d1) - ndtr(d1 - st)

    m, n = grid.n_maturities, grid.n_strikes
    i_atm = int(np.argmin(np.abs(np.asarray(grid.strikes) - 1.0))) + 1
    levels = []
    for j in range(m):
        def err(s):
            sig = np.ones((m, n)) * 0.2
            for k, lv in enumerate(levels):
                sig[k] = lv
            sig[j] = s
            p = prices_from_dlv_batch(grid, sig)
            return p[j + 1, i_atm] - bs_atm(SPOT_VOL, grid.maturities[j])

        levels.append(brentq(err, 1e-4, 5.0, xtol=1e-12, rtol=4 * np.finfo(float).eps,
                             maxiter=100))
    return np.repeat(np.asarray(levels)[:, None], n, axis=1)


def interp_price_general(grid, prices, x, tau):
    """Bilinear interpolation of spot-relative call prices.

    ``prices`` is (..., m+1, n+2); interpolates linearly in strike along the
    full strike axis and linearly in maturity between grid rows (row 0 is
    tau = 0 intrinsic).  ``x`` and ``tau`` may broadcast against the batch.
    """
    xs = grid.all_strikes
    taus = grid.all_taus
    x = np.asarray(x, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(x < xs[0] - 1e-12) or np.any(x > xs[-1] + 1e-12):
        raise GridDomainError("relative strike outside the grid span")
    if np.any(tau < -1e-12) or np.any(tau > taus[-1] + 1e-12):
        raise GridDomainError("maturity outside the grid span")

    batch_shape = prices.shape[:-2]
    x = np.broadcast_to(x, batch_shape)
    tau = np.broadcast_to(tau, batch_shape)
    ix = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    wx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    it = np.clip(np.searchsorted(taus, tau, side="right") - 1, 0, len(taus) - 2)
    wt = (tau - taus[it]) / (taus[it + 1] - taus[it])

    flat = prices.reshape((-1,) + prices.shape[-2:])
    b = np.arange(flat.shape[0])
    itf, ixf = it.ravel(), ix.ravel()
    p00 = flat[b, itf, ixf].reshape(batch_shape)
    p01 = flat[b, itf, ixf + 1].reshape(batch_shape)
    p10 = flat[b, itf + 1, ixf].reshape(batch_shape)
    p11 = flat[b, itf + 1, ixf + 1].reshape(batch_shape)
    return (1 - wt) * ((1 - wx) * p00 + wx * p01) + wt * ((1 - wx) * p10 + wx * p11)


def build_returns_per_step(bundle, instruments):
    """Hold-to-horizon returns DH = H_T - H_t for each instrument, one
    step at a time: the reference market.build_returns is pinned to.

    Options maturing inside the horizon are settled at payoff; options
    maturing after T are valued at the time-T surface with their remaining
    maturity, interpolated linearly in strike and maturity.  Puts price via
    parity P = C - S (1 - k) at zero rates.
    """
    grid = bundle.grid
    P, T = bundle.n_paths, bundle.n_steps
    instruments = tuple(instruments)
    n_inst = len(instruments)
    dh = np.empty((P, T, n_inst))
    mids = np.empty((P, T, n_inst))

    spots = bundle.spots
    s_T = spots[:, T]
    for k, inst in enumerate(instruments):
        if inst.kind == "spot":
            for t in range(T):
                mids[:, t, k] = spots[:, t]
                dh[:, t, k] = s_T - spots[:, t]
            continue

        tau_years = inst.ttm_days / DAYS_PER_YEAR
        if not (grid.boundary_lo <= inst.rel_strike <= grid.boundary_hi):
            raise GridDomainError(
                f"strike {inst.rel_strike} outside [{grid.boundary_lo}, {grid.boundary_hi}]"
            )
        if tau_years > grid.maturities[-1] + 1e-12:
            raise GridDomainError(
                f"maturity {inst.ttm_days}d beyond the grid span"
            )
        for t in range(T):
            s_t = spots[:, t]
            c_rel = interp_price_general(
                grid, bundle.prices[:, t], np.full(P, inst.rel_strike), tau_years
            )
            if inst.kind == "call":
                mid_rel = c_rel
            else:
                mid_rel = c_rel - (1.0 - inst.rel_strike)
            mids[:, t, k] = s_t * mid_rel

            expiry = t + inst.ttm_days
            if expiry <= T:
                ratio = spots[:, expiry] / s_t
                if inst.kind == "call":
                    terminal = s_t * np.maximum(ratio - inst.rel_strike, 0.0)
                else:
                    terminal = s_t * np.maximum(inst.rel_strike - ratio, 0.0)
            else:
                rem_tau = (expiry - T) / DAYS_PER_YEAR
                x_T = inst.rel_strike * s_t / s_T
                np.clip(x_T, grid.boundary_lo, grid.boundary_hi, out=x_T)
                c_T = interp_price_general(grid, bundle.prices[:, T], x_T, rem_tau)
                if inst.kind == "call":
                    terminal = s_T * c_T
                else:
                    terminal = s_T * (c_T - (1.0 - x_T))
            dh[:, t, k] = terminal - mids[:, t, k]

    return InstrumentReturn(instruments=instruments, dh=dh, mids=mids)


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve tridiagonal systems by the Thomas forward/backward sweep.

    Inputs are batches (..., n) for ``diag``/``rhs`` and (..., n - 1) for
    ``lower``/``upper``; a 1-D input is a batch of one.  Raises InputError
    on other shapes, and SingularSystemError on a zero pivot in any system
    of the batch.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.shape[-1]
    if lower.shape[-1] != n - 1 or upper.shape[-1] != n - 1 or rhs.shape[-1] != n:
        raise InputError("inconsistent tridiagonal dimensions")

    c = np.empty_like(diag)
    d = np.empty_like(rhs)
    c[..., 0] = diag[..., 0]
    d[..., 0] = rhs[..., 0]
    for i in range(n):
        if i > 0:
            w = lower[..., i - 1] / c[..., i - 1]
            c[..., i] = diag[..., i] - w * upper[..., i - 1]
            d[..., i] = rhs[..., i] - w * d[..., i - 1]
        if not np.all(c[..., i]):
            raise SingularSystemError(f"zero pivot at row {i}")
    x = np.empty_like(rhs)
    x[..., -1] = d[..., -1] / c[..., -1]
    for i in range(n - 2, -1, -1):
        x[..., i] = (d[..., i] - upper[..., i] * x[..., i + 1]) / c[..., i]
    return x


def prices_from_dlv_solver(grid, sigma):
    """Call grids (..., m+1, n+2) from local vols (..., m, n), one maturity
    row at a time through solve_tridiagonal: the reference
    surface.prices_from_dlv_batch is pinned to."""
    sigma = np.asarray(sigma, dtype=float)
    m, n = grid.n_maturities, grid.n_strikes
    if sigma.shape[-2:] != (m, n):
        raise InputError(f"sigma must end in shape {(m, n)}")
    if not np.all(np.isfinite(sigma)):
        raise InvalidSurfaceError("local vol surface contains non-finite entries")
    if np.any(sigma < 0):
        raise InvalidSurfaceError("local vol surface contains negative entries")

    xs = grid.all_strikes
    taus = grid.all_taus
    xi = xs[1:-1]
    dx_lo = xi - xs[:-2]  # x_i - x_{i-1}
    dx_hi = xs[2:] - xi  # x_{i+1} - x_i

    batch = sigma.shape[:-2]
    prices = np.empty(batch + (m + 1, n + 2))
    prices[..., 0, :] = intrinsic_row(grid)
    lo_pin = 1.0 - grid.boundary_lo
    for j in range(1, m + 1):
        dtau = taus[j] - taus[j - 1]
        half = 0.5 * dtau * xi**2 * sigma[..., j - 1, :] ** 2
        alpha = half / dx_lo
        beta = half / dx_hi
        diag = 1.0 + alpha + beta
        lower = -alpha[..., 1:]
        upper = -beta[..., :-1]
        rhs = prices[..., j - 1, 1:-1].copy()
        rhs[..., 0] += alpha[..., 0] * lo_pin
        # high-strike boundary is pinned at zero: no rhs contribution
        prices[..., j, 0] = lo_pin
        prices[..., j, -1] = 0.0
        prices[..., j, 1:-1] = solve_tridiagonal(lower, diag, upper, rhs)
    return prices
