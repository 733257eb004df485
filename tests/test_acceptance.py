"""Acceptance suite.

Each test records one PASS/FAIL line for its criterion (A1..A11); the
conftest terminal-summary hook prints the scoreboard after the run, so a
full pytest invocation ends with one line per criterion.
"""

import numpy as np
import pytest

from driftless.frictions import CostSpec
from driftless.hedging import PayoffSpec, deep_hedge, payoff, robustness_eval
from driftless.market import InstrumentSpec, build_returns
from driftless.measure import (
    bounded_reweight,
    density,
    divergence,
    verify_drift,
)
from driftless.oce import Utility, legendre, oce_sup, u_value
from driftless.surface import DlvGrid, dlv_from_prices, prices_from_dlv_batch
from driftless.trainer import (
    TrainConfig,
    init_mlp,
    objective_and_grad,
    train,
)
from driftless.var_model import (
    desk_grid,
    desk_params,
    fit_var,
    simulate,
    stationary_init,
)

import conftest
from oracles import (
    memm_one_period,
    one_period_bundle,
    static_arbitrage_margin,
    synthetic_history,
)


def report(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


DESK_SPEC = CostSpec(gamma_prop=0.001, mode="marginal")
DESK_SPEC2 = CostSpec(gamma_prop=0.002, mode="marginal")
DESK_CFG = TrainConfig(epochs=60, batch_size=1000, lr=0.005, lr_decay=0.99, seed=0)


class Desk:
    """Shared desk-scale market artifacts, built once per session."""

    def __init__(self):
        grid = desk_grid()
        params = desk_params(grid)
        self.bundle = simulate(
            params, stationary_init(params), 10_000, 10, seed=7, grid=grid
        )
        self.instruments = [
            InstrumentSpec("spot"),
            InstrumentSpec("call", 1.0, 20),
            InstrumentSpec("call", 1.0, 40),
            InstrumentSpec("put", 0.95, 20),
        ]
        self.returns = build_returns(self.bundle, self.instruments)
        self.u_exp = Utility("exponential", 1.0)
        self.sol_exp = train(
            self.bundle, self.returns, DESK_SPEC, self.u_exp, DESK_CFG
        )
        self.dw_exp = density(
            self.sol_exp, self.bundle, self.returns, DESK_SPEC, self.u_exp
        )


@pytest.fixture(scope="session")
def desk():
    return Desk()


@pytest.fixture(scope="session")
def desk_amv(desk):
    """Bounded-transform density for the adjusted mean-vol utility."""
    u = Utility("adjusted_mean_vol", 1.0)
    dw, sol, scale = bounded_reweight(desk.bundle, desk.returns, u, DESK_CFG)
    return u, dw, sol, scale


def test_a1_memm_oracle_equivalence():
    u = Utility("exponential", 1.0)
    spec = CostSpec(mode="none")
    cfg = TrainConfig(epochs=1200, lr=0.05, lr_decay=0.996, seed=3, hidden=(8,))
    worst = 0.0
    cases = [
        (np.array([2.0, -1.0]), [2.0, -1.0], [0.5, 0.5]),
        (np.array([1.0, 1.0, 0.0, -1.0]), [1.0, 0.0, -1.0], [0.5, 0.25, 0.25]),
    ]
    for path_outcomes, levels, probs in cases:
        bundle, rets = one_period_bundle(path_outcomes)
        sol = train(bundle, rets, spec, u, cfg)
        dw = density(sol, bundle, rets, spec, u)
        q_trained = np.array(
            [dw.weights[path_outcomes == v].sum() for v in levels]
        ) / dw.weights.sum()
        _, q_ref = memm_one_period(levels, probs, lam=1.0)
        worst = max(worst, float(np.max(np.abs(q_trained - q_ref))))
    report("A1", worst < 1e-3, f"max outcome-probability error {worst:.2e}")


def test_a2_density_sanity(desk, desk_amv):
    _, dw_amv, _, _ = desk_amv
    errs = {"exponential": desk.dw_exp.mean_error,
            "adjusted_mean_vol": dw_amv.mean_error}
    positive = bool(
        np.all(desk.dw_exp.weights > 0) and np.all(dw_amv.weights > 0)
    )
    ok = positive and all(e <= 0.02 for e in errs.values())
    report(
        "A2",
        ok,
        "raw mean errors "
        + ", ".join(f"{k} {v:.2e}" for k, v in errs.items())
        + f", all weights positive: {positive}",
    )


def test_a3_drift_band_reproduction(desk):
    rep_u = verify_drift(
        desk.bundle, desk.returns, np.ones(desk.bundle.n_paths), DESK_SPEC
    )
    rep_q = verify_drift(desk.bundle, desk.returns, desk.dw_exp.weights, DESK_SPEC)
    ok = rep_u.n_failed >= 1 and rep_q.all_pass
    report(
        "A3",
        ok,
        f"uniform {rep_u.n_failed}/{len(rep_u.rows)} rows fail, "
        f"reweighted {rep_q.n_failed}/{len(rep_q.rows)} rows fail",
    )


def test_a3_static_arbitrage_margin_diagnostic(desk):
    """Diagnostic next to A3, with no bound: the desk sample's static
    arbitrage margin net of the cost band.  A positive margin at the desk's
    gamma = 0.001 means no equivalent measure keeps every drift within its
    cost band, so A3's pass there rests on the band's standard-error term."""
    margins = {g: static_arbitrage_margin(desk.returns.dh, desk.returns.mids, g)
               for g in (0.0, 0.001, 0.002)}
    line = ("diagnostic (A3): desk static arbitrage margin "
            + ", ".join(f"gamma {g}: {m:.2e}" for g, m in margins.items())
            + " (> 0 is an arbitrage net of cost; no bound)")
    conftest.acceptance_lines.append(line)
    print(line)


def test_a4_adversarial_statarb_removal(desk):
    # one near-martingale measure; adversaries with either risk preference
    # retrain under it at doubled costs
    ratios = {}
    for name in ("exponential", "adjusted_mean_vol"):
        u = Utility(name, 1.0)
        sol_p = train(desk.bundle, desk.returns, DESK_SPEC2, u, DESK_CFG)
        sol_q = train(desk.bundle, desk.returns, DESK_SPEC2, u, DESK_CFG,
                      weights=desk.dw_exp.weights)
        ratios[name] = abs(sol_q.objective_value) / abs(sol_p.objective_value)
    ok = all(r <= 0.10 for r in ratios.values())
    report(
        "A4",
        ok,
        "|CE_q| / CE_p: "
        + ", ".join(f"{k} {v:.3f}" for k, v in ratios.items())
        + " (limit 0.10)",
    )


def test_a5_gradient_correctness():
    rng = np.random.default_rng(10)
    u = Utility("exponential", 1.0)
    spec = CostSpec(gamma_prop=0.002, mode="marginal")
    worst = 0.0
    for trial in range(5):
        bundle, rets = one_period_bundle(rng.normal(size=16))
        mlp = init_mlp([3, 8, 1], np.random.default_rng(trial))
        y = float(rng.normal() * 0.1)
        _, grads, y_grad = objective_and_grad(bundle, rets, spec, u, mlp, y)
        h = 1e-5
        arrays = [mlp.weights[0], mlp.biases[0], mlp.weights[1], mlp.biases[1]]
        for arr, g in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y)
                arr[idx] = orig - h
                dn, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y)
                arr[idx] = orig
                num = (up - dn) / (2 * h)
                worst = max(worst, abs(g[idx] - num) / max(abs(num), 1e-6))
        up, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y + h)
        dn, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y - h)
        num = (up - dn) / (2 * h)
        worst = max(worst, abs(y_grad - num) / max(abs(num), 1e-6))
    report("A5", worst < 1e-4, f"max relative gradient error {worst:.2e}")


def _random_grid(rng):
    n = int(rng.integers(3, 6))
    m = int(rng.integers(2, 5))
    strikes = np.sort(1.0 + 0.25 * (rng.uniform(size=n) - 0.5))
    while np.min(np.diff(strikes)) < 0.02:
        strikes = np.sort(1.0 + 0.25 * (rng.uniform(size=n) - 0.5))
    days = np.cumsum(rng.integers(5, 25, size=m))
    return DlvGrid(
        strikes=tuple(strikes),
        maturities=tuple(days / 252.0),
        boundary_lo=float(strikes[0] - rng.uniform(0.2, 0.4)),
        boundary_hi=float(strikes[-1] + rng.uniform(0.2, 0.4)),
    )


def _static_arbitrage_violation(grid, p):
    """Worst butterfly / calendar violation of a call grid (0 if clean)."""
    x = np.asarray(grid.all_strikes)
    delta = np.diff(p, axis=1) / np.diff(x)
    worst = 0.0
    worst = max(worst, float(np.max(-np.diff(delta, axis=1), initial=0.0)))
    worst = max(worst, float(np.max(p[:-1] - p[1:], initial=0.0)))
    return worst


def test_a6_dlv_round_trips():
    rng = np.random.default_rng(6)
    worst_rt = 0.0
    worst_arb = 0.0
    for _ in range(100):
        grid = _random_grid(rng)
        m, n = grid.n_maturities, grid.n_strikes
        sigma = rng.uniform(0.1, 0.8, size=(m, n))
        prices = prices_from_dlv_batch(grid, sigma)
        back = dlv_from_prices(grid, prices)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - sigma))))
        prices2 = prices_from_dlv_batch(grid, back)
        worst_rt = max(worst_rt, float(np.max(np.abs(prices2 - prices))))
        worst_arb = max(worst_arb, _static_arbitrage_violation(grid, prices))
        worst_arb = max(worst_arb, _static_arbitrage_violation(grid, prices2))
    ok = worst_rt < 1e-9 and worst_arb < 1e-12
    report(
        "A6",
        ok,
        f"100 surfaces, max round-trip error {worst_rt:.2e}, "
        f"max static-arbitrage violation {worst_arb:.2e}",
    )


def test_a7_var_recovery():
    grid = desk_grid()
    params = desk_params(grid)  # dim 10: spot return + 3x3 log vols
    inside = 0
    total = 0
    for seed in range(20):
        history = synthetic_history(params, 10_000, seed=100 + seed)
        fit = fit_var(history, dt=params.dt)
        for true, est, se in (
            (params.a1, fit.a1, fit.se_a1),
            (params.a2, fit.a2, fit.se_a2),
            (params.b, fit.b, fit.se_b),
        ):
            inside += int(np.sum(np.abs(est - true) <= 3.0 * se))
            total += true.size
    frac = inside / total
    report("A7", frac >= 0.95, f"{frac:.3f} of coefficients within 3 SE")


def test_a8_duality(desk):
    div = divergence(desk.dw_exp.weights, desk.u_exp)
    obj = desk.sol_exp.objective_value
    per_path = legendre(desk.u_exp, desk.dw_exp.weights) - (
        u_value(desk.u_exp, desk.sol_exp.pre_utility) - desk.sol_exp.y_star
    )
    two_se = 2.0 * per_path.std(ddof=1) / np.sqrt(per_path.size)
    diff = abs(div - obj)
    report(
        "A8",
        diff <= two_se,
        f"|divergence - objective| = {diff:.4f} vs 2 MC SE = {two_se:.4f}",
    )


def test_a9_robustness(desk):
    pay = PayoffSpec(kind="digital_call", rel_strike=1.0, maturity_steps=10,
                     side=-1)
    z = payoff(pay, desk.bundle)
    # tilt direction: the drift direction identified by the statarb trader
    direction = desk.sol_exp.gains - desk.sol_exp.costs

    # training noise dominates MC noise here, so retrain both hedges over
    # independent seeds and compare the mean small-tilt degradation of the
    # reweighted hedge against twice the run-to-run CE spread
    d_p05, d_q05, d_p50, d_q50, base_q = [], [], [], [], []
    for seed in range(3):
        cfg = TrainConfig(
            epochs=DESK_CFG.epochs, batch_size=DESK_CFG.batch_size,
            lr=DESK_CFG.lr, lr_decay=DESK_CFG.lr_decay, seed=seed,
        )
        hedge_p = deep_hedge(
            desk.bundle, desk.returns, None, z, DESK_SPEC, desk.u_exp, cfg
        )
        hedge_q = deep_hedge(
            desk.bundle, desk.returns, desk.dw_exp.weights, z, DESK_SPEC,
            desk.u_exp, cfg,
        )
        rep = robustness_eval(
            hedge_p, hedge_q, desk.u_exp, [0.0, 0.05, 0.5], direction=direction,
        )
        by_c = {e["c"]: e for e in rep["entries"]}
        assert by_c[0.0]["delta_p"] == by_c[0.0]["delta_q"] == 0.0
        d_p05.append(by_c[0.05]["delta_p"])
        d_q05.append(by_c[0.05]["delta_q"])
        d_p50.append(by_c[0.5]["delta_p"])
        d_q50.append(by_c[0.5]["delta_q"])
        base_q.append(rep["base_ce_q"])

    ordering = all(p > q for p, q in zip(d_p50, d_q50))
    noise = 2.0 * float(np.std(base_q, ddof=1))
    small_flat = abs(float(np.mean(d_q05))) <= noise
    big_p = float(np.mean(d_p05)) > noise
    report(
        "A9",
        ordering and small_flat and big_p,
        f"c=0.5 degradation P {np.mean(d_p50):.3f} > Q {np.mean(d_q50):.3f} "
        f"per seed: {ordering}; c=0.05 Q degradation {np.mean(d_q05):.4f} "
        f"within retraining noise {noise:.4f}: {small_flat}; "
        f"c=0.05 P degradation {np.mean(d_p05):.3f} exceeds it: {big_p}",
    )


def test_a10_one_period_replication():
    outcomes = np.array([2.0, -1.0])
    bundle, rets = one_period_bundle(outcomes)
    _, q = memm_one_period(outcomes, [0.5, 0.5], lam=1.0)
    weights = q / np.array([0.5, 0.5])
    u = Utility("exponential", 1.0)
    spec = CostSpec(mode="none")
    z = np.array([-1.0, 0.0])  # short digital paying on the up move
    cfg = TrainConfig(epochs=4000, lr=0.05, lr_decay=0.998, seed=2, hidden=(8,))
    result = deep_hedge(bundle, rets, weights, z, spec, u, cfg)
    pnl_std = float(np.std(result.pnl))
    price = -result.certainty_equivalent
    price_err = abs(price - q[0])
    ok = pnl_std < 1e-6 and price_err < 1e-3
    report(
        "A10",
        ok,
        f"PnL std {pnl_std:.2e}, |price - martingale prob| {price_err:.2e}",
    )


def test_a11_oce_axioms():
    rng = np.random.default_rng(11)
    checks = []
    for fam in ("exponential", "adjusted_mean_vol"):
        u = Utility(fam, 1.0)
        x = rng.normal(size=1000)
        eps = np.abs(rng.normal(size=1000)) * 0.1
        ux, _ = oce_sup(x, None, u)
        # monotonicity: X <= Y pointwise implies U(X) <= U(Y)
        uy, _ = oce_sup(x + eps, None, u)
        checks.append(uy >= ux - 1e-10)
        # midpoint concavity
        z = rng.normal(size=1000)
        uz, _ = oce_sup(z, None, u)
        um, _ = oce_sup(0.5 * (x + z), None, u)
        checks.append(um >= 0.5 * (ux + uz) - 1e-8)
        # cash invariance
        uc, _ = oce_sup(x + 0.37, None, u)
        checks.append(abs(uc - (ux + 0.37)) < 1e-8)
        # normalization at zero
        u0, _ = oce_sup(np.zeros(1000), None, u)
        checks.append(abs(u0) < 1e-10)
    report("A11", all(checks), f"{sum(checks)}/{len(checks)} axiom checks hold")
