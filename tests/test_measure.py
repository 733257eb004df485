import numpy as np
import pytest

from driftless.errors import InputError, UtilityDomainError
from driftless.frictions import CostSpec
from driftless.market import InstrumentReturn
from driftless.measure import (
    DensityWeights,
    bounded_reweight,
    density,
    divergence,
    verify_drift,
)
from driftless.oce import Utility, legendre
from driftless.trainer import TrainConfig, evaluate_policy, train

from oracles import (
    ClassicArbitrageError,
    bachelier_market,
    memm_one_period,
    one_period_bundle,
    static_arbitrage_margin,
)


class TestMemmOnePeriod:
    def test_symmetric(self):
        a, q = memm_one_period([1.0, -1.0], [0.5, 0.5], lam=1.0)
        assert a == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(q, [0.5, 0.5], atol=1e-10)

    def test_two_to_minus_one(self):
        _, q = memm_one_period([2.0, -1.0], [0.5, 0.5], lam=1.0)
        assert np.allclose(q, [1 / 3, 2 / 3], atol=1e-10)

    def test_three_outcomes(self):
        _, q = memm_one_period([1.0, 0.0, -1.0], [0.5, 0.25, 0.25], lam=1.0)
        assert q[0] == pytest.approx(q[2], abs=1e-12)
        assert float(q @ np.array([1.0, 0.0, -1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_one_signed_outcomes_rejected(self):
        with pytest.raises(ClassicArbitrageError):
            memm_one_period([1.0, 2.0], [0.5, 0.5], lam=1.0)

    def test_lambda_invariance_of_martingale_condition(self):
        for lam in (0.5, 1.0, 3.0):
            _, q = memm_one_period([2.0, -1.0], [0.5, 0.5], lam=lam)
            assert float(q @ np.array([2.0, -1.0])) == pytest.approx(0.0, abs=1e-10)


class TestStaticArbitrageMargin:
    def test_planted_arbitrage_positive(self):
        """A column that gains on every path is an arbitrage: gross size 1
        in it earns its smallest gain less its cost."""
        _, rets = one_period_bundle([0.1, 0.2, 0.3])
        for gamma in (0.0, 0.01):
            assert static_arbitrage_margin(rets.dh, rets.mids, gamma) == pytest.approx(
                0.1 - gamma, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.001, 0.002])
    def test_no_arbitrage_zero_then_negative(self, gamma):
        """Outcomes of both signs admit no arbitrage: at gamma = 0 only
        offsetting long and short parts reach 0, and at gamma > 0 their cost
        makes the margin -gamma."""
        _, rets = one_period_bundle([2.0, -1.0])
        assert static_arbitrage_margin(rets.dh, rets.mids, gamma) == pytest.approx(
            -gamma, abs=1e-12)


class TestBachelierMarket:
    """The exact Q* of ``oracles.bachelier_market`` against its known law:
    log w is N(-V/2, V) up to the mean-1 normalization, so each statistic
    of the 10^4 weights lies within 5 of its sampling SEs.  The SEs come
    from the lognormal law itself: Var of the sample variance is
    2V^2/(n-1), Var(w log w) = e^V (V + 9V^2/4) - V^2/4, and
    Var(w^2) = e^6V - e^2V.  The last is why the Kish ESS band is loose at
    V = 4, where the sample ESS (447) still sits far above n e^-V (183).
    """

    N = 10_000

    @pytest.fixture(scope="class", params=[0.04, 1.0, 4.0], ids=["V0.04", "V1", "V4"])
    def market(self, request):
        return request.param, *bachelier_market(request.param, seed=7)

    def test_weight_statistics_match_the_exact_law(self, market):
        v, _, _, w = market
        n, log_w = self.N, np.log(w)
        assert w.shape == (n,)
        assert abs(np.var(log_w, ddof=1) - v) <= 5 * v * np.sqrt(2 / (n - 1))
        kl_se = np.sqrt((np.exp(v) * (v + 9 * v * v / 4) - v * v / 4) / n)
        assert abs(np.mean(w * log_w) - v / 2) <= 5 * kl_se
        # Kish ESS = n / mean(w^2) for mean-1 weights, and E[w^2] = e^V
        ess = n / np.mean(w**2)
        assert abs(n / ess - np.exp(v)) <= 5 * np.sqrt((np.exp(6 * v) - np.exp(2 * v)) / n)

    def test_uniform_weights_fail_every_row(self, market):
        _, bundle, rets, _ = market
        report = verify_drift(bundle, rets, np.ones(self.N), CostSpec(mode="none"))
        assert len(report.rows) == 10 and report.n_failed == 10

    def test_no_static_arbitrage(self, market):
        """The sample admits no static arbitrage: the margin reads 0 at
        gamma = 0 (only offsetting parts reach it) and below 0 at
        gamma = 0.001."""
        _, _, rets, _ = market
        assert abs(static_arbitrage_margin(rets.dh, rets.mids, 0.0)) <= 1e-9
        assert static_arbitrage_margin(rets.dh, rets.mids, 0.001) < 0


class TestDensity:
    def test_exponential_identity(self):
        # normalized density equals exp(-lam G) / mean regardless of y*
        bundle, rets = one_period_bundle(np.array([0.7, -0.3, 0.2, -0.6]))
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        cfg = TrainConfig(epochs=50, lr=0.02, seed=0, hidden=(8,))
        sol = train(bundle, rets, spec, u, cfg)
        dw = density(sol, bundle, rets, spec, u)
        from driftless.trainer import evaluate_policy

        g = evaluate_policy(bundle, rets, spec, u, sol.policy, sol.y_star)["gains"]
        ref = np.exp(-g)
        ref /= ref.mean()
        assert np.allclose(dw.weights, ref, atol=1e-10)

    def test_driftless_market_density_near_one(self):
        bundle, rets = one_period_bundle(np.array([0.05, -0.05] * 50))
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        cfg = TrainConfig(epochs=150, lr=0.01, seed=1, hidden=(8,))
        sol = train(bundle, rets, spec, u, cfg)
        dw = density(sol, bundle, rets, spec, u)
        assert np.max(np.abs(dw.weights - 1.0)) < 0.05

    def test_trained_density_matches_memm(self):
        outcomes = np.array([2.0, -1.0])
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        cfg = TrainConfig(epochs=800, lr=0.05, lr_decay=0.995, seed=3, hidden=(8,))
        sol = train(bundle, rets, spec, u, cfg)
        dw = density(sol, bundle, rets, spec, u)
        # outcome probabilities implied by the weights (uniform p = 1/2)
        q_trained = dw.weights / dw.weights.sum()
        _, q_ref = memm_one_period(outcomes, [0.5, 0.5], lam=1.0)
        assert np.max(np.abs(q_trained - q_ref)) < 1e-3

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            DensityWeights(weights=np.array([0.0, 2.0]), mean_error=0.0)
        with pytest.raises(ValueError):
            DensityWeights(weights=np.array([0.5, 1.0]), mean_error=0.0)
        with pytest.raises(ValueError):
            DensityWeights(weights=np.array([np.nan, 1.0]), mean_error=0.0)


class TestVerifyDrift:
    def test_uniform_fails_on_drifted_market(self):
        # strong one-sided drift: mean DH far outside the cost band
        rng = np.random.default_rng(0)
        outcomes = 0.02 + 0.01 * rng.normal(size=400)
        outcomes[::2] -= 0.025  # two-sided but mean ~ +0.0075
        bundle, rets = one_period_bundle(outcomes)
        spec = CostSpec(gamma_prop=0.001, mode="marginal")
        rep = verify_drift(bundle, rets, np.ones(400), spec)
        assert rep.n_failed >= 1
        assert not rep.all_pass

    def test_memm_weights_pass(self):
        rng = np.random.default_rng(0)
        outcomes = 0.02 + 0.01 * rng.normal(size=400)
        outcomes[::2] -= 0.025
        bundle, rets = one_period_bundle(outcomes)
        spec = CostSpec(gamma_prop=0.001, mode="marginal")
        # exponential tilt solved so the weighted mean return vanishes
        from scipy.optimize import brentq

        lam = brentq(
            lambda t: np.average(outcomes, weights=np.exp(-t * outcomes)),
            0.0,
            500.0,
        )
        w = np.exp(-lam * outcomes)
        w /= w.mean()
        rep = verify_drift(bundle, rets, w, spec)
        assert rep.all_pass

    @pytest.mark.parametrize(
        "weights",
        [np.ones(3), -np.ones(4), np.array([1.0, np.nan, 1.0, 1.0])],
        ids=["wrong_length", "negative", "nan"],
    )
    def test_bad_weights_rejected(self, weights):
        bundle, rets = one_period_bundle(np.array([0.1, -0.1, 0.2, -0.2]))
        with pytest.raises(InputError):
            verify_drift(bundle, rets, weights, CostSpec(0.001))

    def test_report_csv_format(self, tmp_path):
        bundle, rets = one_period_bundle(np.array([0.1, -0.1]))
        rep = verify_drift(bundle, rets, np.ones(2), CostSpec(0.001))
        f = tmp_path / "report.csv"
        rep.to_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "t,instrument,mean_dh,se,band_lo,band_hi,pass"
        assert len(lines) == 1 + len(rep.rows)


@pytest.mark.parametrize("paths, steps", [(2, 1), (4, 1), (3, 2)],
                         ids=["fewer_paths", "more_paths", "more_steps"])
def test_returns_from_another_bundle_refused(paths, steps):
    """train, evaluate_policy, density and verify_drift refuse returns whose
    (paths, steps) are not the bundle's, before any work."""
    bundle, rets = one_period_bundle(np.array([0.2, -0.1, 0.3]))
    spec, u = CostSpec(0.001), Utility("exponential", 1.0)
    sol = train(bundle, rets, spec, u, TrainConfig(epochs=2, seed=0, hidden=(2,)))
    other = InstrumentReturn(instruments=rets.instruments, dh=np.zeros((paths, steps, 1)),
                             mids=np.ones((paths, steps, 1)))
    calls = [
        lambda: train(bundle, other, spec, u, TrainConfig(epochs=2, seed=0, hidden=(2,))),
        lambda: evaluate_policy(bundle, other, spec, u, sol.policy, sol.y_star),
        lambda: density(sol, bundle, other, spec, u),
        lambda: verify_drift(bundle, other, np.ones(3), spec),
    ]
    for call in calls:
        with pytest.raises(InputError, match="not from this bundle"):
            call()


class TestDivergence:
    def test_uniform_weights_zero(self):
        for fam in ("exponential", "adjusted_mean_vol"):
            assert divergence(np.ones(10), Utility(fam, 1.0)) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_two_path_arithmetic(self):
        u = Utility("exponential", 1.0)
        val = divergence(np.array([0.5, 1.5]), u)
        expected = np.mean(
            [1 - 0.5 + 0.5 * np.log(0.5), 1 - 1.5 + 1.5 * np.log(1.5)]
        )
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.130812, abs=5e-7)

    def test_amv_domain_error(self):
        with pytest.raises(UtilityDomainError):
            divergence(np.array([0.5, 2.5]), Utility("adjusted_mean_vol", 1.0))

    def test_nonnegative_on_random_weights(self):
        rng = np.random.default_rng(1)
        for fam in ("exponential", "adjusted_mean_vol"):
            u = Utility(fam, 1.0)
            w = np.abs(rng.normal(size=200)) + 0.05
            w = 1.9 * w / w.max()  # keep inside the amv domain
            w = w / w.mean()
            if fam == "adjusted_mean_vol" and np.any(w >= 2.0):
                w = np.clip(w, 0.01, 1.99)
                w = w / w.mean()
                if np.any(w >= 2.0):
                    continue
            assert divergence(w, u) >= -1e-12


class TestAdversarial:
    def test_small_market_statarb_removed(self):
        outcomes = np.array([2.0, -1.0])
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        cfg = TrainConfig(epochs=800, lr=0.05, lr_decay=0.995, seed=3, hidden=(8,))
        sol = train(bundle, rets, spec, u, cfg)
        dw = density(sol, bundle, rets, spec, u)
        ce_p = sol.objective_value
        ce_q = train(bundle, rets, spec, u, cfg, weights=dw.weights).objective_value
        assert abs(ce_q) <= 0.1 * abs(ce_p)


class TestBoundedReweight:
    def test_degenerate_market_gives_unit_density(self):
        bundle, rets = one_period_bundle(np.zeros(8))
        u = Utility("adjusted_mean_vol", 1.0)
        cfg = TrainConfig(epochs=30, lr=0.01, seed=0, hidden=(4,))
        dw, sol, scale = bounded_reweight(bundle, rets, u, cfg)
        assert np.allclose(dw.weights, 1.0, atol=1e-6)
        assert np.allclose(scale, 1.0)

    def test_pass_fail_agreement_with_plain_density(self):
        rng = np.random.default_rng(4)
        outcomes = np.clip(0.01 + 0.05 * rng.normal(size=300), -0.9, 0.9)
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        spec = CostSpec(gamma_prop=0.001, mode="marginal")
        cfg = TrainConfig(epochs=400, lr=0.03, lr_decay=0.995, seed=1, hidden=(8,))
        sol = train(bundle, rets, spec, u, cfg)
        dw_plain = density(sol, bundle, rets, spec, u)
        dw_bounded, _, scale = bounded_reweight(bundle, rets, u, cfg)
        rep_p = verify_drift(bundle, rets, dw_plain.weights, spec)
        rep_b = verify_drift(bundle, rets, dw_bounded.weights, spec)
        assert [r.passed for r in rep_p.rows] == [r.passed for r in rep_b.rows]

    def test_scaled_divergence_duality(self):
        rng = np.random.default_rng(9)
        outcomes = np.clip(0.01 + 0.05 * rng.normal(size=300), -0.9, 0.9)
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("adjusted_mean_vol", 1.0)
        cfg = TrainConfig(epochs=400, lr=0.03, lr_decay=0.995, seed=1, hidden=(8,))
        dw, sol, scale = bounded_reweight(bundle, rets, u, cfg)
        scaled = dw.weights * scale
        if np.any(scaled >= 2.0):
            pytest.skip("scaled density left the transform domain")
        div = float(np.mean(legendre(u, scaled)))
        # weak duality: the scaled divergence dominates the objective
        assert div >= sol.objective_value - 1e-6
