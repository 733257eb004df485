import math
import re

import numpy as np
import pytest

from driftless.errors import GridDomainError, InputError, TiltError
from driftless.frictions import CostSpec
from driftless.hedging import (
    PayoffSpec,
    deep_hedge,
    payoff,
    robustness_eval,
    tilt,
)
from driftless.market import read_json
from driftless.oce import Utility
from driftless.trainer import TrainConfig, evaluate_policy

from oracles import decompose_check, memm_one_period, one_period_bundle


def spots_bundle(final_spots):
    """Multi-step bundle with prescribed terminal spots (start at 1)."""
    import numpy as np

    from driftless.market import bundle_from_sigmas
    from driftless.var_model import desk_grid

    final_spots = np.asarray(final_spots, dtype=float)
    P = final_spots.shape[0]
    spots = np.ones((P, 3))
    spots[:, 2] = final_spots
    sigmas = np.full((P, 3, 3, 3), 0.2)
    return bundle_from_sigmas(desk_grid(), spots, sigmas)


class TestPayoff:
    def test_short_digital_in_the_money(self):
        b = spots_bundle([1.05])
        spec = PayoffSpec(kind="digital_call", rel_strike=1.0,
                          maturity_steps=2, side=-1)
        assert payoff(spec, b)[0] == -1.0

    def test_digital_at_the_money_pays_nothing(self):
        b = spots_bundle([1.0])
        spec = PayoffSpec(kind="digital_call", rel_strike=1.0,
                          maturity_steps=2, side=-1)
        assert payoff(spec, b)[0] == 0.0

    def test_vanilla_call(self):
        b = spots_bundle([1.2])
        for side in (-1, 1):
            spec = PayoffSpec(kind="vanilla_call", rel_strike=1.0,
                              maturity_steps=2, side=side)
            assert payoff(spec, b)[0] == pytest.approx(0.2 * side)

    def test_vanilla_put(self):
        b = spots_bundle([0.9])
        spec = PayoffSpec(kind="vanilla_put", rel_strike=1.0,
                          maturity_steps=2, side=1)
        assert payoff(spec, b)[0] == pytest.approx(0.1)

    def test_custom_table(self):
        b = spots_bundle([1.0, 1.1])
        spec = PayoffSpec(kind="custom_table", table=(0.3, -0.4))
        assert np.array_equal(payoff(spec, b), [0.3, -0.4])

    def test_maturity_beyond_horizon(self):
        b = spots_bundle([1.0])
        spec = PayoffSpec(kind="vanilla_call", rel_strike=1.0, maturity_steps=9)
        with pytest.raises(GridDomainError):
            payoff(spec, b)

    def test_json_round_trip(self, tmp_path):
        spec = PayoffSpec(kind="digital_call", rel_strike=1.02,
                          maturity_steps=5, side=-1)
        import json

        f = tmp_path / "payoff.json"
        f.write_text(json.dumps({
            "kind": "digital_call", "rel_strike": 1.02,
            "maturity_steps": 5, "side": -1,
        }))
        assert PayoffSpec.from_dict(read_json(f)) == spec

    @pytest.mark.parametrize("kind, kwargs, field", [
        ("vanilla_call", {"maturity_steps": 2.5}, "maturity_steps"),
        ("vanilla_call", {"rel_strike": float("nan")}, "rel_strike"),
        ("vanilla_call", {"side": 1.0}, "side"),
        ("custom_table", {"table": (float("nan"), 1.0)}, "table"),
        ("custom_table", {"table": ("1", "2")}, "table"),
        ("custom_table", {}, "table"),
        ("vanilla_call", {"table": (1.0, 2.0)}, "table"),
    ], ids=["fractional_maturity", "nan_strike", "float_side", "nan_table", "string_table",
            "no_table", "table_on_vanilla"])
    def test_numeric_fields_checked(self, kind, kwargs, field):
        """A non-finite or (for maturity_steps and side) non-integer field,
        a custom table that is empty or not all finite numbers, or a table on
        another kind, is refused with an InputError that names the field."""
        with pytest.raises(InputError, match=field):
            PayoffSpec(kind, **kwargs)

    def test_from_dict_rejects_bad_keys(self):
        with pytest.raises(InputError, match="strike"):
            PayoffSpec.from_dict({"kind": "digital_call", "strike": 1.02})
        with pytest.raises(InputError, match="kind"):
            PayoffSpec.from_dict({"rel_strike": 1.02})


class TestTilt:
    def test_zero_entropy_uniform(self):
        assert np.array_equal(tilt(np.array([1.0, 2.0, 3.0]), 0.0), np.ones(3))

    @pytest.mark.parametrize("direction, c", [
        (np.random.default_rng(0).normal(size=2000), 0.05),
        (np.random.default_rng(0).normal(size=2000), 0.5),
        (np.array([1.0, 2.0, 3.0, 4.0]), np.log(4) - 1e-9),
    ], ids=["0.05", "0.5", "below_log4"])
    def test_achieved_entropy(self, direction, c):
        w = tilt(direction, c)
        assert np.all(w > 0)
        assert w.mean() == pytest.approx(1.0, abs=1e-12)
        assert float(np.mean(w * np.log(w))) == pytest.approx(c, abs=1e-12)

    def test_tilts_against_direction(self):
        rng = np.random.default_rng(1)
        direction = rng.normal(size=500)
        w = tilt(direction, 0.2)
        assert np.mean(w * direction) < np.mean(direction)

    @pytest.mark.parametrize("c", [float("nan"), -0.1], ids=["nan", "negative"])
    def test_bad_entropy_rejected(self, c):
        with pytest.raises(InputError):
            tilt(np.array([1.0, 2.0, 3.0, 4.0]), c)

    def test_constant_direction_rejected(self):
        with pytest.raises(TiltError):
            tilt(np.ones(4), 0.1)

    @pytest.mark.parametrize("direction, c, bound", [
        (np.array([1.0, 2.0, 3.0, 4.0]), 1.5, math.log(4)),
        (np.array([1.0, 2.0, 3.0, 4.0]), math.log(4), math.log(4)),
        (np.array([1.0, 1.0, 3.0, 4.0]), math.log(2) + 0.01, math.log(2)),
        (np.random.default_rng(0).normal(size=2000), 7.7, math.log(2000)),
    ], ids=["above_log4", "log4", "two_tied_minima", "normals"])
    def test_unreachable_entropy_names_bound(self, direction, c, bound):
        """The entropy of a tilt with theta >= 0 stays below log(n/k), for
        n entries k of which tie at the minimum; a target at or above it is
        refused, and the message names the bound."""
        with pytest.raises(TiltError, match=re.escape(f"log(n/k) = {bound},")):
            tilt(direction, c)

    def test_underflowing_weights_rejected(self):
        """Below log 3, but reached only where the entry at 1 weighs a
        small fraction of the one at 0, so theta is several units and the
        entry at 1000, weighing exp(-1000 theta), underflows to 0."""
        with pytest.raises(TiltError, match="below the smallest float"):
            tilt(np.array([0.0, 1.0, 1000.0]), math.log(3) - 1e-3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_direction_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            tilt(np.array([1.0, bad, 2.0]), 0.1)


class TestReplication:
    def fit(self):
        outcomes = np.array([2.0, -1.0])
        bundle, rets = one_period_bundle(outcomes)
        _, q = memm_one_period(outcomes, [0.5, 0.5], lam=1.0)
        weights = q / np.array([0.5, 0.5])
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        z = np.array([-1.0, 0.0])  # short digital, in the money on the up move
        cfg = TrainConfig(epochs=4000, lr=0.05, lr_decay=0.998, seed=2, hidden=(8,))
        result = deep_hedge(bundle, rets, weights, z, spec, u, cfg)
        return result, q

    def test_exact_replication(self):
        result, q = self.fit()
        assert float(np.std(result.pnl)) < 1e-6
        assert -result.certainty_equivalent == pytest.approx(q[0], abs=1e-3)


class TestConcavity:
    def test_short_plus_long_ce_nonpositive(self):
        rng = np.random.default_rng(5)
        outcomes = 0.05 * rng.normal(size=200)
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        z = np.where(bundle.spots[:, -1] > 1.0, -1.0, 0.0)
        cfg = TrainConfig(epochs=300, lr=0.02, lr_decay=0.995, seed=1, hidden=(8,))
        ce_short = deep_hedge(bundle, rets, None, z, spec, u, cfg).certainty_equivalent
        ce_long = deep_hedge(bundle, rets, None, -z, spec, u, cfg).certainty_equivalent
        assert ce_short + ce_long <= 1e-6


class TestDeepHedge:
    def test_pnl_comes_from_train(self, monkeypatch):
        """``deep_hedge`` reads the P&L off its trained solution: the one
        full-sample forward pass of a full-batch ``train`` runs inside it,
        and the P&L equals a fresh evaluation's bit for bit."""
        import driftless.hedging as hedging
        import driftless.trainer as trainer

        inside, calls = [False], []
        real_forward, real_train = trainer.forward, hedging.train

        def spy_forward(*args):
            calls.append(inside[0])
            return real_forward(*args)

        def spy_train(*args, **kwargs):
            inside[0] = True
            try:
                return real_train(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(trainer, "forward", spy_forward)
        monkeypatch.setattr(hedging, "train", spy_train)
        rng = np.random.default_rng(4)
        bundle, rets = one_period_bundle(0.05 * rng.normal(size=50))
        z = np.where(bundle.spots[:, -1] > 1.0, -1.0, 0.0)
        w = rng.uniform(0.5, 1.5, 50)
        w /= w.mean()
        u, spec = Utility("exponential", 1.0), CostSpec(gamma_prop=0.001)
        cfg = TrainConfig(epochs=6, lr=0.02, seed=1, hidden=(8,))
        result = deep_hedge(bundle, rets, w, z, spec, u, cfg)
        assert calls == [True]
        res = evaluate_policy(bundle, rets, spec, u, result.policy, result.y_star)
        assert np.array_equal(result.pnl, z + res["gains"] - res["costs"])


class TestRobustnessEval:
    def test_zero_entropy_zero_degradation(self):
        rng = np.random.default_rng(7)
        outcomes = 0.03 * rng.normal(size=300)
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        z = np.where(bundle.spots[:, -1] > 1.0, -1.0, 0.0)
        cfg = TrainConfig(epochs=100, lr=0.02, seed=1, hidden=(8,))
        hp = deep_hedge(bundle, rets, None, z, spec, u, cfg)
        hq = deep_hedge(bundle, rets, None, z, spec, u, cfg)
        rep = robustness_eval(hp, hq, u, [0.0])
        assert rep["entries"][0]["delta_p"] == pytest.approx(0.0, abs=1e-12)
        assert rep["entries"][0]["delta_q"] == pytest.approx(0.0, abs=1e-12)

    def test_degradation_monotone_in_c(self):
        rng = np.random.default_rng(8)
        outcomes = 0.01 + 0.04 * rng.normal(size=500)
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        z = np.where(bundle.spots[:, -1] > 1.0, -1.0, 0.0)
        cfg = TrainConfig(epochs=150, lr=0.02, seed=3, hidden=(8,))
        hp = deep_hedge(bundle, rets, None, z, spec, u, cfg)
        rep = robustness_eval(hp, hp, u, [0.02, 0.05, 0.2, 0.5])
        deltas = [e["delta_p"] for e in rep["entries"]]
        assert all(b >= a - 1e-10 for a, b in zip(deltas, deltas[1:]))


class TestDecomposition:
    def test_one_period_additivity(self):
        # frictionless one-period market: statistical hedge splits into the
        # clean hedge plus the pure statarb position
        outcomes = np.array([2.0, -1.0])
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        _, q = memm_one_period(outcomes, [0.5, 0.5], lam=1.0)
        q_weights = q / np.array([0.5, 0.5])
        z = np.array([-1.0, 0.0])
        cfg = TrainConfig(epochs=2000, lr=0.05, lr_decay=0.997, seed=4, hidden=(8,))
        out = decompose_check(bundle, rets, u, z, cfg, q_weights)
        assert out["median_residual"] < 1e-2
