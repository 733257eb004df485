import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from driftless.errors import InputError
from driftless.frictions import CostSpec, marginal_cost
from driftless.market import (
    InstrumentReturn,
    InstrumentSpec,
    build_returns,
    bundle_from_sigmas,
)
from driftless.oce import Utility, closed_form_y, u_value
from driftless.surface import DlvGrid
from driftless.trainer import (
    _BLOCK_ROWS,
    Mlp,
    TrainConfig,
    _objective,
    _Problem,
    evaluate_policy,
    forward,
    init_mlp,
    objective_and_grad,
    train,
)
from pergraph import Tensor


def graph_objective(prob, param_tensors, y_tensor, idx, smooth_eps):
    """Per-op reference for ``trainer._objective``: the same minibatch
    objective built node by node with the ``pergraph.Tensor`` ops."""
    feats = prob.feats[idx]
    B, T, F = feats.shape
    h = Tensor(feats.reshape(B * T, F))
    n_layers = len(param_tensors) // 2
    for l in range(n_layers):
        h = h @ param_tensors[2 * l] + param_tensors[2 * l + 1]
        if l < n_layers - 1:
            h = h.relu()
    a = h.reshape(B, T, -1)

    gain = (a * Tensor(prob.dh[idx])).sum(axis=(1, 2))
    x = gain + y_tensor
    if prob.rates is not None:
        a_abs = a.smooth_abs(smooth_eps) if smooth_eps > 0 else a.abs()
        x = x - (a_abs * Tensor(prob.rates[idx])).sum(axis=(1, 2))
    if prob.payoff is not None:
        x = x + Tensor(prob.payoff[idx])
    if prob.inv_scale is not None:
        x = x * Tensor(prob.inv_scale[idx])
    util = x.apply_utility(prob.utility)
    return (util * Tensor(prob.weights[idx])).mean() - y_tensor


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


class TestForward:
    def test_zero_net_zero_actions(self):
        mlp = Mlp(
            weights=[np.zeros((3, 4)), np.zeros((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
        )
        out = forward(mlp, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(out, np.zeros(2))

    def test_single_identity_layer(self):
        mlp = Mlp(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(forward(mlp, x), x)

    def test_blocks_match_unblocked_chain(self):
        rng = np.random.default_rng(8)
        mlp = init_mlp([5, 16, 16, 3], rng)
        rows = 2 * _BLOCK_ROWS + 123  # two full blocks and a ragged one
        feats = rng.normal(size=(rows, 5))
        h = feats
        for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            h = h @ w + b
            if l < len(mlp.weights) - 1:
                h = np.maximum(h, 0.0)
        out = forward(mlp, feats.reshape(rows, 1, 5))
        assert out.shape == (rows, 1, 3)
        assert np.max(np.abs(out[:, 0] - h)) <= 1e-12

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(4)
        mlp = init_mlp([5, 8, 2], rng)
        feats = rng.normal(size=(7, 3, 5))
        batch = forward(mlp, feats)
        for p in range(7):
            for t in range(3):
                single = forward(mlp, feats[p, t])
                assert np.allclose(batch[p, t], single, atol=0)


class TestFusedObjective:
    """``_objective`` against the per-op reference, bit for bit."""

    @staticmethod
    def fused(prob, mlp, y, idx, eps):
        params = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
        obj = _objective(prob, params, y, idx, eps)
        grads, y_grad = obj.backward()
        return [obj.data, *grads, y_grad]

    @staticmethod
    def per_op(prob, mlp, y, idx, eps):
        params = []
        for w, b in zip(mlp.weights, mlp.biases):
            params.extend([Tensor(w.copy()), Tensor(b.copy())])
        y_t = Tensor(y)
        obj = graph_objective(prob, params, y_t, idx, eps)
        obj.backward()
        return [obj.data] + [p.grad for p in params] + [y_t.grad]

    @pytest.mark.parametrize("family", ["exponential", "adjusted_mean_vol"])
    @pytest.mark.parametrize("costs", [False, True])
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    @pytest.mark.parametrize("extras", [False, True], ids=["plain", "payoff_scale"])
    def test_matches_per_op_graph(self, family, costs, eps, extras):
        rng = np.random.default_rng(21)
        P, T, F, I = 240, 4, 6, 3
        w = rng.uniform(0.2, 3.0, size=P)
        prob = _Problem(
            feats=rng.normal(size=(P, T, F)),
            dh=0.1 * rng.normal(size=(P, T, I)),
            rates=0.01 * rng.uniform(size=(P, T, I)) if costs else None,
            weights=w / w.mean(),
            payoff=rng.normal(size=P) if extras else None,
            inv_scale=rng.uniform(0.5, 2.0, size=P) if extras else None,
            utility=Utility(family, 1.3),
        )
        mlp = init_mlp([F, 16, 16, I], rng)
        # action 0 is exactly 0 on every row, so |a| sits at its kink
        mlp.weights[-1][:, 0] = 0.0
        mlp.biases[-1][0] = 0.0
        idx = rng.choice(P, size=96, replace=False)
        fused = self.fused(prob, mlp, 0.37, idx, eps)
        ref = self.per_op(prob, mlp, 0.37, idx, eps)
        assert len(fused) == len(ref)
        for got, want in zip(fused, ref):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestGradient:
    def test_matches_finite_differences_five_configs(self):
        rng = np.random.default_rng(10)
        u = Utility("exponential", 1.0)
        spec = CostSpec(gamma_prop=0.002, mode="marginal")
        for trial in range(5):
            outcomes = rng.normal(size=16)
            bundle, rets = one_period_bundle(outcomes)
            mlp = init_mlp([3, 8, 1], np.random.default_rng(trial))
            y = float(rng.normal() * 0.1)
            val, grads, y_grad = objective_and_grad(
                bundle, rets, spec, u, mlp, y, smooth_eps=1e-8
            )
            h = 1e-5
            # grads interleave [W0, b0, W1, b1]; check every coordinate
            order = [
                (mlp.weights[0], grads[0]),
                (mlp.biases[0], grads[1]),
                (mlp.weights[1], grads[2]),
                (mlp.biases[1], grads[3]),
            ]
            for arr, g in order:
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up, _, _ = objective_and_grad(
                        bundle, rets, spec, u, mlp, y, smooth_eps=1e-8
                    )
                    arr[idx] = orig - h
                    dn, _, _ = objective_and_grad(
                        bundle, rets, spec, u, mlp, y, smooth_eps=1e-8
                    )
                    arr[idx] = orig
                    num = (up - dn) / (2 * h)
                    denom = max(abs(num), 1e-6)
                    assert abs(g[idx] - num) / denom < 1e-4
            up, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y + h,
                                          smooth_eps=1e-8)
            dn, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y - h,
                                          smooth_eps=1e-8)
            assert y_grad == pytest.approx((up - dn) / (2 * h), abs=1e-6)

    def test_dead_relu_unit_zero_gradient(self):
        bundle, rets = one_period_bundle(np.array([1.0, -1.0]))
        mlp = init_mlp([3, 4, 1], np.random.default_rng(0))
        # force one hidden unit permanently inactive: large negative bias
        mlp.biases[0][2] = -1e6
        mlp.weights[0][:, 2] = 0.0
        u = Utility("exponential", 1.0)
        spec = CostSpec(mode="none")
        _, grads, _ = objective_and_grad(bundle, rets, spec, u, mlp, 0.0)
        assert np.all(grads[2][2, :] == 0.0)  # second-layer row fed by dead unit
        assert grads[1][2] == 0.0  # its bias


def test_costs_match_marginal_cost():
    from driftless.cli import default_instruments
    from driftless.var_model import desk_grid, desk_params, simulate, stationary_init

    grid = desk_grid()
    params = desk_params(grid)
    bundle = simulate(params, stationary_init(params), 40, 3, seed=1, grid=grid)
    rets = build_returns(bundle, default_instruments())
    spec = CostSpec(gamma_prop=0.002, mode="marginal")
    mlp = init_mlp([2 + 9, 8, 4], np.random.default_rng(0))
    res = evaluate_policy(bundle, rets, spec, Utility("exponential", 1.0), mlp, 0.0)
    ref = marginal_cost(spec, res["actions"], rets.mids).sum(-1)
    assert np.all(ref > 0)
    assert np.max(np.abs(res["costs"] - ref)) <= 1e-12


class TestTrain:
    def test_symmetric_market_no_statarb(self):
        bundle, rets = one_period_bundle(np.array([1.0, -1.0] * 8))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=200, lr=0.02, seed=1, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        assert abs(sol.objective_value) < 5e-3
        res = evaluate_policy(bundle, rets, CostSpec(mode="none"), u,
                              sol.policy, sol.y_star)
        assert np.max(np.abs(res["actions"])) < 0.15

    def test_one_period_matches_scalar_oracle(self):
        outcomes = np.array([2.0, -1.0])
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=600, lr=0.05, lr_decay=0.995, seed=3, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        res = evaluate_policy(bundle, rets, CostSpec(mode="none"), u,
                              sol.policy, sol.y_star)
        a_trained = float(res["actions"][0, 0, 0])

        def neg_objective(a):
            g = a * outcomes
            y = closed_form_y(u, g)
            return -(float(np.mean(u_value(u, y + g))) - y)

        oracle = minimize_scalar(neg_objective, bounds=(-5, 5), method="bounded",
                                 options={"xatol": 1e-12})
        assert a_trained == pytest.approx(float(oracle.x), abs=1e-3)

    def test_determinism(self):
        bundle, rets = one_period_bundle(np.array([0.5, -0.4, 0.1, -0.2]))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=30, lr=0.01, seed=11, hidden=(8,))
        s1 = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        s2 = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        assert s1.objective_value == s2.objective_value
        assert s1.y_star == s2.y_star
        for w1, w2 in zip(s1.policy.weights, s2.policy.weights):
            assert np.array_equal(w1, w2)

    def test_objective_value_matches_fresh_evaluation(self):
        bundle, rets = one_period_bundle(np.array([0.8, -0.6, 0.2, -0.1]))
        u = Utility("adjusted_mean_vol", 1.0)
        spec = CostSpec(gamma_prop=0.001, mode="marginal")
        cfg = TrainConfig(epochs=40, lr=0.01, seed=5, hidden=(8,))
        sol = train(bundle, rets, spec, u, cfg)
        res = evaluate_policy(bundle, rets, spec, u, sol.policy, sol.y_star)
        assert sol.objective_value == pytest.approx(res["objective"], abs=1e-9)

    def test_first_order_condition_in_y(self):
        bundle, rets = one_period_bundle(np.array([2.0, -1.0]))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=800, lr=0.05, lr_decay=0.997, seed=3, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        _, _, y_grad = objective_and_grad(
            bundle, rets, CostSpec(mode="none"), u, sol.policy, sol.y_star
        )
        assert abs(y_grad) < 1e-3

    def test_exponential_closed_form_y_consistency(self):
        bundle, rets = one_period_bundle(np.array([2.0, -1.0]))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=600, lr=0.05, lr_decay=0.995, seed=3, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        res = evaluate_policy(bundle, rets, CostSpec(mode="none"), u,
                              sol.policy, sol.y_star)
        g = res["gains"]
        y_cf = closed_form_y(u, g)
        from driftless.oce import oce_value

        assert sol.objective_value == pytest.approx(
            oce_value(g, None, u, y_cf), abs=1e-4
        )

    def test_best_seen_monotone(self):
        bundle, rets = one_period_bundle(np.array([2.0, -1.0]))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=100, lr=0.02, seed=2, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        best = np.maximum.accumulate(sol.trace)
        assert sol.objective_value >= best[-1] - 1e-12

    def test_solution_json_round_trip(self, tmp_path):
        bundle, rets = one_period_bundle(np.array([0.5, -0.5]))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=5, lr=0.01, seed=0, hidden=(4,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        p = tmp_path / "sol.json"
        sol.to_json(p)
        from driftless.trainer import Solution

        back = Solution.from_json(p)
        assert back.y_star == sol.y_star
        assert back.objective_value == sol.objective_value
        for w1, w2 in zip(back.policy.weights, sol.policy.weights):
            assert np.array_equal(w1, w2)


def test_config_rejects_unknown_key():
    with pytest.raises(InputError, match="epoch"):
        TrainConfig.from_dict({"epoch": 10})
    assert TrainConfig.from_dict({"epochs": 10, "hidden": [4]}).hidden == (4,)
