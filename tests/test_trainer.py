import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from driftless.errors import InputError, TrainingError
from driftless.frictions import CostSpec
from driftless.market import build_returns, feature_matrix, read_json, write_json
from driftless.oce import Utility, closed_form_y, concave_argmax, u_deriv, u_value
from driftless.trainer import (
    _BLOCK_ROWS,
    MARGIN,
    SMOOTH_EPS,
    Mlp,
    Solution,
    TrainConfig,
    _gains_costs,
    _head,
    _layers,
    _objective,
    _Problem,
    _score,
    _Workspace,
    evaluate_policy,
    forward,
    init_mlp,
    objective_and_grad,
    train,
)
from oracles import marginal_cost, one_period_bundle, plain_bisection
from pergraph import Tensor

# a float32 gradient pass against the float64 one on the same parameters
# and rows: every entry of the value and of each gradient lies within this
# fraction of that array's largest entry (at most 1.1e-6 measured on
# TestFusedObjective's problems)
FLOAT32_RTOL = 1e-5
# a float32 epoch score (``_score``) against the float64 one at the same
# parameters: within MARGIN / 2 over this safety factor, so the float64
# rescoring picks the epoch a float64 score of every epoch would pick
SCORE_SAFETY = 100
SCORE_ATOL = MARGIN / 2 / SCORE_SAFETY


def graph_objective(prob, param_tensors, y_tensor, idx, smooth_eps):
    """Per-op reference for ``trainer._objective``: the same minibatch
    objective built node by node with the ``pergraph.Tensor`` ops, with |a|
    smoothed by ``smooth_eps``."""
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
    x = x - (a.smooth_abs(smooth_eps) * Tensor(prob.rates[idx])).sum(axis=(1, 2))
    x = x + Tensor(prob.payoff[idx])
    x = x * Tensor(prob.inv_scale[idx])
    util = x.apply_utility(prob.utility)
    return (util * Tensor(prob.weights[idx])).mean() - y_tensor


def float64_score(prob, params):
    """A fresh float64 full-sample objective at ``params`` ([W_0, b_0, ..., y])."""
    actions = forward(Mlp(weights=params[:-1:2], biases=params[1:-1:2]), prob.feats)
    gains, costs = np.empty((2, len(actions)))
    _gains_costs(actions, prob.dh, prob.rates, gains, costs)
    return _head(prob, gains, costs, float(params[-1]))[1]


def float32_mlp(params):
    """The network of ``params`` ([W_0, b_0, ..., y]) in float32 copies."""
    net = [np.asarray(p, dtype=np.float32) for p in params[:-1]]
    return Mlp(weights=net[::2], biases=net[1::2])


class TestForward:
    def test_zero_net_zero_actions(self):
        mlp = Mlp(
            weights=[np.zeros((3, 4)), np.zeros((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
        )
        out = forward(mlp, np.array([1.0, -2.0, 0.5])[None])[0]
        assert np.array_equal(out, np.zeros(2))

    def test_single_identity_layer(self):
        mlp = Mlp(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(forward(mlp, x[None])[0], x)

    @staticmethod
    def unblocked_chain(mlp, feats):
        h = feats
        for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            h = h @ w + b
            if l < len(mlp.weights) - 1:
                h = np.maximum(h, 0.0)
        return h

    def test_blocks_match_unblocked_chain(self):
        """To a tolerance: on a (16, 16) network, or on a ragged last
        block, the blocked rows may differ from one product in the last
        bit (by up to 2.2e-16 on OpenBLAS 0.3.31)."""
        rng = np.random.default_rng(8)
        mlp = init_mlp([5, 16, 16, 3], rng)
        rows = 2 * _BLOCK_ROWS + 123  # two full blocks and a ragged one
        feats = rng.normal(size=(rows, 5))
        h = self.unblocked_chain(mlp, feats)
        out = forward(mlp, feats.reshape(rows, 1, 5))
        assert out.shape == (rows, 1, 3)
        assert np.max(np.abs(out[:, 0] - h)) <= 1e-12

    @pytest.mark.parametrize("rows", [2 * _BLOCK_ROWS, 10 * _BLOCK_ROWS])
    def test_blocks_equal_unblocked_chain_on_the_cli_network(self, rows):
        """Bit for bit on the CLI's network (11 features, (64, 64), 4
        instruments) at whole blocks: there a row's actions do not depend
        on where the blocks of the evaluation fall."""
        rng = np.random.default_rng(8)
        mlp = init_mlp([11, 64, 64, 4], rng)
        feats = rng.normal(size=(rows, 11))
        out = forward(mlp, feats)
        assert np.array_equal(out, self.unblocked_chain(mlp, feats))

    @pytest.mark.parametrize("n_paths, calls", [(2000, 1), (10_000, 10)], ids=["cli", "desk"])
    def test_float32_policy_runs_float32_layers(self, n_paths, calls):
        """A policy of float32 arrays runs float32 layers and returns float64
        actions, rows bit-equal to one hand-built float32 ``_layers`` chain
        over all rows: on the CLI's network at 2000 x 10 in one call (two
        blocks), and on 10^4 x 10 in calls of 1000 paths (one block each)."""
        rng = np.random.default_rng(9)
        mlp = init_mlp([11, 64, 64, 4], rng)
        w32 = [w.astype(np.float32) for w in mlp.weights]
        b32 = [b.astype(np.float32) for b in mlp.biases]
        feats = rng.normal(size=(n_paths, 10, 11))
        ws = _Workspace(n_paths * 10, [11, 64, 64, 4], np.float32)
        chain = _layers(w32, b32, feats.reshape(-1, 11).astype(np.float32), ws)
        assert chain.dtype == np.float32
        per = n_paths // calls
        got = np.concatenate([forward(Mlp(weights=w32, biases=b32), feats[s : s + per])
                              for s in range(0, n_paths, per)])
        assert got.dtype == np.float64
        assert np.array_equal(got.reshape(-1, 4), chain)
        assert not np.array_equal(got, forward(mlp, feats))  # float64 layers differ

    @pytest.mark.parametrize("case", ["integer", "mixed", "float64"])
    def test_other_policies_run_float64_layers(self, case):
        """Integer arrays, float32 mixed with float64, and float64 arrays all
        run float64 layers: bit-equal to the float64 chain of the same
        values."""
        rng = np.random.default_rng(10)
        mlp = init_mlp([5, 8, 3], rng)
        if case == "integer":
            mlp = Mlp(weights=[np.round(10 * w).astype(int) for w in mlp.weights],
                      biases=[np.round(10 * b).astype(int) for b in mlp.biases])
        elif case == "mixed":
            mlp = Mlp(weights=[w.astype(np.float32) for w in mlp.weights], biases=mlp.biases)
        up = Mlp(weights=[np.asarray(w, dtype=float) for w in mlp.weights],
                 biases=[np.asarray(b, dtype=float) for b in mlp.biases])
        feats = rng.normal(size=(40, 3, 5))
        assert np.array_equal(forward(mlp, feats), self.unblocked_chain(up, feats))

    def test_gains_costs_write_into_rows_and_leave_abs(self):
        """``_gains_costs`` writes the gains and exact-|a| costs into the
        given rows bit for bit as the allocating ``np.einsum`` pair, and
        leaves |a| in ``actions``."""
        rng = np.random.default_rng(11)
        actions = rng.normal(size=(50, 7, 4))
        dh, rates = rng.normal(size=(50, 7, 4)), rng.uniform(size=(50, 7, 4))
        want_gains = np.einsum("pti,pti->p", actions, dh)
        want_costs = np.einsum("pti,pti->p", np.abs(actions), rates)
        want_abs = np.abs(actions)
        evaluation = np.full((3, 50), np.nan)
        _gains_costs(actions, dh, rates, *evaluation[:2])
        assert np.array_equal(evaluation[0], want_gains)
        assert np.array_equal(evaluation[1], want_costs)
        assert np.array_equal(actions, want_abs)
        assert np.isnan(evaluation[2]).all()

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(4)
        mlp = init_mlp([5, 8, 2], rng)
        feats = rng.normal(size=(7, 3, 5))
        batch = forward(mlp, feats)
        for p in range(7):
            for t in range(3):
                single = forward(mlp, feats[p, t][None])[0]
                assert np.allclose(batch[p, t], single, atol=0)


class TestFusedObjective:
    """``_objective`` against the per-op reference, bit for bit."""

    @staticmethod
    def fused(prob, mlp, y, idx, ws=None):
        """On ``ws``, or on a fresh float64 workspace of len(idx)·T rows."""
        params = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
        if ws is None:
            widths = [prob.feats.shape[2]] + [w.shape[1] for w in mlp.weights]
            ws = _Workspace(len(idx) * prob.feats.shape[1], widths, np.float64)
        obj = _objective(prob, params, y, idx, ws)
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

    @staticmethod
    def problem(rng, family, costs, extras, hidden=(16, 16)):
        P, T, F, I = 240, 4, 6, 3
        w = rng.uniform(0.2, 3.0, size=P)
        prob = _Problem(
            feats=rng.normal(size=(P, T, F)),
            dh=0.1 * rng.normal(size=(P, T, I)),
            rates=0.01 * rng.uniform(size=(P, T, I)) if costs else np.zeros((P, T, I)),
            weights=w / w.mean(),
            payoff=rng.normal(size=P) if extras else np.zeros(P),
            inv_scale=rng.uniform(0.5, 2.0, size=P) if extras else np.ones(P),
            utility=Utility(family, 1.3),
        )
        mlp = init_mlp([F, *hidden, I], rng)
        # action 0 is exactly 0 on every row, so |a| sits at its kink
        mlp.weights[-1][:, 0] = 0.0
        mlp.biases[-1][0] = 0.0
        return prob, mlp

    @staticmethod
    def assert_bit_equal(fused, ref):
        assert len(fused) == len(ref)
        for got, want in zip(fused, ref):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @staticmethod
    def assert_close(fused, ref, rtol=FLOAT32_RTOL):
        """Value and each gradient within ``rtol`` of the reference's
        largest entry, all float64."""
        assert len(fused) == len(ref)
        for got, want in zip(fused, ref):
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))

    @pytest.mark.parametrize("family", ["exponential", "adjusted_mean_vol"])
    @pytest.mark.parametrize("costs", [False, True])
    # the smoothing _objective fixes, on no to three hidden layers: the
    # backward reads layer l's ReLU mask off hidden layer l - 1's output
    @pytest.mark.parametrize("eps, hidden", [
        (SMOOTH_EPS, (16, 16)), (SMOOTH_EPS, ()), (SMOOTH_EPS, (16,)), (SMOOTH_EPS, (16, 16, 16))],
        ids=["1e-08", "1e-08-h0", "1e-08-h1", "1e-08-h3"])
    @pytest.mark.parametrize("extras", [False, True], ids=["plain", "payoff_scale"])
    def test_matches_per_op_graph(self, family, costs, eps, hidden, extras):
        rng = np.random.default_rng(21)
        prob, mlp = self.problem(rng, family, costs, extras, hidden)
        idx = rng.choice(240, size=96, replace=False)
        fused = self.fused(prob, mlp, 0.37, idx)
        ref = self.per_op(prob, mlp, 0.37, idx, eps)
        self.assert_bit_equal(fused, ref)

    @pytest.mark.parametrize("family", ["exponential", "adjusted_mean_vol"])
    @pytest.mark.parametrize("costs", [False, True])
    @pytest.mark.parametrize("extras", [False, True], ids=["plain", "payoff_scale"])
    def test_float32_pass_matches_float64(self, family, costs, extras):
        """On a float32 workspace, the value and every gradient come back as
        float64 arrays within FLOAT32_RTOL of the float64 objective on the
        same parameters and rows."""
        rng = np.random.default_rng(21)
        prob, mlp = self.problem(rng, family, costs, extras)
        idx = rng.choice(240, size=96, replace=False)
        ws = _Workspace(96 * 4, [6, 16, 16, 3], np.float32)
        self.assert_close(self.fused(prob, mlp, 0.37, idx, ws),
                          self.fused(prob, mlp, 0.37, idx))

    @pytest.mark.parametrize("family", ["exponential", "adjusted_mean_vol"])
    @pytest.mark.parametrize("costs", [False, True])
    @pytest.mark.parametrize("extras", [False, True], ids=["plain", "payoff_scale"])
    def test_float32_score_matches_float64(self, family, costs, extras):
        """``_score`` of float32 copies of the policy, in ragged blocks of 96
        paths, gives the float64 full-sample objective to within SCORE_ATOL."""
        rng = np.random.default_rng(21)
        prob, mlp = self.problem(rng, family, costs, extras)
        params = [a for pair in zip(mlp.weights, mlp.biases) for a in pair] + [np.array(0.37)]
        ws = _Workspace(96 * 4, [6, 16, 16, 3], np.float32)
        gains, costs_ = np.empty(240), np.empty(240)
        _, got = _score(prob, float32_mlp(params), 0.37, ws, 96, gains, costs_)
        assert abs(got - float64_score(prob, params)) <= SCORE_ATOL

    def test_float32_workspace_ignores_old_contents(self):
        """A float32 workspace filled with signalling-NaN bits gives the
        value and gradients of a zero-filled one bit for bit, with no
        warning: no pass reads, or casts, what its buffers held."""
        rng = np.random.default_rng(23)
        prob, mlp = self.problem(rng, "exponential", True, True)
        idx = rng.permutation(240)[:96]
        results = []
        for bits32, bits64 in ((0, 0), (0x7FA00000, 0x7FF4000000000000)):
            ws = _Workspace(96 * 4, [6, 16, 16, 3], np.float32)
            ws.feats.view(np.uint32)[...] = bits32
            for l in range(3):
                ws.layer(l, 96 * 4, np.uint32)[...] = bits32
            ws.actions.view(np.uint64)[...] = bits64
            ws.dh.view(np.uint64)[...] = bits64
            ws.rates.view(np.uint64)[...] = bits64
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results.append(self.fused(prob, mlp, 0.37, idx, ws))
        self.assert_bit_equal(*results)

    def test_actions_are_written_into_the_workspace(self):
        """Two consecutive passes on one float64 workspace each write their
        float64 actions into ``ws.actions``, bit for bit as ``forward``
        gives them, and each gives the per-op graph's value and gradients
        bit for bit: the buffer leaves the arithmetic as it was."""
        rng = np.random.default_rng(24)
        prob, mlp = self.problem(rng, "adjusted_mean_vol", True, True)
        ws = _Workspace(96 * 4, [6, 16, 16, 3], np.float64)
        perm = rng.permutation(240)
        for idx in (perm[:96], perm[96:192]):
            fused = self.fused(prob, mlp, 0.37, idx, ws)
            self.assert_bit_equal(fused, self.per_op(prob, mlp, 0.37, idx, SMOOTH_EPS))
            assert np.array_equal(ws.actions.reshape(96, 4, 3), forward(mlp, prob.feats[idx]))

    def test_reused_workspace_ragged_then_full(self):
        """One workspace sized for 96-path minibatches serves a full one, a
        shorter last one and a full one again, each bit-equal to the
        per-op graph: no call reads rows another call left behind."""
        rng = np.random.default_rng(22)
        prob, mlp = self.problem(rng, "exponential", True, True)
        ws = _Workspace(96 * 4, [6, 16, 16, 3], np.float64)
        perm = rng.permutation(240)
        for idx in (perm[:96], perm[96:136], perm[136:232]):
            fused = self.fused(prob, mlp, 0.37, idx, ws)
            self.assert_bit_equal(fused, self.per_op(prob, mlp, 0.37, idx, SMOOTH_EPS))


def test_minibatch_allocates_less_than_one_layer_buffer():
    """A steady-state minibatch (objective, then backward) on a reused
    workspace allocates less than one (B*T x 64) buffer of the
    workspace's precision, float64 or float32: its activations and
    gradients live in the workspace."""
    rng = np.random.default_rng(5)
    P, B, T, F, I = 2000, 1000, 10, 11, 4
    prob = _Problem(
        feats=rng.normal(size=(P, T, F)),
        dh=0.1 * rng.normal(size=(P, T, I)),
        rates=0.01 * rng.uniform(size=(P, T, I)),
        weights=np.ones(P),
        payoff=np.zeros(P),
        inv_scale=np.ones(P),
        utility=Utility("exponential", 1.0),
    )
    mlp = init_mlp([F, 64, 64, I], rng)
    params = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
    idx = rng.permutation(P)[:B]
    for dtype in (np.float64, np.float32):
        ws = _Workspace(B * T, [F, 64, 64, I], dtype)
        _objective(prob, params, 0.1, idx, ws).backward()  # first touch of the buffers
        tracemalloc.start()
        try:
            _objective(prob, params, 0.1, idx, ws).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < B * T * 64 * np.dtype(dtype).itemsize, dtype


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
            val, grads, y_grad = objective_and_grad(bundle, rets, spec, u, mlp, y)
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
                    up, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y)
                    arr[idx] = orig - h
                    dn, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y)
                    arr[idx] = orig
                    num = (up - dn) / (2 * h)
                    denom = max(abs(num), 1e-6)
                    assert abs(g[idx] - num) / denom < 1e-4
            up, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y + h)
            dn, _, _ = objective_and_grad(bundle, rets, spec, u, mlp, y - h)
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
    ref = marginal_cost(spec, forward(mlp, feature_matrix(bundle)), rets.mids).sum(-1)
    assert np.all(ref > 0)
    assert np.max(np.abs(res["costs"] - ref)) <= 1e-12


class TestTrain:
    def test_symmetric_market_no_statarb(self):
        bundle, rets = one_period_bundle(np.array([1.0, -1.0] * 8))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=200, lr=0.02, seed=1, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        assert abs(sol.objective_value) < 5e-3
        assert np.max(np.abs(forward(sol.policy, feature_matrix(bundle)))) < 0.15

    def test_one_period_matches_scalar_oracle(self):
        outcomes = np.array([2.0, -1.0])
        bundle, rets = one_period_bundle(outcomes)
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=600, lr=0.05, lr_decay=0.995, seed=3, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        a_trained = float(forward(sol.policy, feature_matrix(bundle))[0, 0, 0])

        def neg_objective(a):
            g = a * outcomes
            y = closed_form_y(u, g, np.ones(len(g)))
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

    @staticmethod
    def desk_sample(n_paths, n_steps=3):
        from driftless.cli import default_instruments
        from driftless.var_model import desk_grid, desk_params, simulate, stationary_init

        grid = desk_grid()
        params = desk_params(grid)
        bundle = simulate(params, stationary_init(params), n_paths, n_steps, seed=1, grid=grid)
        return bundle, build_returns(bundle, default_instruments())

    def test_batch_larger_than_sample_equals_full_batch(self):
        bundle, rets = self.desk_sample(30)
        u = Utility("exponential", 1.0)
        spec = CostSpec(gamma_prop=0.002, mode="marginal")
        sols = [
            train(bundle, rets, spec, u,
                  TrainConfig(epochs=4, batch_size=b, lr=0.01, seed=2, hidden=(8, 8)))
            for b in (0, 45)
        ]
        assert sols[0].trace == sols[1].trace
        assert sols[0].y_star == sols[1].y_star
        assert sols[0].objective_value == sols[1].objective_value
        for w1, w2 in zip(sols[0].policy.weights, sols[1].policy.weights):
            assert np.array_equal(w1, w2)

    def test_ragged_minibatches_match_per_op_graph(self, monkeypatch):
        """With P % batch != 0, every float32 minibatch pass of ``train`` on
        its one workspace, the short last one included, gives the float64
        per-op graph's value and gradient within FLOAT32_RTOL."""
        import driftless.trainer as trainer
        from driftless.autograd import Tensor as ObjectiveTensor

        bundle, rets = self.desk_sample(40)
        fused_objective, sizes = trainer._objective, []

        def checked(prob, params, y, idx, ws):
            net = Mlp(weights=list(params[::2]), biases=list(params[1::2]))
            ref = TestFusedObjective.per_op(prob, net, float(y), idx, SMOOTH_EPS)
            obj = fused_objective(prob, params, y, idx, ws)
            sizes.append(len(idx))

            def backward():
                grads, y_grad = obj.backward()
                TestFusedObjective.assert_close([obj.data, *grads, y_grad], ref)
                return grads, y_grad

            return ObjectiveTensor(obj.data, backward)

        monkeypatch.setattr(trainer, "_objective", checked)
        cfg = TrainConfig(epochs=3, batch_size=12, lr=0.01, seed=4, hidden=(8, 8))
        train(bundle, rets, CostSpec(gamma_prop=0.002, mode="marginal"),
              Utility("adjusted_mean_vol", 1.0), cfg)
        assert sizes == [12, 12, 12, 4] * 3

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

    @staticmethod
    def scaled_fit(family, s):
        """A 40-path one-period fit (0.05 N(0, 1) returns, no cost) with the
        constant inv_scale ``s``."""
        rng = np.random.default_rng(0)
        bundle, rets = one_period_bundle(0.05 * rng.normal(size=40))
        return train(bundle, rets, CostSpec(mode="none"), Utility(family, 1.0),
                     TrainConfig(epochs=2, lr=0.01, seed=0, hidden=(8,)),
                     inv_scale=np.full(40, s))

    def test_inv_scale_refit_widens_to_the_root(self):
        """With inv_scale 0.01 the exponential refit's root, near
        y = -100 ln 100, lies far below its starting bracket
        y* +- (max |base| + 1); the refit closes E[s u'(s(base + y))] = 1
        there."""
        sol = self.scaled_fit("exponential", 0.01)
        u = Utility("exponential", 1.0)
        assert abs(float(np.mean(0.01 * u_deriv(u, sol.pre_utility))) - 1.0) <= 1e-12
        assert sol.y_star == pytest.approx(-100 * np.log(100), rel=1e-4)

    @pytest.mark.parametrize("s", [0.4, 0.5])
    def test_inv_scale_refit_without_finite_sup_raises(self, s):
        """Adjusted mean-vol has u' < 2, so with inv_scale s <= 1/2 the
        refit's slope E[s u'] - 1 stays below 2s - 1 <= 0: the scaled
        objective has no finite sup."""
        with pytest.raises(InputError, match="no finite maximizer"):
            self.scaled_fit("adjusted_mean_vol", s)

    def test_inv_scale_refit_holding_bracket_gives_plain_bisection(self, monkeypatch):
        """Where the starting bracket holds the root (adjusted mean-vol,
        inv_scale 0.9), the refit's y is plain bisection on that bracket
        bit for bit."""
        calls = []

        def spy(slope, lo, hi):
            calls.append((slope, lo, hi, concave_argmax(slope, lo, hi)))
            return calls[-1][-1]

        monkeypatch.setattr("driftless.trainer.concave_argmax", spy)
        sol = self.scaled_fit("adjusted_mean_vol", 0.9)
        [(slope, lo, hi, y)] = calls
        assert y == plain_bisection(slope, lo, hi)
        assert sol.y_star == y

    def test_exponential_closed_form_y_consistency(self):
        bundle, rets = one_period_bundle(np.array([2.0, -1.0]))
        u = Utility("exponential", 1.0)
        cfg = TrainConfig(epochs=600, lr=0.05, lr_decay=0.995, seed=3, hidden=(8,))
        sol = train(bundle, rets, CostSpec(mode="none"), u, cfg)
        res = evaluate_policy(bundle, rets, CostSpec(mode="none"), u,
                              sol.policy, sol.y_star)
        g = res["gains"]
        y_cf = closed_form_y(u, g, np.ones(len(g)))
        from driftless.oce import oce_value

        assert sol.objective_value == pytest.approx(
            oce_value(g, np.ones(len(g)), u, y_cf), abs=1e-4
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
        write_json(p, sol.to_dict())
        back = Solution.from_dict(read_json(p))
        assert back.y_star == sol.y_star
        assert back.objective_value == sol.objective_value
        for w1, w2 in zip(back.policy.weights, sol.policy.weights):
            assert np.array_equal(w1, w2)
        # the training-sample evaluation stays in memory only
        assert set(json.loads(p.read_text())) == {"policy", "y_star", "objective_value",
                                                  "config"}
        assert back.gains is None and back.costs is None and back.pre_utility is None

    @pytest.mark.parametrize("key", ["clip_norm", "y_init", "smooth_abs_eps"])
    def test_solution_with_removed_config_key_rejected(self, tmp_path, key):
        """A solution file whose config holds a key that became a module
        constant does not load: loading it would drop that setting."""
        bundle, rets = one_period_bundle(np.array([0.5, -0.5]))
        sol = train(bundle, rets, CostSpec(mode="none"), Utility("exponential", 1.0),
                    TrainConfig(epochs=2, lr=0.01, seed=0, hidden=(4,)))
        p = tmp_path / "sol.json"
        write_json(p, sol.to_dict())
        doc = json.loads(p.read_text())
        doc["config"][key] = 1.0
        with pytest.raises(InputError, match=key):
            Solution.from_dict(doc)

    @pytest.mark.parametrize("doc, match", [
        ([], "solution must be a JSON object"),
        ({}, "solution lacks"),
        ({"policy": 3, "y_star": 0.0, "objective_value": 0.0}, "policy must be a JSON object"),
        ({"policy": {"weights": [[[1.0]]], "biases": [[0.0]]}, "y_star": "x",
          "objective_value": 0.0}, "y_star"),
        ({"policy": {"weights": [[[1.0, 2.0]], [[1.0, 2.0]]], "biases": [[0.0, 0.0], [0.0, 0.0]]},
          "y_star": 0.0, "objective_value": 0.0}, "chain"),
        ({"policy": {"weights": [[[1.0]]], "biases": []}, "y_star": 0.0,
          "objective_value": 0.0}, "chain"),
        ({"policy": {"weights": [[["a"]]], "biases": [[0.0]]}, "y_star": 0.0,
          "objective_value": 0.0}, "numeric"),
    ], ids=["list", "empty", "int_policy", "string_y_star", "unchained_weights",
            "missing_bias", "string_weight"])
    def test_malformed_solution_rejected(self, doc, match):
        with pytest.raises(InputError, match=match):
            Solution.from_dict(doc)

    @pytest.mark.parametrize("case", ["plain", "payoff_weights", "inv_scale"])
    def test_solution_carries_its_evaluation(self, case):
        """``train`` returns the gains and costs of its policy bit for bit
        as a fresh ``evaluate_policy``, and the pre-utility and objective at
        y* bit for bit as the claim, scale and weights give them from
        those."""
        bundle, rets = self.desk_sample(30)
        u = Utility("adjusted_mean_vol", 1.0)
        spec = CostSpec(gamma_prop=0.002, mode="marginal")
        rng = np.random.default_rng(3)
        w = rng.uniform(0.5, 1.5, 30)
        extra = {
            "plain": {},
            "payoff_weights": {"payoff": rng.normal(size=30), "weights": w / w.mean()},
            "inv_scale": {"inv_scale": 1.0 / (1.0 + np.max(np.abs(rets.dh), axis=(1, 2)))},
        }[case]
        cfg = TrainConfig(epochs=4, batch_size=12, lr=0.01, seed=2, hidden=(8, 8))
        sol = train(bundle, rets, spec, u, cfg, **extra)
        res = evaluate_policy(bundle, rets, spec, u, sol.policy, sol.y_star)
        for key in ("gains", "costs"):
            assert np.array_equal(getattr(sol, key), res[key]), key
        x = (res["gains"] - res["costs"] + sol.y_star + extra.get("payoff", 0.0)) * extra.get(
            "inv_scale", 1.0)
        assert np.array_equal(sol.pre_utility, x)
        assert sol.objective_value == float(
            np.mean(extra.get("weights", 1.0) * u_value(u, x)) - sol.y_star)

    @staticmethod
    def epoch_ends(monkeypatch):
        """Spy on ``_objective``, ``_score``, ``forward`` and ``_keep``:
        (problem, parameters, float32 score) at the end of each epoch, as
        ``train`` keeps it, with the score recomputed by ``_score`` on
        float32 copies of the parameters, a fresh workspace and the run's
        batch; and (epochs kept so far, name) for every call of ``train``,
        ``_objective``'s named by its workspace dtype and ``_score``'s and
        ``forward``'s by their policy's dtype."""
        import driftless.trainer as trainer

        real = {name: getattr(trainer, name) for name in ("_objective", "_score", "forward",
                                                          "_keep")}
        ends, calls, run = [], [], {"muted": False}

        def spy_objective(prob, params, y, idx, ws):
            run.setdefault("batch", len(idx))
            run["prob"] = prob
            calls.append((len(ends), ws.dtype.name))
            return real["_objective"](prob, params, y, idx, ws)

        def spy_score(prob, mlp, *args):
            calls.append((len(ends), f"_score {mlp.weights[0].dtype}"))
            return real["_score"](prob, mlp, *args)

        def spy_forward(mlp, *args):
            if not run["muted"]:
                calls.append((len(ends), f"forward {mlp.weights[0].dtype}"))
            return real["forward"](mlp, *args)

        def spy_keep(trace, snaps, score, params):
            prob, end = run["prob"], [p.copy() for p in params]
            P = prob.feats.shape[0]
            run["muted"] = True
            try:
                _, fresh = real["_score"](prob, float32_mlp(end), float(end[-1]), None,
                                          run["batch"], np.empty(P), np.empty(P))
            finally:
                run["muted"] = False
            ends.append((prob, end, fresh))
            return real["_keep"](trace, snaps, score, params)

        for name, spy in (("_objective", spy_objective), ("_score", spy_score),
                          ("forward", spy_forward), ("_keep", spy_keep)):
            monkeypatch.setattr(trainer, name, spy)
        return ends, calls

    @staticmethod
    def expected_calls(epochs, batches, rescored):
        """Each epoch's float32 passes.  With minibatches, each epoch's
        float32 ``_score`` after them, one ``forward`` per minibatch; in
        full batch (one pass per epoch) one more pass after the last epoch,
        each pass but the first scoring the epoch before it, and no
        ``_score``.  Then one float64 ``_score`` and ``forward`` per
        rescored epoch."""
        if batches == 1:
            passes = [(0, "float32")] + [(e, "float32") for e in range(epochs)]
        else:
            passes = sum([[(e, "float32")] * batches + [(e, "_score float32")]
                          + [(e, "forward float32")] * batches for e in range(epochs)], [])
        return passes + [(epochs, "_score float64"), (epochs, "forward float64")] * len(rescored)

    @staticmethod
    def fresh_scores(ends):
        """A fresh float64 evaluation at each epoch's end parameters."""
        return np.array([float64_score(prob, end) for prob, end, _ in ends])

    @staticmethod
    def rescored(ends):
        """The epochs whose float32 score lies within MARGIN of the best."""
        scores = [score for _, _, score in ends]
        top = max(scores)
        return [e for e, score in enumerate(scores) if score >= top - MARGIN * (1 + abs(top))]

    @staticmethod
    def assert_policy_is(sol, end):
        """The returned network is the parameters ``end`` ([W_0, b_0, ..., y])."""
        net = [a for pair in zip(sol.policy.weights, sol.policy.biases) for a in pair]
        assert len(net) == len(end) - 1
        assert all(np.array_equal(got, want) for got, want in zip(net, end))

    @pytest.mark.parametrize("n_paths, n_steps, batch, hidden", [
        (30, 3, 12, (8,)), (30, 3, 0, (64, 64)), (2000, 10, 0, (64, 64))],
        ids=["minibatch", "30-3", "2000-10"])
    def test_trace_is_float32_within_tolerance_and_float64_at_the_winner(
            self, monkeypatch, n_paths, n_steps, batch, hidden):
        """Each epoch runs its gradient passes in float32 and is scored once
        in float32, and float64 ``_score`` runs only after the last epoch,
        once per epoch rescored: those within MARGIN of the best float32
        score.  Against a fresh float64 evaluation at every epoch's end
        parameters, on minibatches and in full batch on one block's rows
        (30 x 3) and on two ``_BLOCK_ROWS`` blocks (2000 x 10, the CLI's
        network): ``argmax(trace)`` is the fresh argmax, every rescored entry
        is the fresh value bit for bit, every other entry is the float32
        ``_score`` at that epoch's end parameters bit for bit, the policy is the winner's
        parameters, and every entry is within SCORE_ATOL."""
        ends, calls = self.epoch_ends(monkeypatch)
        bundle, rets = self.desk_sample(n_paths, n_steps)
        cfg = TrainConfig(epochs=5, batch_size=batch, lr=0.01, seed=2, hidden=hidden)
        sol = train(bundle, rets, CostSpec(gamma_prop=0.002, mode="marginal"),
                    Utility("adjusted_mean_vol", 1.0), cfg)
        fresh, rescored = self.fresh_scores(ends), self.rescored(ends)
        assert calls == self.expected_calls(cfg.epochs, -(-n_paths // (batch or n_paths)),
                                            rescored)
        best = int(np.argmax(sol.trace))
        assert best == int(np.argmax(fresh)) and best in rescored
        assert [sol.trace[e] for e in rescored] == list(fresh[rescored])
        unscored = [e for e in range(cfg.epochs) if e not in rescored]
        assert unscored and [sol.trace[e] for e in unscored] == [ends[e][2] for e in unscored]
        self.assert_policy_is(sol, ends[best][1])
        assert np.max(np.abs(np.array(sol.trace) - fresh)) <= SCORE_ATOL

    @pytest.mark.parametrize("case", ["tiny_lr", "converged"])
    def test_near_ties_are_decided_in_float64(self, monkeypatch, case):
        """Epochs within MARGIN of the best float32 score are rescored in
        float64, bit for bit as a fresh evaluation, and the policy is the
        first epoch with the greatest float64 score.  With a learning rate
        so small that every epoch lies within MARGIN, every epoch is
        rescored; a run that has converged on a market with no statarb
        rescores the epochs it oscillates through, with the winner before
        the last of them."""
        ends, calls = self.epoch_ends(monkeypatch)
        if case == "tiny_lr":
            bundle, rets = self.desk_sample(30)
            spec = CostSpec(gamma_prop=0.002, mode="marginal")
            cfg = TrainConfig(epochs=6, batch_size=12, lr=1e-7, seed=2, hidden=(8,))
        else:
            bundle, rets = one_period_bundle(np.array([1.0, -1.0] * 8))
            spec = CostSpec(mode="none")
            cfg = TrainConfig(epochs=60, lr=0.05, seed=1, hidden=(8,))
        sol = train(bundle, rets, spec, Utility("exponential", 1.0), cfg)
        fresh, rescored = self.fresh_scores(ends), self.rescored(ends)
        assert calls == self.expected_calls(cfg.epochs, 3 if case == "tiny_lr" else 1, rescored)
        assert [sol.trace[e] for e in rescored] == list(fresh[rescored])
        best = int(np.argmax(fresh))
        self.assert_policy_is(sol, ends[best][1])
        if case == "tiny_lr":
            assert rescored == list(range(cfg.epochs))
        else:
            assert best in rescored and best < rescored[-1]

    @pytest.mark.parametrize("n_paths, n_steps, batch", [
        (30, 3, 7), (1000, 10, 250), (2000, 10, 0)], ids=["30-3", "1000-10", "2000-10-full"])
    def test_float32_scores_agree_with_float64(self, monkeypatch, n_paths, n_steps, batch):
        """Over 20 epochs of training of the desk network on the desk
        market, in minibatches and in full batch on the CLI's 2000 x 10,
        every float32 epoch score lies within SCORE_ATOL of a fresh float64
        evaluation at the same parameters."""
        ends, _ = self.epoch_ends(monkeypatch)
        bundle, rets = self.desk_sample(n_paths, n_steps)
        cfg = TrainConfig(epochs=20, batch_size=batch, lr=0.005, seed=0)
        train(bundle, rets, CostSpec(gamma_prop=0.001, mode="marginal"),
              Utility("exponential", 1.0), cfg)
        scores = np.array([score for _, _, score in ends])
        assert np.max(np.abs(scores - self.fresh_scores(ends))) <= SCORE_ATOL

    def test_non_finite_epoch_raises(self):
        """An epoch whose full-sample objective is not finite (here one huge
        full-batch step makes it NaN, after a finite minibatch) raises
        TrainingError, as a diverged minibatch does."""
        bundle, rets = self.desk_sample(30)
        u, spec = Utility("exponential", 1.0), CostSpec(gamma_prop=0.002, mode="marginal")
        cfg = TrainConfig(epochs=1, lr=1e200, seed=2, hidden=(8,))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="full-sample objective is nan at epoch 0"):
                train(bundle, rets, spec, u, cfg)

    @pytest.mark.parametrize("epochs", [2, 3], ids=["last_epoch", "next_pass"])
    def test_non_finite_later_epoch_raises(self, epochs):
        """A full-batch run whose second epoch ends non-finite (a finite
        step, then one at lr 1e200) raises TrainingError naming epoch 1 and
        the finite epoch 0 score, whether the extra pass after the last
        epoch scores epoch 1 or the next epoch's gradient pass does."""
        bundle, rets = self.desk_sample(30)
        u, spec = Utility("exponential", 1.0), CostSpec(gamma_prop=0.002, mode="marginal")
        cfg = TrainConfig(epochs=epochs, lr=0.01, lr_decay=1e202, seed=2, hidden=(8,))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match=r"full-sample objective is nan at epoch 1; "
                                                    r"last finite trace: -?\d+\.\d+(e-?\d+)?$"):
                train(bundle, rets, spec, u, cfg)


def test_config_is_frozen_and_kept_as_given():
    """A TrainConfig cannot be changed in place, ``dataclasses.replace``
    builds a checked copy, and ``train`` keeps the caller's config."""
    cfg = TrainConfig(epochs=2, seed=1, hidden=[4])
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 5
    assert dataclasses.replace(cfg, seed=5) == TrainConfig(epochs=2, seed=5, hidden=(4,))
    with pytest.raises(InputError, match="epochs"):
        dataclasses.replace(cfg, epochs=0)
    bundle, rets = one_period_bundle(np.array([0.2, -0.1, 0.3]))
    sol = train(bundle, rets, CostSpec(0.001), Utility("exponential", 1.0), cfg)
    assert sol.config is cfg


def test_config_rejects_unknown_key():
    with pytest.raises(InputError, match="epoch"):
        TrainConfig.from_dict({"epoch": 10})
    assert TrainConfig.from_dict({"epochs": 10, "hidden": [4]}).hidden == (4,)


@pytest.mark.parametrize("key", ["clip_norm", "y_init", "smooth_abs_eps"])
def test_config_rejects_fixed_training_constants(key):
    """Gradient clipping, the initial y and the |a| smoothing are module
    constants, not config keys."""
    with pytest.raises(InputError, match=key):
        TrainConfig.from_dict({"epochs": 10, key: 1.0})


@pytest.mark.parametrize("case", ["payoff_too_long", "payoff_nan", "inv_scale_short",
                                  "inv_scale_inf", "inv_scale_negative", "inv_scale_zero"])
def test_malformed_payoff_or_inv_scale_refused(case):
    """train and deep_hedge refuse a payoff or inv_scale that is not one
    finite value per path, or an inv_scale that is not > 0, with InputError
    before any training."""
    from driftless.hedging import deep_hedge

    bundle, rets = one_period_bundle(np.array([0.2, -0.1, 0.3]))
    spec, u = CostSpec(0.001), Utility("exponential", 1.0)
    cfg = TrainConfig(epochs=1, seed=0, hidden=(2,))
    key, value = {
        "payoff_too_long": ("payoff", np.zeros(5)),
        "payoff_nan": ("payoff", np.array([0.0, np.nan, 0.0])),
        "inv_scale_short": ("inv_scale", np.ones(2)),
        "inv_scale_inf": ("inv_scale", np.array([1.0, np.inf, 1.0])),
        "inv_scale_negative": ("inv_scale", np.full(3, -1.0)),
        "inv_scale_zero": ("inv_scale", np.array([1.0, 0.0, 1.0])),
    }[case]
    calls = [lambda: train(bundle, rets, spec, u, cfg, **{key: value})]
    if key == "payoff":
        calls.append(lambda: deep_hedge(bundle, rets, None, value, spec, u, cfg))
    for call in calls:
        with pytest.raises(InputError, match=key):
            call()
