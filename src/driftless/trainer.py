"""Feed-forward trading policy and the stochastic-gradient training loop.

One shared network maps state features (time fraction, log spot, log DLV
nodes) to an action vector per step; the cash offset y is one extra
trainable scalar.  Training ascends the OCE objective with Adam on
minibatches; the best-seen parameters by full-sample objective are
returned.  Gradients use |a| smoothed by ``SMOOTH_EPS`` in the cost term;
all reported objective values use the exact absolute value.

The package has one gradient: the analytic gradient of the minibatch
objective ``mean(w u(x)) - y`` with
``x = (sum(a DH) + y - sum(|a| rates) + Z)(* s)``, back through the gain
and cost head and the ReLU layers.  ``_objective`` takes the parameters as
plain arrays; its forward pass keeps each layer's input and ReLU mask, and
it returns one ``autograd.Tensor`` whose ``backward`` returns the
gradient.  The tests keep a per-op graph of the same objective as the
bit-for-bit reference.  The full-sample forward pass runs in fixed row
blocks.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import InputError, TrainingError, check_keys, check_number
from .frictions import marginal_rate
from .market import check_weights, feature_matrix, read_json, write_text
from .oce import Utility, oce_sup, u_deriv, u_value


@dataclass
class Mlp:
    """Affine-ReLU network: hidden ReLU layers, linear output."""

    weights: list
    biases: list

    def to_dict(self):
        return {
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            weights=[np.asarray(w, dtype=float) for w in d["weights"]],
            biases=[np.asarray(b, dtype=float) for b in d["biases"]],
        )


def init_mlp(widths, rng):
    """Uniform init scaled by 1/sqrt(fan_in), seed-keyed via ``rng``."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Mlp(weights=weights, biases=biases)


# rows per block of the full-sample forward pass.  At this block size
# OpenBLAS 0.3.31 (Haswell kernels, 1 and 2 threads) gives rows
# bit-identical to one unblocked product, checked on 2x10^4 and 10^5 rows
# of the desk network; blocks of 1024 to 8192 rows do not.
_BLOCK_ROWS = 10_000


def forward(mlp, feats):
    """Deterministic forward pass; ``feats`` is (F,) or (..., F).

    Rows run in blocks of ``_BLOCK_ROWS`` into one preallocated output, so
    the hidden activations never exceed one block.
    """
    h = np.asarray(feats, dtype=float)
    single = h.ndim == 1
    if single:
        h = h[None, :]
    flat = h.reshape(-1, h.shape[-1])
    n_layers = len(mlp.weights)
    out = np.empty((flat.shape[0], mlp.weights[-1].shape[1]))
    for start in range(0, flat.shape[0], _BLOCK_ROWS):
        z = flat[start : start + _BLOCK_ROWS]
        for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z = z @ w
            z += b
            if l < n_layers - 1:
                np.maximum(z, 0.0, out=z)
        out[start : start + _BLOCK_ROWS] = z
    out = out.reshape(h.shape[:-1] + (out.shape[1],))
    return out[0] if single else out


CLIP_NORM = 10.0  # minibatch gradients are rescaled to at most this norm
SMOOTH_EPS = 1e-8  # |a| ~ sqrt(a^2 + eps^2) in the gradient of the cost term


@dataclass
class TrainConfig:
    epochs: int = 300
    batch_size: int = 0  # 0 means full batch
    lr: float = 1e-3
    lr_decay: float = 1.0  # per-epoch multiplicative factor
    seed: int = 0
    hidden: tuple = (64, 64)

    def __post_init__(self):
        if self.epochs <= 0 or self.lr <= 0 or self.lr_decay <= 0 or self.batch_size < 0:
            raise InputError("train config: epochs, lr and lr_decay must be positive and "
                             f"batch_size >= 0, got {self.epochs}, {self.lr}, "
                             f"{self.lr_decay} and {self.batch_size}")

    def to_dict(self):
        d = self.__dict__.copy()
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d):
        check_keys(d, cls.__dataclass_fields__, "train config")
        d = dict(d)
        for key, value in d.items():
            if key == "hidden":
                if not isinstance(value, (list, tuple)) or any(
                    check_number(h, "train config 'hidden' width", integer=True) <= 0
                    for h in value
                ):
                    raise InputError("train config 'hidden' must be a list of "
                                     f"positive integers, got {value!r}")
                d[key] = tuple(value)
            else:
                check_number(value, f"train config {key!r}",
                             integer=key in ("epochs", "batch_size", "seed"))
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(read_json(path))


@dataclass
class Solution:
    policy: Mlp
    y_star: float
    objective_value: float
    trace: list = field(default_factory=list)
    config: TrainConfig | None = None

    def to_json(self, path):
        doc = {
            "policy": self.policy.to_dict(),
            "y_star": self.y_star,
            "objective_value": self.objective_value,
            "config": self.config.to_dict() if self.config else None,
        }
        write_text(path, json.dumps(doc))

    @classmethod
    def from_json(cls, path):
        doc = read_json(path)
        cfg = TrainConfig.from_dict(doc["config"]) if doc.get("config") else None
        return cls(
            policy=Mlp.from_dict(doc["policy"]),
            y_star=doc["y_star"],
            objective_value=doc["objective_value"],
            config=cfg,
        )


@dataclass
class _Problem:
    """Precomputed arrays shared by graph building and evaluation."""

    feats: np.ndarray  # (P, T, F)
    dh: np.ndarray  # (P, T, I)
    rates: np.ndarray  # (P, T, I) marginal rates, zeros if frictionless
    weights: np.ndarray  # (P,) mean-1
    payoff: np.ndarray  # (P,), zeros if there is no claim
    inv_scale: np.ndarray | None  # (P,)
    utility: Utility


def _make_problem(bundle, returns, spec, utility, payoff=None, inv_scale=None,
                  weights=None):
    P = bundle.n_paths
    return _Problem(
        feats=feature_matrix(bundle),
        dh=returns.dh,
        rates=marginal_rate(spec, returns.mids),
        weights=np.ones(P) if weights is None else check_weights(weights, P),
        payoff=np.zeros(P) if payoff is None else np.asarray(payoff, dtype=float),
        inv_scale=None if inv_scale is None else np.asarray(inv_scale, dtype=float),
        utility=utility,
    )


def _objective(prob, params, y, idx):
    """The minibatch objective at the parameter arrays ``params``
    ([W_0, b_0, W_1, ...]) and the cash offset ``y``, as one scalar
    ``Tensor``.

    Its ``backward`` returns the analytic gradient ``(grads, y_grad)``,
    with ``grads`` in the order of ``params``.  Each elementwise expression
    keeps the order of the per-op reference graph, so value and gradients
    are bit-identical to it.
    """
    feats = prob.feats[idx]
    B, T, F = feats.shape
    h = feats.reshape(B * T, F)
    n_layers = len(params) // 2
    inputs, masks = [], []
    for l in range(n_layers):
        inputs.append(h)
        h = h @ params[2 * l]
        h += params[2 * l + 1]
        if l < n_layers - 1:
            masks.append(h > 0)
            np.maximum(h, 0.0, out=h)
    a = h.reshape(B, T, -1)

    dh = prob.dh[idx]
    rates = prob.rates[idx]
    a_abs = np.sqrt(a**2 + SMOOTH_EPS**2)
    x = (a * dh).sum(axis=(1, 2)) + y - (a_abs * rates).sum(axis=(1, 2)) + prob.payoff[idx]
    if prob.inv_scale is not None:
        x = x * prob.inv_scale[idx]
    w = prob.weights[idx]
    value = (u_value(prob.utility, x) * w).sum() * (1.0 / B) - y

    def backward():
        gx = ((1.0 / B) * w) * u_deriv(prob.utility, x)
        if prob.inv_scale is not None:
            gx = gx * prob.inv_scale[idx]
        y_grad = -1.0 + gx.sum(axis=0)
        g3 = gx[:, None, None]
        da = g3 * dh
        da += (-g3) * rates * a / a_abs
        g = da.reshape(B * T, -1)
        grads = [None] * len(params)
        for l in range(n_layers - 1, -1, -1):
            grads[2 * l + 1] = g.sum(axis=0)
            grads[2 * l] = inputs[l].T @ g
            if l > 0:
                g = g @ params[2 * l].T
                g *= masks[l - 1]
        return grads, y_grad

    return Tensor(value, backward)


def _evaluate(prob, mlp, y):
    """Full-sample evaluation with exact |a|; returns a result dict."""
    actions = forward(mlp, prob.feats)
    gain = np.einsum("pti,pti->p", actions, prob.dh)
    costs = np.einsum("pti,pti->p", np.abs(actions), prob.rates)
    x = gain - costs + y + prob.payoff
    if prob.inv_scale is not None:
        x = x * prob.inv_scale
    objective = float(np.mean(prob.weights * u_value(prob.utility, x)) - y)
    return {
        "actions": actions,
        "gains": gain,
        "costs": costs,
        "pre_utility": x,
        "objective": objective,
    }


def objective_and_grad(bundle, returns, spec, utility, mlp, y, payoff=None,
                       inv_scale=None, weights=None):
    """Reverse-mode gradient of the full-sample objective.

    Returns (value, grads, y_grad) where ``grads`` interleaves
    [dW_0, db_0, dW_1, ...] matching the network layers.
    """
    prob = _make_problem(bundle, returns, spec, utility, payoff, inv_scale, weights)
    params = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
    obj = _objective(prob, params, float(y), np.arange(bundle.n_paths))
    grads, y_grad = obj.backward()
    y_grad = float(y_grad)
    if not all(np.all(np.isfinite(g)) for g in grads) or not np.isfinite(y_grad):
        raise TrainingError("non-finite gradient encountered")
    return float(obj.data), grads, y_grad


def train(bundle, returns, spec, utility, config, payoff=None, inv_scale=None,
          weights=None):
    """Maximize the OCE objective over network parameters and y.

    Deterministic given the config seed; returns the best-seen parameters
    by full-sample objective (exact-abs costs).
    """
    prob = _make_problem(bundle, returns, spec, utility, payoff, inv_scale, weights)
    P, T, F = prob.feats.shape
    n_inst = prob.dh.shape[2]
    rng = np.random.default_rng(config.seed)
    mlp = init_mlp([F, *config.hidden, n_inst], rng)

    # [W_0, b_0, W_1, ..., y], updated in place by Adam; y is a 0-d array
    params = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
    params.append(np.array(0.0))

    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def snapshot():
        net = Mlp(weights=[w.copy() for w in params[:-1:2]],
                  biases=[b.copy() for b in params[1:-1:2]])
        return net, float(params[-1])

    batch = config.batch_size if config.batch_size > 0 else P
    lr = config.lr
    best_obj = -np.inf
    best = snapshot()
    trace = []
    last_finite = None

    for epoch in range(config.epochs):
        perm = rng.permutation(P) if batch < P else np.arange(P)
        for start in range(0, P, batch):
            idx = perm[start : start + batch]
            obj = _objective(prob, params[:-1], params[-1], idx)
            if not np.isfinite(obj.data):
                raise TrainingError(
                    f"objective diverged at epoch {epoch}; last finite trace: "
                    f"{last_finite}"
                )
            grads, y_grad = obj.backward()
            grads.append(y_grad)
            gnorm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if not np.isfinite(gnorm):
                raise TrainingError(f"non-finite gradient at epoch {epoch}")
            scale = CLIP_NORM / gnorm if gnorm > CLIP_NORM else 1.0

            step += 1
            for p, g, m, v in zip(params, grads, m_state, v_state):
                g = -g * scale  # ascent
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g * g
                mhat = m / (1 - beta1**step)
                vhat = v / (1 - beta2**step)
                p -= lr * mhat / (np.sqrt(vhat) + eps)

        net, y_now = snapshot()
        full = _evaluate(prob, net, y_now)["objective"]
        last_finite = full
        trace.append(full)
        if full > best_obj:
            best_obj = full
            best = (net, y_now)
        lr *= config.lr_decay

    net, y_star = best
    # y enters as a plain concave 1-d sup; close it exactly so the
    # first-order condition E_w[u'(.) dx/dy] = 1 holds at the returned
    # solution (closed form for the exponential family, bounded search
    # for the scaled objective)
    res = _evaluate(prob, net, y_star)
    if prob.inv_scale is None:
        x = res["pre_utility"] - y_star
        val, y_opt = oce_sup(x, prob.weights, utility)
    else:
        base = res["pre_utility"] / prob.inv_scale - y_star

        def neg(y):
            vals = u_value(utility, (base + y) * prob.inv_scale)
            return -(float(np.mean(prob.weights * vals)) - y)

        from scipy.optimize import minimize_scalar

        span = float(np.max(np.abs(base))) + 1.0
        opt = minimize_scalar(
            neg, bounds=(y_star - span, y_star + span), method="bounded",
            options={"xatol": 1e-12},
        )
        val, y_opt = -float(opt.fun), float(opt.x)
    if val >= res["objective"]:
        y_star = y_opt
    objective_value = _evaluate(prob, net, y_star)["objective"]
    return Solution(
        policy=net,
        y_star=y_star,
        objective_value=objective_value,
        trace=trace,
        config=copy.deepcopy(config),
    )


def evaluate_policy(bundle, returns, spec, utility, mlp, y, payoff=None,
                    inv_scale=None, weights=None):
    """Full-sample evaluation of a fixed policy (exact-abs costs)."""
    prob = _make_problem(bundle, returns, spec, utility, payoff, inv_scale, weights)
    return _evaluate(prob, mlp, y)
