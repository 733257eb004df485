"""Feed-forward trading policy and the stochastic-gradient training loop.

One shared network maps state features (time fraction, log spot, log DLV
nodes) to an action vector per step; the cash offset y is one extra
trainable scalar.  Training ascends the OCE objective with Adam on
minibatches; the best epoch's parameters by full-sample objective are
returned.  Gradients use |a| smoothed by ``SMOOTH_EPS`` in the cost term;
all reported objective values use the exact absolute value.

The package has one gradient: the analytic gradient of the minibatch
objective ``mean(w u(x)) - y`` with
``x = (sum(a DH) + y - sum(|a| rates) + Z) * s``, back through the gain
and cost head and the ReLU layers; the rescaling ``s`` is ones unless
``train`` is given ``inv_scale``.  ``_objective`` takes the parameters as
plain arrays; its forward pass keeps each layer's output, and it
returns one ``autograd.Tensor`` whose ``backward`` returns the gradient.
It runs in its workspace's precision.  The tests keep a per-op graph of
the same objective as the float64 bit-for-bit reference.

``train`` runs every gradient pass, minibatch or full batch, in float32:
the feature gather, the ReLU layers and the backward through them.  The
gradient only steers the search, after mixed-precision training
(Micikevicius et al., ICLR 2018, with float32 for float16), and so does
each epoch's float32 full-sample score: in full batch the next pass's
forward, with one extra pass after the last epoch, and otherwise
``_score`` on float32 copies of the weights.  ``_score`` on the float64
weights rescores the epochs within ``MARGIN`` of the best.  The rest
stays float64: the master weights, the Adam state, the gradient norm and
clip, the head (x, utility, y and the action gradient), the y refit, and
``objective_and_grad``.

``train`` allocates its large buffers once per call, in one float32
``_Workspace``: the gathered minibatch rows, one output per layer, one
ReLU mask per hidden layer and the float64 actions.  Every minibatch
writes into leading-row views of them; the backward pass takes each
hidden layer's mask from its output, then writes the gradient over it.
So a ``backward`` closure is valid only until the next ``_objective`` on
the same workspace.  Scores run after a ``backward``, the float64 ones in
float64 views of the same layer memory.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import InputError, TrainingError, check_array, check_keys, check_number, from_config
from .frictions import marginal_rate
from .market import check_per_path, check_returns, check_weights, feature_matrix
from .oce import Utility, concave_argmax, oce_sup, u_deriv, u_value


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
        """Raises InputError unless ``weights`` and ``biases`` are lists of
        finite arrays whose shapes chain, (n_k, n_k+1) and (n_k+1,)."""
        keys = ("weights", "biases")
        check_keys(d, keys, "policy", required=keys)
        if not all(isinstance(d[k], list) for k in keys):
            raise InputError("policy 'weights' and 'biases' must be lists of arrays")
        weights, biases = ([check_array(a, f"policy {k!r}") for a in d[k]] for k in keys)
        if not (weights and all(w.ndim == 2 for w in weights)
                and [b.shape for b in biases] == [w.shape[1:] for w in weights]
                and all(v.shape[1] == w.shape[0] for v, w in zip(weights, weights[1:]))):
            raise InputError("policy arrays must have shapes that chain, got weights "
                             f"{[w.shape for w in weights]} and biases {[b.shape for b in biases]}")
        return cls(weights=weights, biases=biases)


def init_mlp(widths, rng):
    """Uniform init scaled by 1/sqrt(fan_in), seed-keyed via ``rng``."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Mlp(weights=weights, biases=biases)


# rows per block of the float64 full-sample forward pass; the blocks bound
# the evaluation's layer buffers, which the float32 gradient passes of
# ``train`` reuse.  At this block size OpenBLAS 0.3.31 (Haswell kernels, 1
# and 2 threads) gives rows bit-identical to one unblocked product,
# checked on 2x10^4 and 10^5 rows of the desk network; blocks of 1024 to
# 8192 rows do not.  So on such a network, the desk (64, 64) one, or (8,)
# and (8, 8), but not (16, 16), a row's actions do not depend on where
# the blocks fall when the rows come in multiples of it.
_BLOCK_ROWS = 10_000


class _Workspace:
    """Reused buffers for the networks of widths ``widths`` ([F, ..., I])
    on up to ``rows`` rows in ``dtype``: the gathered minibatch features,
    one output per layer and one ReLU mask per hidden layer, and the
    head's float64 actions, action increments and rates.  Each layer's
    memory also holds ``eval_rows`` float64 rows, so a float32 workspace
    serves ``forward`` in both precisions.  Callers use leading-row views,
    which stay C-contiguous.
    """

    def __init__(self, rows, widths, dtype, eval_rows=0):
        self.dtype = np.dtype(dtype)
        self.widths = widths
        self.feats = np.empty((rows, widths[0]), self.dtype)
        self.actions = np.empty((rows, widths[-1]))
        self.dh = np.empty((rows, widths[-1]))
        self.rates = np.empty((rows, widths[-1]))
        # float64 words, viewed in either precision by ``layer``, each
        # layer in its own anonymous mapping: freeing the workspace returns
        # the pages to the system, where malloc's heap would keep them
        # resident under later allocations
        words = -(-rows * self.dtype.itemsize // 8)
        self._layers = [np.frombuffer(mmap.mmap(-1, 8 * max(words * w, eval_rows * w, 1)))
                        for w in widths[1:]]
        self.masks = [np.empty((rows, w), dtype=bool) for w in widths[1:-1]]

    def layer(self, l, n, dtype):
        """The output buffer of layer ``l``: its leading ``n`` rows in ``dtype``."""
        w = self.widths[l + 1]
        return self._layers[l].view(dtype)[: n * w].reshape(n, w)


def _layers(weights, biases, h, ws):
    """The affine-ReLU layers on the rows ``h``, each layer written into
    the leading rows of its workspace buffer in the precision of ``h``;
    returns the output rows."""
    n = h.shape[0]
    for l, (w, b) in enumerate(zip(weights, biases)):
        h = np.matmul(h, w, out=ws.layer(l, n, h.dtype))
        h += b
        if l < len(weights) - 1:
            np.maximum(h, 0.0, out=h)
    return h


def forward(mlp, feats, ws=None):
    """Deterministic forward pass to float64 actions; ``feats`` is (..., F)
    with at least two dimensions.

    The layers run in float32 when every array of ``mlp`` is float32, and
    in float64 otherwise.  Rows run in blocks of ``_BLOCK_ROWS`` into one
    preallocated output, through the layer buffers of ``ws`` (a
    ``_Workspace`` that holds at least min(_BLOCK_ROWS, rows) rows in that
    precision), allocated once per call when it is None.
    """
    dtype = np.float32 if np.result_type(*mlp.weights, *mlp.biases) == np.float32 else float
    h = np.asarray(feats, dtype=dtype)
    flat = h.reshape(-1, h.shape[-1])
    n_rows = flat.shape[0]
    # the result is allocated before a local workspace, so that freeing
    # the workspace can return its pages while the result lives on
    out = np.empty((n_rows, mlp.weights[-1].shape[1]))
    if ws is None:
        widths = [flat.shape[1]] + [w.shape[1] for w in mlp.weights]
        ws = _Workspace(min(_BLOCK_ROWS, n_rows), widths, dtype)
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = flat[start : start + _BLOCK_ROWS]
        out[start : start + _BLOCK_ROWS] = _layers(mlp.weights, mlp.biases, block, ws)
    return out.reshape(h.shape[:-1] + (out.shape[1],))


CLIP_NORM = 10.0  # minibatch gradients are rescaled to at most this norm
SMOOTH_EPS = 1e-8  # |a| ~ sqrt(a^2 + eps^2) in the gradient of the cost term
MARGIN = 1e-3  # rescore epochs within MARGIN * (1 + |max|) of the best float32 score


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 0  # 0 means full batch
    lr: float = 0.01
    lr_decay: float = 0.995  # per-epoch multiplicative factor
    seed: int = 0
    hidden: tuple = (64, 64)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "lr", "lr_decay", "seed"):
            check_number(getattr(self, name), f"train config {name!r}",
                         integer=name in ("epochs", "batch_size", "seed"))
        if not isinstance(self.hidden, (list, tuple)) or any(
                check_number(h, "train config 'hidden' width", integer=True) <= 0
                for h in self.hidden):
            raise InputError("train config 'hidden' must be a list of positive integers, "
                             f"got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if (self.epochs <= 0 or self.lr <= 0 or self.lr_decay <= 0 or self.batch_size < 0
                or self.seed < 0):
            raise InputError("train config: epochs, lr and lr_decay must be positive and "
                             f"batch_size and seed >= 0, got {self.epochs}, {self.lr}, "
                             f"{self.lr_decay}, {self.batch_size} and {self.seed}")

    def to_dict(self):
        d = self.__dict__.copy()
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d, "train config")


@dataclass
class Solution:
    """A trained policy and cash offset; from ``train``, also the per-path
    training-sample ``gains``, ``costs`` and ``pre_utility`` at them, which
    are not written to file (``from_dict`` leaves them None)."""

    policy: Mlp
    y_star: float
    objective_value: float
    trace: list = field(default_factory=list)  # epoch scores, float64 if rescored
    config: TrainConfig | None = None
    gains: np.ndarray | None = None  # (P,)
    costs: np.ndarray | None = None  # (P,)
    pre_utility: np.ndarray | None = None  # (P,)

    def to_dict(self):
        return {
            "policy": self.policy.to_dict(),
            "y_star": self.y_star,
            "objective_value": self.objective_value,
            "config": self.config.to_dict() if self.config else None,
        }

    @classmethod
    def from_dict(cls, doc):
        """Parse a ``to_dict`` document; raises InputError if it is malformed."""
        keys = ("policy", "y_star", "objective_value", "config")
        check_keys(doc, keys, "solution", required=keys[:3])
        cfg = TrainConfig.from_dict(doc["config"]) if doc.get("config") else None
        return cls(
            policy=Mlp.from_dict(doc["policy"]),
            y_star=check_number(doc["y_star"], "solution 'y_star'"),
            objective_value=check_number(doc["objective_value"], "solution 'objective_value'"),
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
    inv_scale: np.ndarray  # (P,), ones if unscaled
    utility: Utility


def _make_problem(bundle, returns, spec, utility, payoff=None, inv_scale=None,
                  weights=None):
    """The problem arrays; InputError on returns from another bundle, or on
    weights, ``payoff`` or ``inv_scale`` that fail check_per_path."""
    check_returns(bundle, returns)
    P = bundle.n_paths
    ones = np.ones(P)  # read-only: the default of both weights and inv_scale
    return _Problem(
        feats=feature_matrix(bundle),
        dh=returns.dh,
        rates=marginal_rate(spec, returns.mids),
        weights=ones if weights is None else check_weights(weights, P),
        payoff=np.zeros(P) if payoff is None else check_per_path(payoff, P, "payoff"),
        inv_scale=(ones if inv_scale is None
                   else check_per_path(inv_scale, P, "inv_scale", positive=True)),
        utility=utility,
    )


def _objective(prob, params, y, idx, ws):
    """The minibatch objective at the parameter arrays ``params``
    ([W_0, b_0, W_1, ...]) and the cash offset ``y``, as one scalar
    ``Tensor``.

    The feature gather, the layers and the backward through them run in
    the precision of the workspace ``ws``, in its leading len(idx)·T rows;
    the actions (in ``ws.actions``), the head, the value and the gradients
    are float64.  Its ``backward`` returns the analytic gradient ``(grads,
    y_grad)``, with ``grads`` in the order of ``params``; it reads the ReLU
    masks off the hidden activations and then overwrites them, so it is
    valid only until the next ``_objective`` on ``ws``.  Each elementwise
    expression keeps the order of the per-op reference graph, so in
    float64 value and gradients are bit-identical to it.
    """
    B, T, F = len(idx), prob.feats.shape[1], prob.feats.shape[2]
    n_layers = len(params) // 2
    n = B * T
    net = [np.asarray(p, dtype=ws.dtype) for p in params]
    # fancy indexing gathers in the features' dtype and the copy casts:
    # np.take into a buffer of another dtype first casts its old contents
    feats = ws.feats[:n]
    feats.reshape(B, T, F)[...] = prob.feats[idx]
    a = ws.actions[:n].reshape(B, T, -1)
    a.reshape(n, -1)[...] = _layers(net[::2], net[1::2], feats, ws)
    inputs = [feats] + [ws.layer(l, n, ws.dtype) for l in range(n_layers - 1)]

    # idx holds valid rows, so "clip" only spares np.take the copy that
    # mode="raise" makes of ``out``
    dh = np.take(prob.dh, idx, axis=0, out=ws.dh[:n].reshape(a.shape), mode="clip")
    rates = np.take(prob.rates, idx, axis=0, out=ws.rates[:n].reshape(a.shape), mode="clip")
    a_abs = np.sqrt(a**2 + SMOOTH_EPS**2)
    x = (a * dh).sum(axis=(1, 2)) + y - (a_abs * rates).sum(axis=(1, 2)) + prob.payoff[idx]
    x *= prob.inv_scale[idx]
    w = prob.weights[idx]
    value = (u_value(prob.utility, x) * w).sum() * (1.0 / B) - y

    def backward():
        gx = ((1.0 / B) * w) * u_deriv(prob.utility, x) * prob.inv_scale[idx]
        y_grad = -1.0 + gx.sum(axis=0)
        g3 = gx[:, None, None]
        da = g3 * dh
        da += (-g3) * rates * a / a_abs
        g = da.reshape(n, -1).astype(ws.dtype, copy=False)
        grads = [None] * len(params)
        for l in range(n_layers - 1, -1, -1):
            grads[2 * l + 1] = np.asarray(g.sum(axis=0), dtype=float)
            grads[2 * l] = np.asarray(inputs[l].T @ g, dtype=float)
            if l > 0:
                # inputs[l], dead once dW_l is taken, gives its ReLU mask, then dL/d(input)
                mask = np.greater(inputs[l], 0, out=ws.masks[l - 1][:n])
                g = np.matmul(g, net[2 * l].T, out=inputs[l])
                g *= mask
        return grads, y_grad

    return Tensor(value, backward)


def _gains_costs(actions, dh, rates, gains, costs):
    """Per-path gains and exact-|a| costs of the (P, T, I) ``actions``,
    written into ``gains`` and ``costs``; leaves |a| in ``actions``."""
    np.einsum("pti,pti->p", actions, dh, out=gains)
    np.einsum("pti,pti->p", np.abs(actions, out=actions), rates, out=costs)


def _head(prob, gains, costs, y):
    """The pre-utility x and the full-sample objective at the cash offset
    ``y``, from per-path gains and costs."""
    x = gains - costs + y + prob.payoff
    x *= prob.inv_scale
    return x, float(np.mean(prob.weights * u_value(prob.utility, x)) - y)


def _score(prob, mlp, y, ws, batch, gains, costs):
    """The full-sample pre-utility and objective (``_head``) of the policy
    ``mlp`` at the cash offset ``y``: ``forward`` through ``ws``, in the
    precision of the policy's arrays, on ``batch`` paths at a time, each
    block's gains and exact-|a| costs written into ``gains``, ``costs``."""
    for s in range(0, len(gains), batch):
        rows = slice(s, s + batch)
        _gains_costs(forward(mlp, prob.feats[rows], ws), prob.dh[rows], prob.rates[rows],
                     gains[rows], costs[rows])
    return _head(prob, gains, costs, y)


def _keep(trace, snaps, score, params):
    """Append the next epoch's ``score`` to ``trace`` and its parameters
    ``params`` to ``snaps``, then drop the snapshots more than MARGIN * (1 +
    |max|) below the running maximum; TrainingError if ``score`` is not finite."""
    if not np.isfinite(score):
        raise TrainingError(f"full-sample objective is {score} at epoch {len(trace)}; "
                            f"last finite trace: {trace[-1] if trace else None}")
    snaps[len(trace)] = [p.copy() for p in params]
    trace.append(score)
    top = max(trace)
    for e in [e for e in snaps if trace[e] < top - MARGIN * (1 + abs(top))]:
        del snaps[e]


def objective_and_grad(bundle, returns, spec, utility, mlp, y):
    """Reverse-mode gradient of the full-sample objective, with uniform
    weights and no claim.

    Returns (value, grads, y_grad) where ``grads`` interleaves
    [dW_0, db_0, dW_1, ...] matching the network layers.
    """
    prob = _make_problem(bundle, returns, spec, utility)
    P, T, F = prob.feats.shape
    params = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
    ws = _Workspace(P * T, [F] + [w.shape[1] for w in mlp.weights], np.float64)
    obj = _objective(prob, params, float(y), np.arange(P), ws)
    grads, y_grad = obj.backward()
    y_grad = float(y_grad)
    if not all(np.all(np.isfinite(g)) for g in grads) or not np.isfinite(y_grad):
        raise TrainingError("non-finite gradient encountered")
    return float(obj.data), grads, y_grad


def train(bundle, returns, spec, utility, config, payoff=None, inv_scale=None,
          weights=None):
    """Maximize the OCE objective over network parameters and y.

    Deterministic given the config seed, for a fixed BLAS build and thread
    count.  Epochs are trained and scored in float32, a full-batch one from
    the next pass's forward; a float64 ``_score`` then rescores those
    within MARGIN of the best, in order, and picks the first greatest
    (exact-abs costs; the best of all epochs while every |f32 - f64| <
    MARGIN / 2), returned with its training-sample evaluation, whose gains
    and costs the y refit reuses.  Raises TrainingError if a minibatch
    objective or gradient, or an epoch's score, is not finite.
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

    batch = min(config.batch_size, P) if config.batch_size > 0 else P
    # the gains and costs of each score, then the returned ones and the
    # pre-utility; allocated before the workspace, not to pin its pages
    evaluation = np.empty((5, P))
    # one float32 buffer set for every minibatch and epoch score, whose layer
    # memory also holds the float64 rescoring blocks
    ws = _Workspace(batch * T, [F, *config.hidden, n_inst], np.float32,
                    eval_rows=min(_BLOCK_ROWS, P * T))
    lr = config.lr
    best_obj = -np.inf  # the first candidate beats it: epochs >= 1, each finite or raising
    trace, snaps = [], {}

    # in full batch, one more pass after the last epoch, only to score it
    for epoch in range(config.epochs + (batch == P)):
        perm = rng.permutation(P) if batch < P else np.arange(P)
        for start in range(0, P, batch):
            idx = perm[start : start + batch]
            obj = _objective(prob, params[:-1], params[-1], idx, ws)
            grads, y_grad = obj.backward()
            if batch == P and epoch:
                # the pass ran at the last epoch's end parameters: score that epoch
                _gains_costs(ws.actions[: P * T].reshape(P, T, -1), prob.dh, prob.rates,
                             *evaluation[:2])
                _keep(trace, snaps, _head(prob, *evaluation[:2], float(params[-1]))[1], params)
            if epoch == config.epochs:
                break
            if not np.isfinite(obj.data):
                raise TrainingError(f"objective diverged at epoch {epoch}; last finite trace: "
                                    f"{trace[-1] if trace else None}")
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

        if batch < P:
            net32 = [p.astype(np.float32) for p in params[:-1]]
            _keep(trace, snaps, _score(prob, Mlp(net32[::2], net32[1::2]), float(params[-1]), ws,
                                       batch, *evaluation[:2])[1], params)
        lr *= config.lr_decay

    # rescore the candidates in float64, all paths in one call to keep forward's
    # blocks; the first strictly greatest wins
    for e, snap in snaps.items():
        _, trace[e] = _score(prob, Mlp(snap[:-1:2], snap[1:-1:2]), float(snap[-1]), ws, P,
                             *evaluation[:2])
        if trace[e] > best_obj:
            best_obj, best = trace[e], snap
            evaluation[2:4] = evaluation[:2]

    net = Mlp(weights=best[:-1:2], biases=best[1:-1:2])
    y_star = float(best[-1])
    gains, costs = evaluation[2], evaluation[3]
    pre_utility, objective_value = _head(prob, gains, costs, y_star)
    # y enters as a plain concave 1-d sup; close it exactly so the
    # first-order condition E_w[u'(.) dx/dy] = 1 holds at the returned
    # solution (closed form for the exponential family, bisection on that
    # condition for the scaled objective)
    if inv_scale is None:
        val, y_opt = oce_sup(pre_utility - y_star, prob.weights, utility)
    else:
        s, w = prob.inv_scale, prob.weights
        base = pre_utility / s - y_star
        span = float(np.max(np.abs(base))) + 1.0
        y_opt = concave_argmax(
            lambda y: float(np.mean(w * s * u_deriv(utility, (base + y) * s))) - 1.0,
            y_star - span, y_star + span)
        val = float(np.mean(w * u_value(utility, (base + y_opt) * s))) - y_opt
    if val >= objective_value:
        y_star = y_opt
        pre_utility, objective_value = _head(prob, gains, costs, y_star)
    evaluation[4] = pre_utility
    return Solution(
        policy=net,
        y_star=y_star,
        objective_value=objective_value,
        trace=trace,
        config=config,
        gains=gains,
        costs=costs,
        pre_utility=evaluation[4],
    )


def evaluate_policy(bundle, returns, spec, utility, mlp, y):
    """Full-sample evaluation of a fixed policy on any bundle (exact-abs
    costs, uniform weights, no claim): its per-path gains, costs and
    pre-utility, and the objective."""
    prob = _make_problem(bundle, returns, spec, utility)
    gains, costs = np.empty((2, bundle.n_paths))
    x, objective = _score(prob, mlp, y, None, bundle.n_paths, gains, costs)
    return dict(gains=gains, costs=costs, pre_utility=x, objective=objective)
