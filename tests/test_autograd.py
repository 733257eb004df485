import numpy as np
import pytest

from driftless.oce import Utility, u_value
from pergraph import Tensor


def numeric_grad(f, arrays, h=1e-6):
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + h
            up = f()
            a[idx] = orig - h
            dn = f()
            a[idx] = orig
            g[idx] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def test_add_mul_chain():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    y = Tensor(np.array([4.0, 5.0, 6.0]))
    out = ((x + y) * x).sum()
    out.backward()
    assert np.allclose(x.grad, 2 * x.data + y.data)
    assert np.allclose(y.grad, x.data)


def test_matmul_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 2))
    ta, tb = Tensor(a.copy()), Tensor(b.copy())
    (ta @ tb).sum().backward()

    def f():
        return float((ta.data @ tb.data).sum())

    na, nb = numeric_grad(f, [ta.data, tb.data])
    assert np.allclose(ta.grad, na, atol=1e-6)
    assert np.allclose(tb.grad, nb, atol=1e-6)


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    x.relu().sum().backward()
    assert np.array_equal(x.grad, np.array([0.0, 0.0, 1.0]))


def test_abs_subgradient_zero_at_zero():
    x = Tensor(np.array([-2.0, 0.0, 3.0]))
    x.abs().sum().backward()
    assert np.array_equal(x.grad, np.array([-1.0, 0.0, 1.0]))


def test_smooth_abs_close_to_abs():
    x = Tensor(np.array([-2.0, 0.5]))
    out = x.smooth_abs(1e-8)
    assert np.allclose(out.data, np.abs(x.data), atol=1e-7)
    out.sum().backward()
    assert np.allclose(x.grad, np.sign(x.data), atol=1e-7)


def test_broadcast_bias_grad():
    rng = np.random.default_rng(2)
    h = Tensor(rng.normal(size=(5, 3)))
    b = Tensor(rng.normal(size=3))
    (h + b).sum().backward()
    assert np.allclose(b.grad, np.full(3, 5.0))


def test_sum_over_axes():
    x = Tensor(np.ones((2, 3, 4)))
    out = x.sum(axis=(1, 2))
    assert out.shape == (2,)
    out.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3, 4)))


def test_mean_grad():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    x.mean().backward()
    assert np.allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


@pytest.mark.parametrize("family", ["exponential", "adjusted_mean_vol"])
def test_apply_utility_grad(family):
    u = Utility(family, 1.3)
    x0 = np.array([-0.5, 0.0, 0.8])
    x = Tensor(x0.copy())
    x.apply_utility(u).sum().backward()

    def f():
        return float(u_value(u, x.data).sum())

    (num,) = numeric_grad(f, [x.data])
    assert np.allclose(x.grad, num, atol=1e-6)


def test_mlp_composite_matches_finite_difference():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(16, 4))
    dh = rng.normal(size=16)
    w1 = Tensor(rng.normal(size=(4, 8)) * 0.3)
    b1 = Tensor(rng.normal(size=8) * 0.1)
    w2 = Tensor(rng.normal(size=(8, 1)) * 0.3)
    b2 = Tensor(rng.normal(size=1) * 0.1)
    u = Utility("exponential", 1.0)

    def graph():
        h = (Tensor(feats) @ w1 + b1).relu()
        a = (h @ w2 + b2).reshape(16)
        x = a * Tensor(dh)
        return (x.apply_utility(u)).mean()

    out = graph()
    out.backward()
    got = [w1.grad, b1.grad, w2.grad, b2.grad]

    def f():
        h = np.maximum(feats @ w1.data + b1.data, 0.0)
        a = (h @ w2.data + b2.data).reshape(16)
        return float(np.mean(u_value(u, a * dh)))

    num = numeric_grad(f, [w1.data, b1.data, w2.data, b2.data], h=1e-5)
    for g, n in zip(got, num):
        denom = np.maximum(np.abs(n), 1e-8)
        assert np.max(np.abs(g - n) / denom) < 1e-4


def test_backward_requires_scalar():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        x.backward()


def test_graph_frees_without_gc():
    # the graph must be reclaimable by reference counting alone
    import gc

    gc.disable()
    try:
        gc.collect()
        x = Tensor(np.random.default_rng(0).normal(size=(50, 50)))
        w = Tensor(np.random.default_rng(1).normal(size=(50, 50)))
        for _ in range(5):
            obj = ((x @ w).relu()).sum()
            obj.backward()
            obj = None
        leaked = [o for o in gc.get_objects() if isinstance(o, Tensor)]
        assert len(leaked) <= 2
    finally:
        gc.enable()
