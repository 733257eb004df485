"""Per-op reverse-mode gradient engine over numpy arrays, for the tests.

The operations below (affine layers, ReLU, elementwise products with
constants, smooth/exact absolute value, axis reductions, reshape and a
generic elementwise utility node) build the trainer's objective node by
node.  The trainer tests keep that graph as the bit-for-bit reference
for the fused analytic gradient of ``trainer._objective``.  Subgradient
conventions: ReLU picks 0 at the kink, |.| picks 0 at 0.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # sum away leading added axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "_backward", "_parents")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._backward = None
        self._parents = parents

    @property
    def shape(self):
        return self.data.shape

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def bwd():
            self._acc(_unbroadcast(out.grad, self.data.shape))
            other._acc(_unbroadcast(out.grad, other.data.shape))

        out._backward = bwd
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._backward = lambda: self._acc(-out.grad)
        return out

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def bwd():
            self._acc(_unbroadcast(out.grad * other.data, self.data.shape))
            other._acc(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def matmul(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bwd():
            self._acc(out.grad @ other.data.T)
            other._acc(self.data.T @ out.grad)

        out._backward = bwd
        return out

    __matmul__ = matmul

    # -- nonlinearities ---------------------------------------------------

    def relu(self):
        mask = self.data > 0
        out = Tensor(np.where(mask, self.data, 0.0), (self,))
        out._backward = lambda: self._acc(out.grad * mask)
        return out

    def abs(self):
        sign = np.sign(self.data)  # 0 at 0: subgradient convention
        out = Tensor(np.abs(self.data), (self,))
        out._backward = lambda: self._acc(out.grad * sign)
        return out

    def smooth_abs(self, eps=1e-8):
        root = np.sqrt(self.data**2 + eps**2)
        out = Tensor(root, (self,))
        out._backward = lambda: self._acc(out.grad * self.data / root)
        return out

    def apply_utility(self, u):
        """Elementwise u(x) with gradient u'(x); ``u`` is an oce.Utility."""
        from driftless.oce import u_deriv, u_value

        deriv = u_deriv(u, self.data)
        out = Tensor(u_value(u, self.data), (self,))
        out._backward = lambda: self._acc(out.grad * deriv)
        return out

    # -- shape / reductions ----------------------------------------------

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))
        out._backward = lambda: self._acc(out.grad.reshape(self.data.shape))
        return out

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis), (self,))

        def bwd():
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._acc(np.broadcast_to(g, self.data.shape).copy())

        out._backward = bwd
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis) / float(n)

    # -- engine -----------------------------------------------------------

    def _acc(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar output")
        # iterative postorder; a recursive closure here would be a
        # self-referential cycle pinning the whole graph until gc
        order = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
                # the closure captures its output tensor, a cycle the
                # refcounter cannot free; sever it and drop the grad of
                # every interior node so big intermediates free eagerly
                node._backward = None
                node._parents = ()
                if node is not self:
                    node.grad = None
        order.clear()
