"""The reverse-pass entry point of the trainer's objective.

``trainer._objective`` returns each minibatch objective as one ``Tensor``:
its value and a closure that computes the analytic gradient.  The class
stays, rather than a bare (value, closure) pair, because the benchmark
times each reverse pass through ``autograd.Tensor.backward``.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A scalar objective value and the closure returning its gradient."""

    __slots__ = ("data", "_grad_fn")

    def __init__(self, data, grad_fn):
        self.data = np.asarray(data, dtype=float)
        self._grad_fn = grad_fn

    def backward(self):
        """Run the gradient closure once, release it and return its result."""
        grad_fn, self._grad_fn = self._grad_fn, None
        return grad_fn()
