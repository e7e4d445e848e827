"""Adam optimizer over named parameter sets."""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from .autograd import Tensor


class Adam:
    """In-place Adam with per-parameter first/second moment state.

    Fixed defaults betas=(0.9, 0.999), eps=1e-8; the learning rate is the
    only knob the training recipes vary.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params: Dict[str, Tensor] = dict(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        # a step's temporaries, so that it allocates no parameter-sized array
        largest = max((p.size for p in self.params.values()), default=0)
        self._scratch = np.empty((2, largest))

    def step(self) -> None:
        """Apply one update; every parameter must carry a grad."""
        missing = [name for name, p in self.params.items() if p.grad is None]
        if missing:
            raise ValueError(f"adam step with missing grads: {sorted(missing)}")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            a, b = (buf[:g.size].reshape(g.shape) for buf in self._scratch)
            # the operations, in order, of m = b1 m + (1 - b1) g, v = b2 v +
            # (1 - b2) g^2 and p -= lr (m / bias1) / (sqrt(v / bias2) + eps)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            v += np.multiply(1.0 - self.beta2, np.multiply(g, g, out=a), out=a)
            np.multiply(self.lr, np.divide(m, bias1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), self.eps, out=b)
            p.data -= np.divide(a, b, out=a)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
