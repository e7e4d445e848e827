"""Central finite-difference auditing of autograd gradients.

Relative error uses a floored denominator: below the floor the comparison
degrades gracefully into an absolute one, so near-zero gradient pairs do
not blow up the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

from . import autograd as ag
from .autograd import Tensor

DEFAULT_STEP = 1e-4
DEFAULT_FLOOR = 1e-3


def max_relative_error(a: np.ndarray, b: np.ndarray,
                       floor: float = DEFAULT_FLOOR) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def fd_gradient(loss_fn: Callable[[], float], tensor: Tensor,
                step: float = DEFAULT_STEP) -> np.ndarray:
    """Per-element central differences of ``loss_fn`` w.r.t. ``tensor``.

    ``loss_fn`` must be pure re-evaluation (no RNG consumption); it is
    called under no_grad, twice per element.
    """
    grad = np.zeros_like(tensor.data)
    flat_data = tensor.data.reshape(-1)
    flat_grad = grad.reshape(-1)
    with ag.no_grad():
        for i in range(flat_data.size):
            original = flat_data[i]
            flat_data[i] = original + step
            up = loss_fn()
            flat_data[i] = original - step
            down = loss_fn()
            flat_data[i] = original
            flat_grad[i] = (up - down) / (2.0 * step)
    return grad


@dataclass
class AuditResult:
    max_error: float
    per_param: Dict[str, float]

    def worst(self) -> str:
        name = max(self.per_param, key=self.per_param.get)
        return f"{name}: {self.per_param[name]:.3e}"


def audit_params(loss_fn: Callable[[], float],
                 autograd_grads: Mapping[str, np.ndarray],
                 params: Mapping[str, Tensor],
                 step: float = DEFAULT_STEP,
                 floor: float = DEFAULT_FLOOR) -> AuditResult:
    """Compare recorded autograd gradients against finite differences."""
    per_param = {name: max_relative_error(autograd_grads[name], fd_gradient(loss_fn, p, step),
                                          floor) for name, p in params.items()}
    return AuditResult(max_error=max(per_param.values()), per_param=per_param)


def audit_model(model, batch, step: float = DEFAULT_STEP,
                floor: float = DEFAULT_FLOOR) -> AuditResult:
    """Full-model gradient audit on one batch (eval mode: dropout off)."""
    model.eval()
    params = model.named_params()
    ag.zero_grads(params.values())
    loss = model.batch_loss(batch)
    ag.backward(loss)
    grads = {name: p.grad.copy() for name, p in params.items()}
    ag.zero_grads(params.values())
    ag.reset_tape()
    return audit_params(lambda: model.batch_loss(batch).item(), grads, params,
                        step=step, floor=floor)
