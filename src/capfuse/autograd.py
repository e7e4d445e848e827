"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run: every differentiable op appends an entry to the active
ComputationTape; ``backward(loss)`` replays the tape in reverse and
accumulates gradients. ``backward`` consumes the tape: it releases each
entry's output and backward function as it runs them, so a step's
activations are freed during the sweep and no reference cycle outlives
it. Only leaf tensors keep ``.grad`` afterwards; an op's output hands its
gradient on and is left with None. A fresh tape is started automatically
after the previous one is consumed, so ordinary training loops never
manage tapes explicitly. No implicit broadcasting: elementwise ops
require identical shapes, and expansion goes through the explicit
``tile`` op.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GradientError(RuntimeError):
    """Backward pass requested in an invalid state."""


class Tensor:
    """Dense float64 array with optional gradient tracking.

    ``grad`` is lazily allocated during backward and always matches the
    value's shape. Tensors are value-semantic: ops never alias operand
    storage into their outputs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional["ComputationTape"] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, delta: np.ndarray, owned: bool = False) -> None:
        """Add into grad. ``owned`` promises that no one else reads or writes
        delta afterwards, so the first accumulation can take it directly.

        A backward function owns the gradient it is called with, since the
        sweep has already dropped it from the op's output, so it may pass
        it, or a view of it, on as owned once."""
        if self.grad is None:
            self.grad = delta if owned else np.array(delta, dtype=np.float64)
        else:
            self.grad += delta

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _TapeEntry:
    __slots__ = ("output", "backward_fn")

    def __init__(self, output: Tensor, backward_fn: Callable[[np.ndarray], None]):
        self.output = output
        self.backward_fn = backward_fn


class ComputationTape:
    """Execution-ordered record of differentiable ops.

    Inputs of every entry precede it (ops append as they run), so a single
    reverse sweep is a valid reverse-mode pass. Gradients are accumulated,
    never overwritten. A tape can be replayed once; it must not be driven
    from two threads.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []
        self.consumed = False

    def record(self, output: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        output._tape = self
        self.entries.append(_TapeEntry(output, backward_fn))

    def __len__(self) -> int:
        return len(self.entries)


_grad_enabled: bool = True
_active_tape: Optional[ComputationTape] = None


@contextmanager
def no_grad():
    """Disable tape recording inside the block (eval / finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


def active_tape() -> Optional[ComputationTape]:
    return _active_tape


def reset_tape() -> None:
    """Drop the active tape; the next recorded op starts a fresh one."""
    global _active_tape
    _active_tape = None


def _recording_tape() -> ComputationTape:
    global _active_tape
    if _active_tape is None or _active_tape.consumed:
        _active_tape = ComputationTape()
    return _active_tape


def _make_result(values: np.ndarray, inputs: Sequence[Tensor],
                 backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    track = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=track)
    if track:
        _recording_tape().record(out, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Populate grads of every ``requires_grad`` ancestor of a scalar loss.

    Each tape entry drops its output and backward function as the sweep
    runs it; ``tape.entries`` keeps its length.

    Raises GradientError if the loss has no recorded history or its tape
    was already replayed (reset happens implicitly on the next forward).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        if not loss.requires_grad:
            raise GradientError("loss does not require grad; nothing to differentiate")
        # Leaf loss: gradient of x w.r.t. itself.
        loss.accumulate_grad(np.ones_like(loss.data))
        return
    if tape.consumed:
        raise GradientError("tape already replayed; run a fresh forward pass first")
    tape.consumed = True
    loss.accumulate_grad(np.ones_like(loss.data))
    for entry in reversed(tape.entries):
        output, backward_fn = entry.output, entry.backward_fn
        entry.output = entry.backward_fn = None
        out_grad, output.grad = output.grad, None
        if out_grad is not None:
            backward_fn(out_grad)


# ---------------------------------------------------------------------------
# ops


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes differ, {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g, owned=True)
        if b.requires_grad:
            b.accumulate_grad(g)  # copied, as a may hold g now; add(x, x) gives 2g

    return _make_result(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product."""
    _require_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * b_data, owned=True)
        if b.requires_grad:
            b.accumulate_grad(g * a_data, owned=True)

    return _make_result(a_data * b_data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (not differentiated w.r.t. c)."""
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * c, owned=True)

    return _make_result(a.data * c, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - out_data * out_data), owned=True)

    return _make_result(out_data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * out_data * (1.0 - out_data), owned=True)

    return _make_result(out_data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * mask, owned=True)

    return _make_result(np.where(mask, a.data, 0.0), (a,), bwd)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product, plus an optional length-N ``bias`` on every output row.

    Supported forms: 2-D x 2-D; stacked N-D x N-D with identical leading
    dims; and N-D x 2-D where the right operand (a weight matrix) is shared
    across all leading dims. Inner dims must agree. The bias is added in
    place to the product, so an affine map is one tape entry; its gradient
    sums over every leading axis.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")
    shared_rhs = bd.ndim == 2 and ad.ndim > 2
    if not shared_rhs and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: leading dimensions disagree, {a.shape} vs {b.shape}")
    if bias is not None and bias.shape != (bd.shape[-1],):
        raise ShapeError(f"matmul: bias must have shape ({bd.shape[-1]},), got {bias.shape} "
                         f"against {a.shape} @ {b.shape}")

    def bwd(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, g.shape[-1]).sum(axis=0), owned=True)
        if a.requires_grad:
            a.accumulate_grad(g @ np.swapaxes(bd, -1, -2), owned=True)
        if b.requires_grad:
            if shared_rhs:  # one product over every leading row
                rows = ad.reshape(-1, ad.shape[-1])
                b.accumulate_grad(rows.T @ g.reshape(-1, g.shape[-1]), owned=True)
            else:
                b.accumulate_grad(np.swapaxes(ad, -1, -2) @ g, owned=True)

    out = ad @ bd
    if bias is not None:
        out += bias.data
    return _make_result(out, (a, b) if bias is None else (a, b, bias), bwd)


def concat_last_dim(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading dims must match exactly."""
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(
            f"concat_last_dim: leading dimensions disagree, {a.shape} vs {b.shape}")
    split = a.shape[-1]

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g[..., :split])
        if b.requires_grad:
            b.accumulate_grad(g[..., split:])

    return _make_result(np.concatenate([a.data, b.data], axis=-1), (a, b), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old_shape = a.shape

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(old_shape), owned=True)

    return _make_result(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.transpose(g, inverse))

    return _make_result(np.ascontiguousarray(np.transpose(a.data, axes)), (a,), bwd)


def tile(a: Tensor, n: int, axis: int = 0) -> Tensor:
    """Insert a new axis of length n at ``axis`` by repetition.

    The explicit stand-in for broadcasting; backward sums over the new axis.
    """
    if n < 1:
        raise ShapeError(f"tile: repetition count must be positive, got {n}")
    expanded = np.expand_dims(a.data, axis)
    out_data = np.repeat(expanded, n, axis=axis)
    pos = axis if axis >= 0 else out_data.ndim + axis

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g.sum(axis=pos), owned=True)

    return _make_result(out_data, (a,), bwd)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g.reshape(())), owned=True)

    return _make_result(np.asarray(a.data.sum()), (a,), bwd)


def softmax_last_dim(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            inner = (g * out_data).sum(axis=-1, keepdims=True)
            a.accumulate_grad((g - inner) * out_data, owned=True)

    return _make_result(out_data, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean / unit-variance normalization over the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    # the steps np.var takes, so the variance is bit-identical to it
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out_data = x_hat * gain.data + bias.data

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * x_hat).reshape(-1, d).sum(axis=0), owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0), owned=True)
        if x.requires_grad:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - x_hat * (dxhat * x_hat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(term * inv_std, owned=True)

    return _make_result(out_data, (x, gain, bias), bwd)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a (V x D) table by integer ids of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding_lookup: id out of range for table with {table.shape[0]} rows")

    def bwd(g):
        if table.requires_grad:
            delta = np.zeros_like(table.data)
            np.add.at(delta, ids.reshape(-1), g.reshape(-1, table.shape[1]))
            table.accumulate_grad(delta, owned=True)

    return _make_result(table.data[ids], (table,), bwd)


def softmax_cross_entropy(logits: Tensor, targets, ignore_index: Optional[int] = None) -> Tensor:
    """Mean negative log-likelihood over non-ignored positions.

    ``logits`` is (N x V), ``targets`` a length-N index vector. Stabilized
    by max-subtraction; raises on out-of-range non-ignored targets.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    n, v = logits.shape
    if targets.shape != (n,):
        raise ShapeError(
            f"softmax_cross_entropy: targets must have shape ({n},), got {targets.shape}")
    valid = np.ones(n, dtype=bool) if ignore_index is None else targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("softmax_cross_entropy: every target is ignored")
    checked = targets[valid]
    if checked.min() < 0 or checked.max() >= v:
        raise ValueError(
            f"softmax_cross_entropy: target out of range [0, {v})")

    log_probs = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    safe_targets = np.where(valid, targets, 0)
    nll = -log_probs[np.arange(n), safe_targets]
    loss = nll[valid].sum() / n_valid

    def bwd(g):
        if logits.requires_grad:
            # the tape runs this once, so log_probs can become the gradient
            probs = np.exp(log_probs, out=log_probs)
            probs[np.arange(n), safe_targets] -= 1.0
            probs[~valid] = 0.0
            probs *= float(g.reshape(())) / n_valid
            logits.accumulate_grad(probs, owned=True)

    return _make_result(np.asarray(loss), (logits,), bwd)


def parameter(values, rng: Optional[np.random.Generator] = None,
              init_scale: Optional[float] = None) -> Tensor:
    """Create a trainable leaf tensor.

    With ``rng`` set, ``values`` is taken as a shape and filled uniformly
    from [-init_scale, init_scale].
    """
    if rng is not None:
        shape = tuple(values)
        if init_scale is None:
            fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
            init_scale = float(np.sqrt(1.0 / fan_in))
        data = rng.uniform(-init_scale, init_scale, size=shape)
        return Tensor(data, requires_grad=True)
    return Tensor(values, requires_grad=True)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()
