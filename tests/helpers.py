"""Independent oracles shared across test modules.

These deliberately avoid the code paths they check: finite differences
only use forward evaluation, the edit-distance oracles are a plain memoized
recursion and a DP over (total, deletions + insertions) tuples, the
fusion oracle is straight-line numpy, and the attention oracle is the
14-entry op chain that ``attention`` replaced.
"""

from functools import lru_cache
from typing import Sequence

import numpy as np

from capfuse import autograd as ag
from capfuse import no_grad
from capfuse.autograd import Tensor, _make_result
from capfuse.text import normalize_text


def finite_difference(loss_fn, tensor, step=1e-5):
    """Central differences of a scalar-valued loss_fn w.r.t. one tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    flat_grad = grad.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss_fn()
            flat[i] = keep - step
            down = loss_fn()
            flat[i] = keep
            flat_grad[i] = (up - down) / (2.0 * step)
    return grad


def rel_error(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def brute_force_edit_distance(hyp_words, ref_words):
    """Memoized-recursion total edit distance (word level)."""
    hyp_words = tuple(hyp_words)
    ref_words = tuple(ref_words)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(hyp_words):
            return len(ref_words) - j
        if j == len(ref_words):
            return len(hyp_words) - i
        if hyp_words[i] == ref_words[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def tuple_word_edit_distance(hyp, ref):
    """(S, D, I) from a DP whose cells are (total edits, deletions + insertions)
    tuples compared lexicographically: the alignment rule of
    ``word_edit_distance``, without its integer encoding."""
    h = normalize_text(hyp).split()
    r = normalize_text(ref).split()
    nh, nr = len(h), len(r)
    dp = [(j, j) for j in range(nr + 1)]
    for i in range(1, nh + 1):
        prev_diag = dp[0]
        dp[0] = (i, i)
        for j in range(1, nr + 1):
            if h[i - 1] == r[j - 1]:
                best = prev_diag
            else:
                sub = (prev_diag[0] + 1, prev_diag[1])
                ins = (dp[j][0] + 1, dp[j][1] + 1)        # extra hyp word
                dele = (dp[j - 1][0] + 1, dp[j - 1][1] + 1)  # missing ref word
                best = min(sub, ins, dele)
            prev_diag = dp[j]
            dp[j] = best
    total, di = dp[nr]
    deletions = (di + (nr - nh)) // 2
    return total - di, deletions, di - deletions


def straight_line_fusion(h_text, h_image, fuse_w, fuse_b, gate_w, gate_b,
                         gate_kind="tanh"):
    """Direct numpy evaluation of concat -> fuse -> gate -> residual add."""
    joint = np.concatenate([h_text, h_image], axis=-1)
    fused = joint @ fuse_w + fuse_b
    pre_gate = np.concatenate([h_text, fused], axis=-1) @ gate_w + gate_b
    if gate_kind == "tanh":
        gate = np.tanh(pre_gate)
    else:
        gate = 1.0 / (1.0 + np.exp(-pre_gate))
    return h_text + gate * fused


def all_derangements(n):
    """Brute-force enumeration of derangements of range(n)."""
    from itertools import permutations
    return [p for p in permutations(range(n)) if all(p[i] != i for i in range(n))]


# The two ops the attention chain took, as the autograd core defined them.

def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.transpose(g, inverse))

    return _make_result(np.ascontiguousarray(np.transpose(a.data, axes)), (a,), bwd)


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


def attention_chain(q, k, v, mask, n_heads):
    """Multi-head attention as 14 tape entries: split heads, transpose the
    keys, scaled product, mask, softmax, product with the values, merge."""
    def split(x):
        b, length, d = x.shape
        return transpose(ag.reshape(x, (b, length, n_heads, d // n_heads)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    dk = q.shape[2] // n_heads
    scores = ag.scale(ag.matmul(qh, transpose(kh, (0, 1, 3, 2))), dk ** -0.5)
    scores = ag.add(scores, Tensor(np.broadcast_to(mask, scores.shape)))
    context = ag.matmul(softmax_last_dim(scores), vh)
    b, h, length, dk = context.shape
    return ag.reshape(transpose(context, (0, 2, 1, 3)), (b, length, h * dk))
