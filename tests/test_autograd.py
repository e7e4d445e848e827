import numpy as np
import pytest

import capfuse.autograd as ag
from capfuse.autograd import GradientError, ShapeError, Tensor, backward

from helpers import finite_difference, rel_error


def fd_check(build_loss, tensors, step=1e-5, tol=1e-6):
    """Autograd grads vs central differences for every tensor."""
    ag.reset_tape()
    loss = build_loss()
    backward(loss)
    for t in tensors:
        fd = finite_difference(lambda: build_loss().item(), t, step=step)
        assert rel_error(t.grad, fd) < tol, f"gradient mismatch for shape {t.shape}"
        t.zero_grad()
    ag.reset_tape()


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ag.matmul(Tensor(np.eye(2)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_projector_row_select():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ag.matmul(p, m)
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError, match=r"bias.*\(2,\), got \(3,\).*\(4, 3\).*\(3, 2\)"):
        ag.matmul(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    fd_check(lambda: ag.tensor_sum(ag.tanh(ag.matmul(a, b))), [a, b])


def test_matmul_batched_and_shared_rhs_gradients():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    fd_check(lambda: ag.tensor_sum(ag.tanh(ag.matmul(ag.matmul(a, b), w))), [a, b, w])
    bias = Tensor(rng.normal(size=2), requires_grad=True)
    fd_check(lambda: ag.tensor_sum(ag.tanh(ag.matmul(ag.matmul(a, b), w, bias))),
             [a, b, w, bias])
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    fd_check(lambda: ag.tensor_sum(ag.tanh(ag.matmul(x, v, bias))), [x, v, bias])
    np.testing.assert_array_equal(ag.matmul(x, v, bias).data, x.data @ v.data + bias.data)


def test_tanh_at_zero():
    out = ag.tanh(Tensor(np.zeros((2, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_add_example():
    out = ag.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        ag.add(Tensor([1.0]), Tensor([1.0, 2.0]))


@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "relu"])
def test_unary_elementwise_gradients(kind):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3)) + 0.1, requires_grad=True)
    fd_check(lambda: ag.tensor_sum(getattr(ag, kind)(x)), [x])


def test_mul_gradients():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    fd_check(lambda: ag.tensor_sum(ag.mul(a, b)), [a, b])


def test_concat_last_dim_values():
    a = Tensor([[1.0], [2.0]])
    b = Tensor([[3.0], [4.0]])
    out = ag.concat_last_dim(a, b)
    np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_with_zeros_keeps_left_block():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 3))
    out = ag.concat_last_dim(Tensor(a), Tensor(np.zeros((4, 2))))
    np.testing.assert_array_equal(out.data[:, :3], a)


def test_concat_leading_dim_mismatch():
    with pytest.raises(ShapeError, match="leading"):
        ag.concat_last_dim(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))


def test_concat_gradient_split():
    rng = np.random.default_rng(14)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    fd_check(lambda: ag.tensor_sum(ag.tanh(ag.matmul(ag.concat_last_dim(a, b), w))),
             [a, b, w])


def test_cross_entropy_near_certain():
    loss = ag.softmax_cross_entropy(Tensor([[10.0, -10.0]]), [0])
    assert loss.item() < 1e-4


def test_cross_entropy_uniform_logits():
    loss = ag.softmax_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 3])
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_out_of_range_target():
    with pytest.raises(ValueError, match="range"):
        ag.softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])


def test_cross_entropy_ignore_index_and_gradients():
    rng = np.random.default_rng(15)
    logits = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    targets = [2, 0, 6, 0, 3]
    fd_check(lambda: ag.softmax_cross_entropy(logits, targets, ignore_index=0),
             [logits], tol=1e-5)


def test_layer_norm_constant_row_is_zero():
    out = ag.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]),
                        Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, np.zeros((1, 4)))


def test_layer_norm_standardized_row_unchanged():
    row = np.array([[-1.5, -0.5, 0.5, 1.5]])
    row = (row - row.mean()) / row.std()
    out = ag.layer_norm(Tensor(row), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, row, atol=1e-4)


def test_layer_norm_rejects_mismatched_affine_params():
    with pytest.raises(ShapeError, match="gain/bias"):
        ag.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                      Tensor(np.zeros(4)))


def test_layer_norm_gradients():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    g = Tensor(rng.normal(size=5), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    fd_check(lambda: ag.tensor_sum(ag.tanh(ag.layer_norm(x, g, b))), [x, g, b])


def test_softmax_tile_transpose_reshape_gradients():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=4), requires_grad=True)

    def loss():
        tiled = ag.tile(v, 3, axis=0)           # (3, 4)
        tiled = ag.tile(tiled, 2, axis=0)       # (2, 3, 4)
        mixed = ag.mul(ag.softmax_last_dim(x), tiled)
        swapped = ag.transpose(mixed, (1, 0, 2))
        return ag.tensor_sum(ag.tanh(ag.reshape(swapped, (6, 4))))

    fd_check(loss, [x, v])


def test_embedding_lookup_gradients_scatter():
    table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    ids = np.array([[1, 1], [3, 0]])
    out = ag.embedding_lookup(table, ids)
    backward(ag.tensor_sum(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    expected[0] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    backward(ag.tensor_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_at_three():
    x = Tensor([3.0], requires_grad=True)
    backward(ag.tensor_sum(ag.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [6.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ag.scale(x, 2.0)
    with pytest.raises(ShapeError, match="scalar"):
        backward(y)


def test_double_backward_without_reset_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = ag.tensor_sum(ag.tanh(x))
    backward(loss)
    with pytest.raises(GradientError, match="already replayed"):
        backward(loss)


def test_diamond_graph_accumulates_both_contributions():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def loss():
        left = ag.tanh(x)
        right = ag.sigmoid(x)
        return ag.tensor_sum(ag.add(ag.mul(left, right), ag.mul(x, x)))

    fd_check(loss, [x])


def test_gradient_accumulation_adds_not_overwrites():
    x = Tensor([2.0], requires_grad=True)
    loss = ag.tensor_sum(ag.add(x, x))
    backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0])


def test_tape_topological_order_and_reuse():
    ag.reset_tape()
    x = Tensor([1.0], requires_grad=True)
    y = ag.tanh(x)
    z = ag.mul(y, y)
    tape = ag.active_tape()
    assert [e.output for e in tape.entries] == [y, z]
    backward(ag.tensor_sum(z))
    assert tape.consumed
    # next op starts a fresh tape automatically
    w = ag.tanh(x)
    assert ag.active_tape() is not tape
    assert w.requires_grad


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with ag.no_grad():
        y = ag.tanh(x)
    assert not y.requires_grad
    assert y._tape is None


def test_determinism_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(99)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        loss = ag.tensor_sum(ag.sigmoid(ag.matmul(a, b)))
        backward(loss)
        return loss.item(), a.grad.copy(), b.grad.copy()

    first, second = run(), run()
    assert first[0] == second[0]
    np.testing.assert_array_equal(first[1], second[1])
    np.testing.assert_array_equal(first[2], second[2])


def test_deep_composition_gradient_within_loose_tolerance():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def loss():
        h = x
        for _ in range(6):
            h = ag.tanh(ag.matmul(h, x))
        return ag.tensor_sum(h)

    ag.reset_tape()
    out = loss()
    backward(out)
    fd = finite_difference(lambda: loss().item(), x, step=1e-5)
    assert rel_error(x.grad, fd) < 1e-4
