import numpy as np
import pytest

import capfuse.autograd as ag
from capfuse.autograd import Tensor, backward
from capfuse.fusion import GatedFusionLayer, ImageFeature, zero_feature
from capfuse.model import EncoderDecoderModel, ModelConfig

from helpers import finite_difference, rel_error, straight_line_fusion


def _layer(seed=0, d_img=5, d_model=4, gate_kind="tanh"):
    return GatedFusionLayer.create(d_img, d_model,
                                   np.random.default_rng(seed), gate_kind=gate_kind)


def test_image_feature_validation():
    with pytest.raises(ValueError, match="1-D"):
        ImageFeature(vector=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        ImageFeature(vector=[1.0, np.inf])


def test_project_zero_feature_with_zero_bias_gives_zeros():
    layer = _layer()
    out = layer.project_image_batch(zero_feature(5).vector[None, :], length=3)
    np.testing.assert_array_equal(out.data, np.zeros((1, 3, 4)))


def test_project_tiling_contract():
    layer = _layer(seed=1)
    feats = np.arange(5, dtype=float)[None, :]
    one = layer.project_image_batch(feats, length=1)
    three = layer.project_image_batch(feats, length=3)
    np.testing.assert_array_equal(one.data[0, 0], three.data[0, 0])
    assert three.shape == (1, 3, 4)


def test_project_matches_matrix_vector_oracle():
    layer = _layer(seed=2)
    rng = np.random.default_rng(3)
    vector = rng.normal(size=5)
    out = layer.project_image_batch(vector[None, :], length=4)
    expected = vector @ layer.params["proj_w"].data + layer.params["proj_b"].data
    for row in out.data[0]:
        np.testing.assert_allclose(row, expected, atol=1e-12)


def test_project_dimension_mismatch():
    layer = _layer()
    with pytest.raises(ValueError, match="dimension 7 .* d_img 5"):
        layer.project_image_batch(np.zeros((1, 7)), length=2)


def test_fuse_shape_mismatch():
    layer = _layer()
    with pytest.raises(ValueError, match="differ"):
        layer.fuse(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))


def test_residual_identity_with_zeroed_gate_map():
    layer = _layer(seed=4)
    layer.zero_gate()
    rng = np.random.default_rng(5)
    for _ in range(100):
        h_text = rng.normal(size=(3, 4))
        h_image = rng.normal(size=(3, 4))
        out = layer.fuse(Tensor(h_text), Tensor(h_image))
        np.testing.assert_array_equal(out.data, h_text)


def test_gate_values_strictly_inside_unit_interval():
    # mathematically |gate| < 1 for any finite input; float64 rounds tanh to
    # exactly 1.0 beyond |x| ~ 19, so probe with pre-saturation magnitudes
    layer = _layer(seed=6)
    rng = np.random.default_rng(7)
    h_text = Tensor(rng.normal(size=(3, 4)) * 4)
    h_image = Tensor(rng.normal(size=(3, 4)) * 4)
    joint = ag.concat_last_dim(h_text, h_image)
    fused = ag.add(ag.matmul(joint, layer.params["fuse_w"]),
                   ag.tile(layer.params["fuse_b"], 3, axis=0))
    gate = ag.tanh(ag.add(ag.matmul(ag.concat_last_dim(h_text, fused),
                                    layer.params["gate_w"]),
                          ag.tile(layer.params["gate_b"], 3, axis=0)))
    assert np.all(np.abs(gate.data) < 1.0)


def test_fuse_preserves_shape():
    layer = _layer(seed=8)
    rng = np.random.default_rng(9)
    out = layer.fuse(Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 4))))
    assert out.shape == (6, 4)


def test_fuse_matches_straight_line_oracle_100_draws():
    rng = np.random.default_rng(10)
    for trial in range(100):
        layer = _layer(seed=100 + trial)
        h_text = rng.normal(size=(3, 4))
        h_image = rng.normal(size=(3, 4))
        out = layer.fuse(Tensor(h_text), Tensor(h_image))
        expected = straight_line_fusion(
            h_text, h_image,
            layer.params["fuse_w"].data, layer.params["fuse_b"].data,
            layer.params["gate_w"].data, layer.params["gate_b"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)


def test_fuse_parameter_gradients_match_finite_differences():
    layer = _layer(seed=11)
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(1, 5))
    h_text = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)

    def loss():
        h_image = layer.project_image_batch(feats, length=3)
        return ag.tensor_sum(ag.tanh(layer.fuse(h_text, h_image)))

    ag.reset_tape()
    backward(loss())
    for name, p in {**layer.params, "h_text": h_text}.items():
        fd = finite_difference(lambda: loss().item(), p, step=1e-5)
        assert rel_error(p.grad, fd) < 1e-5, name


def test_absent_image_equals_explicit_zero_feature():
    model = EncoderDecoderModel(ModelConfig(vocab_size=12, d_model=4, n_heads=2,
                                            n_enc_layers=1, n_dec_layers=1, ffn_dim=8,
                                            max_len=8, seed=13))
    model.attach_fusion(_layer(seed=13))
    src = np.random.default_rng(14).integers(5, 12, size=(2, 5))
    with ag.no_grad():
        absent = model.encode_batch(src, None)
        explicit = model.encode_batch(src, np.zeros((2, 5)))
    np.testing.assert_array_equal(absent.data, explicit.data)


def test_zero_image_does_not_force_identity():
    # gate is driven by text too, so a zero image alone does not zero the gate
    layer = _layer(seed=15)
    rng = np.random.default_rng(16)
    h_text = rng.normal(size=(3, 4))
    out = layer.fuse(Tensor(h_text), Tensor(np.zeros((3, 4))))
    assert np.abs(out.data - h_text).max() > 1e-6


def test_gradients_flow_to_both_maps_with_zero_image():
    layer = _layer(seed=17)
    rng = np.random.default_rng(18)
    h_text = Tensor(rng.normal(size=(3, 4)))
    backward(ag.tensor_sum(layer.fuse(h_text, Tensor(np.zeros((3, 4))))))
    assert np.abs(layer.params["gate_w"].grad).max() > 0
    assert np.abs(layer.params["fuse_w"].grad).max() > 0


def test_sigmoid_gate_swap_changes_values_keeps_shape_and_bounds():
    rng = np.random.default_rng(19)
    h_text = rng.normal(size=(4, 4))
    h_image = rng.normal(size=(4, 4))
    tanh_layer = _layer(seed=20, gate_kind="tanh")
    sigmoid_layer = _layer(seed=20, gate_kind="sigmoid")
    out_tanh = tanh_layer.fuse(Tensor(h_text), Tensor(h_image))
    out_sigmoid = sigmoid_layer.fuse(Tensor(h_text), Tensor(h_image))
    assert out_tanh.shape == out_sigmoid.shape == (4, 4)
    assert np.abs(out_tanh.data - out_sigmoid.data).max() > 1e-9
    expected = straight_line_fusion(
        h_text, h_image,
        sigmoid_layer.params["fuse_w"].data, sigmoid_layer.params["fuse_b"].data,
        sigmoid_layer.params["gate_w"].data, sigmoid_layer.params["gate_b"].data,
        gate_kind="sigmoid")
    np.testing.assert_allclose(out_sigmoid.data, expected, atol=1e-12)


def test_unknown_gate_kind_rejected():
    with pytest.raises(ValueError, match="gate_kind"):
        GatedFusionLayer(d_img=3, d_model=4, gate_kind="step")


def test_batched_fuse_agrees_with_per_sample(tmp_path):
    layer = _layer(seed=21)
    rng = np.random.default_rng(22)
    feats = rng.normal(size=(3, 5))
    h_text = rng.normal(size=(3, 6, 4))
    h_image_batch = layer.project_image_batch(feats, length=6)
    out_batch = layer.fuse(Tensor(h_text), h_image_batch)
    params = {name: p.data for name, p in layer.params.items()}
    for b in range(3):
        row = feats[b] @ params["proj_w"] + params["proj_b"]
        np.testing.assert_allclose(h_image_batch.data[b], np.tile(row, (6, 1)), atol=1e-12)
        out_single = straight_line_fusion(
            h_text[b], np.tile(row, (6, 1)), params["fuse_w"], params["fuse_b"],
            params["gate_w"], params["gate_b"])
        np.testing.assert_allclose(out_batch.data[b], out_single, atol=1e-12)
