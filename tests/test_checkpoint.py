import struct

import numpy as np
import pytest

from capfuse.checkpoint import (CheckpointError, average_checkpoints,
                                load_checkpoint, save_checkpoint)


def _random_state(rng):
    return {
        "layer.w": rng.normal(size=(3, 4)),
        "layer.b": rng.normal(size=4),
        "scalar": np.asarray(rng.normal()),
    }


def test_roundtrip_preserves_names_shapes_values(tmp_path):
    state = _random_state(np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(state)
    for name in state:
        np.testing.assert_array_equal(loaded[name], state[name])
        assert loaded[name].dtype == np.float64


def test_zero_dim_entry_roundtrips_with_its_shape(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.array([[1.5], [-2.0]]), "s": np.float64(3.0)})
    loaded = load_checkpoint(path)
    assert loaded["s"].shape == () and loaded["s"] == 3.0
    assert loaded["w"].shape == (2, 1)
    # the layout is the module docstring's: a 0-D entry has ndim 0 and no dims
    expected = (b"CFCK" + struct.pack("<II", 1, 2)
                + struct.pack("<I", 1) + b"w" + struct.pack("<III", 2, 2, 1)
                + struct.pack("<2d", 1.5, -2.0)
                + struct.pack("<I", 1) + b"s" + struct.pack("<I", 0)
                + struct.pack("<d", 3.0))
    assert path.read_bytes() == expected


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_average_of_identical_checkpoints_is_identity(tmp_path):
    # N=5 would expose a sum-then-divide implementation: 3x already rounds
    state = _random_state(np.random.default_rng(1))
    paths = []
    for i in range(5):
        p = tmp_path / f"step-{i}.ckpt"
        save_checkpoint(p, state)
        paths.append(p)
    avg = average_checkpoints(paths)
    for name in state:
        np.testing.assert_array_equal(avg[name], state[name])


def test_average_of_theta_and_minus_theta_is_zero(tmp_path):
    state = _random_state(np.random.default_rng(2))
    negated = {k: -v for k, v in state.items()}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, state)
    save_checkpoint(p2, negated)
    avg = average_checkpoints([p1, p2])
    for name in state:
        np.testing.assert_array_equal(avg[name], np.zeros_like(state[name]))


def test_average_matches_elementwise_mean_oracle(tmp_path):
    rng = np.random.default_rng(3)
    states = [_random_state(rng) for _ in range(3)]
    paths = []
    for i, state in enumerate(states):
        p = tmp_path / f"c{i}.ckpt"
        save_checkpoint(p, state)
        paths.append(p)
    avg = average_checkpoints(paths)
    for name in states[0]:
        expected = (states[0][name] + states[1][name] + states[2][name]) / 3.0
        # running mean vs sum-then-divide agree to a few ulps
        np.testing.assert_allclose(avg[name], expected, rtol=1e-14, atol=1e-16)


def test_average_rejects_name_mismatch(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, {"w": np.zeros(2)})
    save_checkpoint(p2, {"v": np.zeros(2)})
    with pytest.raises(CheckpointError, match="names differ"):
        average_checkpoints([p1, p2])


def test_average_rejects_shape_mismatch(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, {"w": np.zeros(2)})
    save_checkpoint(p2, {"w": np.zeros(3)})
    with pytest.raises(CheckpointError, match="shape"):
        average_checkpoints([p1, p2])
