"""Gated fusion of image features into text encodings.

The image vector is projected to model width and tiled across the text
length; the fused representation is an affine map of [text ; image], a
bounded gate is computed from [text ; fused], and the gated fused signal
is added residually onto the text encoding. With the gate map zeroed the
layer is exactly the identity on the text side, which is also the
intended resting state when no image is available (the zero feature).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import autograd as ag
from .autograd import Tensor

GATE_KINDS = ("tanh", "sigmoid")


@dataclass
class ImageFeature:
    """A single precomputed image embedding, keyed by source id."""

    vector: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise ValueError(f"image feature must be 1-D, got shape {self.vector.shape}")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError(f"image feature {self.source_id!r} has non-finite values")


def zero_feature(dim: int, source_id: str = "") -> ImageFeature:
    """The absent-image stand-in."""
    return ImageFeature(vector=np.zeros(dim), source_id=source_id)


@dataclass
class GatedFusionLayer:
    """Learnable projection + fusion + gate parameters.

    P (d_img x d) with bias projects the image vector; W_g (2d x d) with
    bias produces the fused representation from the concatenation; W_f
    (2d x d) with bias feeds the bounded gate. ``gate_kind`` switches the
    gate nonlinearity between tanh (default) and sigmoid for ablations.
    """

    d_img: int
    d_model: int
    gate_kind: str = "tanh"
    params: Dict[str, Tensor] = field(default_factory=dict)

    def __post_init__(self):
        if self.gate_kind not in GATE_KINDS:
            raise ValueError(f"gate_kind must be one of {GATE_KINDS}, got {self.gate_kind!r}")

    @classmethod
    def create(cls, d_img: int, d_model: int, rng: np.random.Generator,
               gate_kind: str = "tanh") -> "GatedFusionLayer":
        layer = cls(d_img=d_img, d_model=d_model, gate_kind=gate_kind)
        layer.params = {
            "proj_w": ag.parameter((d_img, d_model), rng),
            "proj_b": ag.parameter(np.zeros(d_model)),
            "fuse_w": ag.parameter((2 * d_model, d_model), rng),
            "fuse_b": ag.parameter(np.zeros(d_model)),
            "gate_w": ag.parameter((2 * d_model, d_model), rng),
            "gate_b": ag.parameter(np.zeros(d_model)),
        }
        return layer

    def named_params(self, prefix: str = "fusion.") -> Dict[str, Tensor]:
        return {prefix + name: p for name, p in self.params.items()}

    def _gate(self, x: Tensor) -> Tensor:
        return ag.tanh(x) if self.gate_kind == "tanh" else ag.sigmoid(x)

    def project_image_batch(self, feats: np.ndarray, length: int) -> Tensor:
        """Project (B x d_img) features to model width and tile them to (B x L x d)."""
        if feats.shape[-1] != self.d_img:
            raise ValueError(f"image feature dimension {feats.shape[-1]} does not match "
                             f"layer d_img {self.d_img}")
        projected = ag.matmul(Tensor(feats), self.params["proj_w"], self.params["proj_b"])
        return ag.tile(projected, length, axis=1)

    def fuse(self, h_text: Tensor, h_image: Tensor) -> Tensor:
        """Apply the full fusion: concat, fuse map, bounded gate, residual add."""
        if h_text.shape != h_image.shape:
            raise ValueError(
                f"fuse: text and image encodings differ, {h_text.shape} vs {h_image.shape}")
        joint = ag.concat_last_dim(h_text, h_image)
        fused = ag.matmul(joint, self.params["fuse_w"], self.params["fuse_b"])
        gate_in = ag.concat_last_dim(h_text, fused)
        gate = self._gate(ag.matmul(gate_in, self.params["gate_w"], self.params["gate_b"]))
        return ag.add(h_text, ag.mul(gate, fused))

    def zero_gate(self) -> None:
        """Zero the gate map; fuse() then returns the text encoding exactly."""
        self.params["gate_w"].data[:] = 0.0
        self.params["gate_b"].data[:] = 0.0
