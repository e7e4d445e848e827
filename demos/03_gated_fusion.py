#!/usr/bin/env python3
"""The gated fusion layer: projection, bounded gate, residual identity."""

import numpy as np

from capfuse.autograd import Tensor
from capfuse.fusion import GatedFusionLayer, ImageFeature, zero_feature

rng = np.random.default_rng(1)
layer = GatedFusionLayer.create(d_img=8, d_model=4, rng=rng)

# project a batch of one image vector to model width and tile it across the
# text length
feat = ImageFeature(vector=rng.normal(size=8), source_id="frame-042")
h_image = layer.project_image_batch(feat.vector[None, :], length=3)
print("projected image rows are identical:",
      bool(np.all(h_image.data[0, 0] == h_image.data[0, 1])))

# fuse with a text encoding: output keeps the text shape
h_text = Tensor(rng.normal(size=(1, 3, 4)))
fused = layer.fuse(h_text, h_image)
print("fused shape:", fused.shape)
print("max |fused - text|:", float(np.abs(fused.data - h_text.data).max()))

# absent images fuse against the zero encoding; with the fresh zero bias,
# projecting the zero feature lands on the same thing
absent = layer.fuse(h_text, Tensor(np.zeros(h_text.shape)))
same = layer.fuse(h_text, layer.project_image_batch(zero_feature(8).vector[None, :], 3))
print("absent-image convention matches zero feature (fresh layer):",
      bool(np.all(absent.data == same.data)))

# zeroing the gate map collapses the layer to the identity, exactly
layer.zero_gate()
identity = layer.fuse(h_text, h_image)
print("zero gate map -> residual identity:",
      bool(np.all(identity.data == h_text.data)))

# sigmoid ablation: same shapes and bounds, different values
sig = GatedFusionLayer.create(8, 4, np.random.default_rng(1), gate_kind="sigmoid")
print("sigmoid-gated output shape:", sig.fuse(h_text, h_image).shape)
