"""Write ``train_golden.json``: the per-step losses and a digest of the final
parameters after 20 seeded Adam steps of two small models.

The fixture pins training bit for bit, so that a change to how the
autograd tape, the ops or the optimizer compute can be checked against
the values they produced before. One model has V=56 and a gated fusion
layer, with dropout on; the other has V=2,000, so that cross entropy and
Adam run over a wide output. Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_train_golden.py

Regenerate it only when a change of the training arithmetic is intended,
never to absorb a drift in its outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from capfuse.fusion import GatedFusionLayer, ImageFeature
from capfuse.model import EncoderDecoderModel, ModelConfig
from capfuse.text import BOS_ID, EOS_ID, TokenSequence
from capfuse.training import TrainingRecipe, run_training

OUT = Path(__file__).with_name("train_golden.json")
N_EXAMPLES = 48
# (model config, image width or 0 for no fusion layer, recipe)
SETTINGS = [
    (dict(vocab_size=56, d_model=32, n_heads=4, n_enc_layers=2, n_dec_layers=2,
          ffn_dim=64, max_len=24, dropout=0.1, seed=560), 8,
     dict(steps=20, batch_size=8, lr=2e-3, seed=561)),
    (dict(vocab_size=2000, d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1,
          ffn_dim=32, max_len=24, seed=2000), 0,
     dict(steps=20, batch_size=8, lr=1e-3, seed=2001)),
]


def build_model(config: dict, d_img: int) -> EncoderDecoderModel:
    model = EncoderDecoderModel(ModelConfig(**config))
    if d_img:
        layer_rng = np.random.default_rng(config["seed"] + 1)
        model.attach_fusion(GatedFusionLayer.create(d_img, config["d_model"], layer_rng))
    return model


def examples(vocab_size: int, d_img: int, seed: int):
    """Seeded (src, tgt[, image]) pairs; every third example has no image."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(N_EXAMPLES):
        tgt = rng.integers(5, vocab_size, size=int(rng.integers(2, 12))).tolist()
        src = [t if rng.random() > 0.2 else int(rng.integers(5, vocab_size)) for t in tgt]
        pair = (TokenSequence.of([BOS_ID] + src + [EOS_ID]),
                TokenSequence.of([BOS_ID] + tgt + [EOS_ID]))
        if d_img:
            image = None if i % 3 == 0 else ImageFeature(rng.standard_normal(d_img))
            pair = pair + (image,)
        out.append(pair)
    return out


def params_digest(model: EncoderDecoderModel) -> str:
    h = hashlib.sha256()
    for name, p in model.named_params().items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()


def train(config: dict, d_img: int, recipe: dict):
    model = build_model(config, d_img)
    losses = run_training(model, examples(config["vocab_size"], d_img, config["seed"]),
                          TrainingRecipe(**recipe))
    return [float(loss).hex() for loss in losses], params_digest(model)


def main() -> None:
    settings = []
    for config, d_img, recipe in SETTINGS:
        losses, digest = train(config, d_img, recipe)
        settings.append({"config": config, "d_img": d_img, "recipe": recipe,
                         "losses": losses, "params_sha256": digest})
    OUT.write_text(json.dumps({"settings": settings}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
