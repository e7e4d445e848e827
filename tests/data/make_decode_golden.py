"""Write ``decode_golden.json``: token ids that ``generate`` returns at beam 1
and beam 4 for seeded untrained models and seeded source sequences.

The fixture pins the decoder's output so that a change to how beam search
is computed can be checked against the outputs it had before. Run from the
repository root:

    PYTHONPATH=src python3 tests/data/make_decode_golden.py

Regenerate it only when a change of the search's definition is intended,
never to absorb a drift in its outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from capfuse.model import DecodeConfig, EncoderDecoderModel, ModelConfig, generate
from capfuse.text import BOS_ID, EOS_ID, TokenSequence

OUT = Path(__file__).with_name("decode_golden.json")
N_SOURCES = 20
BEAMS = (1, 4)
# (model config, max_decode_len, EOS output bias); V=20,008 is the size of the
# benchmark's synthetic vocabulary. An untrained model never ends a sentence,
# so one setting raises the EOS logit until hypotheses finish at mixed lengths.
SETTINGS = [
    (dict(vocab_size=56, d_model=32, n_heads=4, n_enc_layers=2, n_dec_layers=2,
          ffn_dim=64, max_len=32, seed=56), 12, 0.0),
    (dict(vocab_size=56, d_model=32, n_heads=4, n_enc_layers=2, n_dec_layers=2,
          ffn_dim=64, max_len=32, seed=57), 12, 0.2),
    (dict(vocab_size=20008, d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1,
          ffn_dim=32, max_len=48, seed=20008), 10, 0.0),
]


def build_model(config: dict, eos_bias: float) -> EncoderDecoderModel:
    model = EncoderDecoderModel(ModelConfig(**config))
    model.params["out.b"].data[EOS_ID] = eos_bias
    return model


def sources(vocab_size: int, seed: int):
    rng = np.random.default_rng(seed)
    return [[BOS_ID] + rng.integers(5, vocab_size, size=int(rng.integers(1, 11))).tolist()
            + [EOS_ID] for _ in range(N_SOURCES)]


def main() -> None:
    settings = []
    for config, max_decode_len, eos_bias in SETTINGS:
        model = build_model(config, eos_bias)
        cases = []
        for src in sources(config["vocab_size"], config["seed"]):
            case = {"src": src}
            for beam in BEAMS:
                cfg = DecodeConfig(beam_size=beam, max_decode_len=max_decode_len)
                case[f"beam{beam}"] = generate(model, TokenSequence.of(src), cfg).ids
            cases.append(case)
        settings.append({"config": config, "max_decode_len": max_decode_len,
                         "eos_bias": eos_bias, "cases": cases})
    OUT.write_text(json.dumps({"beams": list(BEAMS), "settings": settings}) + "\n",
                   encoding="utf-8")


if __name__ == "__main__":
    main()
