"""Correction variants: baseline decode, caption prompts, gated fusion,
sequential composition, and similarity-filtered change acceptance.

The filter decides whole sentences: a fused output replaces its input
text only when the image scores it strictly higher, so ties and absent
images conservatively keep the earlier text.

A stage whose encoded input is longer than its model's max_len outputs the
hypothesis it was given (for the prompt stage, the source without its
caption) and the result records the stage and both lengths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Mapping, NamedTuple, Optional, Tuple

from .fileio import atomic_open, read_jsonl
from .fusion import ImageFeature, zero_feature
from .model import DecodeConfig, EncoderDecoderModel, generate
from .prompting import build_prompted_source
from .similarity import SimilarityProvider
from .text import Vocabulary, decode as decode_ids, encode
from .data import SampleRecord

VARIANTS = ("original", "transformer", "prompt", "fusion",
            "transformer_then_fusion", "prompt_then_fusion")

_FUSION_VARIANTS = ("fusion", "transformer_then_fusion", "prompt_then_fusion")


@dataclass
class PipelineConfig:
    variant: str = "transformer"
    filter: bool = False
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    provider: Optional[SimilarityProvider] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.filter and self.variant not in _FUSION_VARIANTS:
            raise ValueError(f"filter=true needs a fusion stage, variant is {self.variant!r}")
        if self.filter and self.provider is None:
            raise ValueError("filter=true requires a similarity provider")


@dataclass
class CorrectionModels:
    """Stage models sharing one vocabulary."""

    vocab: Vocabulary
    baseline: Optional[EncoderDecoderModel] = None
    prompt: Optional[EncoderDecoderModel] = None
    fusion: Optional[EncoderDecoderModel] = None

    def require(self, stage: str) -> EncoderDecoderModel:
        model = getattr(self, stage)
        if model is None:
            raise ValueError(f"variant needs a {stage!r} model but none was provided")
        return model


@dataclass
class FilterDecision:
    action: str  # "kept" or "replaced"
    score_original: Optional[float]
    score_changed: Optional[float]


class Passthrough(NamedTuple):
    """A stage that output its input because the input was too long."""

    stage: str
    length: int  # encoded input tokens, BOS and EOS included
    max_len: int


@dataclass
class CorrectionResult:
    sample_id: str
    original: str
    stage_outputs: List[Tuple[str, str]]
    final: str
    filter_decisions: List[FilterDecision] = field(default_factory=list)
    passthroughs: List[Passthrough] = field(default_factory=list)

    def to_json(self) -> str:
        raw = {
            "sample_id": self.sample_id,
            "original": self.original,
            "stage_outputs": [[name, text] for name, text in self.stage_outputs],
            "final": self.final,
            "filter_decisions": [
                [d.action, d.score_original, d.score_changed]
                for d in self.filter_decisions
            ],
        }
        if self.passthroughs:  # absent otherwise, so other lines keep their bytes
            raw["passthroughs"] = [list(p) for p in self.passthroughs]
        return json.dumps(raw, ensure_ascii=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "CorrectionResult":
        return cls(
            sample_id=raw["sample_id"],
            original=raw["original"],
            stage_outputs=[(name, text) for name, text in raw["stage_outputs"]],
            final=raw["final"],
            filter_decisions=[FilterDecision(*d) for d in raw["filter_decisions"]],
            passthroughs=[Passthrough(*p) for p in raw.get("passthroughs", [])],
        )


def write_results(path, results) -> None:
    with atomic_open(path) as fh:
        fh.writelines(result.to_json() + "\n" for result in results)


def read_results(path) -> List[CorrectionResult]:
    return [result for _, result in read_jsonl(path, CorrectionResult.from_dict, "results")]


def filter_change_detail(provider: SimilarityProvider, feat: ImageFeature,
                         original: str, changed: str
                         ) -> Tuple[str, FilterDecision]:
    """Accept ``changed`` only if the image scores it strictly higher."""
    if changed == original:
        return original, FilterDecision("kept", None, None)
    score_original = provider.score_image_text(feat, original)
    score_changed = provider.score_image_text(feat, changed)
    if score_changed > score_original:
        return changed, FilterDecision("replaced", score_original, score_changed)
    return original, FilterDecision("kept", score_original, score_changed)


def _decode_text(model: EncoderDecoderModel, vocab: Vocabulary, text: str,
                 cfg: DecodeConfig, image: Optional[ImageFeature] = None
                 ) -> Tuple[Optional[str], int]:
    """(decoded text, encoded input length); the text is None when the
    input is longer than the model's max_len."""
    ids = encode(text, vocab, add_bos_eos=True)
    if len(ids.ids) > model.config.max_len:
        return None, len(ids.ids)
    return decode_ids(generate(model, ids, cfg, image=image), vocab), len(ids.ids)


def run_variant(cfg: PipelineConfig, models: CorrectionModels,
                samples, features: Optional[Mapping[str, ImageFeature]] = None
                ) -> List[CorrectionResult]:
    """Run one Table-style correction variant over samples, in input order."""
    return [_run_sample(cfg, models, sample, features or {}) for sample in samples]


def _feature_for(sample: SampleRecord, features: Mapping[str, ImageFeature],
                 d_img: int) -> ImageFeature:
    if not sample.image_feature_id:
        return zero_feature(d_img)
    if sample.image_feature_id not in features:
        raise KeyError(
            f"missing image feature {sample.image_feature_id!r} for sample {sample.id!r}")
    return features[sample.image_feature_id]


def _run_sample(cfg: PipelineConfig, models: CorrectionModels,
                sample: SampleRecord, features: Mapping[str, ImageFeature]
                ) -> CorrectionResult:
    source = sample.source
    stages: List[Tuple[str, str]] = []
    decisions: List[FilterDecision] = []
    passthroughs: List[Passthrough] = []

    def run_stage(stage: str, model: EncoderDecoderModel, given: str, text: str,
                  image: Optional[ImageFeature] = None) -> str:
        """Decode ``text``; an over-length input outputs ``given`` instead."""
        decoded, length = _decode_text(model, models.vocab, text, cfg.decode, image=image)
        if decoded is None:
            passthroughs.append(Passthrough(stage, length, model.config.max_len))
            decoded = given
        stages.append((stage, decoded))
        return decoded

    if cfg.variant == "original":
        return CorrectionResult(sample.id, source, [("original", source)], source)

    text = source
    if cfg.variant in ("transformer", "transformer_then_fusion"):
        text = run_stage("transformer", models.require("baseline"), text, text)
    elif cfg.variant in ("prompt", "prompt_then_fusion"):
        prompted = build_prompted_source(sample.caption, text)
        text = run_stage("prompt", models.require("prompt"), text, prompted)

    if cfg.variant in _FUSION_VARIANTS:
        fusion_model = models.require("fusion")
        if fusion_model.fusion is None:
            raise ValueError("fusion model has no attached fusion layer")
        feat = _feature_for(sample, features, fusion_model.fusion.d_img)
        before = text
        fused = run_stage("fusion", fusion_model, before, before, image=feat)
        if cfg.filter:
            text, decision = filter_change_detail(cfg.provider, feat, before, fused)
            decisions.append(decision)
        else:
            text = fused

    return CorrectionResult(sample.id, source, stages, text, decisions, passthroughs)
