import numpy as np
import pytest

from capfuse.data import SampleRecord
from capfuse.fusion import GatedFusionLayer, ImageFeature
from capfuse.metrics import corpus_eval, word_edit_distance
from capfuse.model import DecodeConfig, EncoderDecoderModel, ModelConfig, train_step
from capfuse.optim import Adam
from capfuse.pipeline import (CorrectionModels, CorrectionResult, FilterDecision,
                              Passthrough, PipelineConfig,
                              filter_change_detail, read_results, run_variant,
                              write_results)
from capfuse.text import build_vocab, encode

DECODE = DecodeConfig(strategy="beam", beam_size=2, max_decode_len=8)

CORPUS = ["a b", "a c", "d e", "d f"]


class SpyProvider:
    def __init__(self, scores=None):
        self.scores = scores or {}
        self.calls = 0

    def score_image_text(self, feat, text):
        self.calls += 1
        return self.scores[text]

    def score_text_text(self, a, b):
        raise NotImplementedError


class WerOracleProvider:
    """score(feat, text) = -WER(text, reference-by-feature-id), in [-1, 0]."""

    def __init__(self, refs_by_feature):
        self.refs = refs_by_feature

    def score_image_text(self, feat, text):
        ref = self.refs[feat.source_id]
        s, d, i = word_edit_distance(text, ref)
        ref_len = max(len(ref.split()), 1)
        return -min(1.0, (s + d + i) / ref_len)

    def score_text_text(self, a, b):
        raise NotImplementedError


def _overfit(pairs, vocab, seed, with_fusion=False):
    config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2,
                         n_enc_layers=1, n_dec_layers=1, ffn_dim=64,
                         max_len=16, seed=seed)
    model = EncoderDecoderModel(config)
    if with_fusion:
        model.attach_fusion(GatedFusionLayer.create(
            3, config.d_model, np.random.default_rng(seed + 1)))
    examples = [(encode(src, vocab), encode(tgt, vocab)) for src, tgt in pairs]
    opt = Adam(model.named_params(), lr=3e-3)
    for _ in range(400):
        loss = train_step(model, examples, opt)
        if loss < 0.005:
            break
    model.eval()
    assert loss < 0.05, f"fixture model failed to overfit, loss {loss:.3f}"
    return model


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(CORPUS)


@pytest.fixture(scope="module")
def copy_model(vocab):
    return _overfit([(s, s) for s in CORPUS], vocab, seed=21)


@pytest.fixture(scope="module")
def meddling_fusion_model(vocab):
    # rewrites "a b" -> "a c" (harmful) and "d e" -> "d f" (helpful)
    pairs = [("a b", "a c"), ("a c", "a c"), ("d e", "d f"), ("d f", "d f")]
    return _overfit(pairs, vocab, seed=22, with_fusion=True)


def _samples():
    return [
        SampleRecord(id="s1", source="a b", reference="a b", caption="cap one",
                     image_feature_id="img1"),
        SampleRecord(id="s2", source="d e", reference="d f", caption="cap two",
                     image_feature_id="img2"),
    ]


def _features():
    return {"img1": ImageFeature(vector=np.zeros(3), source_id="img1"),
            "img2": ImageFeature(vector=np.zeros(3), source_id="img2")}


def test_config_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        PipelineConfig(variant="mystery")
    with pytest.raises(ValueError, match="provider"):
        PipelineConfig(variant="fusion", filter=True)
    with pytest.raises(ValueError, match="fusion stage"):
        PipelineConfig(variant="transformer", filter=True, provider=SpyProvider())


def test_variant_original_is_identity(vocab):
    cfg = PipelineConfig(variant="original", decode=DECODE)
    models = CorrectionModels(vocab=vocab)
    results = run_variant(cfg, models, _samples())
    for sample, result in zip(_samples(), results):
        assert result.final == sample.source
        assert result.stage_outputs == [("original", sample.source)]
        assert result.filter_decisions == []


def test_variant_transformer_overfit_reproduces_reference(vocab, copy_model):
    cfg = PipelineConfig(variant="transformer", decode=DECODE)
    models = CorrectionModels(vocab=vocab, baseline=copy_model)
    samples = [SampleRecord(id="x", source="a b", reference="a b")]
    results = run_variant(cfg, models, samples)
    assert results[0].final == "a b"
    assert [name for name, _ in results[0].stage_outputs] == ["transformer"]


def test_missing_model_for_stage_errors(vocab):
    cfg = PipelineConfig(variant="transformer", decode=DECODE)
    models = CorrectionModels(vocab=vocab)
    with pytest.raises(ValueError, match="baseline"):
        run_variant(cfg, models, _samples())


def test_missing_feature_errors(vocab, meddling_fusion_model):
    cfg = PipelineConfig(variant="fusion", decode=DECODE)
    models = CorrectionModels(vocab=vocab, fusion=meddling_fusion_model)
    with pytest.raises(KeyError, match="img1"):
        run_variant(cfg, models, _samples(), features={})


def test_sequential_variant_stage_list_order(vocab, copy_model,
                                             meddling_fusion_model):
    cfg = PipelineConfig(variant="prompt_then_fusion", decode=DECODE)
    models = CorrectionModels(vocab=vocab, prompt=copy_model,
                              fusion=meddling_fusion_model)
    results = run_variant(cfg, models, _samples(), features=_features())
    assert [name for name, _ in results[0].stage_outputs] == ["prompt", "fusion"]


def test_filter_change_short_circuits_identical_text():
    provider = SpyProvider()
    feat = ImageFeature(vector=np.zeros(2))
    assert filter_change_detail(provider, feat, "same text", "same text")[0] == "same text"
    assert provider.calls == 0


def test_filter_change_accepts_strictly_higher_score():
    provider = SpyProvider(scores={"old": 0.4, "new": 0.9})
    feat = ImageFeature(vector=np.zeros(2))
    assert filter_change_detail(provider, feat, "old", "new")[0] == "new"


def test_filter_change_keeps_original_on_tie():
    provider = SpyProvider(scores={"old": 0.4, "new": 0.4})
    feat = ImageFeature(vector=np.zeros(2))
    assert filter_change_detail(provider, feat, "old", "new")[0] == "old"


def test_filter_change_detail_records_scores():
    provider = SpyProvider(scores={"old": 0.1, "new": 0.7})
    feat = ImageFeature(vector=np.zeros(2))
    text, decision = filter_change_detail(provider, feat, "old", "new")
    assert text == "new"
    assert decision == FilterDecision("replaced", 0.1, 0.7)


def test_filter_safety_with_wer_oracle(vocab, copy_model, meddling_fusion_model):
    samples = _samples()
    provider = WerOracleProvider({"img1": "a b", "img2": "d f"})
    base_cfg = dict(variant="transformer_then_fusion", decode=DECODE)
    models = CorrectionModels(vocab=vocab, baseline=copy_model,
                              fusion=meddling_fusion_model)
    unfiltered = run_variant(PipelineConfig(**base_cfg), models, samples,
                             features=_features())
    filtered = run_variant(PipelineConfig(**base_cfg, filter=True,
                                          provider=provider),
                           models, samples, features=_features())
    pairs_unf = [(s.id, r.final, s.reference) for s, r in zip(samples, unfiltered)]
    pairs_fil = [(s.id, r.final, s.reference) for s, r in zip(samples, filtered)]
    wer_unfiltered = corpus_eval(pairs_unf).wer_percent
    wer_filtered = corpus_eval(pairs_fil).wer_percent
    assert wer_filtered <= wer_unfiltered
    # the harmful rewrite was rejected, the helpful one kept
    assert filtered[0].final == "a b"
    assert filtered[1].final == "d f"
    assert [d.action for d in filtered[0].filter_decisions] == ["kept"]


def test_reproducible_results(vocab, copy_model):
    cfg = PipelineConfig(variant="transformer", decode=DECODE)
    models = CorrectionModels(vocab=vocab, baseline=copy_model)
    a = run_variant(cfg, models, _samples())
    b = run_variant(cfg, models, _samples())
    assert [r.final for r in a] == [r.final for r in b]
    assert [r.stage_outputs for r in a] == [r.stage_outputs for r in b]


def test_results_file_roundtrip(tmp_path):
    results = [
        CorrectionResult(sample_id="s1", original="x", final="y",
                         stage_outputs=[("transformer", "y")],
                         filter_decisions=[FilterDecision("kept", 0.5, 0.4)]),
        CorrectionResult(sample_id="s2", original="q", final="q",
                         stage_outputs=[("original", "q")]),
    ]
    path = tmp_path / "results.jsonl"
    write_results(path, results)
    loaded = read_results(path)
    assert loaded == results


def test_results_without_passthrough_keep_their_serialization():
    result = CorrectionResult(sample_id="s1", original="x", final="y",
                              stage_outputs=[("transformer", "y")],
                              filter_decisions=[FilterDecision("kept", 0.5, 0.4)])
    assert result.to_json() == (
        '{"sample_id": "s1", "original": "x", "stage_outputs": [["transformer", "y"]], '
        '"final": "y", "filter_decisions": [["kept", 0.5, 0.4]]}')


def test_overlong_prompted_sample_passes_through(vocab, meddling_fusion_model, tmp_path):
    prompt_model = EncoderDecoderModel(ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1,
        n_dec_layers=1, ffn_dim=32, max_len=32, seed=23))
    prompt_model.eval()
    # 30 caption words + [SEP] + 2 source words + BOS and EOS = 35 tokens
    long = SampleRecord(id="long", source="d e", reference="d f",
                        caption=" ".join(["a"] * 30), image_feature_id="img2")
    normal = _samples()
    models = CorrectionModels(vocab=vocab, prompt=prompt_model,
                              fusion=meddling_fusion_model)
    for variant in ("prompt", "prompt_then_fusion"):
        cfg = PipelineConfig(variant=variant, decode=DECODE)
        results = run_variant(cfg, models, [normal[0], long, normal[1]],
                              features=_features())
        alone = run_variant(cfg, models, normal, features=_features())
        assert [results[0], results[2]] == alone
        assert all(not r.passthroughs for r in alone)
        assert results[1].passthroughs == [Passthrough("prompt", 35, 32)]
        assert results[1].stage_outputs[0] == ("prompt", "d e")
        if variant == "prompt":
            assert results[1].final == "d e"
        else:  # the fusion stage decodes the source it was handed
            fused = run_variant(PipelineConfig(variant="fusion", decode=DECODE),
                                models, [long], features=_features())[0]
            assert results[1].stage_outputs[1] == fused.stage_outputs[0]
            assert results[1].final == fused.final
        path = tmp_path / f"{variant}.jsonl"
        write_results(path, results)
        assert read_results(path) == results
