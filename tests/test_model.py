import gc
import importlib.util
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import capfuse.autograd as ag
from capfuse.checkpoint import average_checkpoints, save_checkpoint
from capfuse.fusion import GatedFusionLayer, ImageFeature
from capfuse.gradcheck import audit_model
from capfuse.model import (DecodeConfig, EncoderDecoderModel, ModelConfig,
                           generate, train_step)
from capfuse.optim import Adam
from capfuse.text import (BOS_ID, EOS_ID, PAD_ID, TokenSequence,
                          build_vocab, decode, encode)
from capfuse.training import TrainingRecipe, run_training

VOCAB_SIZE = 12


def tiny_model(seed=0, vocab_size=VOCAB_SIZE, **overrides):
    defaults = dict(vocab_size=vocab_size, d_model=16, n_heads=2,
                    n_enc_layers=1, n_dec_layers=1, ffn_dim=32, max_len=24,
                    seed=seed)
    defaults.update(overrides)
    model = EncoderDecoderModel(ModelConfig(**defaults))
    model.eval()
    return model


def rand_seq(rng, length, vocab_size=VOCAB_SIZE):
    body = rng.integers(5, vocab_size, size=length).tolist()
    return TokenSequence.of([BOS_ID] + body + [EOS_ID])


def naive_greedy(model, src, max_steps):
    """Independent greedy rollout: stepwise argmax over next-token logits."""
    src_ids = np.asarray([src.ids], dtype=np.int64)
    with ag.no_grad():
        enc = model.encode_batch(src_ids)
        ids = [BOS_ID]
        for _ in range(max_steps):
            logits = model.decode_batch(np.asarray([ids]), enc, src_ids)
            nxt = int(np.argmax(logits.data[0, -1]))
            ids.append(nxt)
            if nxt == EOS_ID:
                break
    return ids


def hypothesis_score(model, src, ids, alpha):
    """Normalized model score of a decoded hypothesis, as the search defines it."""
    src_ids = np.asarray([src.ids], dtype=np.int64)
    with ag.no_grad():
        enc = model.encode_batch(src_ids)
        dec_in = np.asarray([ids[:-1]], dtype=np.int64)
        logits = model.decode_batch(dec_in, enc, src_ids).data[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    total = sum(log_probs[t, ids[t + 1]] for t in range(len(ids) - 1))
    return total / (max(len(ids) - 1, 1) ** alpha)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(ValueError, match="positive"):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(vocab_size=10, dropout=1.0)


def test_decode_config_greedy_forces_beam_one():
    cfg = DecodeConfig(strategy="greedy", beam_size=7)
    assert cfg.beam_size == 1
    with pytest.raises(ValueError, match="beam_size"):
        DecodeConfig(beam_size=0)


@pytest.mark.parametrize("value", [0, -3])
def test_decode_config_rejects_max_decode_len_below_one(value):
    with pytest.raises(ValueError, match=f"max_decode_len must be >= 1, got {value}"):
        DecodeConfig(max_decode_len=value)
    assert DecodeConfig(max_decode_len=1).max_decode_len == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 300.0, -300.0])
def test_decode_config_rejects_length_penalty_out_of_float_range(value):
    # 40 ** 300 overflows a float and 40 ** -300 underflows to 0
    with pytest.raises(ValueError, match=f"length_penalty must be finite.*got {value}"):
        DecodeConfig(max_decode_len=40, length_penalty=value)
    for fits in (-150.0, 150.0):
        assert DecodeConfig(max_decode_len=40, length_penalty=fits).length_penalty == fits


def test_model_config_file_roundtrip(tmp_path):
    cfg = ModelConfig(vocab_size=40, d_model=32, n_heads=4, dropout=0.25, seed=3)
    path = tmp_path / "model.cfg"
    cfg.save(path)
    assert ModelConfig.load(path) == cfg


@pytest.mark.parametrize("line,message", [
    ("d_model = x", "line 2: d_model takes int, got 'x'"),
    ("dropout: 0.1", "line 2: expected 'key = value'"),
    ("n_head = 2", "line 2: unknown key 'n_head'"),
])
def test_model_config_file_errors_name_the_line(tmp_path, line, message):
    path = tmp_path / "model.cfg"
    path.write_text(f"vocab_size = 40\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"model.cfg, {message}"):
        ModelConfig.load(path)
    path.write_text("# no vocabulary\nd_model = 32\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no vocab_size"):
        ModelConfig.load(path)


def test_encode_shape_contract():
    model = tiny_model()
    rng = np.random.default_rng(0)
    for length in (1, 3, 9):
        seq = rand_seq(rng, length)
        out = model.encode_batch(np.asarray([seq.ids]))
        assert out.shape == (1, len(seq.ids), model.config.d_model)


def test_encode_rejects_overlong_sequence():
    model = tiny_model()
    seq = TokenSequence.of([BOS_ID] + [5] * 30 + [EOS_ID])
    with pytest.raises(ValueError, match="max_len"):
        model.encode_batch(np.asarray([seq.ids]))


def test_pad_tail_does_not_change_non_pad_positions():
    model = tiny_model(seed=1)
    rng = np.random.default_rng(1)
    seq = rand_seq(rng, 5)
    with ag.no_grad():
        plain = model.encode_batch(np.asarray([seq.ids]))
        padded = model.encode_batch(np.asarray([seq.ids + [PAD_ID] * 3]))
    # masking zeroes pad-key weights exactly; the residual wiggle is numpy's
    # pairwise summation regrouping over the longer row
    assert np.abs(plain.data[0] - padded.data[0, : len(seq.ids)]).max() <= 1e-12


def test_appending_pad_to_source_leaves_decoder_logits_unchanged():
    model = tiny_model(seed=2)
    rng = np.random.default_rng(2)
    src = rand_seq(rng, 6)
    tgt_in = np.asarray([[BOS_ID, 7, 8]], dtype=np.int64)
    src_a = np.asarray([src.ids])
    src_b = np.asarray([src.ids + [PAD_ID] * 4])
    with ag.no_grad():
        logits_a = model.decode_batch(tgt_in, model.encode_batch(src_a), src_a)
        logits_b = model.decode_batch(tgt_in, model.encode_batch(src_b), src_b)
    assert np.abs(logits_a.data - logits_b.data).max() <= 1e-9


def test_encode_deterministic_in_eval_mode():
    model = tiny_model(seed=3)
    rng = np.random.default_rng(3)
    seq = rand_seq(rng, 4)
    with ag.no_grad():
        a = model.encode_batch(np.asarray([seq.ids]))
        b = model.encode_batch(np.asarray([seq.ids]))
    np.testing.assert_array_equal(a.data, b.data)


def test_decoder_strictly_causal():
    model = tiny_model(seed=4)
    rng = np.random.default_rng(4)
    src = rand_seq(rng, 5)
    src_ids = np.asarray([src.ids])
    base = [BOS_ID, 5, 6, 7, 8, 9]
    with ag.no_grad():
        enc = model.encode_batch(src_ids)
        logits_base = model.decode_batch(np.asarray([base]), enc, src_ids).data
        for t in range(len(base) - 1):
            for k in range(t + 1, len(base)):
                perturbed = list(base)
                perturbed[k] = 10 if base[k] != 10 else 11
                logits_pert = model.decode_batch(
                    np.asarray([perturbed]), enc, src_ids).data
                np.testing.assert_array_equal(
                    logits_base[0, : k], logits_pert[0, : k])


def test_identical_seeds_identical_parameters():
    a = tiny_model(seed=9)
    b = tiny_model(seed=9)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_training_trajectory_deterministic():
    def run():
        model = tiny_model(seed=5)
        rng = np.random.default_rng(6)
        pairs = [(rand_seq(rng, 3), rand_seq(rng, 3)) for _ in range(4)]
        opt = Adam(model.named_params(), lr=1e-3)
        return [train_step(model, pairs, opt) for _ in range(5)]

    assert run() == run()


def test_backward_releases_the_step_activations():
    # With the collector off, nothing but reference counting may free the
    # step's activations once backward has run and the loss is dropped.
    model = tiny_model(seed=23)
    rng = np.random.default_rng(23)
    pairs = [(rand_seq(rng, 4), rand_seq(rng, 5)) for _ in range(3)]
    gc.disable()
    try:
        loss = model.batch_loss(pairs)
        tape = loss._tape
        n_entries = len(tape.entries)
        outputs = [weakref.ref(entry.output.data) for entry in tape.entries]
        ag.backward(loss)
        assert loss.grad is None
        assert all(p.grad is not None for p in model.params.values())
        del loss
        assert len(tape.entries) == n_entries
        assert [i for i, ref in enumerate(outputs) if ref() is not None] == []
    finally:
        gc.enable()


def test_affine_map_is_one_tape_entry():
    model = tiny_model(seed=26)
    model.train()
    ag.reset_tape()
    x = ag.Tensor(np.random.default_rng(26).normal(size=(2, 3, 16)), requires_grad=True)
    out = model._affine("enc0.ffn1", x)
    assert len(ag.active_tape()) == 1
    np.testing.assert_array_equal(
        out.data, x.data @ model.params["enc0.ffn1.w"].data + model.params["enc0.ffn1.b"].data)
    ag.reset_tape()
    # an acceptance-shape step: V=56, d_model 64, 2+2 layers, batch 64
    model = EncoderDecoderModel(ModelConfig(vocab_size=56, seed=26))
    rng = np.random.default_rng(26)
    pairs = [(rand_seq(rng, 5, 56), rand_seq(rng, 5, 56)) for _ in range(64)]
    assert len(model.batch_loss(pairs)._tape) == 149
    ag.reset_tape()


def test_training_stops_on_non_finite_loss(tmp_path):
    model = tiny_model(seed=24)
    model.params["out.b"].data[5] = np.nan
    rng = np.random.default_rng(24)
    pairs = [(rand_seq(rng, 4), rand_seq(rng, 4)) for _ in range(4)]
    recipe = TrainingRecipe(steps=3, batch_size=2, ckpt_every=1)
    with pytest.raises(ValueError, match="step 1: loss is nan"):
        run_training(model, pairs, recipe, log_path=tmp_path / "train.log",
                     ckpt_dir=tmp_path)
    assert (tmp_path / "train.log").read_text() == ""
    assert not list(tmp_path.glob("*.ckpt"))


def test_initial_loss_near_log_vocab():
    model = tiny_model(seed=7, vocab_size=32)
    rng = np.random.default_rng(7)
    pairs = [(rand_seq(rng, 4, 32), rand_seq(rng, 4, 32)) for _ in range(4)]
    loss = model.batch_loss(pairs).item()
    assert loss == pytest.approx(np.log(32), rel=0.15)


def test_train_step_ignores_pad_positions():
    model = tiny_model(seed=8)
    a = TokenSequence.of([BOS_ID, 5, 6, EOS_ID])
    b = TokenSequence.of([BOS_ID, 5, 6, EOS_ID, PAD_ID, PAD_ID])
    with ag.no_grad():
        la = model.batch_loss([(a, a)]).item()
        lb = model.batch_loss([(b, b)]).item()
    assert la == pytest.approx(lb, abs=1e-12)


def test_overfit_single_pair_and_reproduce():
    vocab = build_vocab(["a b"])
    model = tiny_model(seed=10, vocab_size=len(vocab), d_model=32, ffn_dim=64)
    pair = (encode("a b", vocab), encode("a b", vocab))
    opt = Adam(model.named_params(), lr=3e-3)
    losses = []
    for _ in range(500):
        losses.append(train_step(model, [pair], opt))
        if losses[-1] < 0.01:
            break
    assert losses[-1] < 0.01, f"loss stuck at {losses[-1]:.4f}"
    out = generate(model, pair[0], DecodeConfig(strategy="greedy", max_decode_len=8))
    assert decode(out, vocab) == "a b"


def test_beam_one_equals_independent_greedy_on_200_inputs():
    model = tiny_model(seed=11)
    rng = np.random.default_rng(11)
    cfg = DecodeConfig(strategy="beam", beam_size=1, max_decode_len=8)
    for _ in range(200):
        src = rand_seq(rng, int(rng.integers(1, 7)))
        ours = generate(model, src, cfg).ids
        reference = naive_greedy(model, src, max_steps=8)
        assert ours == reference


def test_larger_beam_never_scores_below_greedy():
    model = tiny_model(seed=12)
    rng = np.random.default_rng(12)
    greedy_cfg = DecodeConfig(strategy="beam", beam_size=1, max_decode_len=8)
    beam_cfg = DecodeConfig(strategy="beam", beam_size=4, max_decode_len=8)
    for _ in range(60):
        src = rand_seq(rng, int(rng.integers(1, 7)))
        greedy_ids = generate(model, src, greedy_cfg).ids
        beam_ids = generate(model, src, beam_cfg).ids
        s_greedy = hypothesis_score(model, src, greedy_ids, beam_cfg.length_penalty)
        s_beam = hypothesis_score(model, src, beam_ids, beam_cfg.length_penalty)
        assert s_beam >= s_greedy - 1e-12


def test_exact_ties_break_toward_smaller_token_ids():
    # zero output head: every token ties at every step, every hypothesis
    # ties after normalization, so the winner is the lexicographic minimum
    model = tiny_model(seed=19)
    model.params["out.w"].data[:] = 0.0
    model.params["out.b"].data[:] = 0.0
    rng = np.random.default_rng(19)
    src = rand_seq(rng, 3)
    for beam in (1, 3):
        out = generate(model, src,
                       DecodeConfig(beam_size=beam, max_decode_len=4))
        assert out.ids == [BOS_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]


def loop_beam_search(next_log_probs, beam_size, max_steps, alpha):
    """The search over n_live x V Python candidates, run to the end: it never
    stops early. ``next_log_probs(ids)`` gives the log-probabilities after
    the prefix ``ids``."""
    live = [((BOS_ID,), 0.0)]
    finished = []
    for _ in range(max_steps):
        candidates = [(score + lp, ids + (token,)) for ids, score in live
                      for token, lp in enumerate(next_log_probs(ids))]
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for score, ids in candidates[:beam_size]:
            if ids[-1] == EOS_ID:
                finished.append((score / max(len(ids) - 1, 1) ** alpha, ids))
            else:
                live.append((ids, score))
        if not live:
            break
    finished += [(score / max(len(ids) - 1, 1) ** alpha, ids) for ids, score in live]
    finished.sort(key=lambda c: (-c[0], c[1]))
    return list(finished[0][1])


def test_repeated_output_bias_ties_follow_score_then_smaller_ids():
    # zero output weights: the logits are the bias at every row and step, and
    # repeated bias values make exact ties within and across beams
    model = tiny_model(seed=20)
    model.params["out.w"].data[:] = 0.0
    src = rand_seq(np.random.default_rng(20), 3)
    bias = model.params["out.b"].data
    bias[:] = np.where(np.arange(VOCAB_SIZE) % 3 == 2, 1.0, 0.0)  # EOS, 5, 8, 11
    greedy = generate(model, src, DecodeConfig(beam_size=1, max_decode_len=4))
    assert greedy.ids == [BOS_ID, EOS_ID]
    rng = np.random.default_rng(20)
    for _ in range(12):
        bias[:] = rng.choice([-0.5, 0.0, 0.25, 0.75], size=VOCAB_SIZE)
        shifted = bias - bias.max()
        log_probs = shifted - np.log(np.exp(shifted).sum())
        for beam in (1, 2, 4, 6):
            for alpha in (-0.5, 0.0, 1.0, 2.0):  # the stop's bound on both sides of 0
                cfg = DecodeConfig(beam_size=beam, max_decode_len=8, length_penalty=alpha)
                assert generate(model, src, cfg).ids == \
                    loop_beam_search(lambda ids: log_probs, beam, 8, alpha)


class TableDecoder:
    """A stand-in model whose next-token logits are ``table[t - 1, last]``
    for a prefix of t tokens ending in ``last``."""

    def __init__(self, table):
        self.table = table
        self.config = ModelConfig(vocab_size=table.shape[-1], max_len=len(table) + 1)
        self.training = False

    def eval(self):
        pass

    def encode_batch(self, src, features=None):
        return ag.Tensor(np.zeros((1, src.shape[1], 1)))

    def decode_batch(self, tgt_in, enc_out, src, last_only=False):
        return ag.Tensor(self.table[tgt_in.shape[1] - 1, tgt_in[:, -1]][:, None])


def table_log_probs(table):
    shifted = table - table.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return lambda ids: log_probs[len(ids) - 1, ids[-1]]


def test_early_stop_matches_the_full_search_on_position_dependent_logits():
    # logits that change with the position and the last token let a late
    # hypothesis overtake an early one, for either sign of the length penalty
    rng = np.random.default_rng(26)
    src = TokenSequence.of([BOS_ID, 5, EOS_ID])
    for _ in range(200):
        table = 3.0 * rng.normal(size=(8, 8, 8))
        model = TableDecoder(table)
        for beam in (2, 4):
            for alpha in (-0.5, 0.0, 1.0, 2.0):
                cfg = DecodeConfig(beam_size=beam, max_decode_len=8, length_penalty=alpha)
                assert generate(model, src, cfg).ids == \
                    loop_beam_search(table_log_probs(table), beam, 8, alpha)


def test_early_stop_keeps_searching_on_a_tie_with_the_bound():
    # step 1 ties [BOS, PAD] with [BOS, EOS] at -log 2; PAD is then followed
    # by EOS with log-probability exactly 0, so [BOS, PAD, EOS] ties the
    # finished [BOS, EOS] and wins on the smaller ids
    table = np.full((3, 4, 4), -1e3)
    table[0, BOS_ID, [PAD_ID, EOS_ID]] = 0.0
    table[1, PAD_ID, EOS_ID] = 0.0
    cfg = DecodeConfig(beam_size=2, max_decode_len=3, length_penalty=0.0)
    expected = loop_beam_search(table_log_probs(table), 2, 3, 0.0)
    assert expected == [BOS_ID, PAD_ID, EOS_ID]
    assert generate(TableDecoder(table), TokenSequence.of([BOS_ID, EOS_ID]), cfg).ids == expected


def test_beam_search_stops_once_a_finished_hypothesis_is_unbeatable():
    # EOS ends the first step far ahead, and no live row can catch up, so
    # the search stops after one decoder call instead of running to the cap
    model = tiny_model(seed=25)
    model.params["out.b"].data[EOS_ID] = 10.0
    calls = []
    decode_batch = model.decode_batch

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return decode_batch(*args, **kwargs)

    model.decode_batch = counted
    src = rand_seq(np.random.default_rng(25), 3)
    out = generate(model, src, DecodeConfig(beam_size=4, max_decode_len=12))
    assert out.ids == [BOS_ID, EOS_ID]
    assert calls == [(1, 1)]


def test_nan_logits_decode_without_error():
    model = tiny_model(seed=21)
    model.params["out.b"].data[:] = np.nan
    src = rand_seq(np.random.default_rng(21), 3)
    for beam in (1, 3):
        out = generate(model, src, DecodeConfig(beam_size=beam, max_decode_len=4))
        assert out.ids == [BOS_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]


def test_decoder_reproduces_golden_fixture():
    # token ids the search returned before it selected candidates on arrays;
    # tests/data/make_decode_golden.py wrote them
    golden = json.loads((Path(__file__).parent / "data" / "decode_golden.json")
                        .read_text(encoding="utf-8"))
    for setting in golden["settings"]:
        model = EncoderDecoderModel(ModelConfig(**setting["config"]))
        model.params["out.b"].data[EOS_ID] = setting["eos_bias"]
        for case in setting["cases"]:
            for beam in golden["beams"]:
                cfg = DecodeConfig(beam_size=beam, max_decode_len=setting["max_decode_len"])
                out = generate(model, TokenSequence.of(case["src"]), cfg)
                assert out.ids == case[f"beam{beam}"], (setting["config"]["seed"], beam)


def test_training_reproduces_golden_fixture():
    # losses and final parameters that 20 Adam steps gave before the tape
    # released its entries during backward; the generator wrote them
    path = Path(__file__).parent / "data" / "make_train_golden.py"
    spec = importlib.util.spec_from_file_location("make_train_golden", path)
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    golden = json.loads(maker.OUT.read_text(encoding="utf-8"))
    for setting in golden["settings"]:
        losses, digest = maker.train(setting["config"], setting["d_img"], setting["recipe"])
        assert losses == setting["losses"], setting["config"]["seed"]
        assert digest == setting["params_sha256"], setting["config"]["seed"]


def test_last_only_logits_equal_full_last_position():
    model = tiny_model(seed=22)
    rng = np.random.default_rng(22)
    for batch in (1, 3):
        src = np.asarray([rand_seq(rng, 4).ids for _ in range(batch)])
        with ag.no_grad():
            enc = model.encode_batch(src)
            for length in (1, 2, 5):
                tgt = rng.integers(5, VOCAB_SIZE, size=(batch, length))
                full = model.decode_batch(tgt, enc, src).data
                last = model.decode_batch(tgt, enc, src, last_only=True).data
                np.testing.assert_array_equal(last, full[:, -1:])
    with pytest.raises(ValueError, match="no_grad"):
        model.decode_batch(tgt, enc, src, last_only=True)


def test_generate_terminates_at_max_decode_len():
    model = tiny_model(seed=13)
    rng = np.random.default_rng(13)
    src = rand_seq(rng, 3)
    out = generate(model, src, DecodeConfig(beam_size=2, max_decode_len=5))
    assert len(out.ids) <= 1 + 5 + 1


def test_full_model_gradients_match_finite_differences():
    config = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_enc_layers=1,
                         n_dec_layers=1, ffn_dim=12, max_len=10, seed=14)
    model = EncoderDecoderModel(config)
    rng = np.random.default_rng(14)
    batch = [(rand_seq(rng, 3, 11), rand_seq(rng, 2, 11))]
    result = audit_model(model, batch, step=1e-4)
    assert result.max_error < 1e-4, result.worst()


def test_fusion_attached_model_trains_and_generates():
    model = tiny_model(seed=15)
    layer = GatedFusionLayer.create(4, model.config.d_model,
                                    np.random.default_rng(15))
    model.attach_fusion(layer)
    rng = np.random.default_rng(15)
    feat = ImageFeature(vector=rng.normal(size=4))
    pairs = [(rand_seq(rng, 3), rand_seq(rng, 3), feat)]
    opt = Adam(model.named_params(), lr=1e-3)
    before = model.params["embed"].data.copy()
    train_step(model, pairs, opt)
    assert np.abs(model.params["embed"].data - before).max() > 0
    assert np.abs(layer.params["gate_w"].grad).max() > 0
    out = generate(model, pairs[0][0],
                   DecodeConfig(beam_size=2, max_decode_len=6), image=feat)
    assert out.ids[0] == BOS_ID


def test_checkpoint_roundtrip_through_model(tmp_path):
    model = tiny_model(seed=16)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path)
    other = tiny_model(seed=99)
    other.load_checkpoint(path)
    for name in model.params:
        np.testing.assert_array_equal(model.params[name].data,
                                      other.params[name].data)


def test_average_checkpoints_integrates_with_model(tmp_path):
    model = tiny_model(seed=17)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    model.save_checkpoint(p1)
    state = model.state()
    save_checkpoint(p2, {k: -v for k, v in state.items()})
    avg = average_checkpoints([p1, p2])
    model.load_state(avg)
    for p in model.params.values():
        np.testing.assert_array_equal(p.data, np.zeros_like(p.data))


def test_dropout_only_active_in_training_mode():
    model = tiny_model(seed=18, dropout=0.5)
    rng = np.random.default_rng(18)
    seq = rand_seq(rng, 4)
    model.train()
    with ag.no_grad():
        a = model.encode_batch(np.asarray([seq.ids]))
        b = model.encode_batch(np.asarray([seq.ids]))
    assert np.abs(a.data - b.data).max() > 0
    model.eval()
    with ag.no_grad():
        c = model.encode_batch(np.asarray([seq.ids]))
        d = model.encode_batch(np.asarray([seq.ids]))
    np.testing.assert_array_equal(c.data, d.data)
