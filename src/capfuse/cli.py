"""Command-line entry point.

Subcommands: synth, filter, split, train, avg-ckpt, correct,
ablate-random-captions, evaluate, gradcheck. All randomness is keyed to
--seed and artifacts contain no timestamps, so identical invocations
produce byte-identical outputs. Logs go to stderr, data to files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .checkpoint import average_checkpoints, load_checkpoint, save_checkpoint
from .data import (NoiseConfig, filter_by_similarity, generate_synthetic,
                   read_manifest, split_dataset, write_manifest)
from .fileio import atomic_open, read_text
from .fusion import GatedFusionLayer, ImageFeature
from .gradcheck import audit_model
from .metrics import corpus_eval
from .model import DecodeConfig, EncoderDecoderModel, ModelConfig
from .pipeline import (CorrectionModels, PipelineConfig, read_results,
                       run_variant, write_results)
from .prompting import assign_random_captions, build_prompted_source
from .similarity import CosineEmbeddingProvider
from .text import TokenSequence, Vocabulary, build_vocab, encode
from .training import TrainingRecipe, run_training
from .vecfile import load_vectors


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _load_homophones(path: Optional[str]) -> Dict[str, List[str]]:
    if not path:
        return {}
    try:
        table = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if type(table) is not dict or not all(type(confusables) is list and all(
            type(word) is str for word in confusables) for confusables in table.values()):
        raise ValueError(f"{path}: expected a JSON object mapping words to lists of strings")
    return table


def _provider_from(path: Optional[str]) -> CosineEmbeddingProvider:
    if path:
        return CosineEmbeddingProvider.from_file(path)
    return CosineEmbeddingProvider()


def _load_features(path: Optional[str]) -> tuple[Dict[str, ImageFeature], int]:
    if not path:
        return {}, 0
    vectors, dim = load_vectors(path)
    return {key: ImageFeature(vector=vec, source_id=key)
            for key, vec in vectors.items()}, dim


# -- subcommand implementations --------------------------------------------


def cmd_synth(args) -> int:
    references = read_text(args.refs).splitlines()
    noise = NoiseConfig(
        substitution_rate=args.sub_rate, deletion_rate=args.del_rate,
        insertion_rate=args.ins_rate,
        homophone_table=_load_homophones(args.homophones), seed=args.seed)
    records = generate_synthetic(references, noise, args.n)
    write_manifest(args.out, records)
    _log(f"synth: wrote {len(records)} pairs to {args.out}")
    return 0


def cmd_filter(args) -> int:
    samples = read_manifest(args.manifest)
    provider = _provider_from(args.embeddings)
    # the test split is taken as given: only the named splits face the filter
    subject_splits = (None if args.splits == "all"
                      else {s.strip() for s in args.splits.split(",")})
    subject = [s for s in samples if subject_splits is None or s.split in subject_splits]
    _, dropped = filter_by_similarity(subject, provider, threshold=args.threshold)
    dropped_ids = {id(s) for s in dropped}
    kept = [s for s in samples if id(s) not in dropped_ids]
    more = [(args.dropped_out, dropped)] if args.dropped_out else []
    write_manifest(args.out, kept, *more)  # both files are published, or neither
    _log(f"filter: kept {len(kept)} of {len(samples)} at threshold {args.threshold}")
    return 0


def cmd_split(args) -> int:
    samples = read_manifest(args.manifest)
    ratios = tuple(float(r) for r in args.ratios.split(","))
    if len(ratios) != 3:
        raise ValueError(f"--ratios needs three comma-separated values, got {args.ratios!r}")
    assigned = split_dataset(samples, ratios, seed=args.seed)
    write_manifest(args.out, assigned)
    counts = {name: sum(1 for s in assigned if s.split == name)
              for name in ("train", "valid", "test")}
    _log(f"split: {counts}")
    return 0


_MODEL_FLAGS = ("d_model", "n_heads", "n_enc_layers", "n_dec_layers", "ffn_dim",
                "max_len", "dropout")


def _model_config_from_args(args, vocab_size: int) -> ModelConfig:
    found = ModelConfig.read_fields(args.config) if args.config else {}
    found.update({name: getattr(args, name) for name in _MODEL_FLAGS
                  if getattr(args, name) is not None})
    return ModelConfig(**{**found, "vocab_size": vocab_size, "seed": args.seed})


def _training_examples(samples, vocab, use_prompts: bool, features, max_len: int,
                       with_images: bool):
    examples = []
    for sample in samples:
        source = sample.source
        if use_prompts:
            source = build_prompted_source(sample.caption, source)
        src = encode(source, vocab, add_bos_eos=True)
        tgt = encode(sample.reference, vocab, add_bos_eos=True)
        if len(src.ids) > max_len or len(tgt.ids) > max_len:
            continue
        if with_images:
            feat = features.get(sample.image_feature_id) if sample.image_feature_id else None
            examples.append((src, tgt, feat))
        else:
            examples.append((src, tgt))
    return examples


def cmd_train(args) -> int:
    out_dir = Path(args.out_dir)
    samples = read_manifest(args.manifest)
    origin = "synthetic" if args.phase == "pretrain" else "annotated"
    train_samples = [s for s in samples if s.split == "train" and s.origin == origin]
    if not train_samples:
        raise ValueError(f"no train-split {origin} records in {args.manifest}")

    vocab_path = Path(args.vocab) if args.vocab else out_dir / "vocab.txt"
    built = not vocab_path.exists()
    if built:
        lines = [s.source for s in samples] + [s.reference for s in samples] \
            + [s.caption for s in samples if s.caption]
        vocab = build_vocab(lines)
    else:
        vocab = Vocabulary.load(vocab_path)

    config = _model_config_from_args(args, vocab_size=len(vocab))
    model = EncoderDecoderModel(config)
    features: Dict[str, ImageFeature] = {}
    if args.variant == "fusion":
        features, dim = _load_features(args.features)
        d_img = dim if dim else args.d_img
        layer_rng = np.random.default_rng(config.seed + 1)
        model.attach_fusion(GatedFusionLayer.create(d_img, config.d_model, layer_rng))
    if args.init_ckpt:
        model.load_state(load_checkpoint(args.init_ckpt))

    examples = _training_examples(
        train_samples, vocab, use_prompts=args.prompt, features=features,
        max_len=config.max_len, with_images=args.variant == "fusion")
    if not examples:
        raise ValueError("no training examples fit within max_len")

    # every input has been read and checked: only now does train write
    out_dir.mkdir(parents=True, exist_ok=True)
    if built:
        vocab.save(vocab_path)
        _log(f"train: built vocabulary of {len(vocab)} tokens at {vocab_path}")
    # model directories are self-contained: correct loads vocab.txt from them
    if vocab_path != out_dir / "vocab.txt":
        vocab.save(out_dir / "vocab.txt")

    recipe = TrainingRecipe(steps=args.steps, batch_size=args.batch_size,
                            lr=args.lr, seed=args.seed, ckpt_every=args.ckpt_every)
    losses = run_training(model, examples, recipe,
                          log_path=out_dir / "train.log", ckpt_dir=out_dir)
    config.save(out_dir / "model.cfg")
    model.save_checkpoint(out_dir / "model.ckpt")
    _log(f"train: {len(examples)} examples, final loss {losses[-1]:.4f}, "
         f"artifacts in {out_dir}")
    return 0


def cmd_avg_ckpt(args) -> int:
    paths = args.ckpts or sorted(Path(args.dir).glob("step-*.ckpt"))[-args.last:]
    if not paths:
        raise ValueError(f"no step-*.ckpt files under {args.dir}")
    averaged = average_checkpoints(paths)
    save_checkpoint(args.out, averaged)
    _log(f"avg-ckpt: averaged {len(paths)} checkpoints into {args.out}")
    return 0


def _load_model_dir(path: Optional[str], ckpt_name: str) -> Optional[EncoderDecoderModel]:
    """The model of a train output directory; a checkpoint holding
    ``fusion.proj_w`` gets a fusion layer as wide as that matrix's rows."""
    if not path:
        return None
    directory = Path(path)
    config = ModelConfig.load(directory / "model.cfg")
    model = EncoderDecoderModel(config)
    state = load_checkpoint(directory / ckpt_name)
    if "fusion.proj_w" in state:
        proj_w = state["fusion.proj_w"]
        if proj_w.ndim != 2:
            raise ValueError(f"{directory / ckpt_name}: fusion.proj_w has shape "
                             f"{proj_w.shape}, not (d_img, d_model)")
        rng = np.random.default_rng(config.seed + 1)
        model.attach_fusion(GatedFusionLayer.create(len(proj_w), config.d_model, rng))
    model.load_state(state)
    model.eval()
    return model


def cmd_correct(args) -> int:
    samples = [s for s in read_manifest(args.manifest)
               if args.split == "all" or s.split == args.split]
    if not samples:
        raise ValueError(f"no {args.split!r} samples in {args.manifest}")
    features, _ = _load_features(args.features)

    vocab_dir = args.baseline_dir or args.prompt_dir or args.fusion_dir
    if vocab_dir is None and args.variant != "original":
        raise ValueError("correct: provide a model directory for the configured variant")
    vocab = Vocabulary.load(Path(vocab_dir) / "vocab.txt") if vocab_dir \
        else Vocabulary()

    models = CorrectionModels(
        vocab=vocab,
        baseline=_load_model_dir(args.baseline_dir, args.ckpt_name),
        prompt=_load_model_dir(args.prompt_dir, args.ckpt_name),
        fusion=_load_model_dir(args.fusion_dir, args.ckpt_name),
    )
    decode_cfg = DecodeConfig(strategy="beam", beam_size=args.beam_size,
                              max_decode_len=args.max_decode_len,
                              length_penalty=args.length_penalty)
    provider = _provider_from(args.embeddings) if args.filter else None
    pipe_cfg = PipelineConfig(variant=args.variant, filter=args.filter,
                              decode=decode_cfg, provider=provider)
    results = run_variant(pipe_cfg, models, samples, features=features)
    write_results(args.out, results)

    report = corpus_eval([(s.id, r.final, s.reference)
                          for s, r in zip(samples, results)])
    _log(f"correct: variant={args.variant} filter={args.filter} "
         f"WER={report.wer_percent:.2f} SER={report.ser_percent:.2f}")
    for r in results:
        for p in r.passthroughs:
            _log(f"correct: sample {r.sample_id}: {p.stage} input of {p.length} tokens "
                 f"exceeds max_len {p.max_len}, passed through unchanged")
    return 0


def cmd_ablate_random_captions(args) -> int:
    samples = read_manifest(args.manifest)
    shuffled = assign_random_captions(samples, seed=args.seed)
    write_manifest(args.out, shuffled)
    _log(f"ablate-random-captions: deranged {len(samples)} captions")
    return 0


def cmd_evaluate(args) -> int:
    if args.results:
        results = read_results(args.results)
        refs = {s.id: s.reference for s in read_manifest(args.manifest)}
        try:
            pairs = [(r.sample_id, r.final, refs[r.sample_id]) for r in results]
        except KeyError as exc:
            raise ValueError(f"{args.results}: sample id {exc} is not in "
                             f"{args.manifest}") from None
    else:
        hyp_lines = read_text(args.hyp).splitlines()
        ref_lines = read_text(args.ref).splitlines()
        if len(hyp_lines) != len(ref_lines):
            raise ValueError(f"{args.hyp} has {len(hyp_lines)} lines but "
                             f"{args.ref} has {len(ref_lines)}")
        pairs = [(str(i), h, r) for i, (h, r) in enumerate(zip(hyp_lines, ref_lines))]
    report = corpus_eval(pairs)
    print(report.summary())
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    vocab_size = 23
    config = ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2,
                         n_enc_layers=1, n_dec_layers=1, ffn_dim=16,
                         max_len=16, seed=args.seed)
    model = EncoderDecoderModel(config)
    model.attach_fusion(GatedFusionLayer.create(args.d_img, config.d_model,
                                                np.random.default_rng(args.seed + 1)))
    batch = []
    for _ in range(2):
        src = [1] + rng.integers(5, vocab_size, size=4).tolist() + [2]
        tgt = [1] + rng.integers(5, vocab_size, size=3).tolist() + [2]
        feat = ImageFeature(vector=rng.normal(size=args.d_img))
        batch.append((TokenSequence.of(src), TokenSequence.of(tgt), feat))
    result = audit_model(model, batch, step=args.step)
    print(f"max relative error: {result.max_error:.3e} (worst {result.worst()})")
    if result.max_error < args.tolerance:
        return 0
    _log(f"gradcheck: exceeded tolerance {args.tolerance}")
    return 1


# -- argument wiring --------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key-value model config file (flags win)")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--n-heads", type=int, dest="n_heads")
    p.add_argument("--enc-layers", type=int, dest="n_enc_layers")
    p.add_argument("--dec-layers", type=int, dest="n_dec_layers")
    p.add_argument("--ffn-dim", type=int, dest="ffn_dim")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--dropout", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capfuse",
        description="Multimodal ASR error correction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic corruption pairs")
    p.add_argument("--refs", required=True, help="reference transcripts, one per line")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--sub-rate", type=float, default=0.1, dest="sub_rate")
    p.add_argument("--del-rate", type=float, default=0.05, dest="del_rate")
    p.add_argument("--ins-rate", type=float, default=0.05, dest="ins_rate")
    p.add_argument("--homophones", help="JSON file: word -> list of confusables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("filter", help="similarity-filter annotated samples")
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--embeddings", help="VECF text-embedding file")
    p.add_argument("--splits", default="train,valid",
                   help="comma-separated splits the filter applies to, or 'all' "
                        "(default train,valid: the test set is taken as given)")
    p.add_argument("--out", required=True)
    p.add_argument("--dropped-out", dest="dropped_out")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("split", help="assign train/valid/test splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a correction model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", choices=("baseline", "fusion"), default="baseline")
    p.add_argument("--phase", choices=("pretrain", "finetune"), default="finetune")
    p.add_argument("--prompt", action="store_true",
                   help="prepend captions to sources with [SEP]")
    p.add_argument("--vocab", help="vocabulary file (built and saved if absent)")
    p.add_argument("--features", help="VECF image features (fusion variant)")
    p.add_argument("--d-img", type=int, default=16, dest="d_img",
                   help="image feature width when no feature file is given")
    p.add_argument("--init-ckpt", dest="init_ckpt",
                   help="checkpoint to start from (finetune phase)")
    p.add_argument("--steps", type=_positive_int, default=500)
    p.add_argument("--batch-size", type=_positive_int, default=16, dest="batch_size")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--ckpt-every", type=int, default=0, dest="ckpt_every")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("avg-ckpt", help="average trailing checkpoints")
    inputs = p.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--dir", help="directory holding step-*.ckpt files")
    inputs.add_argument("--ckpts", nargs="+", help="explicit checkpoint paths")
    p.add_argument("--last", type=_positive_int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_avg_ckpt)

    p = sub.add_parser("correct", help="run a correction variant over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", default="transformer")
    p.add_argument("--filter", action="store_true")
    p.add_argument("--split", default="test", choices=("train", "valid", "test", "all"))
    p.add_argument("--baseline-dir", dest="baseline_dir")
    p.add_argument("--prompt-dir", dest="prompt_dir")
    p.add_argument("--fusion-dir", dest="fusion_dir")
    p.add_argument("--ckpt-name", default="model.ckpt", dest="ckpt_name")
    p.add_argument("--features", help="VECF image features")
    p.add_argument("--embeddings", help="VECF text embeddings for the filter")
    p.add_argument("--beam-size", type=_positive_int, default=4, dest="beam_size")
    p.add_argument("--max-decode-len", type=int, default=40, dest="max_decode_len")
    p.add_argument("--length-penalty", type=float, default=1.0, dest="length_penalty")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("ablate-random-captions",
                       help="derange the caption column of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate_random_captions)

    p = sub.add_parser("evaluate", help="WER/SER report")
    p.add_argument("--hyp", help="hypothesis text file")
    p.add_argument("--ref", help="reference text file")
    p.add_argument("--results", help="results file from the correct subcommand")
    p.add_argument("--manifest", help="manifest supplying references for --results")
    p.add_argument("--out", help="structured report output path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference audit of a micro model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--d-img", type=_positive_int, default=6, dest="d_img")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and not args.results and not (args.hyp and args.ref):
        parser.error("evaluate needs --hyp/--ref or --results with --manifest")
    if args.command == "evaluate" and args.results and not args.manifest:
        parser.error("evaluate --results needs --manifest for references")
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
