import importlib.util
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from capfuse.checkpoint import save_checkpoint
from capfuse.cli import main
from capfuse.data import read_manifest, SampleRecord, write_manifest
from capfuse.model import EncoderDecoderModel, ModelConfig
from capfuse.text import Vocabulary
from capfuse.vecfile import save_vectors


def run(*argv):
    return main([str(a) for a in argv])


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_evaluate_identical_files(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    _write_lines(hyp, ["a b c", "d e"])
    _write_lines(ref, ["a b c", "d e"])
    out = tmp_path / "report.json"
    assert run("evaluate", "--hyp", hyp, "--ref", ref, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "WER:           0.00" in stdout
    assert "SER:           0.00" in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["corpus"]["wer_percent"] == 0.0


def test_evaluate_requires_inputs():
    with pytest.raises(SystemExit):
        run("evaluate")


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("evaluate", "--bogus")
    assert excinfo.value.code != 0
    assert "usage" in capsys.readouterr().err


def _hand_scored_manifest(tmp_path):
    # caption vectors at hand-placed cosines 0.15 / 0.25 / 0.35 to the
    # reference vector (1, 0)
    manifest = tmp_path / "data.jsonl"
    records = []
    vectors = {"the reference": np.array([1.0, 0.0], dtype=np.float32)}
    for i, target in enumerate((0.15, 0.25, 0.35)):
        caption = f"caption {i}"
        vectors[caption] = np.array(
            [target, np.sqrt(1 - target ** 2)], dtype=np.float32)
        records.append(SampleRecord(id=f"s{i}", source="src", caption=caption,
                                    reference="the reference"))
    write_manifest(manifest, records)
    emb = tmp_path / "emb.vecf"
    save_vectors(emb, vectors, dim=2)
    return manifest, emb


@pytest.mark.parametrize("threshold,expected", [(0.1, 3), (0.2, 2), (0.3, 1)])
def test_filter_hand_scored_thresholds(tmp_path, threshold, expected):
    manifest, emb = _hand_scored_manifest(tmp_path)
    out = tmp_path / "kept.jsonl"
    assert run("filter", "--manifest", manifest, "--embeddings", emb,
               "--threshold", threshold, "--out", out) == 0
    assert len(read_manifest(out)) == expected


def test_filter_leaves_test_split_untouched(tmp_path):
    manifest = tmp_path / "mixed.jsonl"
    write_manifest(manifest, [
        SampleRecord(id="tr", source="s", reference="the reference",
                     caption="nothing alike", split="train"),
        SampleRecord(id="te", source="s", reference="the reference",
                     caption="nothing alike", split="test"),
    ])
    out = tmp_path / "kept.jsonl"
    assert run("filter", "--manifest", manifest, "--threshold", "0.99",
               "--out", out) == 0
    kept = read_manifest(out)
    # the train record fails the 0.99 threshold; the test record passes through
    assert [r.id for r in kept] == ["te"]
    out_all = tmp_path / "kept-all.jsonl"
    assert run("filter", "--manifest", manifest, "--threshold", "0.99",
               "--splits", "all", "--out", out_all) == 0
    assert read_manifest(out_all) == []


def test_synth_reproducible_byte_identical(tmp_path):
    refs = tmp_path / "refs.txt"
    _write_lines(refs, ["the plant grows tall", "we plan the trip"])
    homophones = tmp_path / "homophones.json"
    homophones.write_text(json.dumps({"plant": ["plan"], "plan": ["plant"]}),
                          encoding="utf-8")
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert run("synth", "--refs", refs, "--n", 20, "--sub-rate", 0.3,
                   "--homophones", homophones, "--seed", 7, "--out", out) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = read_manifest(out1)
    assert len(records) == 20
    assert all(r.origin == "synthetic" for r in records)


def test_split_counts_and_determinism(tmp_path):
    manifest = tmp_path / "data.jsonl"
    write_manifest(manifest, [
        SampleRecord(id=f"r{i}", source="s", reference="r") for i in range(10)])
    out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    for out in (out1, out2):
        assert run("split", "--manifest", manifest, "--ratios", "0.8,0.1,0.1",
                   "--seed", 3, "--out", out) == 0
    assert out1.read_bytes() == out2.read_bytes()
    splits = [r.split for r in read_manifest(out1)]
    assert splits.count("train") == 8
    assert splits.count("valid") == 1
    assert splits.count("test") == 1


def test_ablate_random_captions_derangement(tmp_path):
    manifest = tmp_path / "data.jsonl"
    records = [SampleRecord(id=f"r{i}", source="s", reference="r",
                            caption=f"cap {i}") for i in range(6)]
    write_manifest(manifest, records)
    out = tmp_path / "deranged.jsonl"
    assert run("ablate-random-captions", "--manifest", manifest, "--seed", 1,
               "--out", out) == 0
    deranged = read_manifest(out)
    assert sorted(r.caption for r in deranged) == sorted(r.caption for r in records)
    assert all(a.caption != b.caption for a, b in zip(records, deranged))


def test_gradcheck_exits_zero(capsys):
    assert run("gradcheck", "--seed", 0) == 0
    assert "max relative error" in capsys.readouterr().out


def _train_args(manifest, out_dir, extra=()):
    return ("train", "--manifest", manifest, "--out-dir", out_dir,
            "--steps", 12, "--batch-size", 2, "--d-model", 16, "--n-heads", 2,
            "--enc-layers", 1, "--dec-layers", 1, "--ffn-dim", 32,
            "--ckpt-every", 4, "--seed", 5, *extra)


def _toy_manifest(tmp_path):
    manifest = tmp_path / "train.jsonl"
    words = ["red", "fox", "ran", "far", "big", "dog", "sat"]
    rng = np.random.default_rng(0)
    records = []
    for i in range(8):
        sent = " ".join(rng.choice(words, size=3))
        records.append(SampleRecord(id=f"t{i}", source=sent, reference=sent,
                                    caption="a scene"))
    write_manifest(manifest, records)
    return manifest


def test_train_avg_correct_end_to_end(tmp_path):
    manifest = _toy_manifest(tmp_path)
    out_dir = tmp_path / "run1"
    assert run(*_train_args(manifest, out_dir)) == 0
    assert (out_dir / "model.ckpt").exists()
    assert (out_dir / "model.cfg").exists()
    assert (out_dir / "vocab.txt").exists()
    log_lines = (out_dir / "train.log").read_text().splitlines()
    assert len(log_lines) == 12
    step, loss, lr = log_lines[0].split()
    assert step == "1" and float(loss) > 0 and float(lr) > 0

    avg = tmp_path / "avg.ckpt"
    assert run("avg-ckpt", "--dir", out_dir, "--last", 2, "--out", avg) == 0

    results = tmp_path / "results.jsonl"
    assert run("correct", "--manifest", manifest, "--variant", "transformer",
               "--baseline-dir", out_dir, "--split", "all",
               "--beam-size", 2, "--max-decode-len", 8, "--out", results) == 0
    assert len(results.read_text().splitlines()) == 8

    report = tmp_path / "report.json"
    assert run("evaluate", "--results", results, "--manifest", manifest,
               "--out", report) == 0


def test_train_artifacts_byte_identical_across_runs(tmp_path):
    manifest = _toy_manifest(tmp_path)
    dirs = [tmp_path / "runA", tmp_path / "runB"]
    for out_dir in dirs:
        assert run(*_train_args(manifest, out_dir)) == 0
    for name in ("model.ckpt", "train.log", "model.cfg", "vocab.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_correct_variant_original_reproduces_sources(tmp_path):
    manifest = _toy_manifest(tmp_path)
    results = tmp_path / "orig.jsonl"
    assert run("correct", "--manifest", manifest, "--variant", "original",
               "--split", "all", "--out", results) == 0
    records = read_manifest(manifest)
    lines = [json.loads(line) for line in results.read_text().splitlines()]
    assert [l["final"] for l in lines] == [r.source for r in records]


def test_correct_rejects_non_finite_length_penalty(tmp_path, capsys):
    results = tmp_path / "res.jsonl"
    capsys.readouterr()
    assert run("correct", "--manifest", _toy_manifest(tmp_path), "--variant", "original",
               "--split", "all", "--length-penalty", "nan", "--out", results) == 2
    err = capsys.readouterr().err
    assert "length_penalty must be finite" in err and "got nan" in err
    assert "Traceback" not in err
    assert not results.exists()


def test_evaluate_results_rejects_manifest_with_duplicate_ids(tmp_path, capsys):
    manifest = _toy_manifest(tmp_path)
    results = tmp_path / "orig.jsonl"
    assert run("correct", "--manifest", manifest, "--variant", "original",
               "--split", "all", "--out", results) == 0
    records = read_manifest(manifest)
    records[5].id = records[2].id
    write_manifest(manifest, records)
    capsys.readouterr()
    assert run("evaluate", "--results", results, "--manifest", manifest) == 2
    assert f"{manifest}:6: duplicate sample id 't2'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_correct_rejects_max_decode_len_below_one(tmp_path, capsys, value):
    results = tmp_path / "res.jsonl"
    capsys.readouterr()
    assert run("correct", "--manifest", _toy_manifest(tmp_path), "--variant", "original",
               "--split", "all", "--max-decode-len", value, "--out", results) == 2
    err = capsys.readouterr().err
    assert f"max_decode_len must be >= 1, got {value}" in err
    assert "Traceback" not in err
    assert not results.exists()


@pytest.mark.parametrize("line", ['["a", "b"]', '"just a string"'])
def test_evaluate_rejects_manifest_line_that_is_not_an_object(tmp_path, capsys, line):
    manifest = _toy_manifest(tmp_path)
    results = tmp_path / "orig.jsonl"
    assert run("correct", "--manifest", manifest, "--variant", "original",
               "--split", "all", "--out", results) == 0
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert run("evaluate", "--results", results, "--manifest", manifest) == 2
    assert f"{manifest}:9: bad manifest record: expected a JSON object" \
        in capsys.readouterr().err


@pytest.mark.parametrize("line, detail", [
    ("garbage", "Expecting value"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"sample_id": "t0", "original": "a"}', "missing key 'stage_outputs'"),
    ('{"sample_id": "t0", "original": "a", "stage_outputs": [1], "final": "a", '
     '"filter_decisions": []}', "bad results record"),
])
def test_evaluate_rejects_bad_results_line_naming_file_and_line(tmp_path, capsys,
                                                                 line, detail):
    manifest = _toy_manifest(tmp_path)
    results = tmp_path / "orig.jsonl"
    assert run("correct", "--manifest", manifest, "--variant", "original",
               "--split", "all", "--out", results) == 0
    lines = results.read_text(encoding="utf-8").splitlines()
    _write_lines(results, lines[:2] + [line] + lines[2:])
    capsys.readouterr()
    assert run("evaluate", "--results", results, "--manifest", manifest) == 2
    err = capsys.readouterr().err
    assert f"{results}:3: bad results record: " in err and detail in err
    assert "Traceback" not in err


def test_evaluate_rejects_result_id_missing_from_manifest(tmp_path, capsys):
    manifest = _toy_manifest(tmp_path)
    results = tmp_path / "orig.jsonl"
    assert run("correct", "--manifest", manifest, "--variant", "original",
               "--split", "all", "--out", results) == 0
    line = json.loads(results.read_text(encoding="utf-8").splitlines()[0])
    line["sample_id"] = "zz"
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    capsys.readouterr()
    assert run("evaluate", "--results", results, "--manifest", manifest) == 2
    assert f"{results}: sample id 'zz' is not in {manifest}" in capsys.readouterr().err


def test_evaluate_hyp_ref_line_count_mismatch_exits_2(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    _write_lines(hyp, ["a b c", "d e"])
    _write_lines(ref, ["a b c"])
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run("evaluate", "--hyp", hyp, "--ref", ref, "--out", out) == 2
    assert f"{hyp} has 2 lines but {ref} has 1" in capsys.readouterr().err
    assert not out.exists()


def _image_manifest(tmp_path, width):
    """The toy manifest with an image id per record, and a VECF file of
    ``width``-wide features for those ids."""
    manifest = tmp_path / "images.jsonl"
    records = read_manifest(_toy_manifest(tmp_path))
    for i, record in enumerate(records):
        record.image_feature_id = f"img{i}"
    write_manifest(manifest, records)
    rng = np.random.default_rng(width)
    features = tmp_path / f"img{width}.vecf"
    save_vectors(features, {r.image_feature_id: rng.normal(size=width).astype(np.float32)
                            for r in records}, dim=width)
    return manifest, features


def test_fusion_model_dir_reloads_at_its_own_image_width(tmp_path, capsys):
    manifest, features = _image_manifest(tmp_path, width=8)
    fusion_dir, base_dir = tmp_path / "fusion", tmp_path / "base"
    assert run(*_train_args(manifest, fusion_dir,
                            ("--variant", "fusion", "--features", features))) == 0
    assert run(*_train_args(manifest, base_dir)) == 0
    correct = ("correct", "--variant", "transformer_then_fusion", "--split", "all",
               "--baseline-dir", base_dir, "--fusion-dir", fusion_dir,
               "--beam-size", 2, "--max-decode-len", 6)

    # no image ids and no --features: every sample fuses the zero feature
    imageless = _toy_manifest(tmp_path)
    results = tmp_path / "imageless.jsonl"
    assert run(*correct, "--manifest", imageless, "--out", results) == 0
    assert len(results.read_text().splitlines()) == 8

    _, narrow = _image_manifest(tmp_path, width=5)
    capsys.readouterr()
    assert run(*correct, "--manifest", manifest, "--features", narrow,
               "--out", tmp_path / "narrow.jsonl") == 2
    assert re.search(r"\b5\b.*\b8\b", capsys.readouterr().err)


def test_train_config_file_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "model.conf"
    config.write_text("d_model = 16\nn_head = 2\n", encoding="utf-8")
    capsys.readouterr()
    assert run(*_train_args(_toy_manifest(tmp_path), tmp_path / "run",
                            ("--config", config))) == 2
    err = capsys.readouterr().err
    assert f"{config}, line 2" in err and "n_head" in err


def test_correct_rejects_unknown_key_in_model_cfg(tmp_path, capsys):
    manifest = _toy_manifest(tmp_path)
    out_dir = tmp_path / "run"
    assert run(*_train_args(manifest, out_dir)) == 0
    with open(out_dir / "model.cfg", "a", encoding="utf-8") as fh:
        fh.write("n_head = 2\n")
    capsys.readouterr()
    assert run("correct", "--manifest", manifest, "--split", "all",
               "--baseline-dir", out_dir, "--out", tmp_path / "res.jsonl") == 2
    assert f"{out_dir / 'model.cfg'}, line 10" in capsys.readouterr().err


def test_correct_rejects_fusion_checkpoint_without_a_matrix(tmp_path, capsys):
    manifest = _toy_manifest(tmp_path)
    model_dir = tmp_path / "fusion"
    model_dir.mkdir()
    config = ModelConfig(vocab_size=len(Vocabulary()), d_model=16, n_heads=2,
                         n_enc_layers=1, n_dec_layers=1, ffn_dim=32)
    config.save(model_dir / "model.cfg")
    Vocabulary().save(model_dir / "vocab.txt")
    state = EncoderDecoderModel(config).state()
    state["fusion.proj_w"] = np.zeros(1)
    ckpt = model_dir / "model.ckpt"
    save_checkpoint(ckpt, state)
    # rewrite the last record's shape, ndim 1 and length 1, as ndim 0
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[:-16] + struct.pack("<I", 0) + data[-8:])
    capsys.readouterr()
    assert run("correct", "--manifest", manifest, "--variant", "fusion", "--split", "all",
               "--fusion-dir", model_dir, "--out", tmp_path / "res.jsonl") == 2
    assert "fusion.proj_w has shape ()" in capsys.readouterr().err


def test_train_stops_on_non_finite_loss_and_writes_no_model(tmp_path, capsys):
    manifest = _toy_manifest(tmp_path)
    first = tmp_path / "first"
    assert run(*_train_args(manifest, first)) == 0
    state = EncoderDecoderModel(ModelConfig.load(first / "model.cfg")).state()
    state["out.b"][5] = np.nan
    init = tmp_path / "nan.ckpt"
    save_checkpoint(init, state)
    out_dir = tmp_path / "diverged"
    capsys.readouterr()
    assert run(*_train_args(manifest, out_dir, ("--vocab", first / "vocab.txt",
                                                 "--init-ckpt", init))) == 2
    assert "step 1: loss is nan" in capsys.readouterr().err
    assert not (out_dir / "model.ckpt").exists()
    assert not (out_dir / "model.cfg").exists()
    assert not list(out_dir.glob("step-*.ckpt"))


def test_cli_reproduces_golden_digests(tmp_path):
    # the files, exit statuses and output of a fixed CLI sequence, as
    # tests/data/make_cli_golden.py wrote them
    path = Path(__file__).parent / "data" / "make_cli_golden.py"
    spec = importlib.util.spec_from_file_location("make_cli_golden", path)
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    golden = json.loads(maker.OUT.read_text(encoding="utf-8"))
    got = maker.run(tmp_path)
    for want, have in zip(golden["commands"], got["commands"]):
        assert have == want, want["name"]
    assert len(got["commands"]) == len(golden["commands"])
    differing = [name for name in sorted(golden["files"].keys() | got["files"].keys())
                 if golden["files"].get(name) != got["files"].get(name)]
    assert not differing, f"first differing file: {differing[0]} (of {len(differing)})"
