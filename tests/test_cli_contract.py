"""The CLI's exit-status contract, table-driven: every subcommand against a
catalogue of bad inputs. Each case must exit 2, name the offending path (or
flag) on stderr, print no traceback, and leave every file as it was."""

import json
import shutil
import struct

import numpy as np
import pytest

from capfuse.checkpoint import save_checkpoint
from capfuse.cli import main
from capfuse.data import SampleRecord, write_manifest
from capfuse.model import EncoderDecoderModel, ModelConfig
from capfuse.text import build_vocab
from capfuse.vecfile import save_vectors


@pytest.fixture
def root(tmp_path):
    root = tmp_path / "contract"
    root.mkdir()
    (root / "adir").mkdir()
    (root / "empty").mkdir()
    (root / "refs.txt").write_text("the red fox\na big dog\n", encoding="utf-8")
    records = [SampleRecord(id=f"s{i}", source=f"the red fox {i}", reference="the red fox",
                            caption="a fox", image_feature_id=f"img{i}",
                            split="test" if i == 3 else "train") for i in range(4)]
    write_manifest(root / "m.jsonl", records)
    rng = np.random.default_rng(0)
    save_vectors(root / "img.vecf", {f"img{i}": rng.normal(size=4) for i in range(4)}, 4)
    save_vectors(root / "emb.vecf", {"a fox": rng.normal(size=4)}, 4)
    vocab = build_vocab([r.source for r in records] + [r.caption for r in records])
    model = root / "model"
    model.mkdir()
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                         n_dec_layers=1, ffn_dim=16, max_len=16)
    config.save(model / "model.cfg")
    vocab.save(model / "vocab.txt")
    save_checkpoint(model / "model.ckpt", EncoderDecoderModel(config).state())
    blob = (model / "model.ckpt").read_bytes()
    (root / "cut.ckpt").write_bytes(blob[:len(blob) // 2])
    flipped = bytearray(blob)
    flipped[8:12] = struct.pack("<I", 0)  # parameter count
    (root / "flipped.ckpt").write_bytes(bytes(flipped))
    shutil.copytree(model, root / "cutmodel")
    shutil.copy(root / "cut.ckpt", root / "cutmodel" / "model.ckpt")
    (root / "cut.vecf").write_bytes((root / "img.vecf").read_bytes()[:-3])
    assert main(["correct", "--manifest", str(root / "m.jsonl"), "--split", "all",
                 "--variant", "original", "--out", str(root / "results.jsonl")]) == 0
    (root / "listline.jsonl").write_text('["a", "b"]\n', encoding="utf-8")
    (root / "hyp.txt").write_text("the red fox\n", encoding="utf-8")
    for name, value in [("list", ["plant", "plan"]), ("int", {"plant": 3}),
                        ("nested", {"plant": [1]}), ("string", {"plant": "plan"})]:
        (root / f"{name}.json").write_text(json.dumps(value), encoding="utf-8")
    (root / "broken.json").write_text("{", encoding="utf-8")
    # text that is not UTF-8, in every kind of text file a command reads
    (root / "bad.txt").write_bytes(b"the red fox\nbad \xff\n")
    (root / "bad.json").write_bytes(b'{"plant": ["pl\xffan"]}')
    (root / "bad.jsonl").write_bytes((root / "m.jsonl").read_bytes() + b'{"id": "\xff"}\n')
    for name in ("model.cfg", "vocab.txt"):
        shutil.copytree(model, root / f"bad-{name}")
        (root / f"bad-{name}" / name).write_bytes(b"\xff\n")
    # a record repeated: the first feature again, and one checkpoint entry twice
    blob = (root / "img.vecf").read_bytes()
    (root / "dup.vecf").write_bytes(blob + blob[12:12 + 4 + len("img0") + 4 * 4])
    save_checkpoint(tmp_path / "one.ckpt", {"w": np.ones(3)})
    entry = (tmp_path / "one.ckpt").read_bytes()[12:]
    (root / "dup.ckpt").write_bytes(b"CFCK" + struct.pack("<II", 1, 2) + entry + entry)
    return root


def _snapshot(root):
    return {str(p): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _run(argv, capsys):
    capsys.readouterr()
    try:
        status = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects a flag value with exit 2
        status = exc.code
    return status, capsys.readouterr().err


def _check(root, capsys, argv, needle):
    before = _snapshot(root)
    status, err = _run([a.format(r=root) for a in argv], capsys)
    assert "Traceback" not in err
    assert ".tmp" not in err  # errors name the target, never the temporary file
    assert status == 2, err
    assert needle.format(r=root) in err
    assert _snapshot(root) == before


# argparse keeps the last value of a repeated flag, so a case overrides a
# base invocation by appending to it
SYNTH = ["synth", "--refs", "{r}/refs.txt", "--n", "4", "--out", "{r}/out.jsonl"]
FILTER = ["filter", "--manifest", "{r}/m.jsonl", "--out", "{r}/out.jsonl"]
SPLIT = ["split", "--manifest", "{r}/m.jsonl", "--out", "{r}/out.jsonl"]
TRAIN = ["train", "--manifest", "{r}/m.jsonl", "--out-dir", "{r}/run", "--steps", "2",
         "--d-model", "8", "--n-heads", "2", "--enc-layers", "1", "--dec-layers", "1",
         "--ffn-dim", "16"]
AVG = ["avg-ckpt", "--out", "{r}/avg.ckpt"]
CORRECT = ["correct", "--manifest", "{r}/m.jsonl", "--split", "all",
           "--max-decode-len", "3", "--out", "{r}/res.jsonl"]
ORIGINAL = CORRECT + ["--variant", "original"]
ABLATE = ["ablate-random-captions", "--manifest", "{r}/m.jsonl", "--out", "{r}/out.jsonl"]
EVAL_TEXT = ["evaluate", "--hyp", "{r}/hyp.txt", "--ref", "{r}/hyp.txt",
             "--out", "{r}/rep.json"]
EVAL_RESULTS = ["evaluate", "--results", "{r}/results.jsonl", "--manifest", "{r}/m.jsonl",
                "--out", "{r}/rep.json"]

CASES = {
    # a directory where a file belongs
    "synth --refs dir": (SYNTH + ["--refs", "{r}/adir"], "{r}/adir"),
    "synth --homophones dir": (SYNTH + ["--homophones", "{r}/adir"], "{r}/adir"),
    "synth --out dir": (SYNTH + ["--out", "{r}/adir"], "{r}/adir"),
    "filter --manifest dir": (FILTER + ["--manifest", "{r}/adir"], "{r}/adir"),
    "filter --embeddings dir": (FILTER + ["--embeddings", "{r}/adir"], "{r}/adir"),
    "split --manifest dir": (SPLIT + ["--manifest", "{r}/adir"], "{r}/adir"),
    "train --manifest dir": (TRAIN + ["--manifest", "{r}/adir"], "{r}/adir"),
    "train --vocab dir": (TRAIN + ["--vocab", "{r}/adir"], "{r}/adir"),
    "train --config dir": (TRAIN + ["--config", "{r}/adir"], "{r}/adir"),
    "train --features dir": (TRAIN + ["--variant", "fusion", "--features", "{r}/adir"],
                             "{r}/adir"),
    "train --init-ckpt dir": (TRAIN + ["--init-ckpt", "{r}/adir"], "{r}/adir"),
    "avg-ckpt --ckpts dir": (AVG + ["--ckpts", "{r}/adir"], "{r}/adir"),
    "avg-ckpt --out dir": (AVG + ["--ckpts", "{r}/model/model.ckpt", "--out", "{r}/adir"],
                           "{r}/adir"),
    "correct --manifest dir": (ORIGINAL + ["--manifest", "{r}/adir"], "{r}/adir"),
    "correct --features dir": (ORIGINAL + ["--features", "{r}/adir"], "{r}/adir"),
    "correct --embeddings dir": (CORRECT + ["--variant", "fusion", "--filter",
                                            "--fusion-dir", "{r}/model",
                                            "--embeddings", "{r}/adir"], "{r}/adir"),
    "correct --baseline-dir without model": (CORRECT + ["--baseline-dir", "{r}/adir"],
                                             "{r}/adir"),
    "correct --out dir": (ORIGINAL + ["--out", "{r}/adir"], "{r}/adir"),
    "correct --out in missing dir": (ORIGINAL + ["--out", "{r}/missing/res.jsonl"],
                                     "{r}/missing/res.jsonl"),
    "ablate --manifest dir": (ABLATE + ["--manifest", "{r}/adir"], "{r}/adir"),
    "evaluate --hyp dir": (EVAL_TEXT + ["--hyp", "{r}/adir"], "{r}/adir"),
    "evaluate --ref dir": (EVAL_TEXT + ["--ref", "{r}/adir"], "{r}/adir"),
    "evaluate --results dir": (EVAL_RESULTS + ["--results", "{r}/adir"], "{r}/adir"),
    "evaluate --manifest dir": (EVAL_RESULTS + ["--manifest", "{r}/adir"], "{r}/adir"),
    "evaluate --out dir": (EVAL_TEXT + ["--out", "{r}/adir"], "{r}/adir"),
    # JSON of the wrong type
    "synth --homophones list": (SYNTH + ["--homophones", "{r}/list.json"],
                                "{r}/list.json"),
    "synth --homophones int value": (SYNTH + ["--homophones", "{r}/int.json"],
                                     "{r}/int.json"),
    "synth --homophones int in list": (SYNTH + ["--homophones", "{r}/nested.json"],
                                       "{r}/nested.json"),
    "synth --homophones string value": (SYNTH + ["--homophones", "{r}/string.json"],
                                        "{r}/string.json"),
    "synth --homophones not JSON": (SYNTH + ["--homophones", "{r}/broken.json"],
                                    "{r}/broken.json"),
    "filter --manifest list line": (FILTER + ["--manifest", "{r}/listline.jsonl"],
                                    "{r}/listline.jsonl:1"),
    "evaluate --results list line": (EVAL_RESULTS + ["--results", "{r}/listline.jsonl"],
                                     "{r}/listline.jsonl:1"),
    # zero and negative counts, empty lists
    "synth --n 0": (SYNTH + ["--n", "0"], "--n"),
    "synth --n -1": (SYNTH + ["--n", "-1"], "--n"),
    "train --steps 0": (TRAIN + ["--steps", "0"], "--steps"),
    "train --batch-size 0": (TRAIN + ["--batch-size", "0"], "--batch-size"),
    "train --batch-size -2": (TRAIN + ["--batch-size", "-2"], "--batch-size"),
    "avg-ckpt --last 0": (AVG + ["--dir", "{r}/model", "--last", "0"], "--last"),
    "avg-ckpt --ckpts empty": (AVG + ["--ckpts"], "--ckpts"),
    "avg-ckpt no inputs": (AVG, "--dir"),
    "correct --beam-size 0": (CORRECT + ["--baseline-dir", "{r}/model", "--beam-size", "0"],
                              "--beam-size"),
    "gradcheck --d-img 0": (["gradcheck", "--d-img", "0"], "--d-img"),
    "gradcheck --d-img -2": (["gradcheck", "--d-img", "-2"], "--d-img"),
    # inputs that hold nothing to work on
    "split --ratios two values": (SPLIT + ["--ratios", "1,2"], "--ratios"),
    "train no pretrain records": (TRAIN + ["--phase", "pretrain"], "{r}/m.jsonl"),
    "train no example fits": (TRAIN + ["--max-len", "3"], "max_len"),
    "train d_model not divisible": (TRAIN + ["--n-heads", "3"], "d_model"),
    "avg-ckpt --dir without checkpoints": (AVG + ["--dir", "{r}/empty"], "{r}/empty"),
    "correct no samples in split": (ORIGINAL + ["--split", "valid"], "{r}/m.jsonl"),
    "correct no model dir": (CORRECT, "model directory"),
    # truncated and flipped binary files
    "train --init-ckpt cut": (TRAIN + ["--init-ckpt", "{r}/cut.ckpt"], "{r}/cut.ckpt"),
    "train --init-ckpt flipped": (TRAIN + ["--init-ckpt", "{r}/flipped.ckpt"],
                                  "{r}/flipped.ckpt"),
    "train --features cut": (TRAIN + ["--variant", "fusion", "--features", "{r}/cut.vecf"],
                             "{r}/cut.vecf"),
    "correct model.ckpt cut": (CORRECT + ["--baseline-dir", "{r}/cutmodel"],
                               "{r}/cutmodel/model.ckpt"),
    "correct --features cut": (ORIGINAL + ["--features", "{r}/cut.vecf"], "{r}/cut.vecf"),
    "avg-ckpt --ckpts flipped": (AVG + ["--ckpts", "{r}/flipped.ckpt"],
                                 "{r}/flipped.ckpt"),
    # text that is not UTF-8
    "synth --refs not UTF-8": (SYNTH + ["--refs", "{r}/bad.txt"],
                               "{r}/bad.txt: not valid UTF-8 at byte 16"),
    "synth --homophones not UTF-8": (SYNTH + ["--homophones", "{r}/bad.json"],
                                     "{r}/bad.json: not valid UTF-8 at byte 14"),
    "split --manifest not UTF-8": (SPLIT + ["--manifest", "{r}/bad.jsonl"],
                                   "{r}/bad.jsonl: not valid UTF-8"),
    "evaluate --results not UTF-8": (EVAL_RESULTS + ["--results", "{r}/bad.jsonl"],
                                     "{r}/bad.jsonl: not valid UTF-8"),
    "train --vocab not UTF-8": (TRAIN + ["--vocab", "{r}/bad.txt"], "{r}/bad.txt"),
    "train --config not UTF-8": (TRAIN + ["--config", "{r}/bad.txt"], "{r}/bad.txt"),
    "correct model.cfg not UTF-8": (CORRECT + ["--baseline-dir", "{r}/bad-model.cfg"],
                                    "{r}/bad-model.cfg/model.cfg: not valid UTF-8"),
    "correct vocab.txt not UTF-8": (CORRECT + ["--baseline-dir", "{r}/bad-vocab.txt"],
                                    "{r}/bad-vocab.txt/vocab.txt: not valid UTF-8"),
    "evaluate --hyp not UTF-8": (EVAL_TEXT + ["--hyp", "{r}/bad.txt"], "{r}/bad.txt"),
    "evaluate --ref not UTF-8": (EVAL_TEXT + ["--ref", "{r}/bad.txt"], "{r}/bad.txt"),
    # two outputs: both are published, or neither
    "filter --dropped-out in missing dir": (
        FILTER + ["--dropped-out", "{r}/nodir/d.jsonl"], "{r}/nodir/d.jsonl"),
    "filter --out dir with --dropped-out": (
        FILTER + ["--out", "{r}/adir", "--dropped-out", "{r}/d.jsonl"], "{r}/adir"),
    # a repeated id or name
    "filter --embeddings repeated id": (
        FILTER + ["--embeddings", "{r}/dup.vecf"],
        "{r}/dup.vecf: duplicate id 'img0' in the record at byte 108"),
    "correct --features repeated id": (ORIGINAL + ["--features", "{r}/dup.vecf"],
                                       "{r}/dup.vecf: duplicate id 'img0'"),
    "avg-ckpt --ckpts repeated name": (
        AVG + ["--ckpts", "{r}/dup.ckpt"],
        "{r}/dup.ckpt: duplicate name 'w' in the entry at byte 49"),
    "train --init-ckpt repeated name": (TRAIN + ["--init-ckpt", "{r}/dup.ckpt"],
                                        "{r}/dup.ckpt: duplicate name 'w'"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_exits_2_naming_it_and_writes_nothing(root, capsys, case):
    argv, needle = CASES[case]
    _check(root, capsys, argv, needle)


def test_checkpoint_cut_at_every_offset_exits_2(root, capsys, tmp_path):
    save_checkpoint(tmp_path / "one.ckpt", {"w": np.arange(12.0).reshape(3, 4)})
    blob = (tmp_path / "one.ckpt").read_bytes()
    for n in range(len(blob)):
        (root / "cut-n.ckpt").write_bytes(blob[:n])
        _check(root, capsys, AVG + ["--ckpts", "{r}/cut-n.ckpt"],
               f"{{r}}/cut-n.ckpt: truncated at byte {n},")


def test_vecf_cut_at_every_non_boundary_offset_exits_2(root, capsys, tmp_path):
    save_vectors(tmp_path / "two.vecf", {"a fox": np.ones(4), "bc": np.zeros(4)}, 4)
    blob = (tmp_path / "two.vecf").read_bytes()
    boundaries = {12, 12 + 4 + len("a fox") + 16}  # these cuts load fewer records
    for n in sorted(set(range(len(blob))) - boundaries):
        (root / "cut-n.vecf").write_bytes(blob[:n])
        _check(root, capsys, FILTER + ["--embeddings", "{r}/cut-n.vecf"],
               f"{{r}}/cut-n.vecf: truncated at byte {n},")
