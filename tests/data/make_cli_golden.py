"""Write ``cli_golden.json``: the SHA-256 of every file a fixed sequence of
``capfuse`` commands produces, and the exit status, stdout and stderr of each
command.

The sequence covers every subcommand and the variants the CLI's other tests
skip: synth with homophones, split, filter with text embeddings and
``--dropped-out``, the caption ablation, a pretrain run with periodic
checkpoints, a finetune from ``--init-ckpt``, a caption-prompt and a fusion
run, ``avg-ckpt`` over ``--dir`` and over ``--ckpts``, three correction
variants (one of them ``prompt_then_fusion --filter``), three ``evaluate
--out`` and ``gradcheck``. The commands run in-process in a fresh directory,
whose path is replaced by ``<run>`` in the captured output. The vocabulary
stays under 100 tokens, so no reduction is wide enough for its bits to
depend on the BLAS thread count. Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_cli_golden.py

Regenerate it only when a change of the artifacts' bytes is intended, never
to absorb a drift in them.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from capfuse.cli import main as cli_main
from capfuse.data import SampleRecord, write_manifest
from capfuse.vecfile import save_vectors

OUT = Path(__file__).with_name("cli_golden.json")
RUN = "<run>"
D_IMG = 8

TRIPLES = [("write", "right", "rite"), ("pair", "pear", "pare"),
           ("road", "rode", "rowed"), ("sent", "cent", "scent")]
FILLERS = ["the", "man", "cat", "saw", "a", "red", "old", "by", "river", "house"]
MODEL = ["--d-model", "16", "--n-heads", "2", "--enc-layers", "1", "--dec-layers", "1",
         "--ffn-dim", "32", "--max-len", "24", "--batch-size", "6"]


def write_inputs(root: Path) -> None:
    """Reference lines, a homophone table, an annotated manifest with
    captions, image features and caption embeddings, all from one seed."""
    rng = np.random.default_rng(2600)
    words = [w for triple in TRIPLES for w in triple]
    references = []
    for _ in range(12):
        filler = rng.choice(FILLERS, size=3).tolist()
        references.append(" ".join(filler[:2] + [str(rng.choice(words))] + filler[2:]))
    (root / "refs.txt").write_text("\n".join(references) + "\n", encoding="utf-8")
    table = {w: [x for x in t if x != w] for t in TRIPLES for w in t}
    (root / "hom.json").write_text(json.dumps(table), encoding="utf-8")

    records, features, embeddings = [], {}, {}
    for i in range(48):
        triple = TRIPLES[i % len(TRIPLES)]
        true, wrong = triple[i % 3], triple[(i + 1) % 3]
        filler = rng.choice(FILLERS, size=3).tolist()
        reference = " ".join(filler[:2] + [true] + filler[2:])
        source = " ".join(filler[:2] + [wrong] + filler[2:])
        caption = f"a {true} {filler[2]}"
        records.append(SampleRecord(id=f"a{i}", source=source, reference=reference,
                                    caption=caption, image_feature_id=f"img{i}"))
        features[f"img{i}"] = rng.standard_normal(D_IMG)
        embeddings[caption] = rng.standard_normal(D_IMG)
        embeddings[reference] = rng.standard_normal(D_IMG)
    write_manifest(root / "annotated.jsonl", records)
    save_vectors(root / "img.vecf", features, D_IMG)
    save_vectors(root / "emb.vecf", embeddings, D_IMG)


def commands():
    """(name, argv) in run order; ``{r}`` is the run directory."""
    def train(out_dir, manifest, *extra):
        return ["train", "--manifest", manifest, "--out-dir", out_dir, "--steps", "60", "--lr", "1e-2",
                "--seed", "9", *MODEL, *extra]

    def correct(variant, *extra):
        return ["correct", "--manifest", "{r}/kept.jsonl", "--variant", variant,
                "--beam-size", "2", "--max-decode-len", "8",
                "--out", f"{{r}}/res-{variant}.jsonl", *extra]

    out = [
        ("synth", ["synth", "--refs", "{r}/refs.txt", "--n", "30", "--sub-rate", "0.3",
                   "--homophones", "{r}/hom.json", "--seed", "3",
                   "--out", "{r}/synth.jsonl"]),
        ("split synth", ["split", "--manifest", "{r}/synth.jsonl", "--seed", "4",
                         "--out", "{r}/synth-split.jsonl"]),
        ("split annotated", ["split", "--manifest", "{r}/annotated.jsonl",
                             "--ratios", "0.6,0.1,0.3", "--seed", "5",
                             "--out", "{r}/split.jsonl"]),
        ("filter", ["filter", "--manifest", "{r}/split.jsonl", "--embeddings",
                    "{r}/emb.vecf", "--threshold", "0.0", "--out", "{r}/kept.jsonl",
                    "--dropped-out", "{r}/dropped.jsonl"]),
        ("ablate", ["ablate-random-captions", "--manifest", "{r}/kept.jsonl",
                    "--seed", "6", "--out", "{r}/deranged.jsonl"]),
        ("train pretrain", train("{r}/pre", "{r}/synth-split.jsonl", "--phase", "pretrain",
                                 "--vocab", "{r}/vocab.txt", "--ckpt-every", "15")),
        ("avg-ckpt --dir", ["avg-ckpt", "--dir", "{r}/pre", "--last", "2",
                            "--out", "{r}/pre-avg.ckpt"]),
        ("train finetune", train("{r}/fine", "{r}/kept.jsonl", "--vocab", "{r}/vocab.txt",
                                 "--init-ckpt", "{r}/pre-avg.ckpt")),
        ("train prompt", train("{r}/prompt", "{r}/kept.jsonl", "--vocab", "{r}/vocab.txt",
                               "--prompt")),
        ("train fusion", train("{r}/fusion", "{r}/kept.jsonl", "--vocab", "{r}/vocab.txt",
                               "--variant", "fusion", "--features", "{r}/img.vecf",
                               "--ckpt-every", "30")),
        ("avg-ckpt --ckpts", ["avg-ckpt", "--ckpts", "{r}/fusion/step-000030.ckpt",
                              "{r}/fusion/step-000060.ckpt",
                              "--out", "{r}/fusion-avg.ckpt"]),
        ("correct transformer", correct("transformer", "--baseline-dir", "{r}/fine")),
        ("correct prompt", correct("prompt", "--prompt-dir", "{r}/prompt")),
        ("correct prompt_then_fusion --filter",
         correct("prompt_then_fusion", "--filter", "--prompt-dir", "{r}/prompt",
                 "--fusion-dir", "{r}/fusion",
                 "--features", "{r}/img.vecf", "--embeddings", "{r}/emb.vecf")),
    ]
    for variant in ("transformer", "prompt", "prompt_then_fusion"):
        out.append((f"evaluate {variant}",
                    ["evaluate", "--results", f"{{r}}/res-{variant}.jsonl",
                     "--manifest", "{r}/kept.jsonl", "--out", f"{{r}}/rep-{variant}.json"]))
    out.append(("gradcheck", ["gradcheck", "--seed", "7"]))
    return out


def run(root: Path) -> dict:
    """Run the sequence in an empty directory ``root``; returns what the
    fixture holds."""
    write_inputs(root)
    runs = []
    for name, argv in commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = cli_main([a.format(r=root) for a in argv])
        runs.append({"name": name, "status": status,
                     "stdout": stdout.getvalue().replace(str(root), RUN),
                     "stderr": stderr.getvalue().replace(str(root), RUN)})
    files = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return {"commands": runs, "files": files}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = run(Path(tmp))
    failed = [c["name"] for c in golden["commands"] if c["status"] != 0]
    if failed:
        raise SystemExit(f"commands failed: {failed}")
    OUT.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
