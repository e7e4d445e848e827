"""Checks computed apart from capfuse.

Each function re-derives a result the program produced, from the inputs
the benchmark handed it, without calling the code path under test: a plain
edit-distance DP instead of ``capfuse.metrics``, a greedy argmax loop over
teacher-forced ``decode_batch`` logits instead of ``generate``, a numpy
cosine over the benchmark's own hashed bag of words instead of the
similarity provider, a reader of the checkpoint layout instead of
``load_checkpoint``, and central differences of the forward loss instead
of the backward pass.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

BOS, EOS = 1, 2
_DROPPED_IDS = (0, 1, 2)  # PAD, BOS, EOS never reach the output text


class CheckError(RuntimeError):
    """An output of the program disagrees with the benchmark's own computation."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


def require(condition: bool, name: str, detail: str) -> None:
    if not condition:
        raise CheckError(name, detail)


# -- text ------------------------------------------------------------------


def words(text: str) -> List[str]:
    """Lowercased whitespace tokens, with the prompt delimiter in canonical form."""
    return ["[SEP]" if t == "[sep]" else t for t in text.lower().split()]


def edit_distance(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """Word-level Levenshtein distance, one row of the DP table at a time."""
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, 1):
        cur = [i]
        for j, r in enumerate(ref, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (h != r)))
        prev = cur
    return prev[-1]


def corpus_scores(pairs: Sequence[Tuple[str, str]]) -> Tuple[List[int], float, float]:
    """Per-pair edits, corpus WER and SER (percent) of (hypothesis, reference) pairs."""
    edits = [edit_distance(words(h), words(r)) for h, r in pairs]
    ref_words = sum(len(words(r)) for _, r in pairs)
    wer = 100.0 * sum(edits) / ref_words
    ser = 100.0 * sum(words(h) != words(r) for h, r in pairs) / len(pairs)
    return edits, wer, ser


def check_report(report, pairs: Sequence[Tuple[str, str]], what: str) -> None:
    """The program's EvalReport equals the DP on every pair and in aggregate."""
    edits, wer, ser = corpus_scores(pairs)
    theirs = [s.edits for s in report.sentences]
    bad = [i for i, (a, b) in enumerate(zip(theirs, edits)) if a != b]
    require(len(theirs) == len(edits) and not bad, "edit_distance_dp",
            f"{what}: {len(bad)} of {len(edits)} pairs differ, first at index "
            f"{bad[0] if bad else len(theirs)}")
    require(report.wer_percent == wer, "corpus_wer_dp",
            f"{what}: report WER {report.wer_percent!r} vs DP {wer!r}")
    require(report.ser_percent == ser, "corpus_ser_dp",
            f"{what}: report SER {report.ser_percent!r} vs DP {ser!r}")


# -- similarity ------------------------------------------------------------


def bag_of_words(text: str, dim: int) -> np.ndarray:
    """Token counts hashed into ``dim`` buckets by the first 8 bytes of MD5."""
    vec = np.zeros(dim)
    for token in words(text):
        digest = hashlib.md5(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:8], "little") % dim] += 1.0
    return vec


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = math.sqrt(float(a @ a)), math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def check_filter(results, feature_of: Dict[str, np.ndarray], dim: int,
                 what: str) -> Tuple[int, int]:
    """Every decision is "replaced" iff the fused text scores strictly higher.

    Returns (replaced, kept-after-scoring) counts.
    """
    replaced = rejected = 0
    for r in results:
        require(len(r.filter_decisions) == 1 and len(r.stage_outputs) == 2,
                "filter_decision", f"{what}: sample {r.sample_id} has "
                f"{len(r.filter_decisions)} decisions for {len(r.stage_outputs)} stages")
        before, fused = r.stage_outputs[0][1], r.stage_outputs[1][1]
        image = feature_of[r.sample_id]
        s_before = cosine(image, bag_of_words(before, dim))
        s_fused = cosine(image, bag_of_words(fused, dim))
        decision = r.filter_decisions[0]
        expected = "replaced" if s_fused > s_before else "kept"
        require(decision.action == expected, "filter_cosine",
                f"{what}: sample {r.sample_id} {decision.action}, numpy cosine "
                f"{s_fused!r} vs {s_before!r} says {expected}")
        require(r.final == (fused if expected == "replaced" else before),
                "filter_cosine", f"{what}: sample {r.sample_id} final text "
                f"does not follow its decision")
        if decision.score_original is not None:
            require(abs(decision.score_original - s_before) < 1e-9
                    and abs(decision.score_changed - s_fused) < 1e-9,
                    "filter_cosine", f"{what}: sample {r.sample_id} scores "
                    f"{decision.score_original!r}/{decision.score_changed!r} vs "
                    f"numpy {s_before!r}/{s_fused!r}")
            replaced += expected == "replaced"
            rejected += expected == "kept"
    return replaced, rejected


# -- decoding --------------------------------------------------------------


def greedy_text(model, vocab, src_ids: Sequence[int], max_decode_len: int,
                image: Optional[np.ndarray] = None) -> str:
    """Greedy decode by argmax over teacher-forced ``decode_batch`` logits.

    Scores are accumulated the way beam search does (log-softmax of the
    last position added to the running score), so the argmax breaks exact
    ties toward the smaller id, as beam search's ordering does.
    """
    from capfuse.autograd import Tensor, no_grad

    src = np.asarray([list(src_ids)], dtype=np.int64)
    features = None if image is None else image[None, :]
    ids = [BOS]
    score = 0.0
    with no_grad():
        enc = model.encode_batch(src, features)
        for _ in range(min(max_decode_len, model.config.max_len - 1)):
            logits = model.decode_batch(np.asarray([ids], dtype=np.int64),
                                        Tensor(enc.data), src).data[:, -1, :]
            shifted = logits - logits.max(axis=-1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            candidates = score + log_probs[0]
            token = int(np.argmax(candidates))
            score = candidates[token]
            ids.append(token)
            if token == EOS:
                break
    return " ".join(vocab.id_to_token[i] for i in ids if i not in _DROPPED_IDS)


# -- checkpoints -----------------------------------------------------------


def read_checkpoint(path) -> Dict[str, np.ndarray]:
    """Parse the CFCK layout: magic, u32 version, u32 count, then per
    parameter u32 name length, name, u32 ndim, u32 dims, float64 values."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"CFCK", "checkpoint_layout", f"{path}: bad magic")
    _, count = struct.unpack_from("<II", blob, 4)
    offset = 12
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, offset)
        name = blob[offset + 4:offset + 4 + name_len].decode("utf-8")
        offset += 4 + name_len
        (ndim,) = struct.unpack_from("<I", blob, offset)
        shape = struct.unpack_from(f"<{ndim}I", blob, offset + 4)
        offset += 4 + 4 * ndim
        n = int(np.prod(shape, dtype=np.int64))
        out[name] = np.frombuffer(blob, "<f8", n, offset).reshape(shape)
        offset += 8 * n
    require(offset == len(blob), "checkpoint_layout", f"{path}: trailing bytes")
    return out


def check_checkpoints(trained: Dict[str, np.ndarray], final_paths: Sequence[Path],
                      averaged: Dict[str, np.ndarray], averaged_paths: Sequence[Path],
                      what: str) -> None:
    """Saved checkpoints hold the trained parameters bit for bit, and the
    program's average equals a numpy mean of the same files to rounding."""
    for path in final_paths:
        saved = read_checkpoint(path)
        require(saved.keys() == trained.keys()
                and all(np.array_equal(saved[k], trained[k]) for k in trained),
                "checkpoint_roundtrip", f"{what}: {Path(path).name} differs from "
                f"the trained parameters")
    stacks = [read_checkpoint(p) for p in averaged_paths]
    for name, value in averaged.items():
        mean = np.mean([s[name] for s in stacks], axis=0)
        require(np.allclose(value, mean, rtol=1e-12, atol=1e-15), "checkpoint_average",
                f"{what}: parameter {name} of the average of "
                f"{len(stacks)} files differs from the numpy mean by "
                f"{float(np.abs(value - mean).max()):.3e}")


# -- gradients -------------------------------------------------------------


def check_directional_derivative(model, batch, seed: int, what: str,
                                 eps: float = 1e-5, tolerance: float = 1e-4) -> float:
    """(L(θ+εd) − L(θ−εd)) / 2ε against ⟨∇L, d⟩ for a seeded unit direction d.

    Returns the relative error; the model's parameters are left unchanged.
    """
    from capfuse import autograd as ag

    params = model.named_params()
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    base = {k: p.data.copy() for k, p in params.items()}
    for p in params.values():
        p.zero_grad()
    loss = model.batch_loss(batch)
    ag.backward(loss)
    analytic = sum(float((params[k].grad * d).sum()) for k, d in direction.items()) / norm
    losses = []
    try:
        with ag.no_grad():
            for sign in (1.0, -1.0):
                for k, p in params.items():
                    p.data = base[k] + (sign * eps / norm) * direction[k]
                losses.append(model.batch_loss(batch).item())
    finally:
        for k, p in params.items():
            p.data = base[k]
            p.zero_grad()
    numeric = (losses[0] - losses[1]) / (2.0 * eps)
    error = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    require(error < tolerance, "directional_derivative",
            f"{what}: <grad, d> = {analytic:.10e}, central difference "
            f"{numeric:.10e}, relative error {error:.2e}")
    return error
