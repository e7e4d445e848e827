"""Corpus construction: manifests, frame timing, similarity filtering,
synthetic corruption, and split assignment.

Manifests are JSONL, one record per line; unknown fields are kept on a
record and written back on rewrite.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .fileio import atomic_open, read_jsonl
from .similarity import SimilarityProvider

SPLITS = ("train", "valid", "test")
ORIGINS = ("annotated", "synthetic")

_FIELDS = ("id", "source", "reference", "caption", "image_feature_id",
           "start_time", "end_time", "split", "origin")
_FIELD_SET = frozenset(_FIELDS)


@dataclass
class SampleRecord:
    """One corpus item: ASR hypothesis, reference, and visual context keys."""

    id: str
    source: str
    reference: str
    caption: str = ""
    image_feature_id: str = ""
    start_time: float = 0.0
    end_time: float = 0.0
    split: str = "train"
    origin: str = "annotated"
    extra: Dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.reference:
            raise ValueError(f"sample {self.id!r}: reference must be non-empty")
        if self.end_time < self.start_time:
            raise ValueError(
                f"sample {self.id!r}: end_time {self.end_time} precedes start_time "
                f"{self.start_time}")
        if self.split not in SPLITS:
            raise ValueError(f"sample {self.id!r}: unknown split {self.split!r}")
        if self.origin not in ORIGINS:
            raise ValueError(f"sample {self.id!r}: unknown origin {self.origin!r}")
        if self.origin == "synthetic" and (self.caption or self.image_feature_id):
            raise ValueError(
                f"sample {self.id!r}: synthetic records carry no caption or image feature")

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name in _FIELDS}
        payload.update(self.extra)
        return json.dumps(payload, ensure_ascii=False)

    @classmethod
    def from_dict(cls, raw: Dict) -> "SampleRecord":
        if raw.keys() <= _FIELD_SET:
            return cls(**raw)
        known = {name: raw[name] for name in _FIELDS if name in raw}
        extra = {k: v for k, v in raw.items() if k not in _FIELD_SET}
        return cls(**known, extra=extra)


def read_manifest(path) -> List[SampleRecord]:
    records: Dict[str, SampleRecord] = {}
    for lineno, record in read_jsonl(path, SampleRecord.from_dict, "manifest"):
        if record.id in records:
            raise ValueError(f"{path}:{lineno}: duplicate sample id {record.id!r}")
        records[record.id] = record
    return list(records.values())


def write_manifest(path, records: Iterable[SampleRecord], *more) -> None:
    """Write ``records`` to ``path``, and each further ``(path, records)``
    pair in ``more``; no file is published unless all of them are written."""
    with ExitStack() as stack:
        for path, records in [(path, records), *more]:
            fh = stack.enter_context(atomic_open(path))
            fh.writelines(record.to_json() + "\n" for record in records)


def frame_midpoint(start: float, end: float) -> float:
    """Timestamp of the representative video frame: the interval midpoint."""
    if end < start:
        raise ValueError(f"frame_midpoint: end {end} precedes start {start}")
    return (start + end) / 2.0


def filter_by_similarity(samples: Sequence[SampleRecord],
                         provider: SimilarityProvider,
                         threshold: float = 0.2
                         ) -> Tuple[List[SampleRecord], List[SampleRecord]]:
    """Keep annotated samples whose caption/reference similarity exceeds
    ``threshold`` (strictly); synthetic records pass through untouched.

    Input order is preserved in both outputs.
    """
    kept: List[SampleRecord] = []
    dropped: List[SampleRecord] = []
    for sample in samples:
        if sample.origin == "synthetic":
            kept.append(sample)
            continue
        score = provider.score_text_text(sample.caption, sample.reference)
        (kept if score > threshold else dropped).append(sample)
    return kept, dropped


@dataclass
class NoiseConfig:
    """Per-token corruption channel standing in for a weak ASR decode.

    Each token independently draws substitute / delete / insert / keep;
    substitutions prefer the homophone table and otherwise use a random
    vocabulary word. Rates must sum to at most 1.
    """

    substitution_rate: float = 0.1
    deletion_rate: float = 0.05
    insertion_rate: float = 0.05
    homophone_table: Dict[str, List[str]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        rates = (self.substitution_rate, self.deletion_rate, self.insertion_rate)
        if any(r < 0.0 or r > 1.0 for r in rates):
            raise ValueError(f"noise rates must lie in [0, 1], got {rates}")
        if sum(rates) > 1.0:
            raise ValueError(f"noise rates sum to {sum(rates)}, must be <= 1")


def corrupt_tokens(tokens: Sequence[str], noise: NoiseConfig,
                   vocabulary: Sequence[str], rng: np.random.Generator) -> List[str]:
    """Apply the corruption channel to one token sequence."""
    out: List[str] = []
    sub_hi = noise.substitution_rate
    del_hi = sub_hi + noise.deletion_rate
    ins_hi = del_hi + noise.insertion_rate
    for token in tokens:
        u = rng.random()
        if u < sub_hi:
            confusables = noise.homophone_table.get(token)
            if confusables:
                out.append(confusables[rng.integers(len(confusables))])
            elif vocabulary:
                out.append(vocabulary[rng.integers(len(vocabulary))])
            else:
                out.append(token)
        elif u < del_hi:
            continue
        elif u < ins_hi:
            out.append(token)
            if vocabulary:
                out.append(vocabulary[rng.integers(len(vocabulary))])
        else:
            out.append(token)
    return out


def generate_synthetic(references: Iterable[str], noise: NoiseConfig,
                       n: int) -> List[SampleRecord]:
    """Emit ``n`` (corrupted, reference) pairs, cycling over the references.

    Reproducible bit-for-bit given (references, noise, noise.seed). The
    substitution vocabulary is the sorted set of words seen in the
    references.
    """
    refs = [r.strip() for r in references if r.strip()]
    if not refs:
        raise ValueError("generate_synthetic: no references")
    vocabulary = sorted({tok for ref in refs for tok in ref.split()})
    rng = np.random.default_rng(noise.seed)
    records: List[SampleRecord] = []
    for i in range(n):
        reference = refs[i % len(refs)]
        corrupted = corrupt_tokens(reference.split(), noise, vocabulary, rng)
        records.append(SampleRecord(
            id=f"syn-{i:06d}",
            source=" ".join(corrupted),
            reference=reference,
            origin="synthetic",
        ))
    return records


def split_dataset(samples: Sequence[SampleRecord],
                  ratios: Tuple[float, float, float],
                  seed: int) -> List[SampleRecord]:
    """Assign train/valid/test splits by seeded shuffle + contiguous cut.

    Ratios must be non-negative with a positive train share and sum to 1.
    Stable under identical seed.
    """
    r_train, r_valid, r_test = ratios
    if min(ratios) < 0.0 or r_train <= 0.0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must be non-negative and sum to 1, got {ratios}")
    n = len(samples)
    order = np.random.default_rng(seed).permutation(n)
    cut1 = round(n * r_train)
    cut2 = round(n * (r_train + r_valid))
    assignment = {}
    for rank, idx in enumerate(order):
        if rank < cut1:
            assignment[int(idx)] = "train"
        elif rank < cut2:
            assignment[int(idx)] = "valid"
        else:
            assignment[int(idx)] = "test"
    return [replace(sample, split=assignment[i]) for i, sample in enumerate(samples)]
