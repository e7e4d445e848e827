"""Word error rate and sentence error rate over normalized text.

Edit counts come from a word-level Levenshtein DP that minimizes total
edits first and insertions+deletions second. Because deletions minus
insertions is fixed by the two lengths, that double objective pins down
the (S, D, I) split uniquely, independent of backtrace order.

Each DP cell stores that pair as one int, ``total * w + (deletions +
insertions)`` with ``w = len(h) + len(r) + 1``. Deletions plus insertions
never exceed ``len(h) + len(r) < w``, so int order is exactly the pairs'
lexicographic order and ``divmod(cell, w)`` decodes a cell. A substitution
adds ``w``; an insertion or a deletion adds ``w + 1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .text import normalize_text


def word_edit_distance(hyp: str, ref: str) -> Tuple[int, int, int]:
    """Return (substitutions, deletions, insertions) aligning hyp to ref.

    Deletions are reference words missing from the hypothesis; insertions
    are extra hypothesis words. Normalization (lowercase + whitespace
    collapse) is applied before alignment. Empty strings are allowed.
    """
    h = normalize_text(hyp).split()
    r = normalize_text(ref).split()
    nh, nr = len(h), len(r)
    w = nh + nr + 1
    step = w + 1  # one insertion or deletion
    # row[j] encodes (total edits, deletions + insertions) for h[:i] vs r[:j]
    row = list(range(0, (nr + 1) * step, step))
    for i, word in enumerate(h, 1):
        left = i * step
        new = [left]
        for diag, up, ref_word in zip(row, row[1:], r):
            if word == ref_word:
                left = diag
            else:  # min(left + step, up + step, diag + w), without tuples
                if up < left:
                    left = up
                if diag <= left:
                    left = diag - 1
                left += step
            new.append(left)
        row = new
    total, di = divmod(row[nr], w)
    # D - I == nr - nh exactly, so the pair (di, nr - nh) solves for both.
    deletions = (di + (nr - nh)) // 2
    insertions = di - deletions
    substitutions = total - di
    return substitutions, deletions, insertions


@dataclass
class SentenceScore:
    id: str
    substitutions: int
    deletions: int
    insertions: int
    ref_word_count: int
    exact_match: bool

    @property
    def edits(self) -> int:
        return self.substitutions + self.deletions + self.insertions


@dataclass
class EvalReport:
    """Per-sentence edit breakdowns plus corpus WER/SER aggregates."""

    sentences: List[SentenceScore] = field(default_factory=list)

    @property
    def total_edits(self) -> int:
        return sum(s.edits for s in self.sentences)

    @property
    def total_substitutions(self) -> int:
        return sum(s.substitutions for s in self.sentences)

    @property
    def total_deletions(self) -> int:
        return sum(s.deletions for s in self.sentences)

    @property
    def total_insertions(self) -> int:
        return sum(s.insertions for s in self.sentences)

    @property
    def total_ref_words(self) -> int:
        return sum(s.ref_word_count for s in self.sentences)

    @property
    def wer_percent(self) -> float:
        ref = self.total_ref_words
        if ref == 0:
            return 0.0 if self.total_edits == 0 else math.inf
        return 100.0 * self.total_edits / ref

    @property
    def ser_percent(self) -> float:
        n = len(self.sentences)
        errors = sum(1 for s in self.sentences if not s.exact_match)
        return 100.0 * errors / n

    def summary(self) -> str:
        lines = [
            f"sentences:     {len(self.sentences)}",
            f"ref words:     {self.total_ref_words}",
            f"substitutions: {self.total_substitutions}",
            f"deletions:     {self.total_deletions}",
            f"insertions:    {self.total_insertions}",
            f"WER:           {self.wer_percent:.2f}",
            f"SER:           {self.ser_percent:.2f}",
            "normalization: lowercase + whitespace collapse",
        ]
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "corpus": {
                "wer_percent": self.wer_percent,
                "ser_percent": self.ser_percent,
                "total_edits": self.total_edits,
                "total_substitutions": self.total_substitutions,
                "total_deletions": self.total_deletions,
                "total_insertions": self.total_insertions,
                "total_ref_words": self.total_ref_words,
                "sentence_count": len(self.sentences),
                "normalization": "lowercase + whitespace collapse",
            },
            "sentences": [
                {
                    "id": s.id,
                    "substitutions": s.substitutions,
                    "deletions": s.deletions,
                    "insertions": s.insertions,
                    "ref_word_count": s.ref_word_count,
                    "exact_match": s.exact_match,
                }
                for s in self.sentences
            ],
        }
        return json.dumps(payload, indent=2, ensure_ascii=False)


def corpus_eval(pairs: Sequence[Tuple[str, str, str]]) -> EvalReport:
    """Score (id, hypothesis, reference) triples.

    Corpus WER is total edits over total reference words, not a mean of
    per-sentence rates; SER counts sentences that are not exact matches
    after normalization.
    """
    if not pairs:
        raise ValueError("corpus_eval: empty input")
    report = EvalReport()
    for sample_id, hyp, ref in pairs:
        # equal normalised texts are exactly the zero-edit alignments (tested)
        ref = normalize_text(ref)
        s, d, i = word_edit_distance(normalize_text(hyp), ref)
        report.sentences.append(SentenceScore(
            id=str(sample_id), substitutions=s, deletions=d, insertions=i,
            ref_word_count=len(ref.split()), exact_match=(s, d, i) == (0, 0, 0)))
    return report
