"""Word-level tokenization with reserved special tokens.

Normalization is lowercase + whitespace collapse; the prompt delimiter
"[SEP]" is matched case-insensitively as a whole token and kept in its
canonical uppercase surface form, so it never arises from splits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from .fileio import atomic_open, read_text

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SEP_ID = 4

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
SEP_TOKEN = "[SEP]"

RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, SEP_TOKEN)


def normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace runs, canonicalize [SEP] tokens."""
    out = []
    for token in text.split():
        lowered = token.lower()
        out.append(SEP_TOKEN if lowered == "[sep]" else lowered)
    return " ".join(out)


@dataclass
class TokenSequence:
    """Vocabulary ids; ``length`` counts the non-padding prefix."""

    ids: List[int]
    length: int

    @classmethod
    def of(cls, ids: Sequence[int]) -> "TokenSequence":
        ids = list(ids)
        n = len(ids)
        while n > 0 and ids[n - 1] == PAD_ID:
            n -= 1
        return cls(ids=ids, length=n)

    def padded(self, total_len: int) -> List[int]:
        if total_len < len(self.ids):
            raise ValueError(f"cannot pad length {len(self.ids)} down to {total_len}")
        return self.ids + [PAD_ID] * (total_len - len(self.ids))


@dataclass
class Vocabulary:
    """Bijective token/id map with reserved ids 0..4 (PAD, BOS, EOS, UNK, SEP)."""

    id_to_token: List[str] = field(default_factory=lambda: list(RESERVED_TOKENS))
    token_to_id: dict = field(init=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.id_to_token):
            raise ValueError(f"id {idx} out of range for vocabulary of size {len(self)}")
        return self.id_to_token[idx]

    def save(self, path) -> None:
        """One non-reserved token per line; line number = id - 5."""
        with atomic_open(path) as fh:
            for token in self.id_to_token[len(RESERVED_TOKENS):]:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = read_text(path).splitlines()
        return cls(id_to_token=list(RESERVED_TOKENS) + tokens)


def build_vocab(corpus: Iterable[str], min_count: int = 1,
                max_size: int = 50_000) -> Vocabulary:
    """Count whitespace tokens over normalized lines and keep the most frequent.

    Keeps tokens with count >= min_count, most-frequent-first with lexicographic
    tie-breaks, at most ``max_size`` beyond the 5 reserved ids. Special surface
    forms (the reserved tokens themselves) are never counted.
    """
    counts: Counter = Counter()
    empty = True
    reserved = set(RESERVED_TOKENS)
    for line in corpus:
        empty = False
        for token in normalize_text(line).split():
            if token not in reserved:
                counts[token] += 1
    if empty:
        raise ValueError("build_vocab: empty corpus")
    ranked = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(id_to_token=list(RESERVED_TOKENS) + ranked[:max_size])


def encode(text: str, vocab: Vocabulary, add_bos_eos: bool = True) -> TokenSequence:
    """Normalize, split on spaces, map unknowns to UNK. Total function."""
    ids = [vocab.id_of(tok) for tok in normalize_text(text).split()]
    if add_bos_eos:
        ids = [BOS_ID] + ids + [EOS_ID]
    return TokenSequence.of(ids)


def decode(ids, vocab: Vocabulary) -> str:
    """Drop PAD/BOS/EOS, render remaining ids, join with single spaces."""
    if isinstance(ids, TokenSequence):
        ids = ids.ids
    words = []
    for idx in ids:
        idx = int(idx)
        if idx in (PAD_ID, BOS_ID, EOS_ID):
            continue
        words.append(vocab.token_of(idx))
    return " ".join(words)
