"""Toy encoder-decoder transformer for hypothesis correction.

Post-norm layers, sinusoidal positions, strict causal decoding, exact pad
masking (masked attention weights underflow to exactly zero in float64).
An optional gated fusion layer attaches to the encoder output, ahead of
decoder cross-attention. Everything runs on the autograd core at float64;
batches are dense (B x L) arrays padded with PAD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .fileio import atomic_open, read_text
from .fusion import GatedFusionLayer, ImageFeature
from .text import BOS_ID, EOS_ID, PAD_ID, TokenSequence

_MASK_OFF = -1e9  # additive attention mask; exp() underflows to exactly 0.0


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    ffn_dim: int = 128
    max_len: int = 64
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}")
        for name in ("vocab_size", "d_model", "n_heads", "n_enc_layers",
                     "n_dec_layers", "ffn_dim", "max_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")

    def save(self, path) -> None:
        """Flat key-value file, one ``key = value`` pair per line."""
        with atomic_open(path) as fh:
            for f in fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)}\n")

    @classmethod
    def read_fields(cls, path) -> Dict[str, float]:
        """The ``key = value`` lines of a config file, typed by the fields.

        Blank lines and ``#`` comments are skipped. A line without ``=``,
        an unknown key or a value of the wrong type raises ValueError
        naming the file and line.
        """
        types = get_type_hints(cls)
        found: Dict[str, float] = {}
        lines = read_text(path).splitlines()
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            where = f"{path}, line {number}"
            if not eq:
                raise ValueError(f"{where}: expected 'key = value', got {line!r}")
            if key not in types:
                raise ValueError(f"{where}: unknown key {key!r}")
            try:
                found[key] = types[key](value)
            except ValueError:
                raise ValueError(
                    f"{where}: {key} takes {types[key].__name__}, got {value!r}") from None
        return found

    @classmethod
    def load(cls, path) -> "ModelConfig":
        found = cls.read_fields(path)
        if "vocab_size" not in found:
            raise ValueError(f"{path}: no vocab_size line")
        return cls(**found)


@dataclass
class DecodeConfig:
    strategy: str = "beam"
    beam_size: int = 4
    max_decode_len: int = 40
    length_penalty: float = 1.0

    def __post_init__(self):
        if self.strategy not in ("greedy", "beam"):
            raise ValueError(f"unknown decode strategy {self.strategy!r}")
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_decode_len < 1:
            raise ValueError(f"max_decode_len must be >= 1, got {self.max_decode_len}")
        if not math.isfinite(self.length_penalty) or abs(self.length_penalty) * \
                math.log(max(self.max_decode_len, 2)) > 700:  # length**alpha overflows
            raise ValueError(f"length_penalty must be finite, with max_decode_len ** "
                             f"length_penalty in float range, got {self.length_penalty}")
        if self.strategy == "greedy":
            self.beam_size = 1


def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    dims = np.arange(0, d_model, 2, dtype=np.float64)
    angles = positions / np.power(10000.0, dims / d_model)
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return table


def _pad_mask(pad: np.ndarray, causal: bool = False) -> np.ndarray:
    """Additive mask of (B x K) key padding, broadcastable to (B, h, Q, K) scores:
    (B, 1, 1, K), or (B, 1, K, K) with ``causal``, which also masks future keys."""
    mask = np.where(pad, _MASK_OFF, 0.0)[:, None, None, :]
    if causal:
        length = pad.shape[1]
        mask = np.triu(np.full((length, length), _MASK_OFF), k=1)[None, None] + mask
    return mask


class EncoderDecoderModel:
    """Transformer encoder-decoder with an optional gated fusion stage."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.training = False
        self.fusion: Optional[GatedFusionLayer] = None
        self.pos_table = sinusoidal_positions(config.max_len, config.d_model)
        self.params: Dict[str, Tensor] = {}
        self._build_params()

    # -- parameters -----------------------------------------------------

    def _linear(self, name: str, d_in: int, d_out: int) -> None:
        self.params[f"{name}.w"] = ag.parameter((d_in, d_out), self.rng)
        self.params[f"{name}.b"] = ag.parameter(np.zeros(d_out))

    def _layer_norm_params(self, name: str, d: int) -> None:
        self.params[f"{name}.g"] = ag.parameter(np.ones(d))
        self.params[f"{name}.b"] = ag.parameter(np.zeros(d))

    def _attention_params(self, name: str, d: int) -> None:
        for proj in ("q", "k", "v", "o"):
            self._linear(f"{name}.{proj}", d, d)

    def _build_params(self):
        cfg = self.config
        self.params["embed"] = ag.parameter(
            (cfg.vocab_size, cfg.d_model), self.rng, init_scale=cfg.d_model ** -0.5)
        for i in range(cfg.n_enc_layers):
            base = f"enc{i}"
            self._attention_params(f"{base}.self", cfg.d_model)
            self._layer_norm_params(f"{base}.ln1", cfg.d_model)
            self._linear(f"{base}.ffn1", cfg.d_model, cfg.ffn_dim)
            self._linear(f"{base}.ffn2", cfg.ffn_dim, cfg.d_model)
            self._layer_norm_params(f"{base}.ln2", cfg.d_model)
        for i in range(cfg.n_dec_layers):
            base = f"dec{i}"
            self._attention_params(f"{base}.self", cfg.d_model)
            self._layer_norm_params(f"{base}.ln1", cfg.d_model)
            self._attention_params(f"{base}.cross", cfg.d_model)
            self._layer_norm_params(f"{base}.ln2", cfg.d_model)
            self._linear(f"{base}.ffn1", cfg.d_model, cfg.ffn_dim)
            self._linear(f"{base}.ffn2", cfg.ffn_dim, cfg.d_model)
            self._layer_norm_params(f"{base}.ln3", cfg.d_model)
        self._linear("out", cfg.d_model, cfg.vocab_size)

    def attach_fusion(self, layer: GatedFusionLayer) -> None:
        if layer.d_model != self.config.d_model:
            raise ValueError(
                f"fusion width {layer.d_model} does not match model width "
                f"{self.config.d_model}")
        self.fusion = layer

    def named_params(self) -> Dict[str, Tensor]:
        out = dict(self.params)
        if self.fusion is not None:
            out.update(self.fusion.named_params())
        return out

    def state(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_params().items()}

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        own = self.named_params()
        if own.keys() != state.keys():
            missing = sorted(own.keys() - state.keys())
            extra = sorted(state.keys() - own.keys())
            raise ValueError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {arr.shape} vs model "
                    f"shape {p.data.shape}")
            p.data = arr.copy()

    def save_checkpoint(self, path) -> None:
        save_checkpoint(path, self.state())

    def load_checkpoint(self, path) -> None:
        self.load_state(load_checkpoint(path))

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    # -- forward building blocks ----------------------------------------

    def _maybe_dropout(self, x: Tensor) -> Tensor:
        rate = self.config.dropout
        if not self.training or rate == 0.0:
            return x
        keep = self.rng.random(x.shape) >= rate
        mask = keep.astype(np.float64) / (1.0 - rate)
        return ag.mul(x, Tensor(mask))

    def _affine(self, name: str, x: Tensor) -> Tensor:
        return ag.matmul(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _embed(self, ids: np.ndarray) -> Tensor:
        length = ids.shape[1]
        if length > self.config.max_len:
            raise ValueError(
                f"sequence length {length} exceeds max_len {self.config.max_len}")
        emb = ag.scale(ag.embedding_lookup(self.params["embed"], ids),
                       math.sqrt(self.config.d_model))
        pos = np.broadcast_to(self.pos_table[:length], emb.shape)
        return self._maybe_dropout(ag.add(emb, Tensor(pos)))

    def _split_heads(self, x: Tensor) -> Tensor:
        b, length, d = x.shape
        h = self.config.n_heads
        return ag.transpose(ag.reshape(x, (b, length, h, d // h)), (0, 2, 1, 3))

    def _merge_heads(self, x: Tensor) -> Tensor:
        b, h, length, dk = x.shape
        return ag.reshape(ag.transpose(x, (0, 2, 1, 3)), (b, length, h * dk))

    def _attention(self, name: str, queries: Tensor, keys_values: Tensor,
                   mask: np.ndarray) -> Tensor:
        q = self._split_heads(self._affine(f"{name}.q", queries))
        k = self._split_heads(self._affine(f"{name}.k", keys_values))
        v = self._split_heads(self._affine(f"{name}.v", keys_values))
        dk = self.config.d_model // self.config.n_heads
        scores = ag.scale(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), dk ** -0.5)
        scores = ag.add(scores, Tensor(np.broadcast_to(mask, scores.shape)))
        context = ag.matmul(ag.softmax_last_dim(scores), v)
        return self._affine(f"{name}.o", self._merge_heads(context))

    def encode_batch(self, src: np.ndarray,
                     features: Optional[np.ndarray] = None) -> Tensor:
        """Encoder stack over (B x L) ids, then the fusion layer if attached:
        it fuses the (B x d_img) ``features``, all zero when None."""
        x = self._embed(src)
        mask = _pad_mask(src == PAD_ID)
        for i in range(self.config.n_enc_layers):
            base = f"enc{i}"
            attn = self._maybe_dropout(self._attention(f"{base}.self", x, x, mask))
            x = ag.layer_norm(ag.add(x, attn),
                              self.params[f"{base}.ln1.g"], self.params[f"{base}.ln1.b"])
            hidden = ag.relu(self._affine(f"{base}.ffn1", x))
            ffn = self._maybe_dropout(self._affine(f"{base}.ffn2", hidden))
            x = ag.layer_norm(ag.add(x, ffn),
                              self.params[f"{base}.ln2.g"], self.params[f"{base}.ln2.b"])
        if self.fusion is not None:
            if features is None:
                features = np.zeros((src.shape[0], self.fusion.d_img))
            h_image = self.fusion.project_image_batch(features, src.shape[1])
            x = self.fusion.fuse(x, h_image)
        return x

    def decode_batch(self, tgt_in: np.ndarray, enc_out: Tensor,
                     src: np.ndarray, last_only: bool = False) -> Tensor:
        """Decoder stack: (B x T) ids against encoder output; returns logits.

        The logits are (B x T x V), or (B x 1 x V) for the last position
        alone with ``last_only``, which is for decoding under ``no_grad``.
        """
        if last_only and ag.grad_enabled():
            raise ValueError("decode_batch: last_only is not differentiable; "
                             "call it under no_grad")
        x = self._embed(tgt_in)
        self_mask = _pad_mask(tgt_in == PAD_ID, causal=True)
        cross_mask = _pad_mask(src == PAD_ID)
        for i in range(self.config.n_dec_layers):
            base = f"dec{i}"
            attn = self._maybe_dropout(self._attention(f"{base}.self", x, x, self_mask))
            x = ag.layer_norm(ag.add(x, attn),
                              self.params[f"{base}.ln1.g"], self.params[f"{base}.ln1.b"])
            cross = self._maybe_dropout(
                self._attention(f"{base}.cross", x, enc_out, cross_mask))
            x = ag.layer_norm(ag.add(x, cross),
                              self.params[f"{base}.ln2.g"], self.params[f"{base}.ln2.b"])
            hidden = ag.relu(self._affine(f"{base}.ffn1", x))
            ffn = self._maybe_dropout(self._affine(f"{base}.ffn2", hidden))
            x = ag.layer_norm(ag.add(x, ffn),
                              self.params[f"{base}.ln3.g"], self.params[f"{base}.ln3.b"])
        b, length, d = x.shape
        if not last_only or length == 1:
            return self._affine("out", x)
        # The last two positions of every row, as one (2B x d) matrix: the
        # product stays matrix-matrix, as it is for the full (B x T x d)
        # input, so each last row is bit-identical to the full projection's,
        # while one row alone would take BLAS's matrix-vector kernel, which
        # rounds differently.
        logits = self._affine("out", Tensor(x.data[:, -2:].reshape(2 * b, d)))
        return Tensor(logits.data[1::2, None])

    # -- training --------------------------------------------------------

    def _pad_batch(self, seqs: Sequence[TokenSequence]) -> np.ndarray:
        width = max(len(s.ids) for s in seqs)
        return np.asarray([s.padded(width) for s in seqs], dtype=np.int64)

    def batch_loss(self, batch: Sequence) -> Tensor:
        """Teacher-forced mean cross entropy; PAD label positions are ignored.

        ``batch`` items are (src, tgt) or (src, tgt, ImageFeature-or-None)
        tuples of TokenSequences that already carry BOS/EOS.
        """
        if not batch:
            raise ValueError("batch_loss: empty batch")
        src = self._pad_batch([item[0] for item in batch])
        tgt = self._pad_batch([item[1] for item in batch])
        features = None
        if self.fusion is not None:
            features = np.zeros((len(batch), self.fusion.d_img))
            for row, item in enumerate(batch):
                if len(item) > 2 and item[2] is not None:
                    features[row] = item[2].vector
        enc_out = self.encode_batch(src, features)
        dec_in = tgt[:, :-1]
        labels = tgt[:, 1:]
        logits = self.decode_batch(dec_in, enc_out, src)
        flat = ag.reshape(logits, (labels.size, self.config.vocab_size))
        return ag.softmax_cross_entropy(flat, labels.reshape(-1), ignore_index=PAD_ID)


def train_step(model: EncoderDecoderModel, batch: Sequence, optimizer) -> float:
    """One forward/backward/update; returns the mean batch loss."""
    model.train()
    optimizer.zero_grad()
    loss = model.batch_loss(batch)
    ag.backward(loss)
    optimizer.step()
    return loss.item()


# -- decoding -------------------------------------------------------------


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _normalized(score: float, ids: Sequence[int], alpha: float) -> float:
    generated = max(len(ids) - 1, 1)  # tokens after BOS
    return score / (generated ** alpha)


def generate(model: EncoderDecoderModel, src: TokenSequence, cfg: DecodeConfig,
             image: Optional[ImageFeature] = None) -> TokenSequence:
    """Beam search with length penalty (beam_size=1 is exactly greedy).

    Beams that emit EOS retire from the live set; the best finished
    hypothesis under ``score / generated_len**length_penalty`` wins, with
    ties broken by the lexicographically smaller token-id sequence. The
    search stops once a finished score is strictly above any score a live
    beam could still reach (Huang et al. 2017), so it returns the full
    search's hypothesis; at beam 1 it never fires. Always terminates by
    max_decode_len.
    """
    was_training = model.training
    model.eval()
    try:
        with ag.no_grad():
            result = _beam_search(model, src, cfg, image)
    finally:
        model.training = was_training
    return result


def _beam_search(model, src, cfg, image) -> TokenSequence:
    src_ids = np.asarray([src.ids], dtype=np.int64)
    features = None if image is None else image.vector[None, :]  # None: the zero feature
    enc = model.encode_batch(src_ids, features).data

    live = np.full((1, 1), BOS_ID, dtype=np.int64)  # (n_live x t) token ids
    scores = np.zeros(1)
    finished: List[Tuple[float, List[int]]] = []
    top = -np.inf  # the best normalised score in finished
    alpha = cfg.length_penalty
    # decoder input includes BOS, so it may grow to max_len - 1 new tokens
    max_steps = min(cfg.max_decode_len, model.config.max_len - 1)

    for _ in range(max_steps):
        n_live = len(live)
        logits = model.decode_batch(live, Tensor(np.repeat(enc, n_live, axis=0)),
                                    np.repeat(src_ids, n_live, axis=0), last_only=True)
        log_probs = _log_softmax_rows(logits.data[:, -1, :])
        totals = (scores[:, None] + log_probs).ravel()
        totals[np.isnan(totals)] = -np.inf  # NaN (diverged weights) ranks last

        # Every candidate scoring at least the k-th best, ties included,
        # then higher score first and the lexicographically smaller id
        # sequence among equal scores.
        k = min(cfg.beam_size, totals.size)
        kth = np.partition(totals, totals.size - k)[totals.size - k]
        keep = np.flatnonzero(totals >= kth)
        rows, tokens = np.divmod(keep, log_probs.shape[1])
        order = np.lexsort((tokens, *live[rows].T[::-1], -totals[keep]))[: cfg.beam_size]
        rows, tokens, best = rows[order], tokens[order], totals[keep[order]]

        grown = np.column_stack([live[rows], tokens])
        done = tokens == EOS_ID
        for ids, score in zip(grown[done].tolist(), best[done]):
            finished.append((_normalized(score, ids, alpha), ids))
            top = max(top, finished[-1][0])
        live, scores = grown[~done], best[~done]
        if not len(live):
            break
        # Stop once no live row can still win (Huang et al. 2017): log-probs
        # are <= 0, so a descendant scores at most scores.max() and finishes
        # at a generated length in [live.shape[1], max_steps]. Every length is
        # tried, so the bound does not rely on ``**`` rounding monotonically.
        if top > -np.inf and top > max(
                (scores.max() / m ** alpha for m in range(live.shape[1], max_steps + 1)),
                default=np.inf):
            break
    else:
        for ids, score in zip(live.tolist(), scores):  # hit the length cap without EOS
            finished.append((_normalized(score, ids, alpha), ids))
    finished.sort(key=lambda c: (-c[0], c[1]))
    return TokenSequence.of(finished[0][1])
