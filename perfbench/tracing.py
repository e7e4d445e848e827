"""Spans around the calls into each capfuse layer, recorded from outside.

``Tracer.install`` replaces module attributes and class methods of
capfuse with timing wrappers and ``uninstall`` puts the originals back.
A function reached under several names (``generate`` is also bound in
``capfuse.pipeline`` at import) is wrapped under each name, so no caller
escapes the patch.

Spans carry a name, start, end, parent and request id; a training step,
a corrected sentence and an evaluated sentence each start a request.
Autograd ops run millions of times per traced round, so they are counted
(calls, forward and backward time) rather than kept as spans. Backward
time comes from wrapping the ``backward_fn`` of the tape entry an op has
just recorded; it is also charged to the innermost model block open when
the entry was recorded.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
from collections import Counter
from time import perf_counter_ns
from typing import Dict, List, Optional

import capfuse.autograd
import capfuse.checkpoint
import capfuse.data
import capfuse.fusion
import capfuse.metrics
import capfuse.model
import capfuse.optim
import capfuse.pipeline
import capfuse.prompting
import capfuse.similarity
import capfuse.text
import capfuse.training
import capfuse.vecfile

OPS = ("matmul", "add", "add_bias", "scale", "mul", "relu", "tanh", "transpose",
       "reshape", "tile", "concat_last_dim", "softmax_last_dim", "layer_norm",
       "embedding_lookup", "softmax_cross_entropy")

# span names whose tape entries are charged with backward time
BLOCKS = ("model.embed", "model.enc_self_attn", "model.dec_self_attn",
          "model.dec_cross_attn", "model.ffn", "model.out_proj", "fusion.project",
          "fusion.fuse")
REQUESTS = ("training.step", "pipeline.sample", "metrics.align")

Model = capfuse.model.EncoderDecoderModel
# span name -> every (owner, attribute) it is reached through
ENTRY_POINTS = {
    "model.embed": [(Model, "_embed")],
    "model.attention": [(Model, "_attention")],  # named per block at call time
    "model.affine": [(Model, "_affine")],  # only ffn and out projections get spans
    "model.masks": [(Model, "_key_pad_mask"), (Model, "_causal_mask")],
    "model.encode": [(Model, "encode_batch")],
    "model.decode_batch": [(Model, "decode_batch")],
    "model.generate": [(capfuse.model, "generate"), (capfuse.pipeline, "generate")],
    "autograd.backward": [(capfuse.autograd, "backward")],
    "fusion.project": [(capfuse.fusion.GatedFusionLayer, "project_image_batch")],
    "fusion.fuse": [(capfuse.fusion.GatedFusionLayer, "fuse")],
    "optim.adam_step": [(capfuse.optim.Adam, "step")],
    "training.run": [(capfuse.training, "run_training")],
    "training.step": [(capfuse.model, "train_step"), (capfuse.training, "train_step")],
    "training.batch_prep": [(capfuse.training, "iterate_batches"), (Model, "_pad_batch")],
    "checkpoint.save": [(capfuse.checkpoint, "save_checkpoint"),
                        (capfuse.model, "save_checkpoint")],
    "checkpoint.load": [(capfuse.checkpoint, "load_checkpoint"),
                        (capfuse.model, "load_checkpoint")],
    "checkpoint.average": [(capfuse.checkpoint, "average_checkpoints")],
    "pipeline.run_variant": [(capfuse.pipeline, "run_variant")],
    "pipeline.sample": [(capfuse.pipeline, "_run_sample")],
    "pipeline.stage": [(capfuse.pipeline, "_decode_text")],  # named per stage
    "pipeline.filter": [(capfuse.pipeline, "filter_change_detail")],
    "similarity.score": [(capfuse.similarity.CosineEmbeddingProvider, "score_image_text"),
                         (capfuse.similarity.CosineEmbeddingProvider, "score_text_text")],
    "prompting.build": [(capfuse.prompting, "build_prompted_source"),
                        (capfuse.pipeline, "build_prompted_source")],
    "metrics.align": [(capfuse.metrics, "word_edit_distance")],
    "metrics.corpus_eval": [(capfuse.metrics, "corpus_eval")],
    "metrics.report": [(capfuse.metrics.EvalReport, "summary"),
                       (capfuse.metrics.EvalReport, "to_json")],
    "data.synth": [(capfuse.data, "generate_synthetic")],
    "data.manifest_io": [(capfuse.data, "read_manifest"), (capfuse.data, "write_manifest")],
    "data.filter": [(capfuse.data, "filter_by_similarity")],
    "data.split": [(capfuse.data, "split_dataset")],
    "text.vocab": [(capfuse.text, "build_vocab")],
    "text.encode": [(capfuse.text, "encode"), (capfuse.pipeline, "encode")],
    "vecfile.io": [(capfuse.vecfile, "save_vectors"), (capfuse.vecfile, "load_vectors"),
                   (capfuse.similarity, "load_vectors")],
}

_ATTENTION_BLOCK = {"self": "self_attn", "cross": "cross_attn"}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, request]
        self.stack: List[int] = []
        self.blocks: List[str] = []
        self.next_request = 0
        self.op_calls: Counter = Counter()
        self.op_fwd: Counter = Counter()
        self.op_bwd: Counter = Counter()
        self.block_bwd: Counter = Counter()
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()  # per entry-point name, however reached
        self.absent: List[str] = []
        self.stage_models: Dict[int, str] = {}
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent < 0 or name in REQUESTS:
            request = self.next_request
            self.next_request += 1
        else:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, request])
        self.stack.append(index)
        if name in BLOCKS:
            self.blocks.append(name)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter_ns()
        self.stack.pop()
        if span[0] in BLOCKS:
            self.blocks.pop()

    def parent_name(self) -> Optional[str]:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> bool:
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def _span_wrapper(self, entry: str, name: str, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                self.calls[entry] += 1
                index = self.open(name(args) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _op_wrapper(self, op: str):
        def make(original):
            def wrapper(*args, **kwargs):
                started = perf_counter_ns()
                out = original(*args, **kwargs)
                self.op_fwd[op] += perf_counter_ns() - started
                self.op_calls[op] += 1
                tape = out._tape
                if tape is not None and tape.entries and tape.entries[-1].output is out:
                    entry = tape.entries[-1]
                    self._time_backward(entry, op, self.blocks[-1] if self.blocks else None)
                return out
            return wrapper
        return make

    def _time_backward(self, entry, op: str, block: Optional[str]) -> None:
        backward_fn = entry.backward_fn

        def timed(grad):
            started = perf_counter_ns()
            backward_fn(grad)
            spent = perf_counter_ns() - started
            self.op_bwd[op] += spent
            if block is not None:
                self.block_bwd[block] += spent

        entry.backward_fn = timed

    def install(self) -> None:
        for op in OPS:
            if not self._patch(capfuse.autograd, op, self._op_wrapper(op)):
                self.absent.append(f"autograd.{op}")
        for entry, targets in ENTRY_POINTS.items():
            name, after = self._naming(entry)
            found = [self._patch(owner, attr, self._special(entry)
                                 or self._span_wrapper(entry, name, after))
                     for owner, attr in targets]
            if not any(found):
                self.absent.append(entry)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- entry points that need more than a plain span ---------------------

    def _naming(self, entry: str):
        """(span name or function of the call's arguments, post-call hook)."""
        if entry == "model.attention":
            def name(args):
                base, kind = args[1].split(".")[:2]
                return f"model.{'enc' if base.startswith('enc') else 'dec'}_" \
                       f"{_ATTENTION_BLOCK.get(kind, kind)}"
            return name, None
        if entry == "pipeline.stage":
            return (lambda args: "pipeline.stage_"
                    + self.stage_models.get(id(args[0]), "transformer")), None
        if entry == "model.encode":
            return entry, lambda args, out: self.counts.update(
                {"prompting.src_tokens": args[1].size})
        if entry == "model.decode_batch":
            return entry, self._count_decode
        if entry == "model.generate":
            return entry, lambda args, out: self.counts.update(
                {"model.tokens_emitted": len(out.ids) - 1})
        if entry == "autograd.backward":
            def tape_size(args, out):
                self.counts["autograd.tape_entries"] += len(args[0]._tape or ())
            return entry, tape_size
        if entry == "checkpoint.save":
            return entry, lambda args, out: self.counts.update(
                {"checkpoint.bytes": os.path.getsize(args[0])})
        if entry == "pipeline.filter":
            def decision(args, out):
                action = out[1]
                self.counts[f"pipeline.filter_{action.action}"] += 1
                self.counts["pipeline.filter_scored"] += action.score_original is not None
            return entry, decision
        if entry == "metrics.align":
            return entry, lambda args, out: self.counts.update(
                {"metrics.align_cells": len(args[0].split()) * len(args[1].split())})
        return entry, None

    def _count_decode(self, args, out) -> None:
        # only decoder calls made by generate are decoding; the rest is training
        if self.parent_name() == "model.generate":
            self.counts["model.decode_batch_calls"] += 1
            self.counts["model.decode_positions"] += args[1].size

    def _special(self, entry: str):
        if entry == "model.affine":
            def make(original):
                def wrapper(model, name, x):
                    self.calls[entry] += 1
                    block = "model.out_proj" if name == "out" else \
                        "model.ffn" if ".ffn" in name else None
                    if block is None:
                        return original(model, name, x)
                    index = self.open(block)
                    try:
                        return original(model, name, x)
                    finally:
                        self.close(index)
                return wrapper
            return make
        if entry == "training.batch_prep":
            def make(original):
                if not inspect.isgeneratorfunction(original):
                    return self._span_wrapper(entry, entry)(original)

                def iterate(*args, **kwargs):
                    self.calls[entry] += 1
                    batches = original(*args, **kwargs)
                    while True:
                        index = self.open(entry)
                        try:
                            batch = next(batches)
                        except StopIteration:
                            return
                        finally:
                            self.close(index)
                        yield batch
                return iterate
            return make
        return None

    # -- results -----------------------------------------------------------

    def self_check(self) -> List[str]:
        """Entry points present in the program that recorded no call, and
        autograd ops that were never called."""
        silent = [entry for entry in ENTRY_POINTS
                  if entry not in self.absent and not self.calls[entry]]
        silent += [f"autograd.{op}" for op in OPS
                   if f"autograd.{op}" not in self.absent and not self.op_calls[op]]
        return silent

    def layer_metrics(self) -> Dict[str, tuple]:
        total: Counter = Counter()
        self_time: Counter = Counter()
        children: Counter = Counter()
        for span in self.spans:
            duration = span[2] - span[1]
            total[span[0]] += duration
            if span[3] >= 0:
                children[span[3]] += duration
        decode_encode = decode_decode = 0
        for index, span in enumerate(self.spans):
            duration = span[2] - span[1]
            self_time[span[0]] += duration - children[index]
            if span[3] >= 0 and self.spans[span[3]][0] == "model.generate":
                if span[0] == "model.encode":
                    decode_encode += duration
                elif span[0] == "model.decode_batch":
                    decode_decode += duration
        ms = lambda ns: ns / 1e6
        out: Dict[str, tuple] = {}
        for op in OPS:
            out[f"autograd.{op}.calls"] = (self.op_calls[op], "count")
            out[f"autograd.{op}.fwd_ms"] = (ms(self.op_fwd[op]), "ms")
            out[f"autograd.{op}.bwd_ms"] = (ms(self.op_bwd[op]), "ms")
        backwards = self.calls["autograd.backward"]
        out["autograd.tape_entries_per_step"] = (
            self.counts["autograd.tape_entries"] / backwards if backwards else 0.0, "count")
        out["autograd.backward_ms"] = (ms(total["autograd.backward"]), "ms")
        for block in BLOCKS[:6]:
            out[f"{block}.fwd_ms"] = (ms(total[block]), "ms")
            out[f"{block}.bwd_ms"] = (ms(self.block_bwd[block]), "ms")
        out["model.masks_ms"] = (ms(total["model.masks"]), "ms")
        out["model.encode_ms"] = (ms(decode_encode), "ms")
        out["model.decode_batch_ms"] = (ms(decode_decode), "ms")
        out["model.decode_batch_calls"] = (self.counts["model.decode_batch_calls"], "count")
        out["model.decode_positions"] = (self.counts["model.decode_positions"], "count")
        out["model.tokens_emitted"] = (self.counts["model.tokens_emitted"], "count")
        out["model.beam_select_ms"] = (ms(self_time["model.generate"]), "ms")
        out["fusion.project_ms"] = (ms(total["fusion.project"]), "ms")
        out["fusion.fuse_fwd_ms"] = (ms(total["fusion.fuse"]), "ms")
        out["fusion.fuse_bwd_ms"] = (ms(self.block_bwd["fusion.fuse"]), "ms")
        out["optim.adam_step_ms"] = (ms(total["optim.adam_step"]), "ms")
        out["optim.adam_steps"] = (self.calls["optim.adam_step"], "count")
        out["training.batch_prep_ms"] = (ms(total["training.batch_prep"]), "ms")
        out["training.step_ms"] = (ms(total["training.step"]), "ms")
        for kind in ("save", "load", "average"):
            out[f"checkpoint.{kind}_ms"] = (ms(total[f"checkpoint.{kind}"]), "ms")
        out["checkpoint.bytes"] = (self.counts["checkpoint.bytes"], "bytes")
        for stage in ("transformer", "prompt", "fusion"):
            out[f"pipeline.stage_{stage}_ms"] = (ms(total[f"pipeline.stage_{stage}"]), "ms")
        out["pipeline.filter_ms"] = (ms(total["pipeline.filter"]), "ms")
        for kind in ("scored", "replaced", "kept"):
            out[f"pipeline.filter_{kind}"] = (self.counts[f"pipeline.filter_{kind}"], "count")
        out["similarity.score_calls"] = (self.calls["similarity.score"], "count")
        out["similarity.score_ms"] = (ms(total["similarity.score"]), "ms")
        out["prompting.src_tokens"] = (self.counts["prompting.src_tokens"], "count")
        out["metrics.align_ms"] = (ms(total["metrics.align"]), "ms")
        out["metrics.align_cells"] = (self.counts["metrics.align_cells"], "count")
        out["metrics.report_ms"] = (ms(self_time["metrics.corpus_eval"]
                                       + total["metrics.report"]), "ms")
        for name in ("data.synth", "data.manifest_io", "data.filter", "data.split",
                     "text.vocab", "text.encode", "vecfile.io"):
            out[f"{name}_ms"] = (ms(total[name]), "ms")
        return out

    def write(self, path, header: dict) -> None:
        """Spans as gzipped JSON lines: a header, then [name, start_us,
        end_us, parent, request] per span, times from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, fields=["name", "start_us", "end_us",
                                                     "parent", "request"])) + "\n")
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, (start - origin) // 1000, (end - origin) // 1000,
                                     parent, request]) + "\n")
