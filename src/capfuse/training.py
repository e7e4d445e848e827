"""Seeded training loop with step logging and periodic checkpoints."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .fileio import atomic_open
from .model import EncoderDecoderModel, train_step
from .optim import Adam


@dataclass
class TrainingRecipe:
    steps: int = 500
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0
    ckpt_every: int = 0  # 0 disables periodic checkpoints


def iterate_batches(examples: Sequence, batch_size: int, steps: int,
                    rng: np.random.Generator):
    """Yield ``steps`` batches, reshuffling the example order each epoch."""
    if not examples:
        raise ValueError("iterate_batches: no training examples")
    order: List[int] = []
    emitted = 0
    while emitted < steps:
        if len(order) < batch_size:
            order.extend(rng.permutation(len(examples)).tolist())
        take, order = order[:batch_size], order[batch_size:]
        yield [examples[i] for i in take]
        emitted += 1


def run_training(model: EncoderDecoderModel, examples: Sequence,
                 recipe: TrainingRecipe,
                 log_path: Optional[Path] = None,
                 ckpt_dir: Optional[Path] = None) -> List[float]:
    """Train for ``recipe.steps`` Adam steps; returns per-step losses.

    A non-finite loss raises ValueError naming the step, before that step
    is logged or checkpointed.

    The log gets one ``step loss lr`` line per step, published once when
    training ends or stops. With ``ckpt_every`` set, checkpoints land in
    ckpt_dir as step-NNNNNN.ckpt (final step always included).
    """
    optimizer = Adam(model.named_params(), lr=recipe.lr)
    rng = np.random.default_rng(recipe.seed)
    losses: List[float] = []
    if ckpt_dir is not None:
        Path(ckpt_dir).mkdir(parents=True, exist_ok=True)
    try:
        for step, batch in enumerate(
                iterate_batches(examples, recipe.batch_size, recipe.steps, rng), 1):
            loss = train_step(model, batch, optimizer)
            if not np.isfinite(loss):
                raise ValueError(f"training stopped at step {step}: loss is {loss}")
            losses.append(loss)
            if ckpt_dir is not None and recipe.ckpt_every > 0 and (
                    step % recipe.ckpt_every == 0 or step == recipe.steps):
                model.save_checkpoint(Path(ckpt_dir) / f"step-{step:06d}.ckpt")
    finally:
        if log_path:
            with atomic_open(log_path) as fh:
                fh.writelines(f"{step} {loss:.6f} {recipe.lr}\n"
                              for step, loss in enumerate(losses, 1))
    model.eval()
    return losses
