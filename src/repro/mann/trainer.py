"""Training loop for the memory network.

Adam with MemN2N's gradient-norm clipping at 40, the learning rate
annealed by halving on a fixed epoch schedule, and pad rows re-zeroed
after every step. MemN2N's published bAbI recipe uses plain SGD; this
repo trains with Adam only (see :mod:`repro.nn.optim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.babi.dataset import BabiDataset, EncodedBatch
from repro.mann.batch import BatchInferenceEngine
from repro.mann.config import MannConfig
from repro.mann.model import MemoryNetwork
from repro.utils.rng import new_rng


@dataclass
class TrainResult:
    """Training history and final evaluation of one model."""

    model: MemoryNetwork
    train_losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    test_accuracy: float = 0.0
    majority_accuracy: float = 0.0
    epochs_run: int = 0

    @property
    def final_loss(self) -> float:
        return self.train_losses[-1] if self.train_losses else float("inf")


class Trainer:
    """Mini-batch trainer with annealed Adam and grad clipping."""

    def __init__(
        self,
        model: MemoryNetwork,
        lr: float = 0.01,
        batch_size: int = 32,
        max_grad_norm: float = 40.0,
        anneal_every: int = 25,
        anneal_factor: float = 0.5,
        seed: int = 0,
    ):
        self.model = model
        self.batch_size = int(batch_size)
        self.max_grad_norm = float(max_grad_norm)
        self.rng = new_rng(seed)
        self.optimizer = nn.Adam(model.parameters(), lr=lr)
        self.schedule = nn.StepDecay(
            self.optimizer, step_size=anneal_every, gamma=anneal_factor
        )

    def run_epoch(self, batch: EncodedBatch) -> float:
        """One pass over the data; returns mean loss."""
        order = self.rng.permutation(len(batch))
        losses = []
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            logits = self.model.forward(
                batch.stories[idx], batch.questions[idx], batch.story_lengths[idx]
            )
            loss = nn.cross_entropy(logits, batch.answers[idx])
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.clip_grad_norm(self.max_grad_norm)
            self.optimizer.step()
            self.model.zero_pad_rows()
            losses.append(loss.item())
        self.schedule.step()
        return float(np.mean(losses))

    def evaluate(self, batch: EncodedBatch) -> float:
        """Accuracy on a batch via the vectorised inference engine.

        Evaluating through the frozen-weight batch engine (rather than
        the autograd graph) exercises exactly the path deployment uses.
        """
        engine = BatchInferenceEngine(self.model.export_weights())
        preds = engine.predict(
            batch.stories, batch.questions, batch.story_lengths
        )
        return float((preds == batch.answers).mean())

    def fit(
        self,
        train: EncodedBatch,
        epochs: int = 40,
        test: EncodedBatch | None = None,
        target_accuracy: float | None = None,
    ) -> TrainResult:
        """Train for up to ``epochs`` epochs.

        Stops early once training accuracy reaches ``target_accuracy``
        (the synthetic tasks saturate quickly).
        """
        result = TrainResult(model=self.model)
        for _ in range(epochs):
            loss = self.run_epoch(train)
            accuracy = self.evaluate(train)
            result.train_losses.append(loss)
            result.train_accuracies.append(accuracy)
            result.epochs_run += 1
            if target_accuracy is not None and accuracy >= target_accuracy:
                break
        if test is not None:
            result.test_accuracy = self.evaluate(test)
        return result


def train_task_model(
    train_dataset: BabiDataset,
    test_dataset: BabiDataset | None = None,
    config: MannConfig | None = None,
    epochs: int = 40,
    lr: float = 0.01,
    batch_size: int = 32,
    hops: int = 3,
    embed_dim: int = 20,
    seed: int = 0,
    target_accuracy: float | None = 0.995,
) -> TrainResult:
    """Convenience wrapper: build, train and evaluate one task model."""
    if config is None:
        config = MannConfig(
            vocab_size=train_dataset.vocab_size,
            embed_dim=embed_dim,
            memory_size=train_dataset.memory_size,
            hops=hops,
            seed=seed,
        )
    model = MemoryNetwork(config)
    trainer = Trainer(model, lr=lr, batch_size=batch_size, seed=seed)
    train_batch = train_dataset.encode()
    test_batch = test_dataset.encode() if test_dataset is not None else None
    result = trainer.fit(
        train_batch, epochs=epochs, test=test_batch, target_accuracy=target_accuracy
    )
    result.majority_accuracy = train_dataset.majority_baseline_accuracy()
    return result
