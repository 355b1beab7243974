"""A training loop driven from the benchmark, span by span.

:func:`traced_fit` reproduces ``Trainer.fit`` step for step — same
loader, optimizer, clipping, padding refresh, batch hook, validation and
best-epoch restore — but calls ``loss``, ``backward`` and
``optimizer.step`` itself, so the tracer can time the data wait,
forward, backward and optimizer phases of every batch.  The caller
checks that its final weights equal those of ``Trainer.fit`` bitwise;
a loop that drifted from the trainer fails that check.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

import numpy as np

from repro.data.stream import build_loader
from repro.eval import make_evaluator
from repro.nn import Adam, clip_grad_norm
from repro.nn.layers import Embedding
from repro.train import TrainConfig


def _refresh_padding_rows(model) -> None:
    for module in model.modules():
        if isinstance(module, Embedding):
            module.apply_padding_mask()


def traced_fit(model, split, config: TrainConfig, tracer,
               loss_fn: Optional[Callable] = None, evaluator=None) -> list:
    """Train ``model`` as ``Trainer(model, split, config).fit()`` would.

    Returns the per-batch losses.  Resume points, schedulers, the
    profiler and the sanitizer are not reproduced: the benchmark runs
    none of them.
    """
    loss_fn = loss_fn or model.loss
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    evaluator = evaluator or make_evaluator(
        split.valid, batch_size=config.batch_size, max_len=split.max_len)
    loader = build_loader(split.train, batch_size=config.batch_size,
                          max_len=split.max_len, seed=config.seed)
    hook = getattr(model, "on_batch_end", None)
    best_metric, best_state, bad_epochs = -np.inf, None, 0
    losses: list = []
    for _ in range(config.epochs):
        model.train()
        batches = iter(loader)
        while True:
            with tracer.span("data.batch_wait"):
                batch = next(batches, None)
            if batch is None:
                break
            optimizer.zero_grad()
            with tracer.span("train.forward"):
                loss = loss_fn(batch)
            with tracer.span("train.backward"):
                loss.backward()
            with tracer.span("train.optimizer"):
                if config.grad_clip:
                    clip_grad_norm(model.parameters(), config.grad_clip)
                optimizer.step()
                _refresh_padding_rows(model)
            if hook is not None:
                hook()
            losses.append(float(loss.item()))
        with tracer.span("eval.ranks"):
            current = evaluator.evaluate(model)[config.eval_metric]
        if current > best_metric:
            best_metric, best_state, bad_epochs = (
                current, model.state_dict(), 0)
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    if best_state is not None:
        model.load_state_dict(best_state)
    _refresh_padding_rows(model)
    return losses


class StepClock:
    """Wraps a loss function and stamps each call: one per batch.

    ``Trainer`` calls its ``loss_fn`` once per batch, so the gap between
    consecutive calls within an epoch is one whole training step (data,
    forward, backward, optimizer).  The last batch of an epoch has no
    next call in that epoch (validation follows) and may be partial, so
    it is never timed.
    """

    def __init__(self, loss_fn: Callable, steps_per_epoch: int):
        self.loss_fn = loss_fn
        self.steps_per_epoch = int(steps_per_epoch)
        self.stamps: list = []

    def __call__(self, batch):
        self.stamps.append(time.perf_counter())
        return self.loss_fn(batch)

    def step_seconds(self) -> list:
        per = self.steps_per_epoch
        return [b - a for i, (a, b) in
                enumerate(zip(self.stamps, self.stamps[1:]))
                if (i + 1) % per != 0]


def same_weights(a, b) -> bool:
    """Bitwise equality of two models' parameters."""
    pa, pb = a.parameters(), b.parameters()
    return len(pa) == len(pb) and all(
        x.data.dtype == y.data.dtype and np.array_equal(x.data, y.data)
        for x, y in zip(pa, pb))


def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)
