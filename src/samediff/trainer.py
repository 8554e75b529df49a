"""Two-stage training: pair-supervised representation, then a linear head.

Stage 1 fits the hidden network on same/different pair labels only; the
head never moves.  Stage 2 freezes the hidden network bit-for-bit and fits
the head on a (typically tiny) fully-labeled set against frozen features.
A fully-supervised joint baseline and an online variant, which expands each
shuffled minibatch into its B(B-1)/2 pairs on the fly, complete the four
trainers.

All four run one epoch driver, ``_run_epochs``: it owns the epoch plan, the
per-epoch shuffle, the validation call, the best snapshot and the trace; a
regime supplies only an epoch body, which holds its whole batch loop, and
a validation score.

Every regime trains through the model's one surface and steps with its
one update, ``apply_grads``.  The pair stages push their feature adjoint
through ``backward_features``; the head stage takes only the head gradient
of ``LinearHead.backward`` on frozen features; the baseline takes both,
feeding the feature adjoint that ``LinearHead.backward`` returns into
``backward_features``.

Every pair-stage step is a few whole-batch numpy calls, because at these
tensor sizes per-call overhead, not arithmetic, sets the cost.  Stage 1
resolves pair ids to feature rows once per run and pushes each batch's
a-sides and b-sides through one forward and one backward pass.  The online
step and its validation share one batch walk, ``_online_batches``: it
yields each batch's rows with the agreement bits of its upper-triangle
pairs, and ``pair_risk_batch`` takes the batch's features whole
(``ub=None``), scoring every pair on one B x B Gram matrix and returning
the gradient at the B rows.  The pairs are never gathered or scattered.

Plain SGD throughout.  The default short schedule (0.1 x 20, 0.01 x 10,
0.001 x 5 epochs) is a tenth of the long recipe (200/100/50) for quick
runs; the head stage runs 50 epochs at 0.1.  All shuffling and splitting
derives from named substreams of one seed, so repeated runs produce
identical parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import FullyLabeledDataset, PairDataset, sufficient_label
from .losses import (
    HEAD_LOSSES,
    PAIR_LOSSES,
    _triu_pairs,
    empirical_risk_pairs,
    head_loss_batch,
    pair_risk_batch,
)
from .model import TwoPartClassifier
from .rng import substream

__all__ = [
    "SHORT_SCHEDULE",
    "LONG_SCHEDULE",
    "TrainConfig",
    "TrainRun",
    "EpochRecord",
    "train_step1",
    "train_step2",
    "train_two_stage",
    "train_baseline_full",
    "train_online",
]

SHORT_SCHEDULE = ((0.1, 20), (0.01, 10), (0.001, 5))
LONG_SCHEDULE = ((0.1, 200), (0.01, 100), (0.001, 50))


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for every training entry point.

    ``pair_loss=None`` resolves to sqdist for a binary head and ncs
    otherwise.  ``augment`` receives (features, rng) and returns features;
    it applies to stage-1 and baseline batches, never to the frozen-feature
    head stage.
    """

    batch_size: int = 128
    schedule: tuple[tuple[float, int], ...] = SHORT_SCHEDULE
    head_rate: float = 0.1
    head_epochs: int = 50
    seed: int = 0
    pair_loss: str | None = None
    head_loss: str = "hinge"
    beta: float | None = None
    val_fraction: float = 1.0 / 12.0
    augment: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.pair_loss is not None and self.pair_loss not in PAIR_LOSSES:
            raise ValueError(f"unknown pair loss {self.pair_loss!r}")
        if self.head_loss not in HEAD_LOSSES:
            raise ValueError(f"unknown head loss {self.head_loss!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")

    def resolved_pair_loss(self, model: TwoPartClassifier) -> str:
        if self.pair_loss is not None:
            return self.pair_loss
        return "sqdist" if model.head.binary else "ncs"

    def echo(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "schedule": [[lr, ep] for lr, ep in self.schedule],
            "head_rate": self.head_rate,
            "head_epochs": self.head_epochs,
            "seed": self.seed,
            "pair_loss": self.pair_loss,
            "head_loss": self.head_loss,
            "beta": self.beta,
            "val_fraction": self.val_fraction,
        }


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_metric: float | None

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "lr": self.lr,
            "train_loss": self.train_loss,
            "val_metric": self.val_metric,
        }


@dataclass
class TrainRun:
    """Outcome of one training stage.

    ``best_epoch`` is the epoch whose snapshot the model ended on, or None
    when no validation set existed and the final parameters stand (the
    tiny-labeled-set rule: with at most one example per class there is
    nothing to hold out, so selection falls back to the final train loss).
    """

    stage: str
    config: dict
    trace: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    wall_seconds: float = 0.0
    max_pair_buffer: int = 0

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "config": self.config,
            "trace": [r.to_dict() for r in self.trace],
            "best_epoch": self.best_epoch,
            "wall_seconds": self.wall_seconds,
            "max_pair_buffer": self.max_pair_buffer,
        }


def _epoch_plan(schedule) -> list[tuple[int, float]]:
    """(epoch, learning rate) for every epoch of a ((lr, epochs), ...) schedule."""
    return list(enumerate(float(lr) for lr, epochs in schedule for _ in range(epochs)))


def _split_pairs(pairs: PairDataset, cfg: TrainConfig) -> tuple[PairDataset, PairDataset | None]:
    n = len(pairs)
    n_val = int(n * cfg.val_fraction)
    if n_val < 1 or n - n_val < 1:
        return pairs, None
    perm = substream(cfg.seed, "valsplit", "pairs").permutation(n)
    return pairs.take(perm[n_val:]), pairs.take(perm[:n_val])


def _split_examples(
    ds: FullyLabeledDataset, cfg: TrainConfig, class_count: int
) -> tuple[FullyLabeledDataset, FullyLabeledDataset | None]:
    n = len(ds)
    n_val = int(n * cfg.val_fraction)
    if n <= class_count or n_val < 1 or n - n_val < 1:
        return ds, None
    perm = substream(cfg.seed, "valsplit", "examples").permutation(n)
    return ds.subset(perm[n_val:]), ds.subset(perm[:n_val])


def _run_epochs(run: TrainRun, model: TwoPartClassifier, cfg: TrainConfig,
                plan: list[tuple[int, float]], tag: str, n: int,
                epoch_body: Callable[[int, float, np.ndarray], float],
                val_score: Callable[[], float | None], maximize: bool = False) -> None:
    """The one epoch loop every trainer runs.

    Each epoch permutes the n training items with the ("shuffle", tag,
    epoch) substream and hands the permutation to ``epoch_body(epoch, lr,
    perm)``, which runs the regime's whole batch loop and returns the mean
    train loss.  ``val_score()`` returns the validation metric, or None
    without a validation set.  The model is cloned at the best metric
    (lowest, or highest with ``maximize``) and restored after the last
    epoch; parts the regime never moves come back bit-identical.
    """
    sign = -1.0 if maximize else 1.0
    best, snapshot = np.inf, None
    for epoch, lr in plan:
        perm = substream(cfg.seed, "shuffle", tag, epoch).permutation(n)
        train_loss = epoch_body(epoch, lr, perm)
        val_metric = val_score()
        if val_metric is not None and sign * val_metric < best:
            best, snapshot = sign * val_metric, model.clone()
            run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, lr, train_loss, val_metric))
    if snapshot is not None:
        model.hidden, model.head = snapshot.hidden, snapshot.head


def _accuracy_score(model: TwoPartClassifier, val_ds: FullyLabeledDataset | None):
    """Validation accuracy of the model with its head projected, or None."""
    if val_ds is None:
        return lambda: None
    return lambda: float(np.mean(model.projected().predict(val_ds.x) == val_ds.y))


def train_step1(model: TwoPartClassifier, pairs: PairDataset, cfg: TrainConfig) -> TrainRun:
    """Stage 1: fit the hidden network on a materialized pair set.

    Only hidden-layer parameters move.  When enough pairs exist, a held-out
    fraction tracks validation pair risk and the best snapshot is restored
    at the end.
    """
    t0 = time.perf_counter()
    loss_name = cfg.resolved_pair_loss(model)
    train_pairs, val_pairs = _split_pairs(pairs, cfg)
    if val_pairs is not None and loss_name == "contrastive" and not np.any(val_pairs.t == 1):
        val_pairs = None   # positive-free split cannot score this loss
    run = TrainRun(stage="step1", config=cfg.echo())
    # Ids resolve to feature rows once; each epoch permutes the row
    # positions and each batch slices them.
    pos_a, pos_b = train_pairs.positions()
    x = train_pairs.source.x
    t_all = np.asarray(train_pairs.t, dtype=np.int64)

    def epoch_body(epoch, lr, perm):
        ep_a, ep_b, ep_t = pos_a[perm], pos_b[perm], t_all[perm]
        total, seen = 0.0, 0
        for lo in range(0, len(perm), cfg.batch_size):
            sl = slice(lo, lo + cfg.batch_size)
            t = ep_t[sl]
            xa = x.take(ep_a[sl], axis=0)
            xb = x.take(ep_b[sl], axis=0)
            if cfg.augment is not None:
                arng = substream(cfg.seed, "augment", epoch, lo)
                xa = cfg.augment(xa, arng)
                xb = cfg.augment(xb, arng)
            if loss_name == "contrastive" and not np.any(t == 1):
                continue
            # Both sides go through one forward and one backward pass: the
            # batch's rows are [a-sides; b-sides].
            m = len(t)
            u, cache = model.features_cached(np.concatenate([xa, xb]))
            risk, dua, dub = pair_risk_batch(
                loss_name, u[:m], u[m:], t, radius=model.radius, beta=cfg.beta
            )
            du = np.concatenate([dua, dub])
            model.apply_grads(lr, hidden=model.backward_features(cache, du))
            total += risk * m
            seen += m
        return total / max(seen, 1)

    def val_score():
        return None if val_pairs is None else empirical_risk_pairs(
            model, val_pairs, loss_name, beta=cfg.beta)

    _run_epochs(run, model, cfg, _epoch_plan(cfg.schedule), "step1", len(train_pairs),
                epoch_body, val_score)
    run.wall_seconds = time.perf_counter() - t0
    return run


def train_step2(model: TwoPartClassifier, ds: FullyLabeledDataset, cfg: TrainConfig) -> TrainRun:
    """Stage 2: fit the head on frozen features from a fully-labeled set.

    The hidden network is not touched (training features are computed once
    up front), so its parameters are bit-identical before and after.  The
    head trains unconstrained and is projected into its norm ball for every
    validation measurement and once more at the end.
    """
    if len(ds) == 0:
        raise ValueError("empty labeled set")
    t0 = time.perf_counter()
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    u_train = model.features(train_ds.x)
    run = TrainRun(stage="step2", config=cfg.echo())

    def epoch_body(epoch, lr, perm):
        total = 0.0
        for lo in range(0, len(perm), cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            u = u_train[idx]
            loss, dscores = head_loss_batch(
                cfg.head_loss, model.head.scores(u), train_ds.y[idx], model.class_count
            )
            dw, db, _ = model.head.backward(u, dscores)
            model.apply_grads(lr, head=(dw, db))
            total += loss * len(idx)
        return total / len(perm)

    _run_epochs(run, model, cfg, _epoch_plan(((cfg.head_rate, cfg.head_epochs),)), "step2",
                len(train_ds), epoch_body, _accuracy_score(model, val_ds), maximize=True)
    model.project_head()
    run.wall_seconds = time.perf_counter() - t0
    return run


def train_two_stage(
    model: TwoPartClassifier,
    pairs: PairDataset,
    labeled: FullyLabeledDataset,
    cfg: TrainConfig,
) -> tuple[TrainRun, TrainRun]:
    """Stage 1 on pairs, then stage 2 on the small labeled set."""
    return train_step1(model, pairs, cfg), train_step2(model, labeled, cfg)


def train_baseline_full(
    model: TwoPartClassifier, ds: FullyLabeledDataset, cfg: TrainConfig
) -> TrainRun:
    """Fully-supervised reference: joint SGD on all parameters."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    t0 = time.perf_counter()
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    run = TrainRun(stage="baseline", config=cfg.echo())

    def epoch_body(epoch, lr, perm):
        total = 0.0
        for lo in range(0, len(perm), cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            x = train_ds.x[idx]
            if cfg.augment is not None:
                x = cfg.augment(x, substream(cfg.seed, "augment", epoch, lo))
            u, cache = model.features_cached(x)
            loss, dscores = head_loss_batch(
                cfg.head_loss, model.head.scores(u), train_ds.y[idx], model.class_count
            )
            dw, db, du = model.head.backward(u, dscores)
            model.apply_grads(lr, hidden=model.backward_features(cache, du), head=(dw, db))
            total += loss * len(idx)
        return total / len(perm)

    _run_epochs(run, model, cfg, _epoch_plan(cfg.schedule), "baseline", len(train_ds),
                epoch_body, _accuracy_score(model, val_ds), maximize=True)
    model.project_head()
    run.wall_seconds = time.perf_counter() - t0
    return run


def _online_batches(ds: FullyLabeledDataset, order: np.ndarray, cfg: TrainConfig, loss_name: str):
    """(lo, rows, t) for each batch of ``order`` that can take a pair step.

    ``t`` holds the agreement bits of the batch's pairs i < j in
    ``np.triu_indices`` order.  Batches of fewer than 2 examples have no
    pair, and under contrastive a batch without a same-class pair has no
    risk; both are skipped.
    """
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        if len(idx) < 2:
            continue
        ii, jj, _ = _triu_pairs(len(idx))
        y = ds.y.take(idx)
        t = sufficient_label(y.take(ii), y.take(jj))
        if loss_name == "contrastive" and not np.any(t == 1):
            continue
        yield lo, idx, t


def train_online(
    model: TwoPartClassifier,
    ds: FullyLabeledDataset,
    labeled: FullyLabeledDataset,
    cfg: TrainConfig,
) -> tuple[TrainRun, TrainRun]:
    """Online two-stage training: pairs exist only inside the current batch.

    Each epoch reshuffles the examples; every minibatch of B examples
    stands for its B(B-1)/2 pairs, so the peak pair buffer is bounded by
    the batch size and never by the quadratic global pair count.  The
    batch takes one forward pass, one ``pair_risk_batch`` call on its
    features whole, which returns the gradient at its rows, and one
    backward pass.  Validation walks fixed-order batches of the held-out
    examples the same way and averages their pair risk.
    """
    if len(ds) < 2:
        raise ValueError("online training needs at least 2 examples")
    t0 = time.perf_counter()
    loss_name = cfg.resolved_pair_loss(model)
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    run = TrainRun(stage="step1-online", config=cfg.echo())

    def epoch_body(epoch, lr, perm):
        total, seen = 0.0, 0
        for lo, idx, t in _online_batches(train_ds, perm, cfg, loss_name):
            x = train_ds.x.take(idx, axis=0)
            if cfg.augment is not None:
                x = cfg.augment(x, substream(cfg.seed, "augment", epoch, lo))
            run.max_pair_buffer = max(run.max_pair_buffer, len(t))
            u, cache = model.features_cached(x)
            risk, du, _ = pair_risk_batch(loss_name, u, None, t, radius=model.radius,
                                          beta=cfg.beta)
            model.apply_grads(lr, hidden=model.backward_features(cache, du))
            total += risk * len(t)
            seen += len(t)
        return total / max(seen, 1)

    def val_score():
        if val_ds is None:
            return None
        total, seen = 0.0, 0
        for _, idx, t in _online_batches(val_ds, np.arange(len(val_ds)), cfg, loss_name):
            u = model.features(val_ds.x.take(idx, axis=0))
            total += pair_risk_batch(loss_name, u, None, t, radius=model.radius,
                                     beta=cfg.beta)[0] * len(t)
            seen += len(t)
        return total / max(seen, 1)

    _run_epochs(run, model, cfg, _epoch_plan(cfg.schedule), "online", len(train_ds),
                epoch_body, val_score)
    run.wall_seconds = time.perf_counter() - t0
    run2 = train_step2(model, labeled, cfg)
    return run, run2
