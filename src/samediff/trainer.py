"""Two-stage training: pair-supervised representation, then a linear head.

Stage 1 fits the hidden network on same/different pair labels only; the
head never moves.  Stage 2 freezes the hidden network bit-for-bit and fits
the head on frozen features from every label of a (typically tiny)
fully-labeled set, holding none out, and keeps its final head.
A fully-supervised joint baseline and an online variant, which scores the
B(B-1)/2 within-batch pairs of each shuffled minibatch without
materialising them (from class sums under sqdist, from the B x B Gram
matrix otherwise, expanding them only for a batch with a floored row),
complete the four trainers.

All four run one epoch driver, ``_run_epochs``, which owns each stage's
record: it creates and times the ``TrainRun``, walks the schedule,
shuffles, validates, keeps the best snapshot, writes the trace and counts
skipped batches as planned, ceil(n / batch_size), minus stepped.  A stage
whose final parameters hold an inf or nan, or whose final model maps one
of its training rows to a non-finite feature (finite weights can still
overflow), has diverged: the driver raises a ``ValueError`` naming it, so
nothing downstream trains on or writes it.  A regime
supplies only an epoch body, which holds its batch loop and yields each
stepped batch's (loss, weight), and a validation score or None.  Every
mean over batches, train loss and online validation risk alike, is one
``_weighted_mean``.  Stage 1, online training and the baseline hold out
by one rule, ``_holdout``: floor(n * val_fraction) of their n pairs or
rows whenever both sides stay nonempty, so ``val_fraction=0`` holds
nothing out; a held-out split that would score nothing goes back to
training.

Every regime trains through the model's one surface and steps with its
one update, ``apply_grads``.  The pair stages push their feature adjoint
through ``backward_features``; the head stage takes only the head gradient
of ``LinearHead.backward`` on frozen features; the baseline takes both,
feeding the feature adjoint that ``LinearHead.backward`` returns into
``backward_features``.

Every pair-stage step is a few whole-batch numpy calls, because at these
tensor sizes per-call overhead, not arithmetic, sets the cost.  Stage 1
resolves pair ids to feature rows once per run, gathers each epoch's rows
in one take, and pushes each batch's a-sides and b-sides, one contiguous
slice, through one forward and one backward pass; the backward takes the
pair risk's gradient array as it is, stacked the same way.  The online
step and its validation share one batch walk, ``_online_batches``: it
yields each batch's rows with their class labels, which fix the agreement
bits of all B(B-1)/2 pairs, and ``pair_risk_batch`` takes the batch's
features whole (``ub=None``) and returns the gradient at the B rows,
by the one route per batch that the ``losses`` module docstring sets out.

Plain SGD throughout.  The default short schedule (0.1 x 20, 0.01 x 10,
0.001 x 5 epochs) is a tenth of the long recipe (200/100/50) for quick
runs; the head stage runs 50 epochs at 0.1.  All shuffling and splitting
derives from named substreams of one seed, so repeated runs produce
identical parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .data import FullyLabeledDataset, PairDataset
from .losses import (
    HEAD_LOSSES,
    PAIR_LOSSES,
    empirical_risk_pairs,
    head_loss_batch,
    pair_risk_batch,
)
from .model import TwoPartClassifier, project_head
from .rng import substream

__all__ = [
    "SHORT_SCHEDULE",
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


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for every training entry point; its fields are exactly the
    config's ``train`` keys, and ``asdict`` of it is a run's recorded config.

    ``pair_loss=None`` resolves to sqdist for a binary head and ncs
    otherwise.  ``val_fraction`` is the share of its n items that stage 1,
    online training and the baseline hold out, floor(n * val_fraction),
    whenever both sides stay nonempty and the split can be scored; 0 holds
    nothing out, and the head stage never does.
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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.pair_loss is not None and self.pair_loss not in PAIR_LOSSES:
            raise ValueError(f"unknown pair loss {self.pair_loss!r}")
        if self.head_loss not in HEAD_LOSSES:
            raise ValueError(f"unknown head loss {self.head_loss!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        for lr, epochs in (*self.schedule, (self.head_rate, self.head_epochs)):
            if not 0.0 < lr < math.inf:
                raise ValueError(f"learning rates must be finite and positive, got {lr!r}")
            if epochs < 0:
                raise ValueError(f"epoch counts must not be negative, got {epochs!r}")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")

    def resolved_pair_loss(self, model: TwoPartClassifier) -> str:
        if self.pair_loss is not None:
            return self.pair_loss
        return "sqdist" if model.head.binary else "ncs"


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of one stage; its fields, in order, are ``trace.csv``'s
    columns after ``stage``."""

    epoch: int
    lr: float
    train_loss: float
    val_metric: float | None


@dataclass
class TrainRun:
    """Outcome of one training stage, created by the epoch driver.

    ``best_epoch`` is the epoch whose snapshot the model ended on, or None
    when no validation set existed and the final parameters stand, as in
    every head stage.
    ``wall_seconds`` times the driver's epoch loop, not the split or the
    final head projection.  ``max_pair_buffer`` is the most pairs one
    online batch stood for, and ``skipped_batches`` counts planned minus
    stepped training batches: a contrastive batch with no same-class pair,
    or an online batch of one row.
    """

    stage: str
    config: dict
    trace: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    wall_seconds: float = 0.0
    max_pair_buffer: int = 0
    skipped_batches: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _holdout(n: int, cfg: TrainConfig, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Kept and held-out positions of n items: the ("valsplit", kind)
    substream holds out floor(n * val_fraction) of them whenever both sides
    stay nonempty; otherwise every item is kept and none is held out.  A
    trainer whose held-out items would score nothing keeps them all too."""
    n_val = int(n * cfg.val_fraction)
    if n_val < 1 or n - n_val < 1:
        return np.arange(n), None
    perm = substream(cfg.seed, "valsplit", kind).permutation(n)
    return perm[n_val:], perm[:n_val]


def _weighted_mean(terms: Iterable[tuple[float, int]]) -> float:
    """Sum of value * weight over sum of weight for the (value, weight)
    terms, in order; 0.0 when they weigh nothing."""
    total, seen = 0.0, 0
    for value, weight in terms:
        total += value * weight
        seen += weight
    return total / max(seen, 1)


def _run_epochs(stage: str, model: TwoPartClassifier, cfg: TrainConfig, schedule, tag: str,
                n: int, epoch_body: Callable[[float, np.ndarray], Iterable[tuple[float, int]]],
                val_score: Callable[[], float | None] | None, x: np.ndarray,
                maximize: bool = False) -> TrainRun:
    """The one epoch loop every trainer runs; it creates, times and returns
    the stage's ``TrainRun``.

    Each epoch of the ((lr, epochs), ...) schedule permutes the n training
    items with the ("shuffle", tag, epoch) substream and hands it to
    ``epoch_body(lr, perm)``, which slices it into ``cfg.batch_size``
    batches and yields each stepped batch's (loss, weight); their
    ``_weighted_mean`` is the train loss, and planned minus yielded batches
    count as skipped.  ``val_score=None`` means no validation split.  The
    model is cloned at the best metric (lowest, or highest with
    ``maximize``) and restored after the last epoch; parts the regime
    never moves come back bit-identical.  The stage has diverged, and
    raises, when the model it ends on holds a non-finite parameter or maps
    a row of ``x``, its training inputs, to a non-finite feature.
    """
    run = TrainRun(stage=stage, config=asdict(cfg))
    planned = -(-n // cfg.batch_size)
    sign = -1.0 if maximize else 1.0
    best, snapshot = np.inf, None
    t0 = time.perf_counter()
    for epoch, lr in enumerate(float(lr) for lr, epochs in schedule for _ in range(epochs)):
        perm = substream(cfg.seed, "shuffle", tag, epoch).permutation(n)
        terms = list(epoch_body(lr, perm))
        run.skipped_batches += planned - len(terms)
        train_loss = _weighted_mean(terms)
        val_metric = None if val_score is None else val_score()
        if val_metric is not None and sign * val_metric < best:
            best, snapshot = sign * val_metric, model.clone()
            run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, lr, train_loss, val_metric))
    if snapshot is not None:
        model.hidden, model.head = snapshot.hidden, snapshot.head
    run.wall_seconds = time.perf_counter() - t0
    if not (model.all_finite() and np.isfinite(model.features(x)).all()):
        raise ValueError(f"stage {stage} diverged: its final parameters or training-row "
                         "features hold a non-finite value")
    return run


def train_step1(model: TwoPartClassifier, pairs: PairDataset, cfg: TrainConfig) -> TrainRun:
    """Stage 1: fit the hidden network on a materialized pair set.

    Only hidden-layer parameters move.  When enough pairs exist, a held-out
    fraction tracks validation pair risk and the best snapshot is restored
    at the end.  Under contrastive, a held-out split without a same-class
    pair cannot be scored, so its pairs train.
    """
    loss_name = cfg.resolved_pair_loss(model)
    keep, held = _holdout(len(pairs), cfg, "pairs")
    if held is not None and loss_name == "contrastive" and not np.any(pairs.t[held] == 1):
        keep, held = np.arange(len(pairs)), None   # a positive-free split scores nothing
    train_pairs, val_pairs = pairs.take(keep), None if held is None else pairs.take(held)
    # Ids resolve to feature rows once.  Each epoch gathers its rows in one
    # take, batch by batch as [a-sides; b-sides], so every batch is one
    # contiguous slice that takes one forward and one backward pass.
    pos_a, pos_b = train_pairs.positions()
    x = train_pairs.source.x
    t_all = np.asarray(train_pairs.t, dtype=np.int64)
    n, bs = len(train_pairs), cfg.batch_size
    # Epoch position p of the batch [lo, lo + m) sends its a-side to row
    # lo + p and its b-side to row lo + p + m of the epoch's gather.
    pos = np.arange(n)
    start = pos - pos % bs
    to_a = start + pos
    to_b = to_a + np.minimum(bs, n - start)

    def epoch_body(lr, perm):
        rows = np.empty(2 * n, dtype=np.intp)
        rows[to_a] = pos_a.take(perm)
        rows[to_b] = pos_b.take(perm)
        x_ep, t_ep = x.take(rows, axis=0), t_all.take(perm)
        for lo in range(0, n, bs):
            t = t_ep[lo:lo + bs]
            if loss_name == "contrastive" and not np.any(t == 1):
                continue
            m = len(t)
            u, cache = model.features_cached(x_ep[2 * lo:2 * (lo + m)])
            risk, dua, _ = pair_risk_batch(
                loss_name, u[:m], u[m:], t, radius=model.radius, beta=cfg.beta
            )
            # The two halves share one (2m, d) array, stacked as u is.
            model.apply_grads(lr, hidden=model.backward_features(cache, dua.base))
            yield risk, m

    val_score = None if val_pairs is None else (
        lambda: empirical_risk_pairs(model, val_pairs, loss_name, beta=cfg.beta))
    return _run_epochs("step1", model, cfg, cfg.schedule, "step1", n, epoch_body, val_score, x)


def train_step2(model: TwoPartClassifier, ds: FullyLabeledDataset, cfg: TrainConfig) -> TrainRun:
    """Stage 2: fit the head on frozen features from a fully-labeled set.

    The hidden network is not touched (features are computed once up
    front), so its parameters are bit-identical before and after.  The head
    trains on every given label, since a few held-out labels cannot choose
    an epoch, and its final parameters are projected into the norm ball.
    """
    if len(ds) == 0:
        raise ValueError("empty labeled set")
    u_train = model.features(ds.x)

    def epoch_body(lr, perm):
        for lo in range(0, len(perm), cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            u = u_train[idx]
            loss, dscores = head_loss_batch(cfg.head_loss, model.head.scores(u), ds.y[idx])
            dw, db, _ = model.head.backward(u, dscores)
            model.apply_grads(lr, head=(dw, db))
            yield loss, len(idx)

    run = _run_epochs("step2", model, cfg, ((cfg.head_rate, cfg.head_epochs),), "step2",
                      len(ds), epoch_body, None, ds.x)
    model.project_head()
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
    keep, held = _holdout(len(ds), cfg, "examples")
    train_ds, val_ds = ds.subset(keep), None if held is None else ds.subset(held)

    def epoch_body(lr, perm):
        for lo in range(0, len(perm), cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            u, cache = model.features_cached(train_ds.x[idx])
            loss, dscores = head_loss_batch(cfg.head_loss, model.head.scores(u), train_ds.y[idx])
            dw, db, du = model.head.backward(u, dscores)
            model.apply_grads(lr, hidden=model.backward_features(cache, du), head=(dw, db))
            yield loss, len(idx)

    def accuracy():   # of the model with its head projected
        return float(np.mean(TwoPartClassifier(
            model.hidden, model.radius, project_head(model.head, model.radius),
            model.class_count).predict(val_ds.x) == val_ds.y))

    run = _run_epochs("baseline", model, cfg, cfg.schedule, "baseline", len(train_ds),
                      epoch_body, None if val_ds is None else accuracy, train_ds.x, maximize=True)
    model.project_head()
    return run


def _online_batches(ds: FullyLabeledDataset, order: np.ndarray, cfg: TrainConfig,
                    loss_name: str):
    """(rows, labels) for each batch of ``order`` that can take a pair step.

    Batches of fewer than 2 examples have no pair, and under contrastive a
    batch in which no class appears twice has no same-class pair and so no
    risk; both are skipped.
    """
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        y = ds.y.take(idx)
        if len(idx) < 2 or (loss_name == "contrastive" and np.bincount(y).max() < 2):
            continue
        yield idx, y


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
    examples the same way and averages their pair risk; when none of them
    can be scored, they train too, so the stage has no validation split
    and its final parameters stand.
    """
    if len(ds) < 2:
        raise ValueError("online training needs at least 2 examples")
    loss_name = cfg.resolved_pair_loss(model)
    keep, held = _holdout(len(ds), cfg, "examples")
    val_batches = [] if held is None else [
        (ds.x.take(idx, axis=0), y) for idx, y in _online_batches(ds, held, cfg, loss_name)]
    if not val_batches:   # no held-out batch to score: no split
        keep = np.arange(len(ds))
    train_ds = ds.subset(keep)
    peak = 0

    def epoch_body(lr, perm):
        nonlocal peak
        for idx, y in _online_batches(train_ds, perm, cfg, loss_name):
            n_pairs = len(y) * (len(y) - 1) // 2
            peak = max(peak, n_pairs)
            u, cache = model.features_cached(train_ds.x.take(idx, axis=0))
            risk, du, _ = pair_risk_batch(loss_name, u, None, y, radius=model.radius,
                                          beta=cfg.beta)
            model.apply_grads(lr, hidden=model.backward_features(cache, du))
            yield risk, n_pairs

    val_score = None if not val_batches else lambda: _weighted_mean(
        (pair_risk_batch(loss_name, model.features(x), None, y, radius=model.radius,
                         beta=cfg.beta)[0], len(y) * (len(y) - 1) // 2)
        for x, y in val_batches)
    run = _run_epochs("step1-online", model, cfg, cfg.schedule, "online", len(train_ds),
                      epoch_body, val_score, train_ds.x)
    run.max_pair_buffer = peak
    return run, train_step2(model, labeled, cfg)
