"""Evaluation harness: accuracy, the regime runner, label-budget sweeps and
regime comparisons.

``train_regimes`` is how every experiment trains a regime from a pair
budget and a label budget: ``train``, the sweep and the comparison call
it.  The sweep and the comparison run one loop of trials seeded from
``train_cfg.seed``.  The sweep varies the pair budget n1 and the
labeled-set size n2 on a grid and keeps per-run accuracies so any summary
can be recomputed from the rows.  The comparison runs the regimes on
shared per-trial seeds and one test set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import FullyLabeledDataset
from .model import TwoPartClassifier
from .pairing import PairingConfig, build_pairs
from .rng import substream
from .trainer import TrainConfig, train_baseline_full, train_online, train_two_stage

__all__ = [
    "accuracy",
    "stratified_subset",
    "train_regimes",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "CompareResult",
    "comparison_protocol",
]

ModelFactory = Callable[[int], TwoPartClassifier]


def accuracy(model: TwoPartClassifier, ds: FullyLabeledDataset) -> float:
    """Fraction of correct predictions; undefined on an empty set."""
    if len(ds) == 0:
        raise ValueError("accuracy undefined on an empty dataset")
    return float(np.mean(model.predict(ds.x) == ds.y))


def stratified_subset(ds: FullyLabeledDataset, n: int, seed: int) -> FullyLabeledDataset:
    """Random subset of size n spread as evenly as possible over classes.

    Classes are visited round-robin in shuffled order, drawing one shuffled
    example at a time, so n = class_count yields exactly one per class.
    Fewer than n rows come back once the labels in [0, class_count) run
    out.  The rounds are computed as one stable sort by round number: round
    k takes the k-th draw of every class, in the shuffled class order.
    """
    if not 1 <= n <= len(ds):
        raise ValueError(f"subset size {n} outside [1, {len(ds)}]")
    rng = substream(seed, "labels")
    classes = [c for c in range(ds.class_count) if np.any(ds.y == c)]
    rng.shuffle(classes)
    # the round robin popped each permutation from its end, so reversed, draw k is round
    # k's pick; the empty first draw lets a dataset with no class in range concatenate
    draws = [np.empty(0, np.int64)]
    draws += [rng.permutation(np.flatnonzero(ds.y == c))[::-1] for c in classes]
    rounds = np.concatenate([np.arange(len(d)) for d in draws])
    picked = np.concatenate(draws)[np.argsort(rounds, kind="stable")[:n]]
    return ds.subset(np.sort(picked))


def train_regimes(
    train_ds: FullyLabeledDataset,
    model_factory: ModelFactory,
    cfg: TrainConfig,
    pairing: PairingConfig,
    n_labels: int,
    regimes: tuple[str, ...],
) -> dict[str, tuple[TwoPartClassifier, list]]:
    """Train a fresh ``model_factory(cfg.seed)`` per regime; returns
    ``{regime: (model, runs)}``.

    * full:    joint training on every label in ``train_ds``.
    * sampled: two-stage training on the pairs ``pairing`` describes plus
               ``n_labels`` labels drawn with ``cfg.seed`` from their pool.
    * online:  online two-stage training on the same labels, drawn from
               ``train_ds`` when "sampled" does not run.

    Unknown regimes, and a label budget above the records left to label,
    are refused before any training; the models are built before any pair.
    """
    recipes = {
        "full": lambda model: [train_baseline_full(model, train_ds, cfg)],
        "sampled": lambda model: list(train_two_stage(model, pairs, labeled, cfg)),
        "online": lambda model: list(train_online(model, train_ds, labeled, cfg)),
    }
    for name in regimes:
        if name not in recipes:
            raise ValueError(f"unknown regime {name!r}")
    models = {name: model_factory(cfg.seed) for name in regimes}
    pairs, label_pool = None, train_ds
    if "sampled" in regimes:
        pairs, label_pool = build_pairs(train_ds, pairing)
    if "sampled" in regimes or "online" in regimes:
        if n_labels > len(label_pool):
            raise ValueError(f"label budget {n_labels} exceeds the {len(label_pool)} records "
                             "left to label")
        labeled = stratified_subset(label_pool, n_labels, cfg.seed)
    return {name: (model, recipes[name](model)) for name, model in models.items()}


def _mean_std(accuracies: list[float]) -> tuple[float, float]:
    """(mean, sample std) of one or more accuracies; the std of one is 0.0."""
    acc = np.array(accuracies)
    std = float(np.std(acc, ddof=1)) if len(acc) > 1 else 0.0
    return float(np.mean(acc)), std


def _trials(train_ds, test_ds, model_factory, train_cfg, pairing, n_labels, regimes,
            name: tuple, count: int):
    """The seeded trials both experiments run: trial k trains ``regimes``
    through ``train_regimes`` on the seed ``substream(train_cfg.seed,
    *name, k)`` and yields (seed, wall seconds, {regime: test accuracy})."""
    for k in range(count):
        seed = int(substream(train_cfg.seed, *name, k).integers(2**62))
        t0 = time.perf_counter()
        trained = train_regimes(train_ds, model_factory, replace(train_cfg, seed=seed),
                                replace(pairing, seed=seed), n_labels, regimes)
        acc = {regime: accuracy(model, test_ds) for regime, (model, _) in trained.items()}
        yield seed, time.perf_counter() - t0, acc


@dataclass(frozen=True)
class SweepSpec:
    """Grid of pair budgets and label budgets with repetitions."""

    n1_values: tuple[int, ...]
    n2_values: tuple[int, ...]
    reps: int

    def __post_init__(self):
        if not self.n1_values or not self.n2_values:
            raise ValueError("sweep grid must be nonempty")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        for key, values in (("n1", self.n1_values), ("n2", self.n2_values)):
            if min(values) < 1:
                raise ValueError(f"sweep.{key} must be at least 1, got {min(values)}")
            if len(set(values)) < len(values):
                raise ValueError(f"sweep.{key} lists {max(values, key=values.count)} twice")


@dataclass(frozen=True)
class SweepRow:
    n1: int
    n2: int
    rep: int
    seed: int
    accuracy: float
    wall_seconds: float


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow] = field(default_factory=list)

    def cell(self, n1: int, n2: int) -> list[SweepRow]:
        return [r for r in self.rows if r.n1 == n1 and r.n2 == n2]

    def cell_stats(self, n1: int, n2: int) -> tuple[float, float]:
        """(mean, sample std) recomputed from the stored per-run accuracies."""
        acc = [r.accuracy for r in self.cell(n1, n2)]
        if not acc:
            raise ValueError(f"no rows for cell ({n1}, {n2})")
        return _mean_std(acc)

    def to_csv(self, path: str) -> None:
        """Result rows; wall times stay out of the file (they go to the run
        manifest instead) so identical reruns are byte-identical."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("n1,n2,rep,seed,accuracy\n")
            for r in self.rows:
                f.write(f"{r.n1},{r.n2},{r.rep},{r.seed},{repr(r.accuracy)}\n")


def run_sweep(
    train_ds: FullyLabeledDataset,
    test_ds: FullyLabeledDataset,
    spec: SweepSpec,
    model_factory: ModelFactory,
    train_cfg: TrainConfig,
    pairing: PairingConfig,
) -> SweepResult:
    """Two-stage training over the (n1, n2) grid: rep k of cell (n1, n2)
    runs the sampled regime on n1 pairs and n2 labels under the seed
    ``substream(train_cfg.seed, "sweep", n1, n2, k)``, so a rerun
    reproduces every row exactly.

    The whole grid is refused before any cell trains: each n1 is paired
    once, so a budget its pairing cannot take raises, and the largest n2
    must fit in the records that every n1 leaves to label."""
    for n1 in spec.n1_values:
        try:
            cell_pairing = replace(pairing, n_pairs=n1)
        except ValueError as err:   # the mode reads no budget: say where this one came from
            raise ValueError(f"sweep.n1 {n1}: {err}") from None
        _, label_pool = build_pairs(train_ds, cell_pairing)
        if max(spec.n2_values) > len(label_pool):
            raise ValueError(f"sweep.n2 {max(spec.n2_values)} exceeds the {len(label_pool)} "
                             f"records that {n1} pairs leave to label")
    result = SweepResult(spec=spec)
    for n1 in spec.n1_values:
        for n2 in spec.n2_values:
            cell = _trials(train_ds, test_ds, model_factory, train_cfg,
                           replace(pairing, n_pairs=n1), n2, ("sampled",),
                           ("sweep", n1, n2), spec.reps)
            for rep, (seed, wall, acc) in enumerate(cell):
                result.rows.append(SweepRow(n1, n2, rep, seed, acc["sampled"], wall))
    return result


@dataclass
class CompareResult:
    """Per-regime accuracies under the paired multi-trial design."""

    trials: int
    regimes: dict[str, list[float]] = field(default_factory=dict)

    def stats(self, regime: str) -> tuple[float, float]:
        return _mean_std(self.regimes[regime])

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "regimes": {
                name: {
                    "accuracies": list(map(float, vals)),
                    "mean": self.stats(name)[0],
                    "std": self.stats(name)[1],
                }
                for name, vals in self.regimes.items()
            },
        }


def comparison_protocol(
    train_ds: FullyLabeledDataset,
    test_ds: FullyLabeledDataset,
    model_factory: ModelFactory,
    train_cfg: TrainConfig,
    pairing: PairingConfig,
    n_labels: int,
    trials: int,
    regimes: tuple[str, ...] = ("full", "sampled", "online"),
) -> CompareResult:
    """Compare the ``train_regimes`` regimes on shared per-trial seeds
    ``substream(train_cfg.seed, "compare", k)``: each trial's regimes train
    from one seed, its sampled regime on the pairs ``pairing`` describes
    and its head-stage regimes on the same ``n_labels`` labels."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    result = CompareResult(trials=trials, regimes={name: [] for name in regimes})
    for _, _, acc in _trials(train_ds, test_ds, model_factory, train_cfg, pairing,
                             n_labels, regimes, ("compare",), trials):
        for name, value in acc.items():
            result.regimes[name].append(value)
    return result
