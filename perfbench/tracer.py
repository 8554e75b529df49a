"""Span tracer for the benchmark's traced runs.

The tracer wraps public samediff callables from outside the package.  A
module-level function is replaced in every ``samediff*`` module namespace
that holds the same object, so ``from .losses import pair_risk_batch`` in
``samediff.trainer`` is patched together with ``samediff.losses``; a method
is replaced on its class.  Each call records a span (name, start, end,
parent) in memory; self time is a span's duration minus the time covered by
its child spans.  Counters read work sizes from the arguments and results
at the same boundaries.

A target that no longer exists (renamed or deleted by a refactor) is
reported as absent instead of failing the run.  A target that exists but
records no calls on a workload that is supposed to exercise it is a
failure: some caller still holds the unwrapped object.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _planned_batches(n_train, cfg):
    epochs = sum(int(ep) for _, ep in cfg.schedule)
    return epochs * -(-n_train // cfg.batch_size)


def _count_gather(c, args, kwargs, result, steps):
    c["data.gather_rows"] += 2 * len(args[0])


def _count_forward(c, args, kwargs, result, steps):
    c["model.hidden_forward_rows"] += len(_arg(args, kwargs, 1, "x"))


def _count_step(c, args, kwargs, result, steps):
    c["trainer.steps"] += 1


def _count_pair_risk(c, args, kwargs, result, steps):
    n = len(_arg(args, kwargs, 3, "t"))
    c["losses.pair_risk_calls"] += 1
    c["losses.pair_terms"] += n
    c["trainer.max_pair_buffer"] = max(c["trainer.max_pair_buffer"], n)


def _count_step1_skips(c, args, kwargs, result, steps):
    # Batches the epoch plan schedules minus SGD steps taken: the trainer
    # skips positive-free contrastive batches without a step.
    pairs, cfg = _arg(args, kwargs, 1, "pairs"), _arg(args, kwargs, 2, "cfg")
    n = len(pairs)
    n_val = int(n * cfg.val_fraction)
    n_train = n if n_val < 1 or n - n_val < 1 else n - n_val
    c["trainer.skipped_batches"] += _planned_batches(n_train, cfg) - steps


def _count_online_skips(c, args, kwargs, result, steps):
    # Online batches of fewer than 2 examples (and positive-free contrastive
    # batches) take no step.
    model, ds = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "ds")
    cfg = _arg(args, kwargs, 3, "cfg")
    n = len(ds)
    n_val = int(n * cfg.val_fraction)
    whole = n <= model.class_count or n_val < 1 or n - n_val < 1
    n_train = n if whole else n - n_val
    c["trainer.skipped_batches"] += _planned_batches(n_train, cfg) - steps


def _count_sampled(c, args, kwargs, result, steps):
    c["pairing.sampled_pairs"] += len(result)


def _count_written(c, args, kwargs, result, steps):
    c["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_read(c, args, kwargs, result, steps):
    c["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_edges(c, args, kwargs, result, steps):
    c["privacy.edges"] += len(_arg(args, kwargs, 0, "pairs"))


def _count_problems(c, args, kwargs, result, steps):
    c["theory.problems"] += result.n_problems


# target "module:qualname" -> (self-time metric, counter or None)
TARGETS = {
    "samediff.data:PairDataset.gather": ("data.gather_s", _count_gather),
    "samediff.model:HiddenNetwork.forward_cached": ("model.hidden_forward_s", _count_forward),
    "samediff.model:phi_normalize": ("model.phi_s", None),
    "samediff.model:phi_backward": ("model.phi_s", None),
    "samediff.model:HiddenNetwork.backward": ("model.hidden_backward_s", None),
    "samediff.model:HiddenNetwork.sgd_step": ("model.update_s", _count_step),
    "samediff.model:TwoPartClassifier.apply_grads": ("model.update_s", None),
    "samediff.model:HiddenNetwork.clone": ("model.snapshot_s", None),
    "samediff.model:LinearHead.clone": ("model.snapshot_s", None),
    "samediff.model:TwoPartClassifier.features": ("model.eval_forward_s", None),
    "samediff.model:TwoPartClassifier.predict": ("model.eval_forward_s", None),
    "samediff.losses:pair_risk_batch": ("losses.pair_risk_s", _count_pair_risk),
    "samediff.losses:empirical_risk_pairs": ("losses.val_risk_s", None),
    "samediff.losses:head_loss_batch": ("losses.head_loss_s", None),
    "samediff.trainer:train_two_stage": ("trainer.step1_self_s", None),
    "samediff.trainer:train_step1": ("trainer.step1_self_s", _count_step1_skips),
    "samediff.trainer:train_online": ("trainer.online_self_s", _count_online_skips),
    "samediff.trainer:train_baseline_full": ("trainer.baseline_self_s", None),
    "samediff.trainer:train_step2": ("trainer.step2_s", None),
    "samediff.pairing:pair_sampled": ("pairing.sampled_s", _count_sampled),
    "samediff.pairing:pair_disjoint": ("pairing.disjoint_s", None),
    "samediff.pairing:pair_exhaustive": ("pairing.exhaustive_s", None),
    "samediff.io:load_csv": ("io.load_csv_s", _count_read),
    "samediff.io:save_pairs": ("io.save_pairs_s", _count_written),
    "samediff.io:load_pairs": ("io.load_pairs_s", _count_read),
    "samediff.io:save_model": ("io.save_model_s", _count_written),
    "samediff.io:load_model": ("io.load_model_s", _count_read),
    "samediff.privacy:encrypt_disjoint": ("privacy.encrypt_self_s", None),
    "samediff.privacy:strength_report": ("privacy.attack_s", None),
    "samediff.privacy:recover_clusters": ("privacy.attack_s", _count_edges),
    "samediff.privacy:pairwise_agreement": ("privacy.agreement_s", None),
    "samediff.theory:run_verification_suite": ("theory.verify_s", _count_problems),
    "samediff.cli:cli_main": ("cli.self_s", None),
    "samediff.config:load_config": ("config.build_s", None),
    "samediff.config:build_datasets": ("config.build_s", None),
    "samediff.config:build_model": ("config.build_s", None),
    "samediff.config:build_train_config": ("config.build_s", None),
    "samediff.config:build_pairing_config": ("config.build_s", None),
    "samediff.harness:accuracy": ("harness.accuracy_s", None),
    "samediff.harness:stratified_subset": ("harness.stratified_subset_s", None),
}

COUNT_METRICS = (
    "data.gather_rows",
    "model.hidden_forward_rows",
    "losses.pair_risk_calls",
    "losses.pair_terms",
    "trainer.steps",
    "trainer.skipped_batches",
    "trainer.max_pair_buffer",
    "pairing.sampled_pairs",
    "io.bytes_written",
    "io.bytes_read",
    "privacy.edges",
    "theory.problems",
)

TIME_METRICS = tuple(dict.fromkeys(metric for metric, _ in TARGETS.values()))


def _resolve(target):
    """(owner, attribute) for a target, or None when it no longer exists."""
    modname, qualname = target.split(":")
    owner = sys.modules.get(modname)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and aggregates one pass at a time."""

    def __init__(self):
        self.absent = sorted(t for t in TARGETS if _resolve(t) is None)
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    def _wrap(self, target, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            steps = counts["trainer.steps"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[target] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.self_time[target] += end - start - frame[1]
                self.calls[target] += 1
                spans[frame[0]] = (target, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result, counts["trainer.steps"] - steps)
            return result

        return wrapper

    def install(self):
        """Start a fresh pass record and wrap every present target."""
        self.reset()
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "samediff" or name.startswith("samediff."))
        ]
        for target, (_, counter) in TARGETS.items():
            where = _resolve(target)
            if where is None:
                continue
            owner, attr = where
            original = vars(owner)[attr]
            wrapper = self._wrap(target, original, counter)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [
                    (m, name) for m in modules
                    for name, value in list(vars(m).items()) if value is original
                ]
            for site_owner, name in sites:
                setattr(site_owner, name, wrapper)
                self._patches.append((site_owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def pass_metrics(self) -> dict:
        """Per-layer values of the pass recorded since the last reset."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for target, seconds in self.self_time.items():
            out[TARGETS[target][0]] += seconds
        out.update(self.counts)
        return out

    def silent_targets(self, expected) -> list[str]:
        """Expected, present targets that recorded no call."""
        return sorted(t for t in expected if t not in self.absent and self.calls[t] == 0)

    def write_spans(self, path):
        """Write the last pass's spans as CSV; parent is a row number."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,name,start,end,parent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{k},{name},{start!r},{end!r},{parent}\n")
