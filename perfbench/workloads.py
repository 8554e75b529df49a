"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload writes its inputs (dataset CSVs and run configs) from a seed
with its own generator, so the program under test only ever receives files.
A pass drives the public CLI (``samediff.cli.cli_main``) in process, plus
the public ``load_pairs`` and ``strength_report`` for the release audit,
and times every program call (calibrated, see ``CAL_REF_S``).  Checks run
outside the timers.  Program
callables are looked up on the package at call time so that the traced run
sees its wrappers.

Workload sizes (why each workload exists is in BENCHMARK.json):

* two_stage_sampled: 4-class blobs, 500 per class, 12,000 sampled pairs,
  short schedule, ncs pair loss, 1 label per class; ``eval`` on 20,000
  test examples.
* online_and_full: 2-class blobs, 978 per class, sqdist pair loss, 1
  label per class.  1,793 training examples remain after the validation
  split: 14 full online batches of B=128 (8,128 pair terms each) and one
  single-example batch that is skipped, per epoch.  Then the joint
  baseline on the same data; ``eval`` of both checkpoints.
* release_audit: 10-class blobs, 10,000 examples.  Disjoint ``encrypt`` at
  500, 2,000 and 4,999 (the maximum) pairs; ``convert --mode sampled`` at
  2,000, 10,000 and 20,000 pairs; full coverage (4,950 pairs) of a
  100-example subset through the sampled path's end game; ``exhaustive``
  on a 500-example subset (124,750 pairs).  Every release is read back and
  attacked.  Then ``verify-theory`` on 80 generated problems.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import traceback
import zlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import samediff as sd

SHORT_SCHEDULE = [[0.1, 20], [0.01, 10], [0.001, 5]]
VAL_FRACTION = 1.0 / 12.0
BATCH = 128
EPOCHS = sum(ep for _, ep in SHORT_SCHEDULE)
ACCURACY_FLOOR = 0.9


# On a shared 2-vCPU VM (Intel Xeon) the CPU speed drifted by up to 1.8x
# between states lasting from seconds to minutes, in process CPU time as
# much as in wall time, which put 0.14-0.29 of spread (interquartile range
# over median, ten seeds) on measured pass times.  A fixed calibration
# loop, made of the kinds of work the program spends its time in (matrix
# products, tiny elementwise numpy calls, dict and generator work, Python
# method calls), is timed just before every program call, and the call's
# time is reported in calibrated seconds: measured seconds x CAL_REF_S /
# calibration seconds.
CAL_REF_S = 0.008  # about the loop's median on a 2-vCPU Intel Xeon, Python 3.11, numpy 2.4
_CAL_X = np.random.default_rng(0).normal(size=(128, 32))
_CAL_W = np.random.default_rng(1).normal(size=(32, 32))
_CAL_KEYS = tuple(range(100))


class _Tally:
    def __init__(self):
        self.total = 0

    def add(self, k):
        self.total += k


def calibration_seconds() -> float:
    start = perf_counter()
    tally = _Tally()
    for _ in range(50):
        np.linalg.norm(np.maximum(_CAL_X @ _CAL_W, 0.0), axis=1)
        table = dict.fromkeys(_CAL_KEYS, 1.0)
        sum(table[k] for k in _CAL_KEYS)
        for _ in range(4):
            np.where(_CAL_X[:, :2] @ _CAL_W[:2] > 0.0, 1.0, 0.0).sum(axis=0)
        for k in range(200):
            tally.add(k)
    return perf_counter() - start


def timed(fn, *args):
    """Run fn after the calibration loop: (result, seconds, calibrated s)."""
    cal = calibration_seconds()
    start = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - start
    return result, seconds, seconds * CAL_REF_S / cal


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


class Ledger:
    """Counts attempted and failed program calls and checks; times calls.

    ``raw_s`` accumulates the measured seconds of every call, the returned
    times are calibrated.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.raw_s = 0.0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def _timed(self, fn, *args):
        """(result, or None after an exception; calibrated seconds)."""
        result, seconds, calibrated = timed(_guarded, fn, *args)
        self.raw_s += seconds
        return result, calibrated

    def call(self, what: str, fn, *args):
        """Run one public function; an exception counts as a failure."""
        result, seconds = self._timed(fn, *args)
        self.check(result is not None, f"{what} raised")
        return result, seconds

    def cli(self, *argv: str):
        """Run one CLI command; returns (stdout text, calibrated seconds)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc, seconds = self._timed(sd.cli.cli_main, list(argv))
        self.check(rc == 0, f"{argv[0]} exited with {rc}")
        return out.getvalue(), seconds


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def blobs(rng, classes: int, per_class: int, noise: float = 0.5):
    """Gaussian blobs on a radius-2 circle, rows in shuffled order."""
    if classes == 2:
        centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
    else:
        ang = 2.0 * np.pi * np.arange(classes) / classes
        centers = 2.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    y = np.repeat(np.arange(classes), per_class)
    x = centers[y] + noise * rng.normal(size=(len(y), 2))
    order = rng.permutation(len(y))
    return x[order], y[order]


def write_csv(path: str, x, y) -> None:
    """Dataset CSV as docs/formats.md specifies: repr floats, int label."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(f"f{j}" for j in range(x.shape[1])) + ",label\n")
        f.writelines(
            ",".join(map(repr, row)) + f",{label}\n"
            for row, label in zip(x.tolist(), y.tolist())
        )


def write_split(data_dir: str, rng, classes: int, per_class: int, test_per_class: int) -> None:
    """train.csv and test.csv of blobs drawn from one generator."""
    write_csv(os.path.join(data_dir, "train.csv"), *blobs(rng, classes, per_class))
    write_csv(os.path.join(data_dir, "test.csv"), *blobs(rng, classes, test_per_class))


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


def n_train(n: int) -> int:
    """Examples or pairs left for training after the validation split."""
    n_val = int(n * VAL_FRACTION)
    return n if n_val < 1 or n - n_val < 1 else n - n_val


def online_pair_terms(n: int) -> int:
    """Pair terms of one online epoch over n examples in batches of BATCH."""
    sizes = [min(BATCH, n - lo) for lo in range(0, n, BATCH)]
    return sum(b * (b - 1) // 2 for b in sizes if b >= 2)


def train_config(data_dir, classes, seed, **sections) -> dict:
    doc = {
        "version": 1,
        "dataset": {
            "kind": "csv",
            "path": os.path.join(data_dir, "train.csv"),
            "test_path": os.path.join(data_dir, "test.csv"),
            "class_count": classes,
        },
        "model": {"hidden": [32], "rep_dim": 2, "radius": 1.0},
        "train": {
            "batch_size": BATCH,
            "schedule": SHORT_SCHEDULE,
            "head_rate": 0.1,
            "head_epochs": 50,
            "seed": seed,
            "head_loss": "hinge",
            "val_fraction": VAL_FRACTION,
        },
        "labels": {"per_class": 1},
    }
    for name, values in sections.items():
        doc.setdefault(name, {}).update(values)
    return doc


def check_training(ledger, out_dir, eval_text, what) -> dict:
    """Accuracy floor, train/eval agreement; returns output file hashes."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
        acc = json.load(f)["test_accuracy"]
    ledger.check(acc >= ACCURACY_FLOOR, f"{what}: accuracy {acc} below {ACCURACY_FLOOR}")
    ledger.check(
        eval_text.strip() == f"accuracy {acc:.6f}",
        f"{what}: eval printed {eval_text.strip()!r}, train reported {acc!r}",
    )
    return {
        f"{what}/{name}": sha256(os.path.join(out_dir, name))
        for name in ("model.ckpt", "trace.csv")
    }


@dataclass
class Pass:
    """Timings and output hashes of one pass."""

    wall_s: float = 0.0   # every program call, calibrated
    pairs_s: float = 0.0  # calls whose pair work ``pairs_per_s`` counts
    items_s: float = 0.0  # calls whose work ``items_per_s`` counts
    raw_s: float = 0.0    # every program call, as measured
    hashes: dict = field(default_factory=dict)


class TwoStageSampled:
    pairs_name = "train_pairs_per_s"
    items_name = "eval_examples_per_s"
    expected = {
        "samediff.cli:cli_main", "samediff.config:load_config",
        "samediff.config:build_datasets", "samediff.config:build_model",
        "samediff.config:build_train_config", "samediff.config:build_pairing_config",
        "samediff.io:load_csv", "samediff.pairing:pair_sampled",
        "samediff.harness:stratified_subset", "samediff.trainer:train_two_stage",
        "samediff.trainer:train_step1", "samediff.trainer:train_step2",
        "samediff.data:PairDataset.gather", "samediff.model:HiddenNetwork.forward_cached",
        "samediff.model:phi_normalize", "samediff.model:phi_backward",
        "samediff.model:HiddenNetwork.backward", "samediff.model:HiddenNetwork.sgd_step",
        "samediff.model:HiddenNetwork.clone",
        "samediff.model:TwoPartClassifier.features", "samediff.model:TwoPartClassifier.predict",
        "samediff.losses:pair_risk_batch", "samediff.losses:empirical_risk_pairs",
        "samediff.losses:head_loss_batch", "samediff.harness:accuracy",
        "samediff.io:save_model", "samediff.io:load_model",
    }

    def __init__(self, scale: float = 1.0):
        self.classes = 4
        self.per_class = max(25, round(500 * scale))
        self.test_per_class = max(50, round(5000 * scale))
        self.n_pairs = max(400, round(12000 * scale))
        self.pair_terms = n_train(self.n_pairs) * EPOCHS
        self.items = self.classes * self.test_per_class

    def setup(self, data_dir: str, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        write_split(data_dir, rng, self.classes, self.per_class, self.test_per_class)
        doc = train_config(
            data_dir, self.classes, seed,
            train={"pair_loss": "ncs"},
            pairing={"mode": "sampled", "n_pairs": self.n_pairs, "seed": seed},
        )
        write_json(os.path.join(data_dir, "config.json"), doc)
        self.data_dir = data_dir

    def run_pass(self, ledger: Ledger, out_dir: str) -> Pass:
        p = Pass()
        d = self.data_dir
        _, p.pairs_s = ledger.cli(
            "train", "--config", os.path.join(d, "config.json"),
            "--regime", "two-stage", "--out-dir", out_dir,
        )
        text, p.items_s = ledger.cli(
            "eval", "--checkpoint", os.path.join(out_dir, "model.ckpt"),
            "--data", os.path.join(d, "test.csv"), "--class-count", str(self.classes),
        )
        p.wall_s = p.pairs_s + p.items_s
        p.hashes = check_training(ledger, out_dir, text, "two-stage")
        return p


class OnlineAndFull:
    pairs_name = "train_pairs_per_s"
    items_name = "baseline_examples_per_s"
    expected = {
        "samediff.cli:cli_main", "samediff.config:load_config",
        "samediff.config:build_datasets", "samediff.config:build_model",
        "samediff.config:build_train_config", "samediff.io:load_csv",
        "samediff.harness:stratified_subset", "samediff.trainer:train_online",
        "samediff.trainer:train_step2", "samediff.trainer:train_baseline_full",
        "samediff.model:HiddenNetwork.forward_cached", "samediff.model:phi_normalize",
        "samediff.model:phi_backward", "samediff.model:HiddenNetwork.backward",
        "samediff.model:HiddenNetwork.sgd_step", "samediff.model:TwoPartClassifier.apply_grads",
        "samediff.model:HiddenNetwork.clone", "samediff.model:LinearHead.clone",
        "samediff.model:TwoPartClassifier.features", "samediff.model:TwoPartClassifier.predict",
        "samediff.losses:pair_risk_batch", "samediff.losses:head_loss_batch",
        "samediff.harness:accuracy", "samediff.io:save_model", "samediff.io:load_model",
    }

    def __init__(self, scale: float = 1.0):
        self.classes = 2
        self.per_class = max(40, round(978 * scale))
        self.test_per_class = max(50, round(2000 * scale))
        train_n = n_train(self.classes * self.per_class)
        self.pair_terms = online_pair_terms(train_n) * EPOCHS
        self.items = train_n * EPOCHS

    def setup(self, data_dir: str, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        write_split(data_dir, rng, self.classes, self.per_class, self.test_per_class)
        doc = train_config(data_dir, self.classes, seed, train={"pair_loss": "sqdist"})
        write_json(os.path.join(data_dir, "config.json"), doc)
        self.data_dir = data_dir

    def run_pass(self, ledger: Ledger, out_dir: str) -> Pass:
        p = Pass()
        d = self.data_dir
        texts = {}
        for regime in ("online", "baseline"):
            run_dir = os.path.join(out_dir, regime)
            _, seconds = ledger.cli(
                "train", "--config", os.path.join(d, "config.json"),
                "--regime", regime, "--out-dir", run_dir,
            )
            if regime == "online":
                p.pairs_s = seconds
            else:
                p.items_s = seconds
            texts[regime], eval_s = ledger.cli(
                "eval", "--checkpoint", os.path.join(run_dir, "model.ckpt"),
                "--data", os.path.join(d, "test.csv"), "--class-count", str(self.classes),
            )
            p.wall_s += seconds + eval_s
        for regime, text in texts.items():
            p.hashes.update(check_training(ledger, os.path.join(out_dir, regime), text, regime))
        return p


# -- release audit ----------------------------------------------------------


def sdpf_bytes(pairs) -> bytes:
    """SDPF encoding (docs/formats.md) of a loaded pair set, vectorised."""
    n = len(pairs)
    if isinstance(pairs.source, sd.EmbeddedFeatures):
        x = pairs.source.x
        dim = x.shape[1]
        rec = np.empty(n, dtype=[("a", "<f8", (dim,)), ("b", "<f8", (dim,)), ("t", "u1")])
        rec["a"], rec["b"] = x[pairs.a_ids], x[pairs.b_ids]
        flags = 1
    else:
        dim = 0
        rec = np.empty(n, dtype=[("a", "<i8"), ("b", "<i8"), ("t", "u1")])
        rec["a"], rec["b"] = pairs.a_ids, pairs.b_ids
        flags = 0
    rec["t"] = pairs.t
    payload = b"SDPF" + struct.pack("<HHIQ", 1, flags, dim, n) + rec.tobytes()
    return payload + struct.pack("<I", zlib.crc32(payload))


class ReleaseAudit:
    pairs_name = "release_pairs_per_s"
    items_name = "verify_problems_per_s"
    expected = {
        "samediff.cli:cli_main", "samediff.io:load_csv",
        "samediff.privacy:encrypt_disjoint", "samediff.pairing:pair_disjoint",
        "samediff.pairing:pair_sampled", "samediff.pairing:pair_exhaustive",
        "samediff.io:save_pairs", "samediff.io:load_pairs",
        "samediff.data:PairDataset.gather", "samediff.privacy:strength_report",
        "samediff.privacy:recover_clusters", "samediff.privacy:pairwise_agreement",
        "samediff.theory:run_verification_suite",
    }

    def __init__(self, scale: float = 1.0):
        self.classes = 10
        self.n = self.classes * max(20, round(1000 * scale))
        self.encrypt_sizes = (self.n // 20, self.n // 5, (self.n - 1) // 2)
        self.sampled_sizes = (self.n // 5, self.n, 2 * self.n)
        self.full_n = max(20, round(100 * scale))
        self.exhaustive_n = max(30, round(500 * scale))
        self.problems = max(5, round(80 * scale))
        full_pairs = self.full_n * (self.full_n - 1) // 2
        exhaustive_pairs = self.exhaustive_n * (self.exhaustive_n - 1) // 2
        self.pair_terms = (
            sum(self.encrypt_sizes) + sum(self.sampled_sizes) + full_pairs + exhaustive_pairs
        )
        self.items = self.problems

    def setup(self, data_dir: str, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.x, self.y = blobs(rng, self.classes, self.n // self.classes)
        self.paths = {}
        for name, k in (("all", self.n), ("full", self.full_n), ("exhaustive", self.exhaustive_n)):
            self.paths[name] = os.path.join(data_dir, f"{name}.csv")
            write_csv(self.paths[name], self.x[:k], self.y[:k])
        self.row_of = {row.tobytes(): k for k, row in enumerate(self.x)}
        self.seed = seed

    def _read_back(self, ledger, p, path):
        """Load one release, check it bitwise against the file; (pairs, s)."""
        pairs, seconds = ledger.call("load_pairs", sd.load_pairs, path)
        if pairs is not None:
            with open(path, "rb") as f:
                ledger.check(f.read() == sdpf_bytes(pairs), f"{path}: load_pairs is not bitwise")
        p.hashes[os.path.basename(path)] = sha256(path)
        return pairs, seconds

    def _check_ids(self, ledger, pairs, n_rows, count, what):
        a, b = pairs.a_ids, pairs.b_ids
        ledger.check(len(pairs) == count, f"{what}: {len(pairs)} pairs, wanted {count}")
        ledger.check(bool(np.all((0 <= a) & (a < b) & (b < n_rows))), f"{what}: ids out of range")
        ledger.check(len(np.unique(a * n_rows + b)) == len(pairs), f"{what}: duplicate pairs")
        ledger.check(
            np.array_equal(pairs.t, (self.y[a] == self.y[b]).astype(np.uint8)),
            f"{what}: agreement bits disagree with the labels",
        )

    def _check_full_recovery(self, ledger, report, n_rows, what):
        present = np.bincount(self.y[:n_rows], minlength=self.classes)
        ledger.check(report.agreement == 1.0, f"{what}: agreement {report.agreement}")
        ledger.check(
            sorted(report.component_sizes) == sorted(present[present > 0].tolist()),
            f"{what}: components {report.component_sizes} are not the classes",
        )

    def run_pass(self, ledger: Ledger, out_dir: str) -> Pass:
        p = Pass()
        release_s = 0.0
        for count in self.encrypt_sizes:
            what = f"encrypt {count}"
            path = os.path.join(out_dir, f"disjoint-{count}.sdpf")
            text, seconds = ledger.cli(
                "encrypt", "--data", self.paths["all"], "--class-count", str(self.classes),
                "--n-pairs", str(count), "--seed", str(self.seed), "--out", path,
            )
            pairs, load_s = self._read_back(ledger, p, path)
            release_s += seconds + load_s
            if pairs is None:
                continue
            # slot ids carry no labels: recover each slot's row by its features
            rows = np.array([self.row_of[row.tobytes()] for row in pairs.source.x])
            labels = dict(enumerate(self.y[rows].tolist()))
            report, attack_s = ledger.call("strength_report", sd.strength_report, pairs, labels)
            release_s += attack_s
            ledger.check(len(pairs) == count, f"{what}: {len(pairs)} pairs")
            ledger.check(len(np.unique(rows)) == len(rows), f"{what}: a record appears twice")
            same = self.y[rows[0::2]] == self.y[rows[1::2]]
            ledger.check(
                np.array_equal(pairs.t, same.astype(np.uint8)),
                f"{what}: agreement bits disagree with the labels",
            )
            largest = report.max_component_size if report else None
            ledger.check(largest is not None and largest <= 2, f"{what}: component of {largest}")
            printed = json.loads(text).get("max_component_size") if text.strip() else None
            ledger.check(printed is not None and printed <= 2,
                         f"{what}: encrypt reported {printed}")

        labels = dict(enumerate(self.y.tolist()))
        releases = [("all", "sampled", self.n, c) for c in self.sampled_sizes] + [
            ("full", "sampled", self.full_n, self.full_n * (self.full_n - 1) // 2),
            ("exhaustive", "exhaustive", self.exhaustive_n,
             self.exhaustive_n * (self.exhaustive_n - 1) // 2),
        ]
        for data, mode, n_rows, count in releases:
            what = f"{mode} {data} {count}"
            path = os.path.join(out_dir, f"{mode}-{data}-{count}.sdpf")
            argv = ["convert", "--data", self.paths[data], "--class-count", str(self.classes),
                    "--mode", mode, "--seed", str(self.seed), "--out", path]
            if mode == "sampled":
                argv += ["--n-pairs", str(count)]
            _, seconds = ledger.cli(*argv)
            pairs, load_s = self._read_back(ledger, p, path)
            release_s += seconds + load_s
            if pairs is None:
                continue
            report, attack_s = ledger.call("strength_report", sd.strength_report, pairs, labels)
            release_s += attack_s
            self._check_ids(ledger, pairs, n_rows, count, what)
            if data != "all" and report is not None:
                self._check_full_recovery(ledger, report, n_rows, what)

        text, p.items_s = ledger.cli("verify-theory", "--seeds", str(self.problems))
        ledger.check(
            text.startswith(f"passed {self.problems}/{self.problems} "),
            f"verify-theory printed {text.strip()!r}",
        )
        p.pairs_s = release_s
        p.wall_s = release_s + p.items_s
        return p


WORKLOADS = {
    "two_stage_sampled": TwoStageSampled,
    "online_and_full": OnlineAndFull,
    "release_audit": ReleaseAudit,
}
