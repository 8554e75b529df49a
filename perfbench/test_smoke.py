"""Smoke test of the benchmark itself: result shape and metric names.

Runs every workload at a twentieth of its size, untraced and traced, and
checks the last stdout line against BENCHMARK.json.  Not part of the
package's test suite; run with ``python3 -m pytest perfbench``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, scale=0.05) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["perfbench"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace:
        assert record["absent"] == []
        assert record["counts"]["theory.problems" if workload == "release_audit"
                                else "losses.pair_terms"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert record["fail_ratio"] == 0.0
        machine = {"nproc", "cpu", "python", "numpy", "blas", "threads", "git"}
        assert set(record["machine"]) >= machine


def test_fails_without_the_package():
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "two_stage_sampled",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracer_reports_absent_and_unpatched_names(monkeypatch):
    """A deleted name is absent, not a crash; a stale reference records no calls."""
    import functools

    import numpy as np

    assert run._import_package()
    import samediff as sd
    from tracer import Tracer

    monkeypatch.delattr(sd.pairing, "pair_exhaustive")
    stale = functools.partial(sd.losses.pair_risk_batch)
    monkeypatch.setattr(sd.trainer, "pair_risk_batch", stale)
    tracer = Tracer()
    assert "samediff.pairing:pair_exhaustive" in tracer.absent

    ds = sd.FullyLabeledDataset.from_arrays(np.arange(12.0).reshape(6, 2), [0, 1] * 3)
    pairs = sd.pair_sampled(ds, sd.PairingConfig(n_pairs=10, seed=1))
    model = sd.TwoPartClassifier.build(2, [4], 2, 2, rng=sd.substream(1, "init"))
    tracer.install()
    try:
        sd.trainer.train_step1(model, pairs, sd.TrainConfig(schedule=((0.1, 1),)))
    finally:
        tracer.uninstall()
    assert tracer.calls["samediff.trainer:train_step1"] == 1
    assert tracer.silent_targets(
        {"samediff.trainer:train_step1", "samediff.losses:pair_risk_batch",
         "samediff.pairing:pair_exhaustive"}
    ) == ["samediff.losses:pair_risk_batch"]
    assert sd.trainer.pair_risk_batch is stale
