"""Command-line interface and run-config validation."""

import json
import struct
import zlib

import numpy as np
import pytest

from samediff import (
    ConfigError,
    build_datasets,
    build_model,
    build_train_config,
    cli_main,
    load_config,
    load_csv,
    load_model,
    load_pairs,
    save_model,
    validate_config,
)
from samediff.theory import SuiteResult


def base_config(**extra):
    doc = {
        "version": 1,
        "dataset": {"kind": "blobs", "n_per_class": 40, "noise": 0.5, "seed": 0},
        "model": {"hidden": [8], "rep_dim": 2},
        "train": {"schedule": [[0.1, 2]], "head_epochs": 5, "seed": 0},
        "pairing": {"mode": "sampled", "n_pairs": 100},
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, name="run.json", **extra):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**extra)))
    return str(path)


def strip_wall(manifest: dict) -> dict:
    doc = json.loads(json.dumps(manifest))
    doc.pop("wall_seconds", None)
    doc.pop("row_wall_seconds", None)
    for run in doc.get("runs", []):
        run.pop("wall_seconds", None)
    return doc


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'trian'"):
            validate_config({"version": 1, "dataset": {}, "trian": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown key train.lr"):
            validate_config({"version": 1, "dataset": {}, "train": {"lr": 0.1}})

    def test_version_and_dataset_required(self):
        with pytest.raises(ConfigError, match="missing required key 'version'"):
            validate_config({"dataset": {}})
        with pytest.raises(ConfigError, match="unsupported config version 99"):
            validate_config({"version": 99, "dataset": {}})
        with pytest.raises(ConfigError, match="missing required section 'dataset'"):
            validate_config({"version": 1})

    def test_sections_must_be_objects(self):
        with pytest.raises(ConfigError, match="section 'train' must be an object"):
            validate_config({"version": 1, "dataset": {}, "train": 3})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestConfigBuilders:
    def test_synthetic_datasets_use_shifted_test_seed(self):
        train, test = build_datasets(base_config())
        assert len(train) == len(test) == 80
        assert not np.array_equal(train.x, test.x)

    def test_csv_dataset_paths_required(self):
        with pytest.raises(ConfigError, match="paths missing"):
            build_datasets({"version": 1, "dataset": {"kind": "csv", "path": None}})

    def test_unknown_dataset_kind(self):
        with pytest.raises(ConfigError, match="unknown dataset kind 'mnist'"):
            build_datasets({"version": 1, "dataset": {"kind": "mnist"}})

    def test_train_config_parsing(self):
        cfg = build_train_config(base_config())
        assert cfg.schedule == ((0.1, 2),)
        assert cfg.head_epochs == 5
        with pytest.raises(ConfigError, match="unknown pair loss"):
            build_train_config(
                base_config(train={"pair_loss": "huber"})
            )

    def test_binary_head_follows_loss_and_classes(self):
        train, _ = build_datasets(base_config())
        binary = build_model(base_config(), train, seed=0)
        assert binary.head.weights.shape[0] == 1
        doc = base_config(train={"head_loss": "xent", "schedule": [[0.1, 2]]})
        multi = build_model(doc, train, seed=0)
        assert multi.head.weights.shape[0] == 2


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert cli_main([]) == 1
        assert cli_main(["launch"]) == 1
        assert cli_main(["generate"]) == 1  # missing required --kind/--out
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "verify-theory" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, capsys):
        assert cli_main(["train", "--config", "/nonexistent/run.json"]) == 2
        assert cli_main(["eval", "--checkpoint", "/nonexistent/m.ckpt"]) == 2
        capsys.readouterr()

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "dataset": {}, "oops": 1}))
        assert cli_main(["train", "--config", str(path)]) == 2
        assert "unknown key 'oops'" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, capsys):
        """A checkpoint with a valid CRC but impossible layer counts."""
        doc = base_config()
        model = build_model(doc, build_datasets(doc)[0], 0)
        path = tmp_path / "bad.ckpt"
        save_model(model, str(path), seed=0)
        blob = bytearray(path.read_bytes())
        blob[32:40] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)  # layer 0 fan_in, fan_out
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        assert cli_main(["eval", "--checkpoint", str(path), "--data", "unused.csv"]) == 2
        assert "overruns the file" in capsys.readouterr().err

    def test_online_pairing_mode_needs_online_regime(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pairing={"mode": "online", "n_pairs": 100})
        out = str(tmp_path / "out")
        assert cli_main(["train", "--config", cfg, "--regime", "two-stage", "--out-dir", out]) == 2
        assert "--regime online" in capsys.readouterr().err

    def test_verification_failure_is_exit_three(self, capsys, monkeypatch):
        import samediff.cli as cli_mod
        broken = SuiteResult(
            n_problems=2, n_passed=1,
            failures=[{"seed": 7, "issues": ["sets differ"]}],
        )
        monkeypatch.setattr(cli_mod, "run_verification_suite", lambda **kw: broken)
        assert cli_main(["verify-theory", "--seeds", "2"]) == 3
        out = capsys.readouterr().out
        assert "passed 1/2" in out
        assert "seed 7: sets differ" in out


class TestBoundCommand:
    def test_prints_exact_value(self, capsys):
        assert cli_main(["bound", "--t", "1", "--r", "1", "--n2", "100", "--delta", "0.1"]) == 0
        assert capsys.readouterr().out.strip() == "1.6802071873007982"

    def test_rejects_bad_delta(self, capsys):
        assert cli_main(["bound", "--t", "1", "--r", "1", "--n2", "100", "--delta", "2"]) == 2
        capsys.readouterr()


class TestVerifyTheoryCommand:
    def test_small_suite_passes(self, capsys):
        assert cli_main(["verify-theory", "--seeds", "8"]) == 0
        assert "passed 8/8 generated problems" in capsys.readouterr().out


class TestDataCommands:
    def test_generate_convert_encrypt_flow(self, tmp_path, capsys):
        data = str(tmp_path / "train.csv")
        assert cli_main([
            "generate", "--kind", "blobs", "--n-per-class", "20",
            "--noise", "0.4", "--seed", "1", "--out", data,
        ]) == 0
        assert "wrote 40 examples" in capsys.readouterr().out
        ds = load_csv(data, class_count=2)
        assert len(ds) == 40

        pair_path = str(tmp_path / "pairs.sdpf")
        assert cli_main([
            "convert", "--data", data, "--mode", "sampled",
            "--n-pairs", "60", "--seed", "2", "--out", pair_path,
        ]) == 0
        assert "wrote 60 pairs" in capsys.readouterr().out
        assert len(load_pairs(pair_path, source=ds)) == 60

        remainder = str(tmp_path / "rest.csv")
        disjoint_path = str(tmp_path / "disjoint.sdpf")
        assert cli_main([
            "convert", "--data", data, "--mode", "disjoint",
            "--n-pairs", "10", "--remainder-out", remainder, "--out", disjoint_path,
        ]) == 0
        capsys.readouterr()
        assert len(load_pairs(disjoint_path, source=ds)) == 10
        assert len(load_csv(remainder, class_count=2)) == 20

        release = str(tmp_path / "release.sdpf")
        report = str(tmp_path / "report.json")
        holdout = str(tmp_path / "holdout.csv")
        assert cli_main([
            "encrypt", "--data", data, "--n-pairs", "12", "--out", release,
            "--holdout-out", holdout, "--report-out", report,
        ]) == 0
        capsys.readouterr()
        doc = json.loads(open(report).read())
        assert doc["pair_count"] == 12
        assert doc["max_component_size"] <= 2
        assert doc["holdout_count"] == len(load_csv(holdout, class_count=2))
        released = load_pairs(release)
        assert len(released) == 12

    def test_convert_rejects_overbudget(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        cli_main(["generate", "--kind", "blobs", "--n-per-class", "3", "--out", data])
        capsys.readouterr()
        code = cli_main([
            "convert", "--data", data, "--mode", "disjoint",
            "--n-pairs", "99", "--out", str(tmp_path / "p.sdpf"),
        ])
        assert code == 2
        assert "insufficient examples" in capsys.readouterr().err


class TestTrainEvalCommands:
    def test_train_writes_artifacts_and_eval_agrees(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert cli_main(["train", "--config", cfg, "--out-dir", str(out_dir)]) == 0
        line = capsys.readouterr().out
        assert "test accuracy" in line
        reported = float(line.split("test accuracy ")[1].split(";")[0])

        ckpt = out_dir / "model.ckpt"
        trace = out_dir / "trace.csv"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert ckpt.exists() and trace.exists()
        assert manifest["regime"] == "two-stage"
        assert manifest["test_accuracy"] == pytest.approx(reported, abs=5e-5)
        assert set(manifest["files"]) == {"model.ckpt", "trace.csv"}
        header = trace.read_text().splitlines()[0]
        assert header == "stage,epoch,lr,train_loss,val_metric"

        test_csv = str(tmp_path / "test.csv")
        cli_main([
            "generate", "--kind", "blobs", "--n-per-class", "40",
            "--noise", "0.5", "--seed", "1", "--out", test_csv,
        ])
        capsys.readouterr()
        assert cli_main([
            "eval", "--checkpoint", str(ckpt), "--data", test_csv,
            "--class-count", "2",
        ]) == 0
        evald = float(capsys.readouterr().out.split("accuracy ")[1])
        assert evald == pytest.approx(reported, abs=5e-5)

    def test_train_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert cli_main(["train", "--config", cfg, "--out-dir", str(d)]) == 0
        capsys.readouterr()
        assert (d1 / "model.ckpt").read_bytes() == (d2 / "model.ckpt").read_bytes()
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert strip_wall(m1) == strip_wall(m2)

    def test_baseline_and_online_regimes_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for regime in ("baseline", "online"):
            out = tmp_path / regime
            assert cli_main([
                "train", "--config", cfg, "--regime", regime, "--out-dir", str(out),
            ]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["regime"] == regime
            model, seed = load_model(str(out / "model.ckpt"))
            assert seed == 0
        capsys.readouterr()


class TestSweepCompareCommands:
    def test_sweep_outputs_reproduce(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"n1": [40, 80], "n2": [2], "reps": 2})
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for d in (d1, d2):
            assert cli_main(["sweep", "--config", cfg, "--out-dir", str(d)]) == 0
        out = capsys.readouterr().out
        assert "n1=40 n2=2: accuracy" in out
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
        rows = (d1 / "results.csv").read_text().splitlines()
        assert rows[0] == "n1,n2,rep,seed,accuracy"
        assert len(rows) == 1 + 4

    def test_sweep_requires_grid_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli_main(["sweep", "--config", cfg]) == 2
        assert "needs a sweep section" in capsys.readouterr().err

    def test_compare_writes_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, compare={"trials": 1, "n_pairs": 60})
        out = tmp_path / "cmp.json"
        assert cli_main(["compare", "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("full: accuracy") for l in lines)
        assert any(l.startswith("online: accuracy") for l in lines)
        doc = json.loads(out.read_text())
        assert doc["trials"] == 1
        assert set(doc["regimes"]) == {"full", "sampled", "online"}
