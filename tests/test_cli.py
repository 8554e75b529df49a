"""Command-line interface and run-config validation."""

import json
import struct
import zlib
from pathlib import Path

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

    def test_non_finite_radius_is_data_error(self, tmp_path, capsys):
        """A NaN radius (Python's json reads the NaN token) stops the model
        constructor, and a CRC-valid checkpoint holding one stops load_model."""
        cfg = write_config(tmp_path, model={"hidden": [8], "rep_dim": 2, "radius": float("nan")})
        assert "NaN" in Path(cfg).read_text()
        assert cli_main(["train", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "radius must be finite and positive, got nan" in capsys.readouterr().err
        doc = base_config()
        path = tmp_path / "r.ckpt"
        save_model(build_model(doc, build_datasets(doc)[0], 0), str(path), seed=0)
        blob = bytearray(path.read_bytes())
        for radius in (float("nan"), float("inf"), -float("inf")):
            blob[8:16] = struct.pack("<d", radius)
            blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
            path.write_bytes(bytes(blob))
            assert cli_main(["eval", "--checkpoint", str(path), "--data", "unused.csv"]) == 2
            assert "radius must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("section, knobs, message", [
        ("train", {"schedule": [[float("nan"), 2]]},
         "learning rates must be finite and positive, got nan"),
        ("train", {"schedule": [[-0.1, 2]]}, "learning rates must be finite and positive, got -0.1"),
        ("train", {"head_rate": float("inf")}, "learning rates must be finite and positive, got inf"),
        ("train", {"schedule": [[0.1, -3]]}, "epoch counts must not be negative, got -3"),
        ("train", {"head_epochs": -1}, "epoch counts must not be negative, got -1"),
        ("train", {"pair_loss": "mse", "beta": float("nan")}, "beta must be finite, got nan"),
        ("model", {"hidden": [0]}, "every layer width must be at least 1, got [2, 0, 2]"),
        ("model", {"rep_dim": 0}, "every layer width must be at least 1, got [2, 8, 0]"),
    ], ids=["nan-rate", "negative-rate", "inf-head-rate", "negative-epochs",
            "negative-head-epochs", "nan-beta", "zero-hidden-width", "zero-rep-dim"])
    def test_bad_train_or_model_knob_is_data_error(self, tmp_path, capsys, section, knobs,
                                                   message):
        """Each of these once trained to exit 0: NaN weights, a skipped stage,
        gradient ascent or zero-width layers in the checkpoint."""
        doc = base_config()
        cfg = write_config(tmp_path, **{section: {**doc[section], **knobs}})
        out = tmp_path / "out"
        assert cli_main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (out / "model.ckpt").exists()

    def test_csv_label_beyond_int64_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("f0,f1,label\n0.5,0.5,0\n0.1,0.2,99999999999999999999\n")
        code = cli_main(["convert", "--data", str(data), "--mode", "exhaustive",
                         "--out", str(tmp_path / "p.sdpf")])
        assert code == 2
        assert "line 3: label outside the int64 range" in capsys.readouterr().err

    def test_class_count_beyond_training_rows_is_data_error(self, tmp_path, capsys):
        """A label of 1000 on 3 rows would size a 1001-row head; a label of
        1e9 once asked for 16 GB."""
        data = tmp_path / "wide.csv"
        data.write_text("f0,f1,label\n0.5,0.5,0\n0.1,0.2,1\n0.3,0.9,1000\n")
        config = write_config(tmp_path, dataset={"kind": "csv", "path": str(data),
                                                 "test_path": str(data)})
        command = ["train", "--config", config, "--regime", "baseline",
                   "--out-dir", str(tmp_path / "out")]
        assert cli_main(command) == 2
        err = capsys.readouterr().err
        assert "error: 1001 classes exceed the 3 training rows" in err
        assert "Traceback" not in err

    def test_hostile_or_invalid_idx_is_data_error(self, tmp_path, capsys):
        """eval on an IDX header claiming 2^30 images of 2^15 x 2^15 over a
        16-byte body, and on labels {0, 1, 7, 9} under --class-count 2."""
        doc = base_config()
        ckpt = tmp_path / "m.ckpt"
        save_model(build_model(doc, build_datasets(doc)[0], 0), str(ckpt), seed=0)
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, 2**30, 2**15, 2**15) + bytes(16))
        lp.write_bytes(struct.pack(">ll", 2049, 4) + bytes([0, 1, 7, 9]))
        command = ["eval", "--checkpoint", str(ckpt), "--images", str(ip), "--labels", str(lp),
                   "--class-count", "2"]
        assert cli_main(command) == 2
        assert f"truncated: wanted {2**60} bytes, got 16" in capsys.readouterr().err
        ip.write_bytes(struct.pack(">llll", 2051, 4, 1, 2) + bytes(8))
        assert cli_main(command) == 2
        assert "labels outside [0, 2) in rows [2, 3]" in capsys.readouterr().err

    def test_degenerate_ncs_batch_is_data_error(self, tmp_path, capsys):
        """One-pair batches under ncs with beta 0: the first different-class
        pair has a zero target vector."""
        train = dict(base_config()["train"], pair_loss="ncs", beta=0, batch_size=1)
        cfg = write_config(tmp_path, train=train)
        out = str(tmp_path / "out")
        assert cli_main(["train", "--config", cfg, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert "degenerate kernel batch" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--seeds", "-1"], "need at least one seed, got -1"),
        (["--seeds", "0"], "need at least one seed, got 0"),
        (["--gamma-frac", "0"], "gamma fraction must lie in (0, 1], got 0.0"),
        (["--gamma-frac", "1.5"], "gamma fraction must lie in (0, 1], got 1.5"),
        (["--gamma-frac", "-1"], "gamma fraction must lie in (0, 1], got -1.0"),
        (["--gamma-frac", "nan"], "gamma fraction must lie in (0, 1], got nan"),
        (["--gamma-frac", "inf"], "gamma fraction must lie in (0, 1], got inf"),
    ], ids=["negative-seeds", "zero-seeds", "zero-gamma", "gamma-above-one",
            "negative-gamma", "nan-gamma", "inf-gamma"])
    def test_bad_verify_theory_argument_is_data_error(self, capsys, argv, message):
        """Each of these once reported a failed claim (exit 3) or "passed 0/-1"."""
        assert cli_main(["verify-theory", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_too_coarse_grid_is_data_error(self, capsys):
        """Three fan directions leave the closed form's norm unreachable
        within 1/r; the grid is to blame, not the hypothesis."""
        assert cli_main(["verify-theory", "--seeds", "1", "--grid-dirs", "3"]) == 2
        err = capsys.readouterr().err
        assert "3 directions cannot reach risk" in err
        assert "use more directions" in err
        assert "Traceback" not in err

    def test_closed_norm_the_grid_cannot_explain_is_exit_three(self, capsys, monkeypatch):
        """A closed-form norm too small for the grid's slack to explain the
        bisection's miss is a failed cross-check, not a bad argument."""
        import samediff.theory as theory_mod
        true_norm = theory_mod.required_head_norm

        def halved_norm(h, prob, gamma):
            try:
                return 0.5 * true_norm(h, prob, gamma)
            except ValueError:   # seed 1's hypotheses 3 and 4 cannot reach gamma
                return 0.5 / prob.radius

        monkeypatch.setattr(theory_mod, "required_head_norm", halved_norm)
        assert cli_main(["verify-theory", "--seeds", "2"]) == 3
        out = capsys.readouterr().out
        assert "passed 0/2" in out
        assert "norm cross-check off for hypothesis 3: 0.5 vs unreachable within 1/r" in out
        assert "norm cross-check off for hypothesis 4: 0.5 vs unreachable within 1/r" in out

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
        doc = json.loads(Path(report).read_bytes())
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

    def test_two_stage_runs_every_materialised_pairing_mode(self, tmp_path, capsys):
        for mode in ("exhaustive", "disjoint"):
            cfg = write_config(tmp_path, f"{mode}.json", pairing={"mode": mode, "n_pairs": 30})
            assert cli_main(["train", "--config", cfg, "--out-dir", str(tmp_path / mode)]) == 0
            assert "test accuracy" in capsys.readouterr().out


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

    def test_sweep_and_compare_honour_pairing_mode(self, tmp_path, capsys):
        """Disjoint pairing changes the sweep's rows; the online mode, which
        has no materialised pair set, exits 2 from sweep and compare."""
        sweep = {"n1": [20], "n2": [2], "reps": 2}
        for mode in ("sampled", "disjoint"):
            cfg = write_config(tmp_path, f"{mode}.json", sweep=sweep,
                               pairing={"mode": mode, "n_pairs": 20})
            assert cli_main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / mode)]) == 0
        assert ((tmp_path / "sampled" / "results.csv").read_bytes()
                != (tmp_path / "disjoint" / "results.csv").read_bytes())
        capsys.readouterr()
        cfg = write_config(tmp_path, "online.json", sweep=sweep, compare={"trials": 1},
                           pairing={"mode": "online"})
        for command in (["sweep", "--config", cfg, "--out-dir", str(tmp_path / "o")],
                        ["compare", "--config", cfg]):
            assert cli_main(command) == 2
            assert "--regime online" in capsys.readouterr().err

    def test_compare_default_budget_follows_pairing_mode(self, tmp_path, capsys):
        """Without compare.n_pairs, disjoint pairing pairs a quarter as many
        pairs as training records (80 here) instead of the sampled default
        of 1000, which exceeds the disjoint cap of 39."""
        cfg = write_config(tmp_path, compare={"trials": 1},
                           pairing={"mode": "disjoint"})
        out = tmp_path / "cmp.json"
        assert cli_main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert "sampled: accuracy" in capsys.readouterr().out
        assert json.loads(out.read_text())["trials"] == 1

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
