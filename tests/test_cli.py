"""Command-line interface and run-config validation."""

import json
import os
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from samediff import (
    ConfigError,
    PairingConfig,
    build_datasets,
    build_model,
    build_pairing_config,
    build_train_config,
    cli_main,
    comparison_protocol,
    generate_synthetic,
    load_config,
    load_csv,
    load_model,
    load_pairs,
    save_csv,
    save_model,
    validate_config,
)
from samediff.cli import _write_trace_csv
from samediff.config import _ALLOWED, _DATASET_KEYS
from samediff.harness import SweepResult, SweepSpec
from samediff.privacy import EncryptionReport, StrengthReport
from samediff.theory import SuiteResult
from samediff.trainer import EpochRecord, TrainRun
from conftest import checkpoint_bytes

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


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

    @pytest.mark.parametrize("root", [[], [1, 2], 3, "run", None])
    def test_root_must_be_object(self, tmp_path, root):
        path = tmp_path / "root.json"
        path.write_text(json.dumps(root))
        with pytest.raises(ConfigError, match=r"^configuration root must be an object$"):
            load_config(str(path))

    def test_sections_must_be_objects(self):
        with pytest.raises(ConfigError, match="section 'train' must be an object"):
            validate_config({"version": 1, "dataset": {}, "train": 3})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_train_and_pairing_keys(self):
        """The key sets derived from the config dataclasses' fields."""
        assert _ALLOWED["train"] == {
            "batch_size", "schedule", "head_rate", "head_epochs", "seed",
            "pair_loss", "head_loss", "beta", "val_fraction",
        }
        assert _ALLOWED["pairing"] == {"mode", "n_pairs", "class_batch_size", "seed"}

    def test_each_dataset_kind_accepts_only_the_keys_it_reads(self):
        synthetic = {"kind", "n_per_class", "noise", "seed", "class_count"}
        assert _DATASET_KEYS == {
            "blobs": synthetic, "moons": synthetic, "xor": synthetic,
            "csv": {"kind", "path", "test_path", "class_count", "limit", "test_limit"},
            "idx": {"kind", "images", "labels", "test_images", "test_labels", "class_count",
                    "limit", "test_limit"},
        }
        assert _ALLOWED["dataset"] == set().union(*_DATASET_KEYS.values())
        assert _ALLOWED["model"] == {"hidden", "rep_dim", "radius"}
        for kind, keys in _DATASET_KEYS.items():
            for key in _ALLOWED["dataset"] - keys:
                with pytest.raises(ConfigError, match=rf"^unknown key dataset\.{key} for "
                                                      rf"dataset kind '{kind}'$"):
                    validate_config({"version": 1, "dataset": {"kind": kind, key: 1}})

    def test_dataset_without_kind_keeps_its_errors(self):
        """A section naming no kind may hold any kind's keys, and building it
        refuses the missing kind."""
        with pytest.raises(ConfigError, match=r"^unknown key dataset\.bogus$"):
            validate_config({"version": 1, "dataset": {"bogus": 1}})
        doc = validate_config({"version": 1, "dataset": {"path": "x.csv"}})
        with pytest.raises(ConfigError, match="^unknown dataset kind None$"):
            build_datasets(doc)

    def test_cli_reads_no_private_config_name(self):
        """``config`` alone reads the document: the CLI imports only its
        public builders."""
        import ast
        import samediff.cli as cli_mod
        tree = ast.parse(Path(cli_mod.__file__).read_text(encoding="utf-8"))
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "config"
                 for alias in node.names]
        assert names and not [name for name in names if name.startswith("_")]


class TestConfigBuilders:
    def test_synthetic_datasets_use_shifted_test_seed(self):
        train, test = build_datasets(base_config())
        assert len(train) == len(test) == 80
        assert not np.array_equal(train.x, test.x)

    def test_csv_dataset_paths_required(self):
        with pytest.raises(ConfigError, match="paths missing"):
            build_datasets({"version": 1, "dataset": {"kind": "csv", "path": None}})

    def test_csv_limits_keep_first_rows(self, tmp_path):
        """dataset.limit and dataset.test_limit keep each file's first rows;
        a limit above the row count keeps every row."""
        train_csv, test_csv = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
        save_csv(generate_synthetic("blobs", n_per_class=4, seed=0), train_csv)
        save_csv(generate_synthetic("blobs", n_per_class=4, seed=1), test_csv)
        full_train, full_test = load_csv(train_csv, 2), load_csv(test_csv, 2)
        for limits, (n_train, n_test) in (({"limit": 5, "test_limit": 3}, (5, 3)),
                                          ({"limit": 9, "test_limit": 100}, (8, 8))):
            doc = {"version": 1, "dataset": {"kind": "csv", "path": train_csv,
                                             "test_path": test_csv, "class_count": 2, **limits}}
            train, test = build_datasets(doc)
            for got, full, n in ((train, full_train, n_train), (test, full_test, n_test)):
                assert len(got) == n
                np.testing.assert_array_equal(got.ids, full.ids[:n])
                np.testing.assert_array_equal(got.x, full.x[:n])
                np.testing.assert_array_equal(got.y, full.y[:n])

    def test_each_file_kind_loads_only_its_own_files(self, tmp_path):
        """A csv section naming IDX files, or an idx section naming CSVs,
        has no files of its kind; before validation refused the keys, each
        loaded the other kind's files."""
        csv = str(tmp_path / "blobs.csv")
        save_csv(generate_synthetic("blobs", n_per_class=4, seed=0), csv)
        idx = {"images": "im.idx", "labels": "lb.idx",
               "test_images": "im.idx", "test_labels": "lb.idx"}
        for dataset in ({"kind": "csv", **idx}, {"kind": "idx", "path": csv, "test_path": csv}):
            with pytest.raises(ConfigError, match="paths missing"):
                build_datasets({"version": 1, "dataset": dataset})

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

    @pytest.mark.parametrize("n_per_class, mode, n_pairs", [
        (20, "sampled", 780), (20, "exhaustive", 780), (40, "sampled", 1000),
        (300, "sampled", 1200), (40, "disjoint", 20), (1, "disjoint", 1),
    ])
    def test_default_pair_budget(self, n_per_class, mode, n_pairs):
        """Without pairing.n_pairs, N training records get N/4 disjoint pairs
        and otherwise max(2N, 1000), capped at the N(N-1)/2 that exist."""
        train = generate_synthetic("blobs", n_per_class=n_per_class, seed=0)
        assert build_pairing_config(base_config(pairing={"mode": mode}), train).n_pairs == n_pairs
        doc = base_config(pairing={"mode": mode, "n_pairs": 0})
        assert build_pairing_config(doc, train).n_pairs == 0

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

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        """The parser is built once per process; a usage error leaves it
        fit for the next call, and handlers still read the module's globals."""
        import samediff.cli as cli_mod
        assert cli_mod.build_parser() is cli_mod.build_parser()
        argv = ["bound", "--t", "1", "--r", "1", "--n2", "100", "--delta", "0.1"]
        assert cli_main(["bound", "--t", "1"]) == 1
        assert cli_main(argv) == 0
        in_process = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(cli_mod.__file__))
        fresh = subprocess.run([sys.executable, "-m", "samediff", *argv], capture_output=True,
                               text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert in_process == fresh.stdout
        assert cli_main(["--help"]) == 0
        assert "verify-theory" in capsys.readouterr().out
        monkeypatch.setattr(cli_mod, "generalization_bound", lambda *args: 0.25)
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == "0.25\n"

    def test_missing_file_is_data_error(self, capsys):
        assert cli_main(["train", "--config", "/nonexistent/run.json"]) == 2
        assert cli_main(["eval", "--checkpoint", "/nonexistent/m.ckpt"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("data", [[], ["--images", "x.idx"], ["--labels", "y.idx"]],
                             ids=["none", "images-only", "labels-only"])
    def test_eval_without_data_is_data_error(self, tmp_path, capsys, data):
        doc = base_config()
        path = tmp_path / "m.ckpt"
        save_model(build_model(doc, build_datasets(doc)[0], 0), str(path), seed=0)
        assert cli_main(["eval", "--checkpoint", str(path), *data]) == 2
        assert capsys.readouterr().err == (
            "error: no evaluation data given: use --data or --images/--labels\n")

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "dataset": {}, "oops": 1}))
        assert cli_main(["train", "--config", str(path)]) == 2
        assert "unknown key 'oops'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ({"dataset": {"kind": "blobs", "n_per_class": 20, "path": "does_not_exist.csv"}},
         "unknown key dataset.path for dataset kind 'blobs'"),
        ({"dataset": {"kind": "csv", "path": "a.csv", "test_path": "a.csv", "noise": 0.5}},
         "unknown key dataset.noise for dataset kind 'csv'"),
        ({"dataset": {"kind": "idx", "path": "a.csv", "test_path": "a.csv"}},
         "unknown key dataset.path for dataset kind 'idx'"),
        ({"dataset": {"kind": "csv", "images": "a.idx", "labels": "b.idx"}},
         "unknown key dataset.images for dataset kind 'csv'"),
        ({"model": {"hidden": [8], "binary_head": True}}, "unknown key model.binary_head"),
        ({"dataset": {"kind": ["blobs"]}}, 'dataset.kind must be a string, got ["blobs"]'),
        ({"dataset": {"kind": 3}}, "dataset.kind must be a string, got 3"),
        ({"dataset": {"kind": None}}, "dataset.kind must be a string, got null"),
    ], ids=["blobs-path", "csv-noise", "idx-path", "csv-images", "binary-head", "list-kind",
            "number-kind", "null-kind"])
    def test_key_the_config_does_not_read_is_data_error(self, tmp_path, capsys, section,
                                                        message):
        """Each of these once trained, ignoring the key (a blobs run with a
        path, a csv run with noise), loaded the other file kind, failed only
        after stage 1 trained, or ended in a TypeError traceback."""
        cfg = write_config(tmp_path, **section)
        out = tmp_path / "out"
        assert cli_main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_mistyped_output_dir_is_refused_beside_out_dir(self, tmp_path, capsys):
        """``output.dir`` is read, and so type-checked, even where
        ``--out-dir`` overrides it."""
        cfg = write_config(tmp_path, output={"dir": 5})
        out = tmp_path / "out"
        assert cli_main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: output.dir must be a string, got 5\n"
        assert not out.exists()

    def test_non_finite_checkpoint_is_data_error(self, tmp_path, capsys):
        doc = base_config()
        model = build_model(doc, build_datasets(doc)[0], 0)
        model.head.weights[0, -1] = np.nan
        path = tmp_path / "nan.ckpt"
        save_model(model, str(path), seed=0)
        assert cli_main(["eval", "--checkpoint", str(path), "--data", "unused.csv"]) == 2
        assert capsys.readouterr().err == f"error: {path}: non-finite parameter\n"

    @pytest.mark.parametrize("regime, stage", [
        ("two-stage", "step1"), ("online", "step1-online"), ("baseline", "baseline")])
    def test_diverged_run_is_data_error(self, tmp_path, capsys, regime, stage):
        """A learning rate of 1e300 leaves the hidden weights finite but
        sends every training row's features through inf: the run exits 2
        naming its first stage and writes nothing."""
        path = write_config(tmp_path, train={"schedule": [[1e300, 1]], "head_epochs": 2})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert cli_main(["train", "--config", path, "--regime", regime,
                             "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage {stage} diverged: its final parameters or training-row features "
            "hold a non-finite value\n")
        assert not out.exists()

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

    def test_zero_width_checkpoint_is_data_error(self, tmp_path, capsys):
        """A CRC-valid checkpoint whose one layer has fan_out 0 and whose head
        has rep_dim 0 once printed "accuracy 0.500000" and exited 0."""
        path = tmp_path / "zero.ckpt"
        path.write_bytes(checkpoint_bytes([(np.zeros((2, 0)), np.zeros(0), 0)], np.zeros((1, 0))))
        data = str(tmp_path / "blobs.csv")
        save_csv(generate_synthetic("blobs", n_per_class=5, seed=0), data)
        assert cli_main(["eval", "--checkpoint", str(path), "--data", data]) == 2
        captured = capsys.readouterr()
        assert "both widths at least 1" in captured.err
        assert captured.out == ""

    def test_online_pairing_mode_needs_online_regime(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pairing={"mode": "online", "n_pairs": 100})
        out = str(tmp_path / "out")
        assert cli_main(["train", "--config", cfg, "--regime", "two-stage", "--out-dir", out]) == 2
        assert "--regime online" in capsys.readouterr().err

    @pytest.mark.parametrize("regime, section, error", [
        ("baseline", {"pairing": {"mode": "bogus"}}, "unknown pairing mode 'bogus'"),
        ("online", {"pairing": {"mode": "bogus"}}, "unknown pairing mode 'bogus'"),
        ("baseline", {"labels": {"per_class": 0}}, "labels.per_class must be at least 1, got 0"),
        ("baseline", {"labels": {"per_class": -2}}, "labels.per_class must be at least 1, got -2"),
        ("online", {"labels": {"per_class": -2}}, "labels.per_class must be at least 1, got -2"),
        *[(regime, {"labels": {"per_class": 1000}},
           "labels.per_class 1000 times 2 classes exceeds the 80 training rows")
          for regime in ("two-stage", "baseline", "online")],
        ("baseline", {"pairing": {"n_pairs": -5}}, "n_pairs must not be negative, got -5"),
        ("online", {"pairing": {"n_pairs": -5}}, "n_pairs must not be negative, got -5"),
        ("two-stage", {"pairing": {"mode": "disjoint"}, "labels": {"per_class": 30}},
         "label budget 60 exceeds the 40 records left to label"),
    ], ids=["baseline", "online", "baseline-per-class-0", "baseline-per-class-negative",
            "online-per-class-negative", "two-stage-per-class-over-rows",
            "baseline-per-class-over-rows", "online-per-class-over-rows",
            "baseline-negative-pairs", "online-negative-pairs",
            "two-stage-per-class-over-disjoint-remainder"])
    def test_bad_pairing_section_is_data_error_in_every_regime(self, tmp_path, capsys, regime,
                                                                section, error):
        """Every regime reads the pairing section and the label budget;
        baseline and online once trained past an unknown mode or a negative
        pair budget, and baseline past a label budget below 1 or above the
        training rows, which two-stage and online refused without naming
        ``labels.per_class``.  A budget above the 40 records that 20 disjoint
        pairs leave once read ``subset size 60 outside [1, 40]``."""
        cfg = write_config(tmp_path, **section)
        out = tmp_path / "out"
        assert cli_main(["train", "--config", cfg, "--regime", regime, "--out-dir", str(out)]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train", "--regime", "two-stage"], ["train", "--regime", "baseline"],
        ["train", "--regime", "online"], ["convert", "--mode", "disjoint"],
    ], ids=["two-stage", "baseline", "online", "convert-disjoint"])
    def test_class_batch_size_below_one_is_data_error_everywhere(self, tmp_path, capsys,
                                                                  command):
        """Only sampled pairing read ``class_batch_size``: baseline, online
        and a disjoint convert once ran past 0."""
        out = tmp_path / "out"
        if command[0] == "train":
            cfg = write_config(tmp_path, pairing={"n_pairs": 100, "class_batch_size": 0})
            argv = [*command, "--config", cfg, "--out-dir", str(out)]
        else:
            data = str(tmp_path / "blobs.csv")
            save_csv(generate_synthetic("blobs", n_per_class=20, seed=0), data)
            argv = [*command, "--data", data, "--n-pairs", "10", "--class-batch-size", "0",
                    "--out", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: class_batch_size must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (lambda tmp: ["bound", "--t", "1", "--r", "1", "--n2", str(10**400), "--delta", "0.1"],
         "int too large to convert to float"),
        (lambda tmp: ["generate", "--kind", "blobs", "--n-per-class", str(10**20),
                      "--out", str(tmp / "g.csv")],
         "too large"),
        (lambda tmp: ["train", "--config", write_config(tmp, dataset={
            "kind": "blobs", "n_per_class": 10**20}), "--out-dir", str(tmp / "out")],
         "too large"),
        (lambda tmp: ["train", "--config", str(tmp / "deep.json"), "--out-dir", str(tmp / "out")],
         "deep.json: not valid JSON"),
    ], ids=["bound-n2", "generate-n-per-class", "train-n-per-class", "deep-config"])
    def test_hostile_number_or_nesting_is_data_error(self, tmp_path, capsys, argv, message):
        """Each once ended in an OverflowError or a RecursionError traceback
        and exit code 1; the last is a config nested 100,000 levels deep."""
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        assert cli_main(argv(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not (tmp_path / "g.csv").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n-per-class", 10**20), ("--n-per-class", 10**18),
        ("--classes", 10**20), ("--classes", 10**18),
    ])
    def test_outsized_synthetic_count_names_its_input(self, tmp_path, capsys, flag, value):
        """Rows whose (rows, 2) float64 array outgrows the address space once
        failed inside numpy: an int conversion, "array is too big", or a
        MemoryError traceback."""
        out = tmp_path / "g.csv"
        assert cli_main(["generate", "--kind", "blobs", flag, str(value), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        n_per_class, classes = (value, 2) if flag == "--n-per-class" else (500, value)
        assert line.startswith(f"error: n_per_class {n_per_class} x class_count {classes} rows")
        assert not out.exists()

    def test_unallocatable_synthetic_dataset_is_data_error(self, tmp_path, capsys):
        """2 x 10**15 rows pass the size check but no allocation can hold
        them; the MemoryError once ended in a traceback and exit code 1."""
        out = tmp_path / "g.csv"
        assert cli_main(["generate", "--kind", "blobs", "--n-per-class", str(10**15),
                         "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "generate", "convert", "encrypt", "train", "sweep", "compare", "train-into-file"])
    def test_output_path_under_a_file_is_data_error(self, tmp_path, capsys, command):
        """An output path through a regular file, or an --out-dir that is
        one, once ended in a NotADirectoryError or FileExistsError
        traceback and exit code 1."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        data = str(tmp_path / "blobs.csv")
        save_csv(generate_synthetic("blobs", n_per_class=20, seed=0), data)
        cfg = write_config(tmp_path, sweep={"n1": [30], "n2": [1], "reps": 1},
                           compare={"trials": 1})
        under = str(blocker / "out")
        argv = {
            "generate": ["generate", "--kind", "blobs", "--out", under],
            "convert": ["convert", "--data", data, "--mode", "exhaustive", "--out", under],
            "encrypt": ["encrypt", "--data", data, "--n-pairs", "5", "--out", under],
            "train": ["train", "--config", cfg, "--out-dir", under],
            "sweep": ["sweep", "--config", cfg, "--out-dir", under],
            "compare": ["compare", "--config", cfg, "--out", under],
            "train-into-file": ["train", "--config", cfg, "--out-dir", str(blocker)],
        }[command]
        assert cli_main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert blocker.read_text() == ""

    def test_zero_compare_trials_is_data_error(self, tmp_path, capsys):
        """Zero trials once exited 0 with "accuracy nan +/- 0.0000"."""
        cfg = write_config(tmp_path, compare={"trials": 0})
        assert cli_main(["compare", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "trials must be at least 1, got 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("classes", [1, 0])
    def test_generate_fewer_than_two_classes_is_data_error(self, tmp_path, capsys, classes):
        """One class once wrote a CSV no loader accepts; zero failed inside numpy."""
        out = tmp_path / "one.csv"
        assert cli_main(["generate", "--kind", "blobs", "--classes", str(classes),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"class_count must be at least 2, got {classes}" in err
        assert "Traceback" not in err
        assert not out.exists()

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
        assert not out.exists()

    @pytest.mark.parametrize("command, section, knobs, message", [
        ("train", "model", {"hidden": 32}, "model.hidden must be a list of integers, got 32"),
        ("train", "model", {"hidden": "32"}, 'model.hidden must be a list of integers, got "32"'),
        ("train", "train", {"batch_size": None}, "train.batch_size must be an integer, got null"),
        ("train", "train", {"schedule": 5},
         "train.schedule must be a list of [number, integer] pairs, got 5"),
        ("train", "labels", {"per_class": None}, "labels.per_class must be an integer, got null"),
        ("train", "pairing", {"class_batch_size": "3"},
         'pairing.class_batch_size must be an integer, got "3"'),
        ("train", "output", {"dir": 5}, "output.dir must be a string, got 5"),
        ("sweep", "sweep", {"n1": 5}, "sweep.n1 must be a list of integers, got 5"),
        ("compare", "compare", {"trials": None}, "compare.trials must be an integer, got null"),
    ], ids=["int-hidden", "string-hidden", "null-batch-size",
            "int-schedule", "null-per-class", "string-class-batch-size", "int-output-dir",
            "int-sweep-n1", "null-compare-trials"])
    def test_mistyped_config_value_is_data_error(self, tmp_path, capsys, command, section,
                                                 knobs, message):
        """Each of these once ended in a TypeError traceback (exit 1), or, for
        a string hidden width, trained on a misread value."""
        cfg = write_config(tmp_path, **{section: {**base_config().get(section, {}), **knobs}})
        out = tmp_path / "out"
        argv = [command, "--config", cfg]
        if command != "compare" and section != "output":
            argv += ["--out-dir", str(out)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("key", ["limit", "test_limit"])
    @pytest.mark.parametrize("limit", [-5, 0])
    def test_limit_below_one_is_data_error(self, tmp_path, capsys, key, limit):
        """A negative limit once took an empty subset (a misleading class
        count error for ``limit``, an empty-dataset accuracy for
        ``test_limit``), and 0 silently kept every row."""
        data = tmp_path / "blobs.csv"
        data.write_text("f0,f1,label\n" + "".join(
            f"{i % 7 * 0.1},{i % 3 * 0.2},{i % 2}\n" for i in range(60)))
        config = write_config(tmp_path, dataset={"kind": "csv", "path": str(data),
                                                 "test_path": str(data), key: limit})
        out = tmp_path / "out"
        assert cli_main(["train", "--config", config, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: dataset.{key} must be at least 1, got {limit}" in err
        assert "Traceback" not in err
        assert not out.exists()

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
        true_norm = theory_mod._head_norm

        def halved_norm(length, gamma, radius):
            try:
                return 0.5 * true_norm(length, gamma, radius)
            except ValueError:   # seed 1's hypotheses 3 and 4 cannot reach gamma
                return 0.5 / radius

        monkeypatch.setattr(theory_mod, "_head_norm", halved_norm)
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

    def test_tiny_delta_is_finite(self, capsys):
        """8 / 1e-320 overflows; this once printed inf and exited 0."""
        assert cli_main(["bound", "--t", "1", "--r", "1", "--n2", "10", "--delta", "1e-320"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(61.41512915, rel=1e-9)

    def test_overflowing_bound_is_data_error(self, capsys):
        argv = ["bound", "--t", "1e308", "--r", "1e308", "--n2", "1", "--delta", "0.5"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "overflows a double" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("t, r", [("nan", "1"), ("inf", "1"), ("1", "inf"), ("1", "nan")])
    def test_rejects_non_finite_t_or_r(self, capsys, t, r):
        """Each of these once printed nan or inf and exited 0."""
        assert cli_main(["bound", "--t", t, "--r", r, "--n2", "100", "--delta", "0.1"]) == 2
        captured = capsys.readouterr()
        assert f"t must be finite and nonnegative and r finite and positive, got t={float(t)!r}, " \
               f"r={float(r)!r}" in captured.err
        assert captured.out == ""


class TestVerifyTheoryCommand:
    def test_small_suite_passes(self, capsys):
        assert cli_main(["verify-theory", "--seeds", "8"]) == 0
        assert "passed 8/8 generated problems" in capsys.readouterr().out

    @pytest.mark.parametrize("frac, extra", [
        ("1e-13", []), ("1e-13", ["--skip-cross-checks"]),
        ("5e-324", []), ("5e-324", ["--skip-cross-checks"]),
    ], ids=["cross", "closed", "subnormal-cross", "subnormal-closed"])
    def test_tiny_gamma_fraction_passes(self, capsys, frac, extra):
        """At F = 1e-13 every norm is about 1e-13; this once printed passed
        0/20.  At the subnormal 5e-324 every norm rounds to 5e-324 or
        1e-323; this once printed passed 5/20."""
        assert cli_main(["verify-theory", "--seeds", "20", "--gamma-frac", frac, *extra]) == 0
        assert capsys.readouterr().out == "passed 20/20 generated problems\n"


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

    def test_encrypt_report_is_the_report_fields(self, tmp_path, capsys):
        """The report prints every field of the encryption and strength
        records but the nested record and the component size list, the same
        document on stdout and in --report-out."""
        data = str(tmp_path / "d.csv")
        assert cli_main(["generate", "--kind", "blobs", "--n-per-class", "20", "--out", data]) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert cli_main(["encrypt", "--data", data, "--n-pairs", "8", "--out",
                         str(tmp_path / "r.sdpf"), "--report-out", str(report)]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {f.name for record in (EncryptionReport, StrengthReport) for f in fields(record)}
        assert set(doc) == names - {"strength", "component_sizes"}
        assert set(doc) == {"pair_count", "holdout_count", "max_pairs_strict", "max_pairs_half",
                            "participant_count", "component_count", "max_component_size",
                            "agreement"}
        assert json.loads(report.read_text()) == doc

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_non_finite_noise_is_data_error(self, tmp_path, capsys, noise):
        """generate once wrote a CSV that every loader refuses; the config's
        dataset.noise goes through the same generator."""
        out = tmp_path / "d.csv"
        assert cli_main(["generate", "--kind", "blobs", f"--noise={noise}", "--out", str(out)]) == 2
        assert f"noise must be finite, got {float(noise)!r}" in capsys.readouterr().err
        assert not out.exists()
        dataset = {**base_config()["dataset"], "noise": float(noise)}
        cfg = write_config(tmp_path, dataset=dataset)
        assert cli_main(["train", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"noise must be finite, got {float(noise)!r}" in capsys.readouterr().err

    def test_convert_writes_the_remainder_in_every_mode(self, tmp_path, capsys):
        """Sampled pairing leaves the whole dataset to label: its remainder
        file is the generated CSV byte for byte."""
        data = tmp_path / "d.csv"
        assert cli_main(["generate", "--kind", "blobs", "--n-per-class", "15", "--seed", "4",
                         "--out", str(data)]) == 0
        rest = tmp_path / "rest.csv"
        assert cli_main(["convert", "--data", str(data), "--mode", "sampled", "--n-pairs", "20",
                         "--remainder-out", str(rest), "--out", str(tmp_path / "p.sdpf")]) == 0
        capsys.readouterr()
        assert rest.read_bytes() == data.read_bytes()

    def test_encrypt_is_disjoint_inline_convert(self, tmp_path, capsys):
        """``encrypt`` writes what ``convert --mode disjoint --inline
        --remainder-out`` writes, plus its attack report."""
        data = str(tmp_path / "d.csv")
        assert cli_main(["generate", "--kind", "blobs", "--classes", "4", "--n-per-class", "200",
                         "--out", data]) == 0
        common = ["--data", data, "--n-pairs", "150", "--seed", "5"]
        assert cli_main(["encrypt", *common, "--out", str(tmp_path / "enc.sdpf"),
                         "--holdout-out", str(tmp_path / "enc.csv")]) == 0
        assert cli_main(["convert", *common, "--mode", "disjoint", "--inline",
                         "--out", str(tmp_path / "conv.sdpf"),
                         "--remainder-out", str(tmp_path / "conv.csv")]) == 0
        capsys.readouterr()
        for ext in ("sdpf", "csv"):
            assert ((tmp_path / f"enc.{ext}").read_bytes()
                    == (tmp_path / f"conv.{ext}").read_bytes())

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
        # every run records its whole TrainConfig, which builds it again
        cfg = build_train_config(manifest["config"])
        assert all(build_train_config({"train": run["config"]}) == cfg for run in manifest["runs"])
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

    def test_idx_dataset_trains_and_evaluates(self, tmp_path, capsys):
        """dataset.images/labels/test_images/test_labels load through
        load_idx, and eval --images/--labels scores the checkpoint on the
        test files as train did."""
        rng = np.random.default_rng(5)
        paths = {}
        for split in ("", "test_"):
            labels = np.repeat(np.arange(2, dtype=np.uint8), 20)
            pixels = 60 + 120 * labels[:, None, None] + rng.integers(0, 40, size=(40, 2, 3))
            paths[f"{split}images"] = str(tmp_path / f"{split}images.idx")
            paths[f"{split}labels"] = str(tmp_path / f"{split}labels.idx")
            (tmp_path / f"{split}images.idx").write_bytes(
                struct.pack(">llll", 2051, 40, 2, 3) + pixels.astype(np.uint8).tobytes())
            (tmp_path / f"{split}labels.idx").write_bytes(
                struct.pack(">ll", 2049, 40) + labels.tobytes())
        cfg = write_config(tmp_path, dataset={"kind": "idx", "class_count": 2, **paths})
        out_dir = tmp_path / "run"
        assert cli_main(["train", "--config", cfg, "--out-dir", str(out_dir)]) == 0
        reported = float(capsys.readouterr().out.split("test accuracy ")[1].split(";")[0])
        model, _ = load_model(str(out_dir / "model.ckpt"))
        assert model.hidden.in_dim == 6
        assert cli_main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                         "--images", paths["test_images"], "--labels", paths["test_labels"]]) == 0
        evald = float(capsys.readouterr().out.split("accuracy ")[1])
        assert evald == pytest.approx(reported, abs=5e-5)

    @pytest.mark.parametrize("classes, flag, message", [
        (3, [], "outside [0, 2)"),
        (2, ["--class-count", "3"], "--class-count 3 differs from the checkpoint's class_count 2"),
        (3, ["--class-count", "3"], "--class-count 3 differs from the checkpoint's class_count 2"),
    ], ids=["three-class-data", "flag-above-checkpoint", "flag-fits-data"])
    def test_eval_scores_only_labels_the_checkpoint_predicts(self, tmp_path, capsys, classes,
                                                             flag, message):
        """The eval data load with the checkpoint's class count.  A 2-class
        checkpoint once scored 3-class data (accuracy 0.166667 in one run),
        and any --class-count, and exited 0."""
        doc = base_config()
        ckpt = str(tmp_path / "m.ckpt")
        save_model(build_model(doc, build_datasets(doc)[0], 0), ckpt, seed=0)
        data = str(tmp_path / "eval.csv")
        save_csv(generate_synthetic("blobs", n_per_class=10, seed=3, class_count=classes), data)
        assert cli_main(["eval", "--checkpoint", ckpt, "--data", data, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("regime", ["two-stage", "baseline", "online"])
    def test_train_reruns_are_byte_identical(self, tmp_path, capsys, regime):
        cfg = write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert cli_main([
                "train", "--config", cfg, "--regime", regime, "--out-dir", str(d),
            ]) == 0
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

    def test_online_manifest_counts_skipped_batches(self, tmp_path, capsys):
        """80 rows hold out 6; batches of 73 leave one single-row batch per
        epoch.  The count reaches the manifest, and trace.csv keeps its
        columns."""
        cfg = write_config(tmp_path, train={"schedule": [[0.1, 2]], "head_epochs": 1,
                                            "seed": 0, "batch_size": 73})
        out = tmp_path / "online"
        assert cli_main(["train", "--config", cfg, "--regime", "online",
                         "--out-dir", str(out)]) == 0
        capsys.readouterr()
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert [run["skipped_batches"] for run in runs] == [2, 0]
        assert (out / "trace.csv").read_text().splitlines()[0] == (
            "stage,epoch,lr,train_loss,val_metric")

    def test_two_stage_runs_every_materialised_pairing_mode(self, tmp_path, capsys):
        for mode in ("exhaustive", "disjoint"):
            cfg = write_config(tmp_path, f"{mode}.json", pairing={"mode": mode, "n_pairs": 30})
            assert cli_main(["train", "--config", cfg, "--out-dir", str(tmp_path / mode)]) == 0
            assert "test accuracy" in capsys.readouterr().out


class TestRunOutputFormats:
    def test_trace_csv_bytes(self, tmp_path):
        runs = [
            TrainRun(stage="step1", config={}, trace=[
                EpochRecord(0, 0.1, -2.5, 1 / 3),
                EpochRecord(1, 0.01, 1 / 3, -0.1),
            ]),
            TrainRun(stage="step2", config={}, trace=[EpochRecord(0, 0.1, 0.25, None)]),
        ]
        path = tmp_path / "trace.csv"
        _write_trace_csv(str(path), runs)
        assert path.read_bytes() == (
            b"stage,epoch,lr,train_loss,val_metric\n"
            b"step1,0,0.1,-2.5,0.3333333333333333\n"
            b"step1,1,0.01,0.3333333333333333,-0.1\n"
            b"step2,0,0.1,0.25,\n"
        )

    def test_documented_headers_match_the_writers(self, tmp_path):
        docs = FORMATS.read_text(encoding="utf-8")
        trace, results = tmp_path / "trace.csv", tmp_path / "results.csv"
        _write_trace_csv(str(trace), [])
        SweepResult(spec=SweepSpec(n1_values=(1,), n2_values=(1,), reps=1)).to_csv(str(results))
        for path in (trace, results):
            documented = re.search(rf"`{path.name}`[^`]*header `([^`]*)`", docs).group(1)
            assert path.read_text(encoding="utf-8") == documented + "\n"


    def test_documented_config_keys_match_the_schema(self):
        """The "Run config" section of docs/formats.md lists exactly the keys
        ``config`` accepts, and for each dataset kind exactly those it reads."""
        docs = FORMATS.read_text(encoding="utf-8")
        section = docs[docs.index("## Run config"):docs.index("## Run outputs")]
        keys_table = section[section.index("| key | type | default |"):]
        kinds_table = section[section.index("| kind | keys |"):]

        def rows(table):   # the first two cells of each row of the leading table
            table = table[:table.index("\n\n")]
            return [line.split(" | ")[:2] for line in table.splitlines()[2:]]

        documented = {}
        for key, _ in rows(keys_table):
            name, _, sub = key.strip("|` ").partition(".")
            documented.setdefault(name, set()).update([sub] if sub else [])
        assert documented == {name: allowed or set() for name, allowed in _ALLOWED.items()}
        kinds = {kind: set(re.findall(r"`(\w+)`", keys))
                 for cell, keys in rows(kinds_table) for kind in re.findall(r"`(\w+)`", cell)}
        assert kinds == _DATASET_KEYS


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
        """Without pairing.n_pairs, disjoint pairing pairs a quarter as many
        pairs as training records (80 here) instead of the sampled default
        of 1000, which exceeds the disjoint cap of 39."""
        cfg = write_config(tmp_path, compare={"trials": 1},
                           pairing={"mode": "disjoint"})
        out = tmp_path / "cmp.json"
        assert cli_main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert "sampled: accuracy" in capsys.readouterr().out
        assert json.loads(out.read_text())["trials"] == 1

    def test_default_pair_budget_fits_a_small_split(self, tmp_path, capsys):
        """Without pairing.n_pairs, 40 training rows once asked compare for
        1000 sampled pairs of the 780 that exist and train --regime
        two-stage for none; both exited 2.  An explicit 0 still does."""
        doc = base_config(compare={"trials": 1}, pairing={"mode": "sampled"})
        doc["dataset"]["n_per_class"] = 20
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert cli_main(["compare", "--config", str(cfg)]) == 0
        assert cli_main(["train", "--config", str(cfg), "--regime", "two-stage",
                         "--out-dir", out]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, "zero.json", pairing={"mode": "sampled", "n_pairs": 0})
        assert cli_main(["train", "--config", cfg, "--out-dir", out]) == 2
        assert "sampled pairing needs n_pairs >= 1" in capsys.readouterr().err

    def test_compare_reads_the_run_budgets(self, tmp_path, capsys):
        """compare trains on pairing.n_pairs pairs and labels.per_class labels
        per class; it once read only its own compare.* keys and so built
        1000 pairs and one label per class here."""
        doc = base_config(compare={"trials": 1}, labels={"per_class": 3})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cmp.json"
        assert cli_main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        train, test = build_datasets(doc)
        expected = comparison_protocol(
            train, test, lambda seed: build_model(doc, train, seed), build_train_config(doc),
            PairingConfig(mode="sampled", n_pairs=100, seed=0),
            n_labels=3 * train.class_count, trials=1,
        )
        assert json.loads(out.read_text()) == expected.to_dict()

    @pytest.mark.parametrize("key", ["n_pairs", "labels_per_class"])
    def test_compare_budget_keys_are_refused(self, tmp_path, capsys, key):
        """Each budget has one key: pairing.n_pairs and labels.per_class."""
        cfg = write_config(tmp_path, compare={"trials": 1, key: 60})
        assert cli_main(["compare", "--config", cfg]) == 2
        assert f"error: unknown key compare.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, extra, message", [
        ({"n1": [30, -4], "n2": [1, 70]}, {}, "sweep.n1 must be at least 1, got -4"),
        ({"n1": [30], "n2": [0, 1]}, {}, "sweep.n2 must be at least 1, got 0"),
        ({"n1": [30], "n2": [1, 100]}, {},
         "sweep.n2 100 exceeds the 80 records that 30 pairs leave to label"),
        ({"n1": [5, 30], "n2": [30]}, {"pairing": {"mode": "disjoint", "n_pairs": 5}},
         "sweep.n2 30 exceeds the 20 records that 30 pairs leave to label"),
        ({"n1": [30, 5000], "n2": [2]},
         {"dataset": {"kind": "blobs", "n_per_class": 20, "noise": 0.5, "seed": 0}},
         "insufficient examples: 5000 pairs requested, only 780 distinct pairs exist"),
        ({"n1": [5, 500], "n2": [1]},
         {"dataset": {"kind": "blobs", "n_per_class": 20, "noise": 0.5, "seed": 0},
          "pairing": {"mode": "exhaustive"}},
         "pairing.mode exhaustive takes every pair whatever sweep.n1 says, so every n1 cell "
         "would train on the same pairs"),
    ], ids=["n1-below-one", "n2-below-one", "n2-over-rows", "n2-over-disjoint-remainder",
            "n1-over-sampled-pairs", "exhaustive-pairing"])
    def test_sweep_grid_is_checked_before_training(self, tmp_path, capsys, monkeypatch, grid,
                                                   extra, message):
        """Each once trained cell (30, 1), (5, 30) or (30, 2), or none,
        before exiting 2; the over-budget cells' messages named no key or
        came only when the later cell started.  Exhaustive pairing once
        trained every n1 cell on the same pairs and exited 0."""
        import samediff.harness as harness

        monkeypatch.setattr(harness, "train_two_stage", lambda *a: pytest.fail("a cell trained"))
        cfg = write_config(tmp_path, sweep={**grid, "reps": 1}, **extra)
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_requires_grid_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli_main(["sweep", "--config", cfg]) == 2
        assert "needs a sweep section" in capsys.readouterr().err

    def test_compare_writes_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, compare={"trials": 1})
        out = tmp_path / "cmp.json"
        assert cli_main(["compare", "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("full: accuracy") for l in lines)
        assert any(l.startswith("online: accuracy") for l in lines)
        doc = json.loads(out.read_text())
        assert doc["trials"] == 1
        assert set(doc["regimes"]) == {"full", "sampled", "online"}
