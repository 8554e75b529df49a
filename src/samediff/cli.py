"""Command-line interface.

Subcommands: generate, convert, encrypt, train, eval, sweep, compare,
verify-theory, bound.  Exit codes: 0 success, 1 usage error, 2 data or
configuration error, 3 verification failure.

Data artifacts (checkpoints, pair files, CSVs) are byte-reproducible for
identical command, config and seed; the run manifest additionally records
wall-clock timings and is the one output excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from .config import (
    ConfigError,
    build_datasets,
    build_model,
    build_pairing_config,
    build_train_config,
    load_config,
)
from .harness import (
    SweepSpec,
    accuracy,
    comparison_protocol,
    run_sweep,
    stratified_subset,
)
from .io import (
    DataFormatError,
    generate_synthetic,
    load_csv,
    load_idx,
    load_model,
    save_csv,
    save_model,
    save_pairs,
)
from .pairing import PairingConfig, pair_disjoint, pair_exhaustive, pair_sampled
from .privacy import encrypt_disjoint
from .theory import generalization_bound, run_verification_suite
from .trainer import train_baseline_full, train_online, train_two_stage

__all__ = ["cli_main", "main"]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, payload: dict, files: list[str]) -> str:
    payload = dict(payload)
    payload["files"] = {os.path.basename(p): _sha256(p) for p in files}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")
    return path


def _write_trace_csv(path: str, runs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("stage,epoch,lr,train_loss,val_metric\n")
        for run in runs:
            for rec in run.trace:
                val = "" if rec.val_metric is None else repr(rec.val_metric)
                f.write(f"{run.stage},{rec.epoch},{repr(rec.lr)},{repr(rec.train_loss)},{val}\n")


def _load_eval_data(args) -> "FullyLabeledDataset":
    if args.data:
        return load_csv(args.data, args.class_count)
    if args.images and args.labels:
        return load_idx(args.images, args.labels, args.class_count)
    raise DataFormatError("no evaluation data given: use --data or --images/--labels")


# -- subcommand implementations -------------------------------------------


def _cmd_generate(args) -> int:
    ds = generate_synthetic(
        kind=args.kind,
        n_per_class=args.n_per_class,
        noise=args.noise,
        seed=args.seed,
        class_count=args.classes,
    )
    save_csv(ds, args.out)
    print(f"wrote {len(ds)} examples ({ds.class_count} classes, dim {ds.dim}) to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    ds = load_csv(args.data, args.class_count)
    if args.mode == "exhaustive":
        pairs = pair_exhaustive(ds)
    elif args.mode == "disjoint":
        pairs, remainder = pair_disjoint(ds, args.n_pairs, seed=args.seed)
        if args.remainder_out:
            save_csv(remainder, args.remainder_out)
    else:
        pairs = pair_sampled(
            ds,
            PairingConfig(
                mode="sampled",
                n_pairs=args.n_pairs,
                class_batch_size=args.class_batch_size,
                seed=args.seed,
            ),
        )
    save_pairs(pairs, args.out, inline=args.inline)
    same = int(np.sum(pairs.t == 1))
    print(f"wrote {len(pairs)} pairs ({same} same-class) to {args.out}")
    return 0


def _cmd_encrypt(args) -> int:
    ds = load_csv(args.data, args.class_count)
    released, holdout, report = encrypt_disjoint(ds, args.n_pairs, seed=args.seed)
    save_pairs(released, args.out, inline=True)
    if args.holdout_out:
        save_csv(holdout, args.holdout_out)
    doc = {
        "pair_count": report.pair_count,
        "holdout_count": report.holdout_count,
        "max_pairs_strict": report.max_pairs_strict,
        "max_pairs_half": report.max_pairs_half,
        "participant_count": report.strength.participant_count,
        "component_count": report.strength.component_count,
        "max_component_size": report.strength.max_component_size,
        "agreement": report.strength.agreement,
    }
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True, indent=2)
            f.write("\n")
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    doc = load_config(args.config)
    out_dir = args.out_dir or doc.get("output", {}).get("dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    train_ds, test_ds = build_datasets(doc)
    cfg = build_train_config(doc)
    model = build_model(doc, train_ds, cfg.seed)
    per_class = int(doc.get("labels", {}).get("per_class", 1))
    t0 = time.perf_counter()

    if args.regime == "baseline":
        runs = [train_baseline_full(model, train_ds, cfg)]
    elif args.regime == "online":
        labeled = stratified_subset(
            train_ds, per_class * train_ds.class_count, cfg.seed
        )
        runs = list(train_online(model, train_ds, labeled, cfg))
    else:  # two-stage
        pairing = build_pairing_config(doc)
        if pairing.mode == "online":
            raise ConfigError(
                'pairing.mode "online" has no materialised pair set: use --regime online'
            )
        if pairing.mode == "exhaustive":
            pairs, label_pool = pair_exhaustive(train_ds), train_ds
        elif pairing.mode == "disjoint":
            pairs, label_pool = pair_disjoint(train_ds, pairing.n_pairs, seed=pairing.seed)
        else:
            pairs, label_pool = pair_sampled(train_ds, pairing), train_ds
        labeled = stratified_subset(
            label_pool, per_class * label_pool.class_count, cfg.seed
        )
        runs = list(train_two_stage(model, pairs, labeled, cfg))

    acc = accuracy(model, test_ds)
    ckpt = os.path.join(out_dir, "model.ckpt")
    trace = os.path.join(out_dir, "trace.csv")
    save_model(model, ckpt, seed=cfg.seed)
    _write_trace_csv(trace, runs)
    _write_manifest(
        out_dir,
        {
            "command": "train",
            "regime": args.regime,
            "config": doc,
            "test_accuracy": acc,
            "runs": [r.to_dict() for r in runs],
            "wall_seconds": time.perf_counter() - t0,
        },
        [ckpt, trace],
    )
    print(f"test accuracy {acc:.4f}; checkpoint at {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    model, _ = load_model(args.checkpoint)
    ds = _load_eval_data(args)
    print(f"accuracy {accuracy(model, ds):.6f}")
    return 0


def _cmd_sweep(args) -> int:
    doc = load_config(args.config)
    sec = doc.get("sweep")
    if not sec or "n1" not in sec or "n2" not in sec:
        raise ConfigError("sweep command needs a sweep section with n1 and n2 lists")
    out_dir = args.out_dir or doc.get("output", {}).get("dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    train_ds, test_ds = build_datasets(doc)
    cfg = build_train_config(doc)
    spec = SweepSpec(
        n1_values=tuple(int(v) for v in sec["n1"]),
        n2_values=tuple(int(v) for v in sec["n2"]),
        reps=int(sec.get("reps", 5)),
        seed=cfg.seed,
    )
    t0 = time.perf_counter()
    result = run_sweep(
        train_ds, test_ds, spec,
        model_factory=lambda seed: build_model(doc, train_ds, seed),
        train_cfg=cfg,
        pairing=build_pairing_config(doc),
    )
    csv_path = os.path.join(out_dir, "results.csv")
    result.to_csv(csv_path)
    _write_manifest(
        out_dir,
        {
            "command": "sweep",
            "config": doc,
            "wall_seconds": time.perf_counter() - t0,
            "row_wall_seconds": [r.wall_seconds for r in result.rows],
        },
        [csv_path],
    )
    for n1 in spec.n1_values:
        for n2 in spec.n2_values:
            mean, std = result.cell_stats(n1, n2)
            print(f"n1={n1} n2={n2}: accuracy {mean:.4f} +/- {std:.4f}")
    return 0


def _cmd_compare(args) -> int:
    doc = load_config(args.config)
    sec = doc.get("compare", {})
    train_ds, test_ds = build_datasets(doc)
    cfg = build_train_config(doc)
    result = comparison_protocol(
        train_ds, test_ds,
        model_factory=lambda seed: build_model(doc, train_ds, seed),
        train_cfg=cfg,
        n_pairs=int(sec.get("n_pairs", max(2 * len(train_ds), 1000))),
        labels_per_class=int(sec.get("labels_per_class", 1)),
        trials=int(sec.get("trials", 5)),
        pairing=build_pairing_config(doc),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")
    for name in result.regimes:
        mean, std = result.stats(name)
        print(f"{name}: accuracy {mean:.4f} +/- {std:.4f} over {result.trials} trials")
    return 0


def _cmd_verify_theory(args) -> int:
    result = run_verification_suite(
        n_seeds=args.seeds,
        grid_dirs=args.grid_dirs,
        gamma_fraction=args.gamma_frac,
        cross_checks=not args.skip_cross_checks,
    )
    print(f"passed {result.n_passed}/{result.n_problems} generated problems")
    if not result.all_passed:
        for failure in result.failures[:10]:
            print(f"seed {failure['seed']}: " + "; ".join(failure["issues"]))
        return 3
    return 0


def _cmd_bound(args) -> int:
    value = generalization_bound(args.t, args.r, args.n2, args.delta)
    print(repr(value))
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samediff",
        description="Train and audit classifiers built from same/different pair labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.add_argument("--kind", choices=["blobs", "moons", "xor"], required=True)
    p.add_argument("--n-per-class", type=int, default=500)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("convert", help="build a pair file from a labeled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--class-count", type=int, default=None)
    p.add_argument("--mode", choices=["exhaustive", "disjoint", "sampled"], required=True)
    p.add_argument("--n-pairs", type=int, default=0)
    p.add_argument("--class-batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inline", action="store_true")
    p.add_argument("--remainder-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("encrypt", help="release record-disjoint label-free pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--class-count", type=int, default=None)
    p.add_argument("--n-pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--holdout-out", default=None)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("train", help="train a model per a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--regime", choices=["two-stage", "baseline", "online"], default="two-stage")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--images", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--class-count", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="accuracy over a pair/label budget grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="full vs sampled-pair vs online regimes")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify-theory", help="brute-force checks on generated finite problems")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--grid-dirs", type=int, default=10_000)
    p.add_argument("--gamma-frac", type=float, default=0.5)
    p.add_argument("--skip-cross-checks", action="store_true")
    p.set_defaults(func=_cmd_verify_theory)

    p = sub.add_parser("bound", help="head-stage deviation bound value")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_bound)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, DataFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> int:
    return cli_main()


if __name__ == "__main__":
    sys.exit(cli_main())
