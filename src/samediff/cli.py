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
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple, fields

import numpy as np

from .config import (
    ConfigError,
    _read,
    build_datasets,
    build_label_budget,
    build_model,
    build_pairing_config,
    build_train_config,
    load_config,
)
from .harness import SweepSpec, accuracy, comparison_protocol, run_sweep, train_regimes
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
from .pairing import PairingConfig, build_pairs
from .privacy import encrypt_disjoint
from .theory import generalization_bound, run_verification_suite
from .trainer import EpochRecord

__all__ = ["cli_main"]

_REGIMES = {"two-stage": "sampled", "baseline": "full", "online": "online"}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_manifest(out_dir: str, payload: dict, files: list[str]) -> None:
    payload = dict(payload)
    payload["files"] = {os.path.basename(p): _sha256(p) for p in files}
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _write_trace_csv(path: str, runs) -> None:
    """``stage`` and then every ``EpochRecord`` field, one row per epoch;
    values via ``repr``, None as an empty cell."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(["stage", *(fld.name for fld in fields(EpochRecord))]) + "\n")
        for run in runs:
            for rec in run.trace:
                cells = ("" if v is None else repr(v) for v in astuple(rec))
                f.write(",".join([run.stage, *cells]) + "\n")


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
    pairs, remainder = build_pairs(ds, PairingConfig(
        mode=args.mode, n_pairs=args.n_pairs,
        class_batch_size=args.class_batch_size, seed=args.seed,
    ))
    if args.remainder_out:
        save_csv(remainder, args.remainder_out)
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
    # every report field but the nested record and its one-size-per-component list
    doc = {f.name: getattr(part, f.name) for part in (report, report.strength)
           for f in fields(part) if f.name not in ("strength", "component_sizes")}
    if args.report_out:
        _write_json(args.report_out, doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    doc = load_config(args.config)
    out_dir = args.out_dir or _read(doc, "output.dir", str) or "."
    train_ds, test_ds = build_datasets(doc)
    cfg = build_train_config(doc)
    regime = _REGIMES[args.regime]
    t0 = time.perf_counter()
    model, runs = train_regimes(
        train_ds, lambda seed: build_model(doc, train_ds, seed), cfg,
        build_pairing_config(doc, train_ds), build_label_budget(doc, train_ds), (regime,),
    )[regime]

    acc = accuracy(model, test_ds)
    os.makedirs(out_dir, exist_ok=True)
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
    k = model.class_count
    if args.class_count not in (None, k):
        raise DataFormatError(f"--class-count {args.class_count} differs from the checkpoint's "
                              f"class_count {k}")
    if args.data:
        ds = load_csv(args.data, k)
    elif args.images and args.labels:
        ds = load_idx(args.images, args.labels, k)
    else:
        raise DataFormatError("no evaluation data given: use --data or --images/--labels")
    print(f"accuracy {accuracy(model, ds):.6f}")
    return 0


def _cmd_sweep(args) -> int:
    doc = load_config(args.config)
    n1_values, n2_values = _read(doc, "sweep.n1", [int]), _read(doc, "sweep.n2", [int])
    if n1_values is None or n2_values is None:
        raise ConfigError("sweep command needs a sweep section with n1 and n2 lists")
    out_dir = args.out_dir or _read(doc, "output.dir", str) or "."
    train_ds, test_ds = build_datasets(doc)
    cfg = build_train_config(doc)
    spec = SweepSpec(tuple(n1_values), tuple(n2_values), _read(doc, "sweep.reps", int, 5))
    t0 = time.perf_counter()
    result = run_sweep(
        train_ds, test_ds, spec,
        model_factory=lambda seed: build_model(doc, train_ds, seed),
        train_cfg=cfg,
        pairing=build_pairing_config(doc, train_ds),
    )
    os.makedirs(out_dir, exist_ok=True)
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
    train_ds, test_ds = build_datasets(doc)
    result = comparison_protocol(
        train_ds, test_ds,
        model_factory=lambda seed: build_model(doc, train_ds, seed),
        train_cfg=build_train_config(doc),
        pairing=build_pairing_config(doc, train_ds),
        n_labels=build_label_budget(doc, train_ds),
        trials=_read(doc, "compare.trials", int, 5),
    )
    if args.out:
        _write_json(args.out, result.to_dict())
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: each subcommand's
    handler is bound here and reads the module's globals when it runs."""
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
    p.add_argument("--regime", choices=list(_REGIMES), default="two-stage")
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
    except (ValueError, OverflowError, OSError, MemoryError) as e:
        # ConfigError and DataFormatError are ValueErrors; OverflowError and
        # MemoryError are outsized counts; OSError is an unusable path
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> int:
    return cli_main()


if __name__ == "__main__":
    sys.exit(cli_main())
