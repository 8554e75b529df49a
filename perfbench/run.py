"""samediff benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload two_stage_sampled --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout (never from an
installed copy), in this single process, with BLAS pinned to one thread.
Inputs are generated from ``--seed``; a pass then drives the workload
(see workloads.py) and is repeated until ``--seconds`` are spent, at least
``MIN_PASSES`` times.  Every pass must reproduce the output files of the
first byte for byte.

The last line of stdout is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts program calls and output checks, ``failed`` those that
failed.  With ``--trace 0`` the metrics are end to end, each a median over
the passes of the run.  Program time is reported in calibrated seconds
(``cal_s``): each call's measured time scaled by ``CAL_REF_S`` over the
time of a fixed calibration loop run just before it (workloads.py), which
largely cancels drift in the CPU's speed.

* ``setup_s``: package import, timed in ``SETUP_REPS`` fresh interpreters,
  plus input generation, repeated ``SETUP_REPS`` times (both medians).  Its
  unit is ``s`` by the benchmark contract, but it is calibrated too.
* ``wall_cal_s``: program time of one pass.
* ``pairs_per_cal_s``: pair work per calibrated second, named on the record
  line as ``train_pairs_per_s`` (training pair-loss terms / ``train`` time;
  the two-stage or the online command) or ``release_pairs_per_s`` (pairs
  released / time to build, write, read back and attack the releases).
* ``items_per_cal_s``: the workload's second throughput: test examples /
  ``eval`` time, baseline training examples / baseline ``train`` time, or
  generated problems / ``verify-theory`` time.
* ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` traced and untraced passes alternate; the metrics are the
per-layer self times and work counts of the traced passes (tracer.py),
the times scaled into calibrated seconds by their pass's calibration, plus
``trace.overhead_cal_s``, the traced minus the untraced median pass time.  The
counts must repeat exactly in every pass.  The spans of the last traced
pass are written to ``.perfbench_out/spans-<workload>-<seed>.csv``.

The line before the result is a JSON record of the run: machine, the
measured (uncalibrated) pass time, the throughputs under their
workload-specific names, ``fail_ratio``, output hashes, exact counts,
per-target calls and errors, and absent targets.
Without ``src/samediff`` in the checkout the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import os

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 3
SETUP_REPS = 5


def _git_revision() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what show_config reports
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "git": _git_revision(),
    }


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import samediff; print(time.perf_counter() - start)"
)


def _import_package() -> bool:
    """Import samediff from this checkout, never from an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import samediff
    except ImportError as e:
        print(f"perfbench: cannot import samediff from {SRC}: {e}", file=sys.stderr)
        return False
    if not os.path.abspath(samediff.__file__).startswith(SRC + os.sep):
        print(f"perfbench: samediff imported from {samediff.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def _import_seconds() -> float:
    """Median import time of the package, each in a fresh interpreter."""
    from workloads import CAL_REF_S, calibration_seconds

    times = []
    for _ in range(SETUP_REPS):
        factor = CAL_REF_S / calibration_seconds()
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout) * factor)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run(workload, work, seconds, trace, ledger, record):
    """Setup repetitions and the pass loop; returns the metrics."""
    from tracer import COUNT_METRICS, TIME_METRICS, Tracer
    from workloads import timed

    data_dir = os.path.join(work, "inputs")
    os.makedirs(data_dir)
    setup = [timed(workload.setup, data_dir, record["seed"])[2] for _ in range(SETUP_REPS)]

    tracer = Tracer() if trace else None
    plain, traced, layers, counts, lap = [], [], [], [], []
    begin = perf_counter()
    reference = None
    while True:
        enough = len(lap) >= MIN_PASSES and (not trace or min(len(plain), len(traced)) >= 2)
        lap.append(perf_counter())
        if enough and lap[-1] - begin + statistics.median(
            b - a for a, b in zip(lap, lap[1:])
        ) > seconds:
            break
        out_dir = os.path.join(work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        with_trace = trace and len(plain) > len(traced)
        if with_trace:
            tracer.install()
        raw_before = ledger.raw_s
        try:
            p = workload.run_pass(ledger, out_dir)
            p.raw_s = ledger.raw_s - raw_before
        except Exception:
            # the benchmark's own checks could not read the outputs
            traceback.print_exc(file=sys.stderr)
            ledger.check(False, "a pass stopped early")
            break
        finally:
            if with_trace:
                tracer.uninstall()
        if with_trace:
            traced.append(p)
            layer = tracer.pass_metrics()
            pass_counts = {k: layer[k] for k in COUNT_METRICS}
            # span times in the pass's calibrated seconds, like wall_cal_s
            layers.append({k: layer[k] * p.wall_s / p.raw_s for k in TIME_METRICS})
            if counts:
                ledger.check(pass_counts == counts[0], f"counts changed: {pass_counts}")
            counts.append(pass_counts)
            silent = tracer.silent_targets(workload.expected)
            ledger.check(not silent, f"wrapped targets recorded no calls: {silent}")
            for target, n in tracer.errors.items():
                record["errors"][target] = record["errors"].get(target, 0) + n
            record["calls"] = dict(sorted(tracer.calls.items()))
        else:
            plain.append(p)
        if reference is None:
            reference = p.hashes
        else:
            ledger.check(p.hashes == reference, "outputs differ between passes of one seed")

    record["passes"] = len(plain) + len(traced)
    record["pass_raw_wall_s"] = [p.raw_s for p in plain]
    record["hashes"] = reference
    if not plain or (trace and not traced):
        return {}
    median = statistics.median
    if not trace:
        wall = median(p.wall_s for p in plain)
        pairs_rate = median(workload.pair_terms / p.pairs_s for p in plain)
        items_rate = median(workload.items / p.items_s for p in plain)
        record["end_to_end"] = {
            "raw_wall_s": _metric(median(p.raw_s for p in plain), "s"),
            workload.pairs_name: _metric(pairs_rate, "1/cal_s"),
            workload.items_name: _metric(items_rate, "1/cal_s"),
        }
        return {
            "setup_s": _metric(record["import_s"] + median(setup), "s"),
            "wall_cal_s": _metric(wall, "cal_s"),
            "pairs_per_cal_s": _metric(pairs_rate, "1/cal_s"),
            "items_per_cal_s": _metric(items_rate, "1/cal_s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }

    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{record['workload']}-{record['seed']}.csv"))
    record["absent"] = tracer.absent
    record["counts"] = counts[0]
    metrics = {name: _metric(median(l[name] for l in layers), "cal_s") for name in TIME_METRICS}
    metrics.update({name: _metric(counts[0][name], "count") for name in COUNT_METRICS})
    record["traced_wall_cal_s"] = median(p.wall_s for p in traced)
    record["untraced_wall_cal_s"] = median(p.wall_s for p in plain)
    overhead = record["traced_wall_cal_s"] - record["untraced_wall_cal_s"]
    metrics["trace.overhead_cal_s"] = _metric(overhead, "cal_s")
    return metrics


def main(argv=None, scale: float = 1.0) -> int:
    """Run the benchmark; ``scale`` shrinks every workload (smoke test)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["two_stage_sampled", "online_and_full", "release_audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not _import_package():
        return 2
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[args.workload](scale)
    ledger = Ledger()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "import_s": _import_seconds(), "errors": {},
    }
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        metrics = _run(workload, work, args.seconds, args.trace, ledger, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        return 1
    record["fail_ratio"] = ledger.failed / max(ledger.attempted, 1)
    record["failures"] = ledger.messages
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
