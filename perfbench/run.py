#!/usr/bin/env python3
"""modclass benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ring-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a process of its own (worker.py) with one thread and
BLAS/OpenMP thread counts pinned to 1, against the modclass sources under
``src/`` of the checkout this file sits in.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced pass.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ring-scale", "check-paper", "module-sweep")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "build_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Set-up is timed in this many fresh processes per run (the measuring worker
# and the rest in set-up-only workers); the median is reported.
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    """Run one workload; return the object printed as the last line."""
    if args.trace:
        out = run_worker(args)
        metrics = out["layers"]
    else:
        # Set-up-only workers before and after the measuring one, so the
        # set-up samples span the whole run.
        extra = SETUP_SAMPLES - 1
        setups = [run_worker(args, setup_only=True)["setup_s"] for _ in range(extra // 2)]
        out = run_worker(args)
        setups += [out["setup_s"]] + [run_worker(args, setup_only=True)["setup_s"] for _ in range(extra - extra // 2)]
        out["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END.items()}
    for error in out["errors"]:
        print(f"  failed: {error}")
    print(
        f"{args.workload} seed={args.seed} passes={out['passes']} attempted={out['attempted']} "
        f"failed={out['failed']} error_rate={out['failed'] / out['attempted']:.4f} "
        f"negative_control={'ok' if out['negative_control'] else 'FAILED'}"
    )
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modclass" / "__init__.py").is_file():
        print(f"error: no modclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(argparse.Namespace(**{**vars(args), "workload": name}))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
