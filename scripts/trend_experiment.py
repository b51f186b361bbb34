#!/usr/bin/env python3
"""Stage-over-stage trend experiment.

Generates a fresh default-scale corpus per seed, runs the full three-stage
pipeline, and prints a per-seed table of eval mIoU plus the monotonicity
verdict. This is the same experiment the acceptance suite freezes. A line
above the table states the thread settings (STC_THREADS, and the worker
count it gives; OPENBLAS_NUM_THREADS), since timings depend on them. Each row
ends with a short sha256 digest of each stage's parameters (names and
float64 bytes), so two checkouts that train byte-identical networks print
identical digests.

Usage: python3 scripts/trend_experiment.py [--seeds 11 22 33 44 55] [--out DIR]
"""
from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import tempfile
import time
from pathlib import Path

# stc before numpy: importing stc pins BLAS to one thread, which only
# takes effect before numpy loads
from stc import data
from stc.params import ParamSet
from stc.pipeline import TrainConfig, run_stc, worker_count

import numpy as np


def param_digest(params: ParamSet) -> str:
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    return h.hexdigest()[:12]


def run_one(seed: int, workdir: Path):
    corpus_dir = workdir / f"corpus_{seed}"
    data.write_dataset(data.build_dataset(200, 100, 50, seed=seed), corpus_dir)
    manifest = data.read_dataset(corpus_dir)
    t0 = time.perf_counter()
    nets, reports = run_stc(
        manifest.split("simple"),
        manifest.split("complex"),
        manifest.split("eval"),
        TrainConfig(seed=seed),
    )
    secs = time.perf_counter() - t0
    return [r.miou for r in reports], [param_digest(nets[r.stage]) for r in reports], secs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 22, 33, 44, 55])
    ap.add_argument("--out", type=Path, default=None, help="keep corpora here")
    args = ap.parse_args()

    workdir = args.out or Path(tempfile.mkdtemp(prefix="stc-trend-"))
    workdir.mkdir(parents=True, exist_ok=True)

    env = os.environ
    print(
        f"threads: STC_THREADS={env.get('STC_THREADS', 'unset')} (workers: {worker_count()}),"
        f" OPENBLAS_NUM_THREADS={env.get('OPENBLAS_NUM_THREADS', 'unset')}"
    )
    print(
        f"{'seed':>6} {'initial':>9} {'enhanced':>9} {'powerful':>9} {'monotone':>9}"
        f" {'secs':>7}  digests (initial/enhanced/powerful)"
    )
    rows = []
    for seed in args.seeds:
        mious, digests, secs = run_one(seed, workdir)
        monotone = mious[0] <= mious[1] <= mious[2]
        rows.append((seed, mious, monotone))
        print(
            f"{seed:>6} {mious[0]:>9.4f} {mious[1]:>9.4f} {mious[2]:>9.4f}"
            f" {str(monotone):>9} {secs:>7.1f}  {' '.join(digests)}"
        )
    wins = sum(1 for _, _, m in rows if m)
    median_powerful = statistics.median(m[2] for _, m, _ in rows)
    print(f"\nmonotone in {wins}/{len(rows)} seeds; median powerful miou {median_powerful:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
