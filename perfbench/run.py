#!/usr/bin/env python3
"""Benchmark of the stc system: end-to-end metrics with tracing off, or
per-layer metrics from a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 40 --trace 0

`--workload` is one of `pipeline`, `infer`, `pipeline-large` (see
workloads.py and NOTES.md). `--seed` generates the corpus and `--run-seed`
(default 7) seeds `stc run` and the `infer` checkpoint; re-check a claim
with `--run-seed 11` (RECHECK_RUN_SEED), a seed not used while a change was
written. The program is imported from `src/` of the checkout and driven
in this one process, by a single caller in a closed loop: set-ups and
operations run one after the other, never side by side.

With `--trace 0` the run sets up the corpus SETUPS times, then repeats the
workload's operation on the last set-up for `--seconds` (at least once;
another operation starts only if one as long as the last still ends in
time) and reports medians of setup_s, run_s and infer_images_per_s, and
the process's peak_rss_mb. With `--trace 1` it sets up once and alternates
untraced and traced operations (at least one of each); it reports the per-layer metrics of the traced
set-up plus the median traced operation, and the tracing overhead. Every
operation's outputs are checked; an operation that raises or fails a check
counts as failed. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Thread settings, versions
and seeds are printed before it and written, with every sample, to
`.bench_work/results/`.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUPS = 7
# A pool of nproc workers that each call single-threaded BLAS keeps the busy
# threads at nproc; BLAS threads on top of the pool oversubscribe the cores
# (NOTES.md has the measurement).
BLAS_THREADS = 1
DEFAULT_RUN_SEED = 7
RECHECK_RUN_SEED = 11


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("pipeline", "infer", "pipeline-large"))
    ap.add_argument("--seed", type=int, required=True, help="corpus seed")
    ap.add_argument("--run-seed", type=int, default=DEFAULT_RUN_SEED, help="stc run seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def set_threads() -> dict:
    """Pins the thread settings before numpy loads; each is at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = {"STC_THREADS": nproc, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
           "OMP_NUM_THREADS": BLAS_THREADS}
    for k, v in env.items():
        os.environ[k] = str(v)
    return {"nproc": nproc, **env}


def machine_info(threads: dict) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        **threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
    }


def import_program():
    """Imports stc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stc" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'stc'}")
    sys.path.insert(0, str(src))
    import stc

    if Path(stc.__file__).resolve().parent != (src / "stc").resolve():
        raise SystemExit(f"error: imported stc from {stc.__file__}, not {src}")


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def timed_setups(w, work: Path, args, tracer):
    """Sets up SETUPS times untraced, or once under `tracer`; returns the
    seconds of each and the state of the last."""
    import workloads

    seconds = []
    for k in range(1 if tracer else SETUPS):
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
        directory = work / f"setup{k}"
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            state = workloads.setup(w, directory, args.seed, args.run_seed)
            seconds.append(perf_counter() - t0)
        problems = workloads.check_setup(w, state)
        if problems:
            raise SystemExit("error: set-up check failed: " + "; ".join(problems))
    return seconds, state


def one_operation(w, state, out: Path, run_seed: int, tracer) -> dict:
    """Runs and checks one operation, traced when `tracer` is given; an
    operation that raises or fails a check returns its problems."""
    import spans
    import workloads

    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            r = workloads.run_op(w, state, out, run_seed)
        problems, stage_miou = workloads.check_op(w, state, r)
    except Exception:
        return {"problems": [traceback.format_exc()]}
    result = {"problems": problems, "run_s": r.run_s, "pass_s": r.inference.seconds,
              "images": r.inference.images, "infer_miou": r.inference.miou,
              "stage_miou": stage_miou}
    if tracer and not problems:
        result["layers"] = spans.layer_metrics(tracer.spans)
    return result


def timed_operations(w, state, work: Path, args, traces: list):
    """Repeats the operation for `--seconds`: untraced only, or alternating
    untraced and traced, keeping each traced operation's (label, tracer) in
    `traces`. Returns the results of the operations that passed their
    checks and the counts."""
    import spans

    samples = {"untraced": [], "traced": []}
    attempted = failed = 0
    first_miou = None
    start = perf_counter()
    while True:
        t_op = perf_counter()
        tracer = spans.Tracer() if args.trace and attempted % 2 == 1 else None
        out = work / f"op{attempted}"
        r = one_operation(w, state, out, args.run_seed, tracer)
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        problems = r["problems"]
        if not problems:
            miou = (r["infer_miou"], r["stage_miou"])
            if first_miou is None:
                first_miou = miou
            elif miou != first_miou:
                problems.append(f"mIoU {miou} differs from the first operation's {first_miou}")
        if problems:
            failed += 1
            print(f"operation {attempted} failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        else:
            samples["traced" if tracer else "untraced"].append(r)
            if tracer:
                traces.append((out.name, tracer))
        # Start another operation only if one as long as the last still
        # ends within --seconds, so a run measures at most that long.
        now = perf_counter()
        if now + (now - t_op) > start + args.seconds:
            complete = samples["untraced"] and (samples["traced"] or not args.trace)
            if complete or attempted >= 4:
                return samples, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    threads = set_threads()
    import_program()
    import spans
    import workloads

    declared = declared_metrics(args.trace)
    w = workloads.WORKLOADS[args.workload]
    info = machine_info(threads)
    info.update(workload=w.name, seed=args.seed, run_seed=args.run_seed,
                recheck_run_seed=RECHECK_RUN_SEED, trace=args.trace, seconds=args.seconds)
    print("environment: " + json.dumps(info), flush=True)

    tag = f"{w.name}-seed{args.seed}-run{args.run_seed}-trace{args.trace}"
    work = WORK / tag
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    setup_tracer = spans.Tracer() if args.trace else None
    setup_s, state = timed_setups(w, work, args, setup_tracer)
    traces = [("setup", setup_tracer)] if setup_tracer else []
    samples, attempted, failed = timed_operations(w, state, work, args, traces)
    shutil.rmtree(work, ignore_errors=True)
    if traces:
        with open(results / f"{tag}.spans.jsonl", "w") as fh:
            for label, tracer in traces:
                tracer.write(fh, label)
    untraced, traced = samples["untraced"], samples["traced"]
    if not untraced or (args.trace and not traced):
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    def med(key, runs=untraced):
        return statistics.median(x[key] for x in runs)

    if args.trace:
        units = spans.metric_units()
        setup_layers = spans.layer_metrics(setup_tracer.spans)
        overhead = med("run_s", traced) - med("run_s")
        metrics = {
            name: overhead if name == "trace.overhead_s"
            else setup_layers[name] + statistics.median(x["layers"][name] for x in traced)
            for name in units
        }
    else:
        units = {"setup_s": "s", "run_s": "s", "infer_images_per_s": "1/s", "peak_rss_mb": "MB"}
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": med("run_s"),
            "infer_images_per_s": untraced[0]["images"] / med("pass_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if {n: units[n] for n in metrics} != declared:
        print("error: reported metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1

    for x in traced:
        x.pop("layers")
    record = {"environment": info, "setup_s": setup_s, "samples": samples,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    first = untraced[0]
    print(f"seeds: corpus {args.seed}, run {args.run_seed}; operations: "
          f"{attempted} attempted, {failed} failed; untraced run_s: "
          f"{[round(x['run_s'], 4) for x in untraced]}")
    if first["stage_miou"]:
        print("mIoU by stage: " + ", ".join(f"{k} {v:.4f}" for k, v in first["stage_miou"].items()))
    print(f"inference-pass mIoU: {first['infer_miou']:.4f}")
    for name, value in metrics.items():
        print(f"{name:<42} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
