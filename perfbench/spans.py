"""Span tracer for the benchmark's traced runs, and the per-layer metrics
computed from its spans.

Tracing works from outside the program: `Tracer.installed()` replaces every
binding of each wrapped function in every loaded ``stc`` module (for
example ``stc.ops.conv2d_forward``, the ``conv2d_forward`` that
``stc.network`` imported, and the one ``stc.ops.conv2d_backward`` calls) with
a wrapper that records a span, and restores the originals on exit. Nothing
in the program changes. Spans stay in memory and are written out once, when
the run ends.

A span is (id, name, parent id, start, end, extra). `extra` carries the
FLOPs computed from the argument shapes for the convolutions, the file size
for the image readers and writers, and the worker count for a thread-pool
call. The pool wrapper links the spans of work done on pool threads to the
pool call, so self time and pool utilisation hold across threads.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

# module -> functions wrapped at every binding in the stc package
LAYERS = {
    "data": ("build_dataset", "write_dataset", "read_dataset"),
    "imageio": (
        "read_ppm", "write_ppm", "read_pgm", "write_pgm",
        "read_saliency_pgm", "write_saliency_pgm",
    ),
    "saliency": ("compute_saliency",),
    "ops": (
        "conv2d_forward", "conv2d_backward", "avgpool2_forward", "avgpool2_backward",
        "relu_forward", "relu_backward", "channel_softmax", "bilinear_resize",
    ),
    "losses": (
        "multilabel_ce", "multilabel_ce_grad", "singlelabel_ce",
        "build_simple_target", "one_hot", "downsample_mask_nearest",
    ),
    "network": ("_forward_cached", "backward", "predict"),
    "params": ("sgd_step", "save_params", "load_params"),
    "pseudolabel": ("relabel_simple", "relabel_complex"),
    "pipeline": (
        "run_stc", "train_stage", "evaluate", "_parallel_map", "_write_masks",
        "write_report_json", "write_report_csv",
    ),
    "cli": ("main", "cmd_gen", "cmd_run", "_write_checkpoint"),
}

# `_forward_cached` is wrapped only where train_stage calls it, so its span
# is the training forward; predict's forward stays inside the predict span.
ONLY_BINDINGS = {("network", "_forward_cached"): ("stc.pipeline",)}

# The phases each stage of run_stc has: the first pool call of the initial
# stage computes saliency, later stages relabel before they train.
PHASES = {
    "initial": ("saliency_s", "train_s", "eval_s"),
    "enhanced": ("relabel_s", "train_s", "eval_s"),
    "powerful": ("relabel_s", "train_s", "eval_s"),
}
STAGES = tuple(PHASES)
POOL = "pipeline._parallel_map"
POOL_TASK = "pipeline._parallel_map.task"
WRITERS = (
    "pipeline._write_masks", "pipeline.write_report_json",
    "pipeline.write_report_csv", "cli._write_checkpoint",
)
# write_s counts only the writes of a `stc run`, not those of a later pass
RUN = ("cli.cmd_run", "pipeline.run_stc")


def _conv_flops(args, _result) -> float:
    """2 * N*H*W * Cout*Cin*k*k: the patch matmul of conv2d_forward, or the
    grad_kernel matmul of conv2d_backward (its grad_input is a nested
    conv2d_forward with a span of its own)."""
    x, kernel = args[0], args[1]
    n, _, h, w = x.shape
    cout, cin, k, _ = kernel.shape
    return 2.0 * n * h * w * cout * cin * k * k


def _file_bytes(args, _result) -> float:
    return float(os.stat(args[0]).st_size)


EXTRA = {
    "ops.conv2d_forward": _conv_flops,
    "ops.conv2d_backward": _conv_flops,
    **{f"imageio.{fn}": _file_bytes for fn in LAYERS["imageio"]},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, extra=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
        self.spans.append((sid, name, parent, t0, t1, extra(args, result) if extra else 0.0))
        return result

    def _wrapper(self, name: str, fn):
        if name == POOL:
            return self._pool_wrapper(fn)
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra=extra)
        return traced

    def _pool_wrapper(self, fn):
        worker_count = importlib.import_module("stc.pipeline").worker_count

        @functools.wraps(fn)
        def traced(task_fn, items):
            items = list(items)
            workers = float(max(1, min(worker_count(), len(items))))
            pool_span = []  # the pool call's span id, read once it is open

            def task(item):
                # pool threads have empty stacks: name the pool call as parent
                return self.call(POOL_TASK, task_fn, (item,), {}, parent=pool_span[0])

            def run(_items):
                pool_span.append(self._stack()[-1])
                return fn(task, _items)
            return self.call(POOL, run, (items,), {}, extra=lambda *_: workers)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wraps every binding of the LAYERS functions in the loaded stc
        modules; restores the originals on exit."""
        modules = [m for n, m in sys.modules.items() if n == "stc" or n.startswith("stc.")]
        patched = []
        try:
            for mod, fns in LAYERS.items():
                owner = importlib.import_module(f"stc.{mod}")
                for fn_name in fns:
                    orig = getattr(owner, fn_name)
                    wrapper = self._wrapper(f"{mod}.{fn_name}", orig)
                    only = ONLY_BINDINGS.get((mod, fn_name))
                    for m in modules:
                        if only is not None and m.__name__ not in only:
                            continue
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(patched):
                setattr(m, attr, orig)

    def write(self, fh, label: str) -> None:
        """Appends the spans as JSON lines tagged with `label`."""
        for sid, name, parent, t0, t1, extra in self.spans:
            fh.write(json.dumps({"label": label, "id": sid, "name": name, "parent": parent,
                                 "start": t0, "end": t1, "extra": extra}) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics


def metric_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
    for fn in LAYERS["imageio"]:
        units[f"imageio.{fn}.bytes"] = "bytes"
    for fn in ("conv2d_forward", "conv2d_backward"):
        units[f"ops.{fn}.gflops"] = "GFLOP/s-computed"
    for fn in LAYERS["ops"]:
        units[f"ops.{fn}.train_ms_per_call"] = "ms"
    units["pipeline.train_stage.step_ms"] = "ms"
    for stage, phases in PHASES.items():
        for phase in phases:
            units[f"pipeline.{stage}.{phase}"] = "s"
    units["pipeline.write_s"] = "s"
    units["pipeline.pool.wall_s"] = "s"
    units["pipeline.pool.busy_s"] = "s"
    units["pipeline.pool.utilisation"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer values of one traced stretch of work (see metric_units)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[2] in by_id:
            children[s[2]].append(s)

    def descends_from(names):
        """A test of whether a span is, or lies under, a span named in `names`."""
        memo: dict[int, bool] = {}

        def test(sid) -> bool:
            chain = []
            result = False
            while sid in by_id:
                if sid in memo:
                    result = memo[sid]
                    break
                if by_id[sid][1] in names:
                    result = True
                    break
                chain.append(sid)
                sid = by_id[sid][2]
            for c in chain:
                memo[c] = result
            return result
        return test

    under_train = descends_from(("pipeline.train_stage",))
    under_run = descends_from(RUN)

    calls = defaultdict(int)
    self_s = defaultdict(float)
    extra = defaultdict(float)
    train_calls = defaultdict(int)
    train_s = defaultdict(float)
    for sid, name, _, t0, t1, x in spans:
        kids = children.get(sid, ())
        covered = _union_length([(k[3], k[4]) for k in kids], t0, t1) if kids else 0.0
        calls[name] += 1
        self_s[name] += (t1 - t0) - covered
        extra[name] += x
        if name.startswith("ops.") and under_train(sid):
            train_calls[name] += 1
            train_s[name] += t1 - t0

    out = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.self_s"] = self_s[f"{mod}.{fn}"]
    for fn in LAYERS["imageio"]:
        out[f"imageio.{fn}.bytes"] = extra[f"imageio.{fn}"]
    for fn in ("conv2d_forward", "conv2d_backward"):
        name = f"ops.{fn}"
        out[f"{name}.gflops"] = extra[name] / self_s[name] / 1e9 if self_s[name] else 0.0
    for fn in LAYERS["ops"]:
        name = f"ops.{fn}"
        out[f"{name}.train_ms_per_call"] = (
            1000.0 * train_s[name] / train_calls[name] if train_calls[name] else 0.0
        )
    steps = calls["network._forward_cached"]
    train_total = sum(s[4] - s[3] for s in spans if s[1] == "pipeline.train_stage")
    out["pipeline.train_stage.step_ms"] = 1000.0 * train_total / steps if steps else 0.0

    phase = defaultdict(float)
    for run in (s for s in spans if s[1] == "pipeline.run_stc"):
        stage = 0
        for _, name, _, t0, t1, _ in sorted(children.get(run[0], ()), key=lambda s: s[3]):
            key = STAGES[min(stage, 2)]
            if name == POOL:
                phase[f"{key}.saliency_s" if stage == 0 else f"{key}.relabel_s"] += t1 - t0
            elif name == "pipeline.train_stage":
                phase[f"{key}.train_s"] += t1 - t0
            elif name == "pipeline.evaluate":
                phase[f"{key}.eval_s"] += t1 - t0
                stage += 1
    for stage, phases in PHASES.items():
        for p in phases:
            out[f"pipeline.{stage}.{p}"] = phase[f"{stage}.{p}"]
    out["pipeline.write_s"] = sum(
        s[4] - s[3] for s in spans if s[1] in WRITERS and under_run(s[0])
    )

    wall = busy = capacity = 0.0
    for s in spans:
        if s[1] == POOL:
            dur = s[4] - s[3]
            wall += dur
            capacity += s[5] * dur
            busy += sum(k[4] - k[3] for k in children.get(s[0], ()) if k[1] == POOL_TASK)
    out["pipeline.pool.wall_s"] = wall
    out["pipeline.pool.busy_s"] = busy
    out["pipeline.pool.utilisation"] = busy / capacity if capacity else 0.0
    out["trace.spans"] = len(spans)
    return out
