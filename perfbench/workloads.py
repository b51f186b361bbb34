"""The benchmark's workloads: corpus set-up, the timed operation and the
checks on its outputs.

Every workload starts from a corpus that `stc gen` writes from the
benchmark's seed and that is read back through `stc.data`; the program sees
only those files.

- `pipeline`: the default 200/100/50 corpus of 64-px images and a full
  three-stage `stc run` with the default config, shortened from 15 to 2
  epochs so that several runs fit the benchmark's time budget. Training
  (conv forward and backward at batch 8, crop 48) is most of its time.
- `infer`: the same corpus and a fixed-seed checkpoint written with
  `save_params` and read back with `load_params`; the operation is one
  inference pass (batch-1 forward only, inside the thread pool).
- `pipeline-large`: 128-px images, a smaller corpus and crop 96, so each
  train step has 4x the pixels and arithmetic and memory traffic outweigh
  per-call overhead.

Each pipeline operation ends with one inference pass over the corpus with
the trained powerful checkpoint, so every workload reports inference
throughput; on `infer` that pass is the whole operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from stc import cli, data, imageio, network, params, pipeline, pseudolabel

NUM_CLASSES = 4


@dataclass(frozen=True)
class Corpus:
    simple: int
    complex: int
    eval: int
    size: int


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus
    # `stc run` config (None: the operation is an inference pass only)
    run_config: dict | None = None
    # sanity floor on the powerful stage's mIoU: far above what a net that
    # predicts background everywhere scores, far below a trained one
    miou_floor: float = 0.0


DEFAULT_CORPUS = Corpus(200, 100, 50, 64)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline", DEFAULT_CORPUS, {"epochs": 2}, miou_floor=0.3),
        Workload("infer", DEFAULT_CORPUS),
        Workload(
            "pipeline-large", Corpus(64, 16, 8, 128),
            {"epochs": 3, "crop_size": 96}, miou_floor=0.2,
        ),
    )
}


@dataclass
class Setup:
    data_dir: Path
    manifest: data.DatasetManifest
    net: params.ParamSet | None = None


@dataclass
class PassResult:
    seconds: float
    images: int
    saliency: list
    masks: list  # (record, allowed labels, mask) for each relabeled image
    mask_dir: Path
    miou: float


@dataclass
class OpResult:
    run_s: float
    inference: PassResult
    out_dir: Path


def _quiet(fn, *args):
    """Calls fn with the program's progress lines kept off our stdout, whose
    last line is the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def setup(w: Workload, directory: Path, seed: int, run_seed: int) -> Setup:
    """Generates, writes and reads back the corpus; for `infer` also writes
    and reads back the checkpoint. This is what setup_s times."""
    c = w.corpus
    code = _quiet(cli.main, [
        "gen", "--out", str(directory), "--seed", str(seed), "--classes", str(NUM_CLASSES),
        "--simple", str(c.simple), "--complex", str(c.complex), "--eval", str(c.eval),
        "--size", str(c.size),
    ])
    if code != 0:
        raise RuntimeError(f"stc gen exited with {code}")
    manifest = data.read_dataset(directory)
    for rec in manifest.records:
        manifest.load_image(rec)
        if rec.gt_mask is not None:
            manifest.load_gt_mask(rec)
    net = None
    if w.run_config is None:
        ckpt = directory / "checkpoint.stcp"
        params.save_params(
            network.init_network(network.NetworkConfig(NUM_CLASSES, seed=run_seed)), ckpt
        )
        net = params.load_params(ckpt)
    return Setup(directory, manifest, net)


def check_setup(w: Workload, s: Setup) -> list[str]:
    c = w.corpus
    counts = {split: len(s.manifest.split(split)) for split in data.SPLITS}
    want = {"simple": c.simple, "complex": c.complex, "eval": c.eval}
    return [] if counts == want else [f"corpus has {counts}, expected {want}"]


def inference_pass(net, manifest: data.DatasetManifest, out_dir: Path) -> PassResult:
    """Saliency on the simple split, label-restricted relabeling of the
    simple and complex splits through the program's thread pool, mask
    writes, and evaluation on the eval split."""
    simple, complex_, ev = (manifest.split(s) for s in ("simple", "complex", "eval"))
    t0 = perf_counter()
    sal = pipeline._parallel_map(lambda r: pipeline._saliency_for(simple, r), simple.records)
    simple_masks = pipeline._parallel_map(
        lambda r: pseudolabel.relabel_simple(net, simple.load_image(r), min(r.labels)),
        simple.records,
    )
    complex_masks = pipeline._parallel_map(
        lambda r: pseudolabel.relabel_complex(net, complex_.load_image(r), r.labels),
        complex_.records,
    )
    pairs = [(simple, r) for r in simple.records] + [(complex_, r) for r in complex_.records]
    masks = simple_masks + complex_masks
    pipeline._write_masks(out_dir, "masks", pairs, masks)
    _, miou = pipeline.evaluate(net, ev)
    seconds = perf_counter() - t0
    labelled = [
        (r, {0, min(r.labels)}, m) for r, m in zip(simple.records, simple_masks)
    ] + [(r, set(r.labels) | {0}, m) for r, m in zip(complex_.records, complex_masks)]
    return PassResult(
        seconds, len(manifest.records), sal, labelled, Path(out_dir) / "masks", miou
    )


def run_op(w: Workload, s: Setup, out_dir: Path, run_seed: int) -> OpResult:
    """The timed operation: `stc run` then one inference pass with its
    powerful checkpoint (pipeline workloads), or one inference pass."""
    out_dir.mkdir(parents=True)
    if w.run_config is None:
        p = inference_pass(s.net, s.manifest, out_dir)
        return OpResult(p.seconds, p, out_dir)
    config = out_dir / "config.json"
    config.write_text(json.dumps(w.run_config))
    t0 = perf_counter()
    code = _quiet(cli.main, [
        "run", "--data", str(s.data_dir), "--out", str(out_dir / "run"),
        "--config", str(config), "--seed", str(run_seed),
    ])
    run_s = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"stc run exited with {code}")
    net = params.load_params(out_dir / "run" / "checkpoint_powerful.stcp")
    return OpResult(run_s, inference_pass(net, s.manifest, out_dir / "infer"), out_dir)


def _check_masks(labelled, mask_dir: Path) -> list[str]:
    """Labels within the image's labels plus background, and the written
    PGM reads back as the same mask."""
    problems = []
    for rec, allowed, mask in labelled:
        extra = set(np.unique(mask).tolist()) - allowed
        if extra:
            problems.append(f"{rec.image}: mask labels {sorted(extra)} not in {sorted(allowed)}")
        back = imageio.read_pgm(mask_dir / f"{Path(rec.image).stem}.pgm")
        if not np.array_equal(back, mask):
            problems.append(f"{rec.image}: written mask does not read back equal")
    return problems


def check_pass(p: PassResult) -> list[str]:
    problems = _check_masks(p.masks, p.mask_dir)
    for m in p.saliency:
        if not (np.all(np.isfinite(m)) and m.min() >= 0.0 and m.max() <= 1.0):
            problems.append("saliency map outside [0, 1]")
            break
    if not 0.0 <= p.miou <= 1.0:
        problems.append(f"inference mIoU {p.miou} outside [0, 1]")
    return problems


def check_op(w: Workload, s: Setup, r: OpResult) -> tuple[list[str], dict]:
    """Problems found in the operation's outputs, and the per-stage mIoU."""
    problems = check_pass(r.inference)
    if w.run_config is None:
        return problems, {}
    run_dir = r.out_dir / "run"
    for stage in pipeline.STAGES:
        net = params.load_params(run_dir / f"checkpoint_{stage}.stcp")
        if not all(np.all(np.isfinite(net[n].value)) for n in net.names()):
            problems.append(f"checkpoint_{stage}: non-finite weights")
    report = json.loads((run_dir / "report.json").read_text())
    miou = {st["stage"]: st["miou"] for st in report["stages"]}
    epochs = w.run_config["epochs"]
    for st in report["stages"]:
        losses = st["epoch_losses"]
        if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
            problems.append(f"{st['stage']}: epoch losses {losses} not {epochs} finite values")
    if list(miou) != list(pipeline.STAGES):
        problems.append(f"report stages {list(miou)}")
    elif not miou["powerful"] >= w.miou_floor:
        problems.append(f"powerful mIoU {miou['powerful']:.4f} below floor {w.miou_floor}")
    by_stem = {Path(rec.image).stem: rec for rec in s.manifest.records}
    for mask_dir, splits in (
        ("masks_initial", ("simple",)), ("masks_enhanced", ("simple", "complex")),
    ):
        files = sorted((run_dir / mask_dir).glob("*.pgm"))
        want = sum(len(s.manifest.split(x)) for x in splits)
        if len(files) != want:
            problems.append(f"{mask_dir}: {len(files)} masks, expected {want}")
        for f in files:
            rec = by_stem[f.stem]
            extra = set(np.unique(imageio.read_pgm(f)).tolist()) - (set(rec.labels) | {0})
            if extra:
                problems.append(f"{mask_dir}/{f.name}: labels {sorted(extra)} not in image labels")
    return problems, miou
