"""Three-stage training orchestrator and evaluation.

Stage 1 trains from saliency-derived soft targets on simple images; stage 2
retrains from scratch on the stage-1 pseudo-masks (argmax restricted to
{background, class}); stage 3 retrains on complex-image pseudo-masks
(argmax restricted to each image's label set) plus, by default, the simple
pseudo-masks. Every stage is evaluated by corpus-wide mean IoU over all
C+1 classes. All randomness flows from one root seed.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import DatasetManifest, DatasetRecord
from .imageio import quantize01, write_pgm
from .losses import batch_ce_and_grad, build_simple_target, downsample_mask_nearest, one_hot
from .network import (
    NetworkConfig,
    StepBuffers,
    _forward_cached,
    backward,
    init_network,
    num_classes_of,
    output_stride,
    predict,
)
from .params import ParamSet, sgd_step
from .pseudolabel import argmax_full, relabel_complex, relabel_simple
from .saliency import compute_saliency

STAGES = ("initial", "enhanced", "powerful")

SUPERVISION_SALIENCY = "saliency_targets"
SUPERVISION_MASKS = "mask_files"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    initial_lr: float = 0.001
    final_layer_lr_multiplier: float = 10.0
    lr_decay_factor: float = 10.0
    lr_decay_every_epochs: int = 5
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 15
    crop_size: int = 48
    seed: int = 0


@dataclass
class StageReport:
    stage: str
    epoch_losses: list[float]
    per_class_iou: list[float]
    miou: float
    seconds: float


class PipelineError(RuntimeError):
    """A stage failed; carries the stage identity."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


def worker_count() -> int:
    """Worker cap from STC_THREADS, for the inference passes and for the row
    ranges of a train step; defaults to the machine core count."""
    env = os.environ.get("STC_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"STC_THREADS must be an integer >= 1, got {env!r}")
    return n


def _parallel_map(fn, items):
    items = list(items)
    n = min(worker_count(), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))


def _derive_seed(root_seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([root_seed, salt]).generate_state(1)[0])


def _validate_config(config: TrainConfig) -> None:
    positive = {
        "batch_size": config.batch_size,
        "initial_lr": config.initial_lr,
        "final_layer_lr_multiplier": config.final_layer_lr_multiplier,
        "lr_decay_factor": config.lr_decay_factor,
        "lr_decay_every_epochs": config.lr_decay_every_epochs,
        "crop_size": config.crop_size,
    }
    for name, v in positive.items():
        if v <= 0:
            raise ValueError(f"{name} must be positive, got {v}")
    if config.momentum < 0 or config.weight_decay < 0 or config.epochs < 0:
        raise ValueError("momentum, weight_decay and epochs must be non-negative")
    if config.crop_size % 4:
        raise ValueError(f"crop_size must be divisible by 4, got {config.crop_size}")


def train_stage(
    params: ParamSet,
    dataset,
    supervision: str,
    targets,
    config: TrainConfig,
    *,
    num_classes: int,
):
    """SGD over random crops of `dataset` (a sequence of (manifest, record)
    pairs). `targets` is aligned with the dataset: full-resolution saliency
    maps for SUPERVISION_SALIENCY, integer masks for SUPERVISION_MASKS.
    Returns (params, per-epoch mean losses); params are updated in place.
    The step's large temporaries live in one `StepBuffers`, dropped on
    return. It also splits each step's batch into up to `worker_count()`
    row ranges, run on a pool that is shut down on return or error; the
    result is bit-identical for any worker count.
    """
    _validate_config(config)
    dataset = list(dataset)
    targets = list(targets)
    if supervision not in (SUPERVISION_SALIENCY, SUPERVISION_MASKS):
        raise ValueError(f"unknown supervision mode {supervision!r}")
    if len(targets) != len(dataset):
        raise ValueError(f"{len(targets)} targets for {len(dataset)} records")
    if supervision == SUPERVISION_SALIENCY:
        for _, rec in dataset:
            if len(rec.labels) != 1:
                raise ValueError(
                    f"saliency supervision needs single-label records, "
                    f"got {sorted(rec.labels)} for {rec.image!r}"
                )
    if config.epochs == 0 or not dataset:
        return params, []

    images = [m.load_image(r).transpose(2, 0, 1) for m, r in dataset]
    class_ids = [min(r.labels) for _, r in dataset]
    crop = config.crop_size
    for img in images:
        if img.shape[1] < crop or img.shape[2] < crop:
            raise ValueError(f"crop_size {crop} exceeds image size {img.shape[1:]}")
    stride = output_stride(params)
    th, tw = crop // stride, crop // stride
    head = params.subset(n for n in params.names() if n.startswith("head."))
    trunk = params.subset(n for n in params.names() if not n.startswith("head."))

    rng = np.random.default_rng(config.seed)
    epoch_losses = []
    step = 0
    with StepBuffers(worker_count()) as buffers:
        for epoch in range(config.epochs):
            lr = config.initial_lr / config.lr_decay_factor ** (
                epoch // config.lr_decay_every_epochs
            )
            order = rng.permutation(len(dataset))
            step_losses = []
            for start in range(0, len(order), config.batch_size):
                idxs = order[start : start + config.batch_size]
                xs, tgts = [], []
                for i in idxs:
                    _, ih, iw = images[i].shape
                    oy = int(rng.integers(0, ih - crop + 1))
                    ox = int(rng.integers(0, iw - crop + 1))
                    xs.append(images[i][:, oy : oy + crop, ox : ox + crop])
                    window = targets[i][oy : oy + crop, ox : ox + crop]
                    if supervision == SUPERVISION_SALIENCY:
                        tgts.append(
                            build_simple_target(window, class_ids[i], th, tw, num_classes)
                        )
                    else:
                        m = downsample_mask_nearest(window, th, tw)
                        tgts.append(one_hot(m, num_classes))
                batch = np.stack(xs, out=buffers.take("images", (len(xs), *xs[0].shape)))
                logits, cache = _forward_cached(params, batch, buffers)
                loss, grad = batch_ce_and_grad(logits, np.stack(tgts))
                if not np.isfinite(loss):
                    raise ValueError(f"non-finite loss at step {step}")
                backward(params, cache, grad, buffers)
                sgd_step(trunk, lr, config.momentum, config.weight_decay)
                sgd_step(
                    head,
                    lr * config.final_layer_lr_multiplier,
                    config.momentum,
                    config.weight_decay,
                )
                step_losses.append(loss)
                step += 1
            epoch_losses.append(float(np.mean(step_losses)))
    return params, epoch_losses


# --------------------------------------------------------------------------
# Evaluation


def confusion_matrix(gt: np.ndarray, pred: np.ndarray, n: int) -> np.ndarray:
    """(n, n) counts indexed [gt, pred]."""
    gt = np.asarray(gt).ravel()
    pred = np.asarray(pred).ravel()
    return np.bincount(n * gt + pred, minlength=n * n).reshape(n, n)


def iou_from_confusion(conf: np.ndarray):
    """Per-class IoU and their mean; a class absent from both gt and
    prediction corpus-wide scores 1."""
    conf = np.asarray(conf, dtype=np.float64)
    tp = np.diag(conf)
    denom = conf.sum(axis=0) + conf.sum(axis=1) - tp
    iou = np.where(denom > 0, tp / np.maximum(denom, 1), 1.0)
    return [float(v) for v in iou], float(iou.mean())


def evaluate(params: ParamSet, eval_manifest: DatasetManifest):
    """Corpus-wide mean IoU of full-resolution argmax predictions."""
    n = num_classes_of(params) + 1
    if not eval_manifest.records:
        raise ValueError("evaluation needs at least one record")
    for rec in eval_manifest.records:
        if rec.gt_mask is None:
            raise ValueError(f"record {rec.image!r} lacks a ground-truth mask")

    def one(rec: DatasetRecord) -> np.ndarray:
        img = eval_manifest.load_image(rec)
        gt = eval_manifest.load_gt_mask(rec)
        bad = gt[(gt < 0) | (gt >= n)]
        if bad.size:
            raise ValueError(
                f"{eval_manifest.root / rec.gt_mask}: ground-truth label {int(bad[0])} "
                f"outside 0..{n - 1}"
            )
        pred = argmax_full(predict(params, img))
        return confusion_matrix(gt, pred, n)

    conf = sum(_parallel_map(one, eval_manifest.records))
    return iou_from_confusion(conf)


# --------------------------------------------------------------------------
# Full procedure


def _pairs(manifest: DatasetManifest):
    return [(manifest, rec) for rec in manifest.records]


def _saliency_for(manifest: DatasetManifest, rec: DatasetRecord) -> np.ndarray:
    """Stored map if present, else computed and snapped to the 8-bit grid so
    both paths yield identical values."""
    if rec.saliency is not None:
        return manifest.load_saliency(rec)
    return quantize01(compute_saliency(manifest.load_image(rec)))


def _write_masks(out_dir, stage_dir: str, dataset, masks) -> None:
    if out_dir is None:
        return
    d = Path(out_dir) / stage_dir
    d.mkdir(parents=True, exist_ok=True)
    for (_, rec), mask in zip(dataset, masks):
        write_pgm(d / f"{Path(rec.image).stem}.pgm", mask)


# Seed salts per stage: (network init, training); enhance round r adds 100 * r.
_SALTS = {"initial": (1, 11), "enhanced": (2, 12), "powerful": (3, 13)}


def _stage_data(name: str, net, simple, complex_, include_simple_in_powerful: bool):
    """(dataset, supervision, targets) a stage trains on: saliency maps of
    the simple images for 'initial', else `net`'s label-restricted
    pseudo-masks of the simple ('enhanced') or complex ('powerful') images;
    the powerful stage adds the simple ones when asked."""
    if name == "initial":
        return simple, SUPERVISION_SALIENCY, _parallel_map(lambda p: _saliency_for(*p), simple)

    def simple_mask(p):
        return relabel_simple(net, p[0].load_image(p[1]), min(p[1].labels))

    if name == "enhanced":
        return simple, SUPERVISION_MASKS, _parallel_map(simple_mask, simple)
    dataset = list(complex_)
    masks = _parallel_map(
        lambda p: relabel_complex(net, p[0].load_image(p[1]), p[1].labels), complex_
    )
    if include_simple_in_powerful:
        dataset += simple
        masks += _parallel_map(simple_mask, simple)
    return dataset, SUPERVISION_MASKS, masks


def run_stage(
    name: str,
    prior: ParamSet | None,
    simple_manifest: DatasetManifest,
    complex_manifest: DatasetManifest,
    eval_manifest: DatasetManifest,
    config: TrainConfig,
    *,
    num_classes: int,
    channels: tuple[int, ...] = (16, 32, 64),
    include_simple_in_powerful: bool = True,
    warm_start: bool = False,
    enhance_rounds: int = 1,
    out_dir=None,
):
    """Runs one stage; returns (net, StageReport).

    'initial' trains a new net on saliency targets and takes no prior. The
    later stages relabel their images with `prior`, the previous stage's
    net, and train a new net (a copy of `prior` with `warm_start`). The
    enhanced stage does this `enhance_rounds` times, each round relabeling
    with the net the round before trained. The prior's masks go to
    masks_<previous stage>/ under out_dir when given. The net is then
    evaluated on `eval_manifest`.
    """
    if not eval_manifest.records:
        raise ValueError(f"no eval records in {eval_manifest.root}: every stage is evaluated")
    if enhance_rounds < 1:
        raise ValueError(f"enhance_rounds must be >= 1, got {enhance_rounds}")
    init_salt, train_salt = _SALTS[name]
    simple = _pairs(simple_manifest)
    complex_ = _pairs(complex_manifest)
    t0 = time.perf_counter()
    try:
        net = prior
        for rnd in range(enhance_rounds if name == "enhanced" else 1):
            dataset, supervision, targets = _stage_data(
                name, net, simple, complex_, include_simple_in_powerful
            )
            if rnd == 0 and name != "initial":
                prev = STAGES[STAGES.index(name) - 1]
                _write_masks(out_dir, f"masks_{prev}", dataset, targets)
            if warm_start and name != "initial":
                net = net.copy()
            else:
                seed = _derive_seed(config.seed, init_salt + 100 * rnd)
                net = init_network(NetworkConfig(num_classes, tuple(channels), seed=seed))
            _, losses = train_stage(
                net, dataset, supervision, targets,
                replace(config, seed=_derive_seed(config.seed, train_salt + 100 * rnd)),
                num_classes=num_classes,
            )
        per_iou, miou = evaluate(net, eval_manifest)
    except Exception as e:
        raise PipelineError(name, e) from e
    return net, StageReport(name, losses, per_iou, miou, time.perf_counter() - t0)


def run_stc(
    simple_manifest: DatasetManifest,
    complex_manifest: DatasetManifest,
    eval_manifest: DatasetManifest,
    config: TrainConfig,
    *,
    num_classes: int | None = None,
    channels: tuple[int, ...] = (16, 32, 64),
    include_simple_in_powerful: bool = True,
    warm_start: bool = False,
    enhance_rounds: int = 1,
    out_dir=None,
):
    """Runs all three stages, each on the net the one before trained;
    returns ({stage: ParamSet}, [StageReport]).

    Pseudo-mask directories masks_initial/ and masks_enhanced/ are written
    under out_dir when given. Training never reads ground-truth masks.
    """
    if not simple_manifest.records:
        raise PipelineError("initial", ValueError("no simple images to train on"))
    if num_classes is None:
        num_classes = max(
            max(rec.labels)
            for m in (simple_manifest, complex_manifest, eval_manifest)
            for rec in m.records
        )
    nets: dict[str, ParamSet] = {}
    reports: list[StageReport] = []
    net = None
    for name in STAGES:
        net, report = run_stage(
            name, net, simple_manifest, complex_manifest, eval_manifest, config,
            num_classes=num_classes,
            channels=channels,
            include_simple_in_powerful=include_simple_in_powerful,
            warm_start=warm_start,
            enhance_rounds=enhance_rounds,
            out_dir=out_dir,
        )
        nets[name] = net
        reports.append(report)
    return nets, reports


# --------------------------------------------------------------------------
# Report files


def write_report_json(reports, path, seed: int) -> None:
    doc = {
        "seed": seed,
        "stages": [
            {
                "stage": r.stage,
                "miou": r.miou,
                "per_class_iou": {str(k): v for k, v in enumerate(r.per_class_iou)},
                "epoch_losses": r.epoch_losses,
                "seconds": r.seconds,
            }
            for r in reports
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_report_csv(reports, path) -> None:
    lines = ["stage,class,iou,miou,seconds"]
    for r in reports:
        for k, v in enumerate(r.per_class_iou):
            lines.append(f"{r.stage},{k},{v:.6f},{r.miou:.6f},{r.seconds:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")
