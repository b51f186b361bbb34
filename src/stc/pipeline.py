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
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import DatasetManifest, DatasetRecord
from .imageio import _to_bytes01, write_atomic, write_pgm
from .losses import batch_ce_and_grad, build_simple_target, downsample_mask_nearest, one_hot
from .network import (
    OUTPUT_STRIDE,
    NetworkConfig,
    _check_size,
    _forward_cached,
    _parallel_map,
    backward,
    check_layers,
    init_network,
    predict,
    step_arrays,
    worker_count,  # callers read STC_THREADS through pipeline.worker_count
)
from .params import ParamSet, sgd_step
from .pseudolabel import argmax_full, relabel_complex
from .saliency import compute_saliency

STAGES = ("initial", "enhanced", "powerful")

# Every stage's SGD schedule, after DeepLab (Chen et al. 2015, arXiv 1412.7062).
_LR = 0.001
_HEAD_LR_MULTIPLIER = 10.0
_LR_DECAY_FACTOR = 10.0
_LR_DECAY_EVERY_EPOCHS = 5
_MOMENTUM = 0.9
_WEIGHT_DECAY = 0.0005

SUPERVISION_SALIENCY = "saliency_targets"
SUPERVISION_MASKS = "mask_files"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _type_error(value, default) -> str | None:
    """What `value` should have been, or None if it has the type of `default`;
    a tuple default stands for a list of as many positive integers, and a
    None default for an integer."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and len(value) == len(default)
        ok = ok and all(_is_int(v) and v >= 1 for v in value)
        return None if ok else f"a list of {len(default)} positive integers"
    return None if _is_int(value) or (value is None and default is None) else "an integer"


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings: batch, epochs, crop, seed, the net's widths, the class
    count (None: the largest label) and the pipeline flags; the SGD schedule is
    fixed, `_LR` to `_WEIGHT_DECAY`. Building one checks each setting, naming its key."""

    batch_size: int = 8
    epochs: int = 15
    crop_size: int = 48
    seed: int = 0
    channels: tuple[int, ...] = NetworkConfig.channels
    include_simple_in_powerful: bool = True
    warm_start: bool = False
    enhance_rounds: int = 1
    num_classes: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            want = _type_error(value, f.default)
            if want:
                raise ValueError(f"config key {f.name!r} must be {want}, got {value!r}")
        object.__setattr__(self, "channels", tuple(self.channels))
        for key in ("batch_size", "crop_size", "enhance_rounds", "num_classes"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ValueError(f"config key {key!r} must be positive, got {value}")
        for key in ("epochs", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"config key {key!r} must be >= 0, got {getattr(self, key)}")
        if self.crop_size % OUTPUT_STRIDE:
            raise ValueError(
                f"config key 'crop_size' must be a multiple of the output stride "
                f"{OUTPUT_STRIDE}, got {self.crop_size}"
            )


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


def _derive_seed(root_seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([root_seed, salt]).generate_state(1)[0])


def train_stage(params: ParamSet, dataset, supervision: str, targets, config: TrainConfig):
    """SGD over random crops of `dataset`, (record, image) pairs whose image
    is the (H, W, 3) uint8 array `load_image_bytes` gives, for the head's
    classes; it reads no files. `targets` is aligned with the dataset:
    full-resolution uint8 saliency maps for SUPERVISION_SALIENCY, integer
    masks for SUPERVISION_MASKS. Each image must pass `network._check_size`
    against `config.crop_size` (which `TrainConfig` holds to a multiple of
    `OUTPUT_STRIDE`). Returns
    (params, per-epoch mean losses); params are updated in place. Images and
    saliency maps stay uint8; each step divides its image crops by 255 into
    conv1's float32 input (`conv1.in`), where the forward standardizes them.

    Each step computes in float32, as Caffe does, against float64 master
    weights (Micikevicius et al. 2017): the compute copy
    (`ParamSet.float32_copy`) lives here for the stage, and after the two
    `sgd_step` calls on `params` its values are refreshed once, with
    `np.copyto`. Its gradients are those of `params`, so `backward` adds
    into the float64 gradients, and the momentum, the update and the
    values stay float64. Every step writes into one set of float32
    `step_arrays`, allocated at full batch size and dropped on return. Each
    step's forward and backward split the batch into up to `worker_count()`
    row ranges; the result is bit-identical for any worker count.
    """
    dataset, targets = list(dataset), list(targets)
    if supervision not in (SUPERVISION_SALIENCY, SUPERVISION_MASKS):
        raise ValueError(f"unknown supervision mode {supervision!r}")
    if len(targets) != len(dataset):
        raise ValueError(f"{len(targets)} targets for {len(dataset)} records")
    if supervision == SUPERVISION_SALIENCY:
        for (rec, _), target in zip(dataset, targets):
            if len(rec.labels) != 1:
                raise ValueError(
                    f"saliency supervision needs single-label records, "
                    f"got {sorted(rec.labels)} for {rec.image!r}"
                )
            if np.asarray(target).dtype != np.uint8:
                raise ValueError(f"saliency target of {rec.image!r} is not uint8 bytes")
    if config.epochs == 0 or not dataset:
        return params, []

    crop = config.crop_size
    for rec, img in dataset:
        if img.dtype != np.uint8:
            raise ValueError(f"image of {rec.image!r} is not uint8 bytes")
        _check_size(f"record {rec.image!r}", *img.shape[:2], crop)
    classes, _ = check_layers(params)
    compute = params.float32_copy()
    full = step_arrays(compute, (min(config.batch_size, len(dataset)), 3, crop, crop))
    images = [img.transpose(2, 0, 1) for _, img in dataset]
    class_ids = [min(r.labels) for r, _ in dataset]
    th, tw = full["logits"].shape[2:]
    head = params.subset(n for n in params.names() if n.startswith("head."))
    trunk = params.subset(n for n in params.names() if not n.startswith("head."))

    rng = np.random.default_rng(config.seed)
    epoch_losses = []
    step = 0
    for epoch in range(config.epochs):
        lr = _LR / _LR_DECAY_FACTOR ** (epoch // _LR_DECAY_EVERY_EPOCHS)
        order = rng.permutation(len(dataset))
        step_losses = []
        for start in range(0, len(order), config.batch_size):
            idxs = order[start : start + config.batch_size]
            arrays = {name: a[: len(idxs)] for name, a in full.items()}
            tgts = []
            for j, i in enumerate(idxs):
                _, ih, iw = images[i].shape
                oy = int(rng.integers(0, ih - crop + 1))
                ox = int(rng.integers(0, iw - crop + 1))
                crop_bytes = images[i][:, oy : oy + crop, ox : ox + crop]
                np.divide(crop_bytes, 255.0, out=arrays["conv1.in"][j])
                window = targets[i][oy : oy + crop, ox : ox + crop]
                if supervision == SUPERVISION_SALIENCY:
                    tgts.append(build_simple_target(window / 255, class_ids[i], th, tw, classes))
                else:
                    m = downsample_mask_nearest(window, th, tw)
                    tgts.append(one_hot(m, classes))
            logits = _forward_cached(compute, arrays["conv1.in"], arrays)
            loss, grad = batch_ce_and_grad(logits, np.stack(tgts))
            if not np.isfinite(loss):
                raise ValueError(f"non-finite loss at step {step}")
            backward(compute, arrays, grad)
            sgd_step(trunk, lr, _MOMENTUM, _WEIGHT_DECAY)
            sgd_step(head, lr * _HEAD_LR_MULTIPLIER, _MOMENTUM, _WEIGHT_DECAY)
            for name, p in compute.items():
                np.copyto(p.value, params[name].value)
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


def _check_map_size(where, kind: str, m: np.ndarray, rec: DatasetRecord, image) -> None:
    """The one map-size rule: `m`, the `kind` map of `rec` read from `where`,
    is the size of `rec`'s `image`; else a ValueError gives both sizes."""
    if m.shape != image.shape[:2]:
        raise ValueError(
            f"{where}: {kind} is {m.shape[0]}x{m.shape[1]}, "
            f"its image {rec.image!r} is {image.shape[0]}x{image.shape[1]}"
        )


def _checked_eval(manifest: DatasetManifest, rec: DatasetRecord, num_classes: int):
    """(image, ground-truth mask) of eval record `rec`, once the mask is
    there, passes `_check_map_size` and is labelled within 0..num_classes,
    and the image passes `network._check_size`."""
    gt = manifest.load_gt_mask(rec)
    img = manifest.load_image(rec)
    where = manifest.root / rec.gt_mask
    _check_map_size(where, "ground-truth mask", gt, rec, img)
    bad = gt[(gt < 0) | (gt > num_classes)]
    if bad.size:
        raise ValueError(f"{where}: ground-truth label {int(bad[0])} outside 0..{num_classes}")
    _check_size(manifest.root / rec.image, *img.shape[:2])
    return img, gt


def evaluate(params: ParamSet, eval_manifest: DatasetManifest):
    """Corpus-wide mean IoU of full-resolution argmax predictions. Each
    eval record passes `_checked_eval`."""
    num_classes, _ = check_layers(params)
    if not eval_manifest.records:
        raise ValueError(f"no eval records in {eval_manifest.root}")

    def one(rec: DatasetRecord) -> np.ndarray:
        img, gt = _checked_eval(eval_manifest, rec, num_classes)
        pred = argmax_full(predict(params, img))
        return confusion_matrix(gt, pred, num_classes + 1)

    conf = sum(_parallel_map(one, eval_manifest.records))
    return iou_from_confusion(conf)


# --------------------------------------------------------------------------
# Full procedure


def _saliency_bytes(image: np.ndarray) -> np.ndarray:
    """(H, W) uint8 saliency of the decoded (H, W, 3) uint8 `image`: the one
    route that makes a map, so the bytes `stc saliency` stores are those the
    initial stage computes for an image without a stored map."""
    return _to_bytes01(compute_saliency(image / 255.0))


def _saliency_for(manifest: DatasetManifest, rec: DatasetRecord) -> np.ndarray:
    """The saliency of `rec` as floats in [0, 1], on the 8-bit grid k/255:
    its stored map, else `_saliency_bytes` of its image."""
    stored = manifest.load_saliency(rec)
    saliency = stored if stored is not None else _saliency_bytes(manifest.load_image_bytes(rec))
    return saliency / 255.0


def _write_masks(out_dir, stage_dir: str, dataset, masks) -> None:
    if out_dir is None:
        return
    d = Path(out_dir) / stage_dir
    d.mkdir(parents=True, exist_ok=True)
    for (_, rec, *_), mask in zip(dataset, masks):
        write_pgm(d / f"{Path(rec.image).stem}.pgm", mask)


@dataclass(frozen=True)
class Corpus:
    """A run's checked inputs. `simple` and `complex` hold one (manifest, record,
    uint8 image, stored uint8 saliency map or None) entry per record."""

    simple: list
    complex: list
    eval: DatasetManifest
    num_classes: int


def load_corpus(
    simple: DatasetManifest, complex_: DatasetManifest, eval_: DatasetManifest, config: TrainConfig
) -> Corpus:
    """Reads and checks a run's inputs once, on the calling thread: the
    thread count (`worker_count`) is valid, the eval split is not empty,
    every label is in 1..`config.num_classes` (by default the largest label),
    each eval record passes `_checked_eval` and each training image
    `network._check_size` against `config.crop_size`, and each stored
    saliency map passes `_check_map_size`."""
    worker_count()
    if not eval_.records:
        raise ValueError(f"no eval records in {eval_.root}: every stage is evaluated")
    records = [(m, rec) for m in (simple, complex_, eval_) for rec in m.records]
    num_classes = config.num_classes or max(max(rec.labels) for _, rec in records)
    for m, rec in records:
        if not all(1 <= c <= num_classes for c in rec.labels):
            raise ValueError(
                f"{m.root / 'manifest.jsonl'}: record {rec.image!r} has labels "
                f"{sorted(rec.labels)}, outside 1..{num_classes}"
            )
    for rec in eval_.records:
        _checked_eval(eval_, rec, num_classes)

    def entry(m: DatasetManifest, rec: DatasetRecord):
        image = m.load_image_bytes(rec)
        _check_size(m.root / rec.image, *image.shape[:2], config.crop_size)
        saliency = m.load_saliency(rec)
        if saliency is not None:
            _check_map_size(m.root / rec.saliency, "saliency map", saliency, rec, image)
        return m, rec, image, saliency

    loaded = [[entry(m, rec) for rec in m.records] for m in (simple, complex_)]
    return Corpus(*loaded, eval_, num_classes)


# Seed salts per stage: (network init, training); enhance round r adds 100 * r.
_SALTS = {"initial": (1, 11), "enhanced": (2, 12), "powerful": (3, 13)}


def _trained_on(name: str, corpus: Corpus, config: TrainConfig) -> list:
    """The `corpus` entries stage `name` trains on: the simple ones, or for
    'powerful' the complex ones followed, with `include_simple_in_powerful`,
    by the simple ones. A ValueError names `STAGES` if `name` is not one of
    them, and the stage if it has no entries."""
    if name not in STAGES:
        raise ValueError(f"unknown stage {name!r}: the stages are {', '.join(STAGES)}")
    splits = {"complex": corpus.complex} if name == "powerful" else {"simple": corpus.simple}
    if name == "powerful" and config.include_simple_in_powerful:
        splits["simple"] = corpus.simple
    entries = [e for split in splits.values() for e in split]
    if not entries:
        raise ValueError(f"stage {name!r}: no {' or '.join(splits)} records to train on")
    return entries


def check_prior(name: str, prior: ParamSet | None, corpus: Corpus, config: TrainConfig) -> None:
    """Stage `name` can run from `prior`: 'initial' takes none, and a later
    stage takes a net that passes `check_layers` and has the class count of
    `corpus` and, with `config.warm_start`, the config's channels. Every net
    has the output stride `load_corpus` held the images to, so the prior
    can relabel them."""
    if (prior is None) != (name == "initial"):
        raise ValueError(f"stage {name!r} takes {'no' if name == 'initial' else 'a'} prior")
    if prior is None:
        return
    classes, channels = check_layers(prior)
    if classes != corpus.num_classes:
        raise ValueError(
            f"checkpoint has num_classes {classes}, the run has num_classes {corpus.num_classes}"
        )
    if config.warm_start and channels != config.channels:
        raise ValueError(
            f"checkpoint has channels {list(channels)}, the run config has channels "
            f"{list(config.channels)}, and warm_start trains the checkpoint"
        )


def _stage_targets(name: str, net, entries: list) -> list:
    """The targets of `Corpus` entries: for 'initial' the stored saliency
    bytes, else `_saliency_bytes` of the image; for the later stages `net`'s
    pseudo-masks restricted to each record's labels and background."""
    def target(entry):
        _, rec, image, saliency = entry
        if name != "initial":
            return relabel_complex(net, image / 255.0, rec.labels)
        return saliency if saliency is not None else _saliency_bytes(image)

    return _parallel_map(target, entries)


def run_stage(
    name: str, prior: ParamSet | None, corpus: Corpus, config: TrainConfig, *, out_dir=None
):
    """Runs one stage on `corpus` (`load_corpus`); returns (net, StageReport).

    'initial' trains a new net of `config.channels` on saliency targets and
    takes no prior. The later stages relabel their images with `prior`, the
    previous stage's net, and train a new net (a copy of `prior` with
    `config.warm_start`). The enhanced stage does this `config.enhance_rounds`
    times, each round relabeling with the net the round before trained. The
    prior's masks go to masks_<previous stage>/ under out_dir when given; it
    is created once the stage has records to train on (`_trained_on`) and a
    prior that `check_prior` passes. The net is then evaluated on the eval split.
    """
    entries = _trained_on(name, corpus, config)
    check_prior(name, prior, corpus, config)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    supervision = SUPERVISION_SALIENCY if name == "initial" else SUPERVISION_MASKS
    init_salt, train_salt = _SALTS[name]
    t0 = time.perf_counter()
    try:
        net = prior
        for rnd in range(config.enhance_rounds if name == "enhanced" else 1):
            targets = _stage_targets(name, net, entries)
            if rnd == 0 and name != "initial":
                prev = STAGES[STAGES.index(name) - 1]
                _write_masks(out_dir, f"masks_{prev}", entries, targets)
            if config.warm_start and name != "initial":
                net = net.copy()
            else:
                seed = _derive_seed(config.seed, init_salt + 100 * rnd)
                net = init_network(NetworkConfig(corpus.num_classes, config.channels, seed=seed))
            _, losses = train_stage(
                net, [(rec, image) for _, rec, image, _ in entries], supervision, targets,
                replace(config, seed=_derive_seed(config.seed, train_salt + 100 * rnd)),
            )
        per_iou, miou = evaluate(net, corpus.eval)
    except Exception as e:
        raise PipelineError(name, e) from e
    return net, StageReport(name, losses, per_iou, miou, time.perf_counter() - t0)


def run_stc(
    simple_manifest: DatasetManifest,
    complex_manifest: DatasetManifest,
    eval_manifest: DatasetManifest,
    config: TrainConfig,
    *,
    out_dir=None,
):
    """Runs all three stages, each on the net the one before trained, with
    the settings `config` holds; returns ({stage: ParamSet}, [StageReport]).

    The inputs (`load_corpus`) and each stage's training set are checked
    before the first stage. Pseudo-mask directories masks_initial/ and
    masks_enhanced/ are written under out_dir when given. Training never
    reads ground-truth masks.
    """
    corpus = load_corpus(simple_manifest, complex_manifest, eval_manifest, config)
    for name in STAGES:
        _trained_on(name, corpus, config)
    nets: dict[str, ParamSet] = {}
    reports: list[StageReport] = []
    net = None
    for name in STAGES:
        net, report = run_stage(name, net, corpus, config, out_dir=out_dir)
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
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


def write_report_csv(reports, path) -> None:
    lines = ["stage,class,iou,miou,seconds"]
    for r in reports:
        for k, v in enumerate(r.per_class_iou):
            lines.append(f"{r.stage},{k},{v:.6f},{r.miou:.6f},{r.seconds:.3f}")
    write_atomic(path, "\n".join(lines) + "\n")
