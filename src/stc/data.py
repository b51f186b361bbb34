"""Synthetic shape corpus: simple images (one object, clean background),
complex images (2-3 objects, textured background with distractor blobs),
and the on-disk dataset layout (PPM/PGM files plus a JSONL manifest).

Each class id owns one shape family and one base hue: 1=disc/red,
2=square/green, 3=triangle/blue, 4=cross/yellow. Ground-truth masks are
generated for every record but the training pipeline may only read them
for the eval split. All pixel values land on the 8-bit grid so that
writing and re-reading a dataset is lossless.
"""
from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .imageio import (
    quantize01,
    read_pgm,
    read_ppm,
    read_ppm_bytes,
    write_atomic,
    write_pgm,
    write_ppm,
)
from .ops import bilinear_resize

SPLITS = ("simple", "complex", "eval")

MAX_CLASSES = 4

# Base RGB per class; jittered +-0.1 per image.
CLASS_COLORS = {
    1: (0.85, 0.15, 0.15),
    2: (0.15, 0.75, 0.20),
    3: (0.15, 0.25, 0.85),
    4: (0.85, 0.80, 0.15),
}

# Distractor hues sit outside every class hue range even after jitter.
DISTRACTOR_COLORS = (
    (0.80, 0.15, 0.75),
    (0.10, 0.75, 0.80),
    (0.95, 0.95, 0.95),
)

# Per-family lower size bound (fraction of image side), chosen so rasterized
# foreground area stays above 5% of the image for every family and the
# perimeter-to-area ratio stays low enough for a stride-4 network.
_SIZE_FLOOR = {1: 0.45, 2: 0.42, 3: 0.46, 4: 0.46}
_SIZE_CEIL_SIMPLE = 0.60
_SIZE_CEIL_COMPLEX = 0.50

_MIN_VISIBLE_PIXELS = 20
_NOISE_SIGMA = 0.02

# Directional wash toward the background tone applied to every class shape:
# a small per-image base wash plus a ramp across the shape.
_WASH_BASE_MAX = 0.15
_WASH_SPAN_MIN = 0.30
_WASH_SPAN_MAX = 0.50
_WASH_CAP = 0.88

# Specular glint: a small saturated fleck on a random subset of objects.
# Its blurred contrast tops the object's own, so per-image min-max
# normalization compresses the rest of that image's map below threshold;
# the contrast map fails catastrophically on those images while the hue
# itself never moves. Most images stay clean.
_GLINT_PROBABILITY = 0.5
_GLINT_RADIUS_MIN = 2.8
_GLINT_RADIUS_MAX = 3.6


def _wash_range(rng: np.random.Generator):
    lo = rng.uniform(0.0, _WASH_BASE_MAX)
    hi = min(lo + rng.uniform(_WASH_SPAN_MIN, _WASH_SPAN_MAX), _WASH_CAP)
    return lo, hi


def _erode(mask: np.ndarray, iterations: int) -> np.ndarray:
    m = mask
    for _ in range(iterations):
        p = np.pad(m, 1)
        m = p[1:-1, 1:-1] & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return m


def _paint_glint(
    rng: np.random.Generator, img: np.ndarray, mask: np.ndarray, bg_level: float
) -> None:
    """With fixed probability, one saturated fleck inside the object,
    opposing the background tone."""
    if rng.uniform() >= _GLINT_PROBABILITY:
        return
    size = img.shape[0]
    interior = _erode(mask, 4)
    ys, xs = np.nonzero(interior if interior.any() else mask)
    i = int(rng.integers(0, len(ys)))
    r = rng.uniform(_GLINT_RADIUS_MIN, _GLINT_RADIUS_MAX)
    level = rng.uniform(0.95, 1.0) if bg_level < 0.5 else rng.uniform(0.0, 0.05)
    yy, xx = _pixel_grid(size)
    blob = (xx - xs[i] - 0.5) ** 2 + (yy - ys[i] - 0.5) ** 2 <= r**2
    img[blob & mask] = level


def _pixel_grid(size: int):
    c = np.arange(size, dtype=np.float64) + 0.5
    return np.meshgrid(c, c, indexing="ij")  # yy, xx


def _shape_mask(family: int, cx: float, cy: float, s: float, size: int) -> np.ndarray:
    yy, xx = _pixel_grid(size)
    half = s / 2.0
    if family == 1:  # disc
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= half**2
    if family == 2:  # axis-aligned square
        return np.maximum(np.abs(xx - cx), np.abs(yy - cy)) <= half
    if family == 3:  # upward isoceles triangle, apex at cy - s/2
        depth = yy - (cy - half)
        return (depth >= 0.0) & (depth <= s) & (np.abs(xx - cx) <= depth / 2.0)
    if family == 4:  # plus sign, bar width 0.45*s
        bar = 0.45 * s / 2.0
        horiz = (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= bar)
        vert = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= bar)
        return horiz | vert
    raise ValueError(f"unknown shape family {family}")


def _jitter_color(rng: np.random.Generator, base, amount: float) -> np.ndarray:
    return np.clip(np.asarray(base) + rng.uniform(-amount, amount, size=3), 0.0, 1.0)


def _paint_shaded(
    img: np.ndarray,
    mask: np.ndarray,
    color: np.ndarray,
    wash_to: np.ndarray,
    phi: float,
    wash_lo: float,
    wash_hi: float,
) -> None:
    """Fill mask with color washed toward `wash_to`; the wash fraction ramps
    from wash_lo to wash_hi along direction phi.

    Washing toward the image's own background tone hides the washed side from
    border-contrast saliency while its hue tint stays learnable.
    """
    size = img.shape[0]
    yy, xx = _pixel_grid(size)
    proj = np.cos(phi) * xx + np.sin(phi) * yy
    vals = proj[mask]
    span = vals.max() - vals.min()
    t = (vals - vals.min()) / span if span > 0 else np.zeros_like(vals)
    wash = (wash_lo + (wash_hi - wash_lo) * t)[:, None]
    img[mask] = color * (1.0 - wash) + np.asarray(wash_to) * wash


def _place(rng: np.random.Generator, s: float, size: int):
    half = s / 2.0
    cy = rng.uniform(half, size - half)
    cx = rng.uniform(half, size - half)
    return cx, cy


def _finish(rng: np.random.Generator, img: np.ndarray) -> np.ndarray:
    img = img + rng.normal(0.0, _NOISE_SIGMA, size=img.shape)
    return quantize01(img)


def gen_simple(class_id: int, seed, size: int = 64, num_classes: int = MAX_CLASSES):
    """One class shape on a near-uniform gray background.

    Returns (image (H,W,3), label_map (H,W) int, labels frozenset). Pure
    function of (arguments, seed).
    """
    if not 1 <= class_id <= num_classes:
        raise ValueError(f"class id {class_id} outside 1..{num_classes}")
    rng = np.random.default_rng(seed)
    gray = rng.uniform(0.25, 0.75)
    img = np.full((size, size, 3), gray)
    s = rng.uniform(_SIZE_FLOOR[class_id], _SIZE_CEIL_SIMPLE) * size
    color = _jitter_color(rng, CLASS_COLORS[class_id], 0.1)
    cx, cy = _place(rng, s, size)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    wash_lo, wash_hi = _wash_range(rng)
    mask = _shape_mask(class_id, cx, cy, s, size)
    _paint_shaded(img, mask, color, np.full(3, gray), phi, wash_lo, wash_hi)
    _paint_glint(rng, img, mask, gray)
    labels = np.where(mask, class_id, 0).astype(np.int64)
    return _finish(rng, img), labels, frozenset({class_id})


def gen_complex(classes, seed, size: int = 64, num_classes: int = MAX_CLASSES):
    """Several class shapes over a textured background with distractor blobs.

    `classes` is an ordered sequence; later shapes overdraw earlier ones and
    the label map follows that drawing order. Placement is retried until
    every class keeps a visible remnant.
    """
    classes = list(classes)
    if not 2 <= len(classes) <= 3 or len(set(classes)) != len(classes):
        raise ValueError(f"need 2..3 distinct classes, got {classes}")
    for c in classes:
        if not 1 <= c <= num_classes:
            raise ValueError(f"class id {c} outside 1..{num_classes}")
    rng = np.random.default_rng(seed)

    # Smooth background: a coarse random color grid upsampled bilinearly.
    grid = rng.uniform(0.30, 0.70, size=(4, 4, 1)) + rng.uniform(
        -0.10, 0.10, size=(4, 4, 3)
    )
    img = bilinear_resize(np.clip(grid, 0.0, 1.0).transpose(2, 0, 1), size, size)
    img = np.ascontiguousarray(img.transpose(1, 2, 0))

    n_distract = rng.integers(3, 7)
    for _ in range(n_distract):
        family = int(rng.integers(1, 3))  # discs and squares only
        base = DISTRACTOR_COLORS[rng.integers(0, len(DISTRACTOR_COLORS))]
        color = _jitter_color(rng, base, 0.08)
        s = rng.uniform(0.14, 0.30) * size
        cx, cy = _place(rng, s, size)
        img[_shape_mask(family, cx, cy, s, size)] = color

    sizes = [rng.uniform(_SIZE_FLOOR[c], _SIZE_CEIL_COMPLEX) * size for c in classes]
    colors = [_jitter_color(rng, CLASS_COLORS[c], 0.1) for c in classes]
    shades = [(rng.uniform(0.0, 2.0 * np.pi), *_wash_range(rng)) for _ in classes]

    for attempt in range(100):
        placements = [_place(rng, s, size) for s in sizes]
        masks = [
            _shape_mask(c, cx, cy, s, size)
            for c, s, (cx, cy) in zip(classes, sizes, placements)
        ]
        labels = np.zeros((size, size), dtype=np.int64)
        for c, m in zip(classes, masks):
            labels[m] = c
        ok = all(
            (labels == c).sum() >= max(_MIN_VISIBLE_PIXELS, 0.25 * m.sum())
            for c, m in zip(classes, masks)
        )
        if ok:
            break
    else:
        raise ValueError(
            f"could not place classes {classes} in a {size}x{size} image without full occlusion"
        )

    bg_tone = np.clip(grid, 0.0, 1.0).mean(axis=(0, 1))
    for color, m, (phi, wash_lo, wash_hi) in zip(colors, masks, shades):
        _paint_shaded(img, m, color, bg_tone, phi, wash_lo, wash_hi)
        _paint_glint(rng, img, m, float(bg_tone.mean()))
    return _finish(rng, img), labels, frozenset(classes)


def sample_complex_classes(rng: np.random.Generator, num_classes: int) -> list[int]:
    """Random ordered subset of 2..3 classes; order is the drawing order."""
    k = int(rng.integers(2, min(3, num_classes) + 1))
    return [int(c) + 1 for c in rng.permutation(num_classes)[:k]]


# --------------------------------------------------------------------------
# Dataset records and on-disk layout


@dataclass(frozen=True)
class DatasetRecord:
    image: str
    labels: frozenset[int]
    split: str
    saliency: str | None = None
    gt_mask: str | None = None


@dataclass
class DatasetExample:
    """In-memory record as produced by the generators."""

    name: str
    image: np.ndarray
    labels: frozenset[int]
    split: str
    gt_mask: np.ndarray | None = None


class DatasetManifest:
    """File-backed dataset index; all file access goes through the loaders."""

    def __init__(self, root, records: list[DatasetRecord]):
        self.root = Path(root)
        self.records = list(records)

    def split(self, name: str) -> "DatasetManifest":
        return DatasetManifest(self.root, [r for r in self.records if r.split == name])

    def load_image(self, record: DatasetRecord) -> np.ndarray:
        """(H, W, 3) floats in [0,1]: `load_image_bytes` divided by 255."""
        return read_ppm(self.root / record.image)

    def load_image_bytes(self, record: DatasetRecord) -> np.ndarray:
        """(H, W, 3) uint8, as stored; training keeps its images in this form."""
        return read_ppm_bytes(self.root / record.image)

    def load_saliency(self, record: DatasetRecord) -> np.ndarray | None:
        """(H, W) uint8, as stored (a byte v encodes saliency v/255), or None
        if the record has no saliency file."""
        return None if record.saliency is None else read_pgm(self.root / record.saliency)

    def load_gt_mask(self, record: DatasetRecord) -> np.ndarray:
        if record.gt_mask is None:
            raise ValueError(f"record {record.image!r} has no ground-truth mask")
        return read_pgm(self.root / record.gt_mask).astype(np.int64)

    def __len__(self) -> int:
        return len(self.records)


def _record_from(entry, where: str) -> DatasetRecord:
    """The record a manifest line holds; errors start with `where`, the
    manifest's path and line."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: a record must be a JSON object, got {json.dumps(entry)}")
    for field in ("image", "labels", "split"):
        if entry.get(field) is None:
            raise ValueError(f"{where}: missing field {field!r}")
    labels = entry["labels"]
    if not (
        isinstance(labels, list)
        and labels
        and all(isinstance(c, int) and not isinstance(c, bool) for c in labels)
    ):
        raise ValueError(
            f"{where}: labels must be a non-empty list of integers, got {json.dumps(labels)}"
        )
    rec = DatasetRecord(
        image=entry["image"],
        labels=frozenset(labels),
        split=entry["split"],
        saliency=entry.get("saliency"),
        gt_mask=entry.get("gt_mask"),
    )
    if rec.split not in SPLITS:
        raise ValueError(f"{where}: unknown split {rec.split!r}")
    if not all(1 <= c <= 255 for c in rec.labels):  # masks store class ids as bytes
        raise ValueError(f"{where}: labels must be class ids in 1..255, got {sorted(rec.labels)}")
    if rec.split == "simple" and len(rec.labels) != 1:
        raise ValueError(f"{where}: labels: simple images carry exactly one label")
    if rec.split == "eval" and rec.gt_mask is None:
        raise ValueError(f"{where}: gt_mask: eval records require a gt mask")
    return rec


def build_dataset(
    num_simple: int,
    num_complex: int,
    num_eval: int,
    num_classes: int = MAX_CLASSES,
    seed: int = 0,
    size: int = 64,
) -> Iterator[DatasetExample]:
    """Deterministic corpus: simple classes round-robin, complex/eval class
    subsets seeded per record. The arguments are checked on the call; the
    examples are then generated one at a time as the iterator is read."""
    if not 1 <= num_classes <= MAX_CLASSES:
        raise ValueError(f"num_classes must be 1..{MAX_CLASSES}, got {num_classes}")
    if (num_complex or num_eval) and num_classes < 2:
        raise ValueError("complex and eval images need at least 2 classes")

    def examples():
        for i in range(num_simple):
            cls = 1 + i % num_classes
            img, mask, labels = gen_simple(
                cls, np.random.SeedSequence([seed, 0, i]), size, num_classes
            )
            yield DatasetExample(f"simple_{i:04d}", img, labels, "simple", mask)
        for salt, split, count in ((1, "complex", num_complex), (2, "eval", num_eval)):
            for i in range(count):
                picker = np.random.default_rng(np.random.SeedSequence([seed, salt, i, 0]))
                classes = sample_complex_classes(picker, num_classes)
                img, mask, labels = gen_complex(
                    classes, np.random.SeedSequence([seed, salt, i, 1]), size, num_classes
                )
                yield DatasetExample(f"{split}_{i:04d}", img, labels, split, mask)

    return examples()


def write_manifest(root, records) -> None:
    """Writes manifest.jsonl under `root` atomically: one DatasetRecord per
    line, its fields in declaration order, unset optional paths left out."""
    lines = []
    for rec in records:
        entry = {k: v for k, v in asdict(rec).items() if v is not None}
        entry["labels"] = sorted(int(c) for c in rec.labels)
        lines.append(json.dumps(entry, separators=(",", ":")))
    write_atomic(Path(root) / "manifest.jsonl", "\n".join(lines) + "\n")


def write_dataset(examples, directory) -> list[DatasetRecord]:
    """Materializes images, masks and manifest.jsonl; `stc saliency` adds
    the saliency maps. Writes each example as it comes, so an iterator of
    them (`build_dataset`) is never held whole; returns the records. On an
    error it removes the files it wrote and the empty directories it made."""
    root = Path(directory)
    # deepest first, the directories this call creates
    made = [d for d in (root / "images", root / "masks", root, *root.parents) if not d.exists()]
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(exist_ok=True)
    records, written = [], []
    try:
        for ex in examples:
            image = f"images/{ex.name}.ppm"
            gt = None if ex.gt_mask is None else f"masks/{ex.name}.pgm"
            write_ppm(root / image, ex.image)
            written.append(image)
            if gt is not None:
                write_pgm(root / gt, ex.gt_mask)
                written.append(gt)
            records.append(DatasetRecord(image, ex.labels, ex.split, gt_mask=gt))
        write_manifest(root, records)
    except BaseException:
        for rel in written:
            (root / rel).unlink(missing_ok=True)
        for d in made:
            if not any(d.iterdir()):  # else it holds files this call did not write
                d.rmdir()
        raise
    return records


def read_dataset(directory) -> DatasetManifest:
    root = Path(directory)
    manifest_path = root / "manifest.jsonl"
    if not manifest_path.is_file():
        raise ValueError(f"no manifest found at {manifest_path}")
    records = {}  # by image stem, which names the image's pseudo-masks and saliency map
    for lineno, line in enumerate(manifest_path.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{manifest_path}:{lineno}"
        try:
            entry = json.loads(line)
        except (ValueError, RecursionError) as e:  # not JSON, not Unicode, or nested too deep
            raise ValueError(f"{where}: bad JSON ({e})") from e
        rec = _record_from(entry, where)
        for field in ("image", "saliency", "gt_mask"):
            rel = getattr(rec, field)
            if rel is None:
                continue
            if not isinstance(rel, str) or Path(rel).is_absolute() or ".." in Path(rel).parts:
                raise ValueError(f"{where}: {field} {rel!r} is not a path under the dataset root")
            if not os.path.isfile(root / rel):  # False, not OSError, for an overlong name
                raise ValueError(f"{where}: {field}: missing file {root / rel}")
        taken = records.setdefault(Path(rec.image).stem, rec)
        if taken is not rec:
            raise ValueError(f"{where}: image: {rec.image!r} has the stem of {taken.image!r}")
    return DatasetManifest(root, list(records.values()))
