"""Supervision objectives and target construction.

Targets and predictions are (C+1, h, w) channel-first maps whose channels
sum to 1 per pixel, or (N, C+1, h, w) batches of them; channel 0 is
background. Training computes the loss of a whole batch in one call
(`batch_ce_and_grad`); both supervision modes feed it soft targets, hard
masks as their one-hot maps. The soft-target loss treats
the resized saliency value as the foreground-class probability and its
complement as background. Logs are clamped at 1e-12.
"""
from __future__ import annotations

import numpy as np

from .ops import bilinear_resize, channel_softmax

_LOG_CLAMP = 1e-12


def build_simple_target(
    saliency: np.ndarray, class_id: int, h: int, w: int, num_classes: int
) -> np.ndarray:
    """Soft (C+1, h, w) target: channel class_id carries the resized saliency,
    channel 0 its complement, all other channels zero."""
    if not 1 <= class_id <= num_classes:
        raise ValueError(f"class id {class_id} outside 1..{num_classes}")
    s = np.clip(bilinear_resize(np.asarray(saliency, dtype=np.float64), h, w), 0.0, 1.0)
    target = np.zeros((num_classes + 1, h, w))
    target[class_id] = s
    target[0] = 1.0 - s
    return target


def multilabel_ce(pred: np.ndarray, target: np.ndarray) -> float:
    """Soft-target cross-entropy, averaged over pixels:
    -(1/(h*w)) sum_ij sum_l target[l,i,j] * log pred[l,i,j]."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    _, h, w = pred.shape
    return float(-(target * np.log(np.maximum(pred, _LOG_CLAMP))).sum() / (h * w))


def multilabel_ce_grad(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of multilabel_ce(channel_softmax(logits), target) w.r.t. logits:
    (softmax(logits) - target) / (h*w)."""
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs target {target.shape}")
    _, h, w = logits.shape
    return (channel_softmax(logits) - target) / (h * w)


def batch_ce_and_grad(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft-target cross-entropy of an (N, C+1, h, w) batch and its gradient
    w.r.t. the logits, from one softmax.

    The loss is the mean of the per-image multilabel_ce values. The gradient
    is the stack of the per-image multilabel_ce_grad maps, i.e. that of the
    sum of the per-image losses, so its scale does not depend on N. It
    computes in the logits' dtype, to which the targets are converted.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets, dtype=logits.dtype)
    if logits.ndim != 4 or logits.shape != targets.shape:
        raise ValueError(
            f"need matching (N, C+1, h, w) batches: logits {logits.shape} vs "
            f"targets {targets.shape}"
        )
    n, _, h, w = logits.shape
    probs = channel_softmax(logits)
    loss = float(-(targets * np.log(np.maximum(probs, _LOG_CLAMP))).sum() / (n * h * w))
    grad = probs
    grad -= targets
    grad /= h * w
    return loss, grad


def one_hot(mask: np.ndarray, num_classes: int) -> np.ndarray:
    """(h, w) int labels in 0..C -> (C+1, h, w) one-hot target."""
    mask = np.asarray(mask)
    if mask.min() < 0 or mask.max() > num_classes:
        raise ValueError(f"mask labels outside 0..{num_classes}")
    target = np.zeros((num_classes + 1,) + mask.shape)
    np.put_along_axis(target, mask[None], 1.0, axis=0)
    return target


def singlelabel_ce(pred: np.ndarray, mask: np.ndarray) -> float:
    """Hard-label cross-entropy; pointwise identical to multilabel_ce with a
    one-hot target built from the mask."""
    pred = np.asarray(pred, dtype=np.float64)
    mask = np.asarray(mask)
    c1, h, w = pred.shape
    if mask.shape != (h, w):
        raise ValueError(f"shape mismatch: pred {pred.shape} vs mask {mask.shape}")
    if mask.min() < 0 or mask.max() >= c1:
        raise ValueError(f"mask labels outside 0..{c1 - 1}")
    picked = np.take_along_axis(pred, mask[None], axis=0)[0]
    return float(-np.log(np.maximum(picked, _LOG_CLAMP)).sum() / (h * w))


def downsample_mask_nearest(mask: np.ndarray, h: int, w: int) -> np.ndarray:
    """Nearest-neighbor label downsampling, sampling each target cell's center."""
    mask = np.asarray(mask)
    sh, sw = mask.shape
    ys = np.minimum(((np.arange(h) + 0.5) * sh / h).astype(np.intp), sh - 1)
    xs = np.minimum(((np.arange(w) + 0.5) * sw / w).astype(np.intp), sw - 1)
    return mask[np.ix_(ys, xs)]
