"""Pseudo-label mask generation from model predictions.

Plain per-pixel argmax, plus the label-restricted variants that inject
image-level supervision: simple images restrict to {background, class},
complex images to their label set with background adjoined. Ties always go
to the smallest label id. Pseudo-masks are uint8 (H, W) label ids, as PGM
stores them, so a label id above 255 is rejected; `argmax_full`, which only
evaluation uses, gives int64.

Relabeling runs the inference route of `network.predict`: `predict` is the
per-channel `bilinear_resize` of `_stride_probs`, and relabeling resizes
only the allowed channels of the same array, so its masks are
`argmax_restricted(predict(...))` by construction.
"""
from __future__ import annotations

import numpy as np

from .network import _stride_probs
from .ops import bilinear_resize
from .params import ParamSet


def argmax_full(pred: np.ndarray) -> np.ndarray:
    """(C+1, h, w) probabilities -> (h, w) labels; ties -> smallest id."""
    return np.argmax(np.asarray(pred), axis=0).astype(np.int64)


def _allowed_ids(allowed, channels: int) -> np.ndarray:
    """The sorted allowed label ids as uint8, once they hold background 0,
    lie below `channels` and fit a uint8 mask."""
    ids = sorted(set(int(a) for a in allowed))
    if not ids or ids[0] != 0:
        raise ValueError(f"allowed set must be non-empty and contain background 0, got {ids}")
    if ids[-1] >= channels:
        raise ValueError(f"allowed label {ids[-1]} outside 0..{channels - 1}")
    if ids[-1] > 255:
        raise ValueError(f"allowed label {ids[-1]} does not fit a uint8 mask (0..255)")
    return np.asarray(ids, dtype=np.uint8)


def argmax_restricted(pred: np.ndarray, allowed) -> np.ndarray:
    """uint8 argmax over the allowed label subset only; background must be
    allowed."""
    pred = np.asarray(pred)
    lut = _allowed_ids(allowed, pred.shape[0])
    return lut[np.argmax(pred[lut], axis=0)]


def _relabel(params: ParamSet, image, allowed) -> np.ndarray:
    """`argmax_restricted(predict(params, image), allowed)`, upsampling only
    the allowed channels."""
    probs = _stride_probs(params, image)
    lut = _allowed_ids(allowed, probs.shape[0])
    up = bilinear_resize(probs[lut], *np.shape(image)[:2])
    return lut[np.argmax(up, axis=0)]


def relabel_simple(params: ParamSet, image: np.ndarray, class_id: int) -> np.ndarray:
    """Pseudo-mask for a single-label image: argmax over {0, class_id}."""
    if class_id < 1:
        raise ValueError(f"class id must be >= 1, got {class_id}")
    return _relabel(params, image, {0, class_id})


def relabel_complex(params: ParamSet, image: np.ndarray, labels) -> np.ndarray:
    """Pseudo-mask restricted to the image-level label set plus background."""
    labels = set(int(c) for c in labels)
    if not labels:
        raise ValueError("label set must be non-empty")
    return _relabel(params, image, labels | {0})
