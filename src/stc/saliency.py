"""Bottom-up salient-object detection for simple images.

Per-pixel saliency is the RGB distance between the locally smoothed color
(5x5 box blur) and the mean color of the image's border frame, min-max
normalized to [0,1]. No class supervision is involved anywhere.
"""
from __future__ import annotations

import numpy as np

_BLUR = 5
_BORDER_FRACTION = 0.1


def normalize_saliency(raw: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0,1]; a constant map normalizes to all zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    lo = raw.min()
    hi = raw.max()
    if hi == lo:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def _box_blur(image: np.ndarray, k: int) -> np.ndarray:
    """Mean of each k x k window of the edge-padded image: k*k slice-adds in
    (i, j) order, then one divide, the arithmetic of numpy's window mean."""
    h, w, _ = image.shape
    p = k // 2
    padded = np.pad(image, ((p, p), (p, p), (0, 0)), mode="edge")
    out = np.zeros(image.shape)
    for i in range(k):
        for j in range(k):
            out += padded[i : i + h, j : j + w]
    out /= k * k
    return out


def compute_saliency(image: np.ndarray) -> np.ndarray:
    """image: (H, W, 3) floats in [0,1] -> (H, W) saliency in [0,1]."""
    image = np.asarray(image, dtype=np.float64)
    h, w, _ = image.shape
    smoothed = _box_blur(image, _BLUR)
    b = max(1, round(_BORDER_FRACTION * min(h, w)))
    ring = np.zeros((h, w), dtype=bool)
    ring[:b, :] = ring[-b:, :] = True
    ring[:, :b] = ring[:, -b:] = True
    border_mean = image[ring].mean(axis=0)
    dist = np.sqrt(((smoothed - border_mean) ** 2).sum(axis=-1))
    return normalize_saliency(dist)
