"""Tiny fully-convolutional segmentation network trained from scratch.

Architecture: [conv -> relu -> 2x2 mean pool] x 2 -> conv -> relu -> 1x1 conv
to C+1 channels, so logits come out at 1/4 of the input resolution. Inputs
are RGB in [0,1] and are standardized inside the forward pass: centered at
0.5 and divided by a nominal pixel std of 0.25. The layer stack is recovered
from parameter shapes, so a checkpoint alone is enough to run inference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (
    avgpool2_backward,
    avgpool2_forward,
    bilinear_resize,
    channel_softmax,
    conv2d_backward,
    conv2d_forward,
    im2col,
    relu_backward,
    relu_forward,
)
from .params import ParamSet

_INPUT_CHANNELS = 3
_MAX_POOLS = 2
_INPUT_MEAN = 0.5
_INPUT_STD = 0.25


@dataclass(frozen=True)
class NetworkConfig:
    num_classes: int
    channels: tuple[int, ...] = (16, 32, 64)
    kernel_size: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not self.channels:
            raise ValueError("need at least one block")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd and positive")


def init_network(config: NetworkConfig) -> ParamSet:
    """He-scaled random conv weights (variance 2/fan_in), zero biases."""
    rng = np.random.default_rng(config.seed)
    params = ParamSet()
    k = config.kernel_size
    cin = _INPUT_CHANNELS
    for i, cout in enumerate(config.channels, start=1):
        fan_in = cin * k * k
        params.add(
            f"conv{i}.weight",
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, k, k)),
        )
        params.add(f"conv{i}.bias", np.zeros(cout))
        cin = cout
    params.add(
        "head.weight",
        rng.normal(0.0, np.sqrt(2.0 / cin), size=(config.num_classes + 1, cin, 1, 1)),
    )
    params.add("head.bias", np.zeros(config.num_classes + 1))
    return params


def num_blocks(params: ParamSet) -> int:
    n = 0
    while f"conv{n + 1}.weight" in params:
        n += 1
    return n


def num_classes_of(params: ParamSet) -> int:
    return params["head.bias"].value.shape[0] - 1


def output_stride(params: ParamSet) -> int:
    return 2 ** min(_MAX_POOLS, num_blocks(params))


def _forward_cached(params: ParamSet, images: np.ndarray):
    """Training forward: logits plus the cache `backward` consumes.

    Each conv's patch matrix is built once here and kept in the cache, so
    backward reuses it for the kernel gradient instead of rebuilding it.
    """
    return _forward(params, images, keep=True)


def _forward(params: ParamSet, images: np.ndarray, keep: bool):
    nb = num_blocks(params)
    stride = output_stride(params)
    _, _, h, w = images.shape
    if h % stride or w % stride:
        raise ValueError(f"spatial dims {h}x{w} not divisible by output stride {stride}")
    a = (np.asarray(images, dtype=np.float64) - _INPUT_MEAN) / _INPUT_STD
    cache = []
    for i in range(1, nb + 1):
        weight = params[f"conv{i}.weight"].value
        cols = im2col(a, weight.shape[2]) if keep else None
        z = conv2d_forward(a, weight, params[f"conv{i}.bias"].value, cols=cols)
        if keep:
            cache.append((a, z, cols))
        r = relu_forward(z)
        a = avgpool2_forward(r) if i <= _MAX_POOLS else r
    logits = conv2d_forward(a, params["head.weight"].value, params["head.bias"].value)
    if keep:
        cache.append(a)
    return logits, cache


def forward(params: ParamSet, images: np.ndarray) -> np.ndarray:
    """images: (N, 3, H, W) with H, W divisible by 4 -> logits (N, C+1, h, w)."""
    logits, _ = _forward(params, images, keep=False)
    return logits


def backward(params: ParamSet, cache, grad_logits: np.ndarray) -> None:
    """Accumulates parameter gradients (+=) for the cached forward pass.

    Consumes the cache, popping one layer's entry at a time, so each patch
    matrix is freed once its layer is done rather than at the end of the
    pass. The input gradient of conv1 is not computed: the image has no
    parameters.
    """
    nb = num_blocks(params)
    head_in = cache.pop()
    g, gk, gb = conv2d_backward(head_in, params["head.weight"].value, grad_logits)
    params["head.weight"].grad += gk
    params["head.bias"].grad += gb
    for i in range(nb, 0, -1):
        a_in, z, cols = cache.pop()
        if i <= _MAX_POOLS:
            g = avgpool2_backward(g)
        g = relu_backward(z, g)
        g, gk, gb = conv2d_backward(
            a_in, params[f"conv{i}.weight"].value, g, cols=cols, input_grad=i > 1
        )
        params[f"conv{i}.weight"].grad += gk
        params[f"conv{i}.bias"].grad += gb


def predict(params: ParamSet, image: np.ndarray) -> np.ndarray:
    """Full-resolution class distribution for one (H, W, 3) image.

    Softmax at the logit resolution, bilinear upsample per channel, then
    per-pixel renormalization to sum exactly 1.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {image.shape}")
    h, w, _ = image.shape
    logits = forward(params, image.transpose(2, 0, 1)[None])[0]
    probs = channel_softmax(logits)
    up = bilinear_resize(probs, h, w)
    return up / up.sum(axis=0, keepdims=True)
