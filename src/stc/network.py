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


class StepBuffers:
    """The arrays a train step writes its large temporaries into, reused by
    every step of one `train_stage`, as Caffe keeps a layer's blobs.

    An array is allocated on first use (the first step, at full batch size)
    and again only if its trailing shape changes or a larger batch asks for
    it. A smaller batch gets the leading rows (`buf[:n]`, still contiguous).
    Without reuse, glibc hands the freed temporaries back to the OS and each
    step page-faults them in again.

    For conv i, named `conv{i}.*` (n = batch, c/cout = in/out channels,
    (h, w) = the conv's input size, p = k//2):

    - `padded` (n, c, h+2p, w+2p): the conv's input, zero-padded. The layer
      before writes its output (the standardized images, for conv1) into the
      interior. Dead once im2col has read it; backward's col2im then
      scatter-adds onto it, so the input gradient is its interior, and the
      next step's im2col zeroes its border again.
    - `cols` (n, c*k*k, h*w): the patch matrix. Kept for the kernel
      gradient, then overwritten by `W^T @ g` in backward.
    - `out` (n, cout, h, w): the conv output, ReLU applied in place. The
      cache keeps this ReLU output `r` for the ReLU mask (r > 0 iff z > 0).
    - `grad` (n, cout, h, w), pooled blocks only: the gradient at the conv
      output. Pool backward writes it, then ReLU backward runs in place.
    - `kernel_grad` (n, cout, c*k*k): per-image kernel-gradient products,
      summed into the parameter gradient.

    The head (1x1) has `head.kernel_grad` and `head.input_grad`, its
    `W^T @ g`, which an unpooled last block takes as its `grad`: the head's
    patch matrix is its input itself, the ReLU output that backward still
    needs. `head.padded` is the head's input when the last block pools.
    `images` is the batch of crops `train_stage` stacks. The logits and the
    loss stay new arrays: they are small, and the caller keeps the logits.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape) -> np.ndarray:
        """The leading shape[0] rows of the array called `name`."""
        shape = tuple(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.shape[1:] != shape[1:] or buf.shape[0] < shape[0]:
            buf = self._arrays[name] = np.empty(shape)
        return buf[: shape[0]]

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> the whole array, as allocated."""
        return dict(self._arrays)


def _padded(buffers: StepBuffers, layer: str, shape, k: int) -> np.ndarray:
    n, c, h, w = shape
    p = k // 2
    return buffers.take(f"{layer}.padded", (n, c, h + 2 * p, w + 2 * p))


def _input_of(buffers: StepBuffers | None, layer: str, shape, k: int):
    """Where the layer before writes `layer`'s input: the interior of its
    padded buffer, or None (a new array) without buffers."""
    if buffers is None:
        return None
    p = k // 2
    _, _, h, w = shape
    return _padded(buffers, layer, shape, k)[:, :, p : p + h, p : p + w]


def _forward_cached(params: ParamSet, images: np.ndarray, buffers: StepBuffers | None = None):
    """Training forward: logits plus the cache `backward` consumes.

    Each conv's patch matrix is built once here and kept in the cache, so
    backward reuses it for the kernel gradient instead of rebuilding it.
    The temporaries go into `buffers` (fresh ones if None); pass the same
    buffers to `backward`. Their contents, the cache's arrays among them,
    stay valid until the next step that uses them.
    """
    return _forward(params, images, buffers or StepBuffers())


def _forward(params: ParamSet, images: np.ndarray, buffers: StepBuffers | None):
    """With buffers None (inference) every result is a new array and no
    cache is kept."""
    keep = buffers is not None
    nb = num_blocks(params)
    stride = output_stride(params)
    n, _, h, w = images.shape
    if h % stride or w % stride:
        raise ValueError(f"spatial dims {h}x{w} not divisible by output stride {stride}")
    images = np.asarray(images, dtype=np.float64)
    k1 = params["conv1.weight"].value.shape[2]
    a = np.subtract(images, _INPUT_MEAN, out=_input_of(buffers, "conv1", images.shape, k1))
    a /= _INPUT_STD
    cache = []
    for i in range(1, nb + 1):
        weight = params[f"conv{i}.weight"].value
        cout, c, k, _ = weight.shape
        cols = None
        if keep:
            cols = im2col(
                a, k,
                out=buffers.take(f"conv{i}.cols", (n, c * k * k, h * w)),
                padded=_padded(buffers, f"conv{i}", a.shape, k),
            )
        z = conv2d_forward(
            a, weight, params[f"conv{i}.bias"].value, cols=cols,
            out=buffers.take(f"conv{i}.out", (n, cout, h, w)) if keep else None,
        )
        r = relu_forward(z, out=z)
        if keep:
            cache.append((a, r, cols))
        if i <= _MAX_POOLS:
            h, w = h // 2, w // 2
            nxt = f"conv{i + 1}" if i < nb else "head"
            k_next = params[f"{nxt}.weight"].value.shape[2]
            a = avgpool2_forward(r, out=_input_of(buffers, nxt, (n, cout, h, w), k_next))
        else:
            a = r
    logits = conv2d_forward(a, params["head.weight"].value, params["head.bias"].value)
    if keep:
        cache.append(a)
    return logits, cache


def forward(params: ParamSet, images: np.ndarray) -> np.ndarray:
    """images: (N, 3, H, W) with H, W divisible by 4 -> logits (N, C+1, h, w)."""
    logits, _ = _forward(params, images, None)
    return logits


def backward(
    params: ParamSet, cache, grad_logits: np.ndarray, buffers: StepBuffers | None = None
) -> None:
    """Accumulates parameter gradients (+=) for the cached forward pass.

    Consumes the cache, popping one layer's entry at a time. The input
    gradient of conv1 is not computed: the image has no parameters. With
    the buffers the forward used, each layer's large temporaries land in
    arrays the forward is done with (see StepBuffers); with None they are
    new arrays.
    """
    buffers = buffers or StepBuffers()
    take = buffers.take
    nb = num_blocks(params)
    head_in = cache.pop()
    n, c, h, w = head_in.shape
    head_weight = params["head.weight"].value
    g, gk, gb = conv2d_backward(
        head_in, head_weight, grad_logits,
        kernel_out=take("head.kernel_grad", (n, head_weight.shape[0], c)),
        cols_out=take("head.input_grad", (n, c, h * w)),
    )
    params["head.weight"].grad += gk
    params["head.bias"].grad += gb
    for i in range(nb, 0, -1):
        a_in, r, cols = cache.pop()
        if i <= _MAX_POOLS:
            g = avgpool2_backward(g, out=take(f"conv{i}.grad", r.shape))
        g = relu_backward(r, g, out=g)
        weight = params[f"conv{i}.weight"].value
        cout, c, k, _ = weight.shape
        g, gk, gb = conv2d_backward(
            a_in, weight, g, cols=cols, input_grad=i > 1,
            kernel_out=take(f"conv{i}.kernel_grad", (a_in.shape[0], cout, c * k * k)),
            cols_out=cols,
            input_out=_padded(buffers, f"conv{i}", a_in.shape, k),
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
