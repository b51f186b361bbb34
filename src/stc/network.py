"""Tiny fully-convolutional segmentation network trained from scratch.

Architecture: [conv -> relu -> 2x2 mean pool] x 2 -> conv -> relu -> 1x1 conv
to C+1 channels, so logits come out at 1/4 of the input resolution. Inputs
are RGB in [0,1] and are standardized inside the forward pass: centered at
0.5 and divided by a nominal pixel std of 0.25. The layer stack is recovered
from parameter shapes, so a checkpoint alone is enough to run inference.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .ops import (
    avgpool2_backward,
    avgpool2_forward,
    bilinear_resize,
    channel_softmax,
    conv2d_backward,
    conv2d_batch_sums,
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


def worker_count() -> int:
    """Worker cap from STC_THREADS; defaults to the machine core count."""
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


def row_ranges(n: int, workers: int) -> list[slice]:
    """min(workers, n) contiguous, disjoint row ranges covering 0..n in
    order, their sizes differing by at most one (one empty range if n is 0)."""
    parts = max(1, min(workers, n))
    return [slice(j * n // parts, (j + 1) * n // parts) for j in range(parts)]


def _parallel_map(fn, items) -> list:
    """[fn(x) for x in items], on up to `worker_count()` threads: the one
    way `stc` runs work on threads.

    `items` is cut into the contiguous chunks `row_ranges` gives. The calling
    thread runs the first chunk and a helper thread each other one; the
    helpers live only for this call. Returns the results in order once every
    chunk has ended, or then re-raises the first error, the calling thread's
    own first. With one chunk it creates no thread.

    A train step maps over the row ranges of its batch: each range runs the
    whole training forward, and later the whole backward, into its rows of
    the full-batch arrays, which the calling thread takes from `StepBuffers`
    first, so `take` needs no lock and no two threads write one row. What
    mixes images runs on the calling thread, over the full arrays, once the
    ranges have ended: the loss, and the batch sums of each parameter
    gradient (`ops.conv2d_batch_sums`), added in the order of a single
    range. So a step gives the same bits for any number of workers.
    """
    items = list(items)
    own, *rest = [items[r] for r in row_ranges(len(items), worker_count())]
    done = [(None, None)] * len(rest)  # each helper's (results, error)

    def run(j: int, chunk: list) -> None:
        try:
            done[j] = [fn(x) for x in chunk], None
        except BaseException as e:
            done[j] = None, e

    helpers = [threading.Thread(target=run, args=(j, c)) for j, c in enumerate(rest)]
    for t in helpers:
        t.start()
    try:
        results = [fn(x) for x in own]
    finally:
        for t in helpers:
            t.join()
    for chunk, error in done:
        if error is not None:
            raise error
        results += chunk
    return results


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
      interior, unless it is an unpooled conv whose output im2col copies
      there. Dead once im2col has read it; backward's col2im then
      scatter-adds onto it, so the input gradient is its interior, and the
      next step's im2col zeroes its border again.
    - `cols` (n, c*k*k, h*w): the patch matrix (k > 1; at k == 1 it is a
      reshape of the input). Kept for the kernel gradient, then overwritten
      by `W^T @ g` in backward.
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


def _interior(padded: np.ndarray, k: int) -> np.ndarray:
    p = k // 2
    return padded[:, :, p : padded.shape[2] - p, p : padded.shape[3] - p]


def _checked_images(params: ParamSet, images) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    stride = output_stride(params)
    _, _, h, w = images.shape
    if h % stride or w % stride:
        raise ValueError(f"spatial dims {h}x{w} not divisible by output stride {stride}")
    return images


def _step_arrays(params: ParamSet, shape, buffers: StepBuffers) -> dict[str, np.ndarray]:
    """The full-batch arrays of one training forward, taken from `buffers`:
    per conv i, `conv{i}.padded`, `.cols` and `.out` (see StepBuffers) and
    `.in`, the view the layer before writes conv i's input into; `head.in`
    likewise; and `logits`, a new array."""
    n, _, h, w = shape
    arrays = {}
    src = None  # the output of the block before, when it does not pool
    for i in range(1, num_blocks(params) + 1):
        cout, c, k, _ = params[f"conv{i}.weight"].value.shape
        padded = arrays[f"conv{i}.padded"] = _padded(buffers, f"conv{i}", (n, c, h, w), k)
        a = arrays[f"conv{i}.in"] = _interior(padded, k) if src is None else src
        # im2col's patch matrix at k == 1 is a reshape of its input
        arrays[f"conv{i}.cols"] = (
            buffers.take(f"conv{i}.cols", (n, c * k * k, h * w)) if k > 1
            else a.reshape(n, c, h * w)
        )
        src = arrays[f"conv{i}.out"] = buffers.take(f"conv{i}.out", (n, cout, h, w))
        if i <= _MAX_POOLS:
            h, w = h // 2, w // 2
            src = None
    classes, c, k, _ = params["head.weight"].value.shape
    if src is None:
        src = _interior(_padded(buffers, "head", (n, c, h, w), k), k)
    arrays["head.in"] = src
    arrays["logits"] = np.empty((n, classes, h, w))
    return arrays


def _forward_rows(params: ParamSet, images: np.ndarray, arrays, rows: slice) -> np.ndarray:
    """The forward pass of images[rows]; returns their logits. With `arrays`
    (from _step_arrays) every result goes into these rows of them; with None
    (inference) into new arrays, and no patch matrix is kept."""

    def into(name: str):
        return None if arrays is None else arrays[name][rows]

    nb = num_blocks(params)
    a = np.subtract(images[rows], _INPUT_MEAN, out=into("conv1.in"))
    a /= _INPUT_STD
    for i in range(1, nb + 1):
        weight = params[f"conv{i}.weight"].value
        k = weight.shape[2]
        cols = None
        if arrays is not None:
            cols = im2col(a, k, out=into(f"conv{i}.cols"), padded=into(f"conv{i}.padded"))
        z = conv2d_forward(
            a, weight, params[f"conv{i}.bias"].value, cols=cols, out=into(f"conv{i}.out")
        )
        r = relu_forward(z, out=z)
        if i <= _MAX_POOLS:
            a = avgpool2_forward(r, out=into(f"conv{i + 1}.in" if i < nb else "head.in"))
        else:
            a = r
    return conv2d_forward(
        a, params["head.weight"].value, params["head.bias"].value, out=into("logits")
    )


def _forward_cached(params: ParamSet, images: np.ndarray, buffers: StepBuffers | None = None):
    """Training forward: logits plus the cache `backward` consumes.

    Each row range of the batch (see `_parallel_map`) runs the whole
    forward into its rows of the full-batch arrays, which the calling thread
    takes from `buffers` (fresh ones if None) first. Each conv's patch matrix is built once and kept in the cache, so backward
    reuses it for the kernel gradient instead of rebuilding it. Pass the
    same buffers to `backward`. Their contents, the cache's arrays among
    them, stay valid until the next step that uses them.
    """
    images = _checked_images(params, images)
    buffers = buffers or StepBuffers()
    arrays = _step_arrays(params, images.shape, buffers)
    _parallel_map(
        lambda rows: _forward_rows(params, images, arrays, rows),
        row_ranges(images.shape[0], worker_count()),
    )
    cache = [
        (arrays[f"conv{i}.in"], arrays[f"conv{i}.out"], arrays[f"conv{i}.cols"])
        for i in range(1, num_blocks(params) + 1)
    ]
    cache.append(arrays["head.in"])
    return arrays["logits"], cache


def forward(params: ParamSet, images: np.ndarray) -> np.ndarray:
    """images: (N, 3, H, W) with H, W divisible by 4 -> logits (N, C+1, h, w)."""
    return _forward_rows(params, _checked_images(params, images), None, slice(None))


def backward(
    params: ParamSet, cache, grad_logits: np.ndarray, buffers: StepBuffers | None = None
) -> None:
    """Accumulates parameter gradients (+=) for the cached forward pass.

    Consumes the cache. Each row range of the batch (see `_parallel_map`) runs
    the whole backward on its rows, up to each layer's per-image
    kernel-gradient products; once the ranges have joined, the calling
    thread sums those and the upstream gradients over the whole batch
    (`conv2d_batch_sums`). The input gradient of conv1 is not computed:
    the image has no parameters. With the buffers the forward used, each
    layer's large temporaries land in arrays the forward is done with (see
    StepBuffers); with None they are new arrays.
    """
    buffers = buffers or StepBuffers()
    take = buffers.take
    n = grad_logits.shape[0]
    head_in = cache.pop()
    _, c, h, w = head_in.shape
    head_weight = params["head.weight"].value
    head_kernel_grad = take("head.kernel_grad", (n, head_weight.shape[0], c))
    head_input_grad = take("head.input_grad", (n, c, h * w))
    # per layer: (name, kernel-gradient products, upstream gradient), full batch
    sums = [("head", head_kernel_grad, grad_logits)]
    layers = []
    # the input gradient of the layer above, where its col2im leaves it (at
    # k == 1, a reshape of its patch matrix): an unpooled block's upstream
    above = head_input_grad.reshape(head_in.shape)
    for i in range(num_blocks(params), 0, -1):
        a_in, r, cols = cache.pop()
        weight = params[f"conv{i}.weight"].value
        cout, c, k, _ = weight.shape
        grad = take(f"conv{i}.grad", r.shape) if i <= _MAX_POOLS else None
        kernel_grad = take(f"conv{i}.kernel_grad", (n, cout, c * k * k))
        padded = _padded(buffers, f"conv{i}", a_in.shape, k)
        layers.append((i, weight, a_in, r, cols, grad, kernel_grad, padded))
        sums.append((f"conv{i}", kernel_grad, above if grad is None else grad))
        above = cols.reshape(a_in.shape) if k == 1 else _interior(padded, k)

    def backward_rows(rows: slice) -> None:
        g, _, _ = conv2d_backward(
            head_in[rows], head_weight, grad_logits[rows], batch_sums=False,
            kernel_out=head_kernel_grad[rows], cols_out=head_input_grad[rows],
        )
        for i, weight, a_in, r, cols, grad, kernel_grad, padded in layers:
            if grad is not None:
                g = avgpool2_backward(g, out=grad[rows])
            g = relu_backward(r[rows], g, out=g)
            cols_rows = cols[rows]
            g, _, _ = conv2d_backward(
                a_in[rows], weight, g, cols=cols_rows, input_grad=i > 1, batch_sums=False,
                kernel_out=kernel_grad[rows], cols_out=cols_rows, input_out=padded[rows],
            )

    _parallel_map(backward_rows, row_ranges(n, worker_count()))
    for name, products, upstream in sums:
        gk, gb = conv2d_batch_sums(products, upstream, params[f"{name}.weight"].value.shape)
        params[f"{name}.weight"].grad += gk
        params[f"{name}.bias"].grad += gb


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
