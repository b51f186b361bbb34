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
    the full-batch arrays `step_arrays` gives, so no two threads write one
    row. What mixes images runs on the calling thread, over the full
    arrays, once the ranges have ended: the loss, and the batch sums of each
    parameter gradient (`ops.conv2d_batch_sums`), added in the order of a
    single range. So a step gives the same bits for any number of workers.
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


def step_arrays(params: ParamSet, shape) -> dict[str, np.ndarray]:
    """Every array of a train step on a batch of `shape` (n, 3, h, w), by
    name. `train_stage` allocates them once, at full batch size, and every
    step writes into them, as Caffe keeps a layer's blobs; a smaller batch
    takes the leading rows (`a[:n]`, still contiguous). Without reuse,
    glibc hands the freed temporaries back to the OS and each step
    page-faults them in again. The forward's arrays are the cache that
    `backward` reads.

    `images` is the batch of crops. For conv i, named `conv{i}.*` (c/cout =
    in/out channels, (h, w) = the conv's input size, p = k//2):

    - `padded` (n, c, h+2p, w+2p): the conv's input, zero-padded. The layer
      before writes its output (the standardized images, for conv1) into the
      interior, unless it is an unpooled conv whose output im2col copies
      there. Dead once im2col has read it; backward's col2im then
      scatter-adds onto it, so the input gradient is its interior, and the
      next step's im2col zeroes its border again.
    - `in`: the view the layer before writes conv i's input into.
    - `cols` (n, c*k*k, h*w): the patch matrix (at k == 1 a reshape of
      `in`). Kept for the kernel gradient, then overwritten by `W^T @ g` in
      backward.
    - `out` (n, cout, h, w): the conv output, ReLU applied in place. Backward
      takes the ReLU mask from it (r > 0 iff z > 0).
    - `grad` (n, cout, h, w), pooled blocks only: the gradient at the conv
      output. Pool backward writes it, then ReLU backward runs in place.
    - `kernel_grad` (n, cout, c*k*k): per-image kernel-gradient products,
      summed into the parameter gradient.

    The head (1x1) has `head.in` (the last conv's `out`, or a new array when
    the last block pools), `head.kernel_grad` and `head.input_grad`, its
    `W^T @ g`, which an unpooled last block takes as its `grad`: the head's
    patch matrix is its input itself, the ReLU output that backward still
    needs. `logits` (n, C+1, h/s, w/s), s the output stride, is the
    forward's result.
    """
    n, _, h, w = shape
    arrays = {"images": np.empty(shape)}
    src = None  # the output of the block before, when it does not pool
    for i in range(1, num_blocks(params) + 1):
        cout, c, k, _ = params[f"conv{i}.weight"].value.shape
        p = k // 2
        padded = arrays[f"conv{i}.padded"] = np.empty((n, c, h + 2 * p, w + 2 * p))
        a = arrays[f"conv{i}.in"] = _interior(padded, k) if src is None else src
        # im2col's patch matrix at k == 1 is a reshape of its input
        arrays[f"conv{i}.cols"] = (
            np.empty((n, c * k * k, h * w)) if k > 1 else a.reshape(n, c, h * w)
        )
        src = arrays[f"conv{i}.out"] = np.empty((n, cout, h, w))
        arrays[f"conv{i}.kernel_grad"] = np.empty((n, cout, c * k * k))
        if i <= _MAX_POOLS:
            arrays[f"conv{i}.grad"] = np.empty((n, cout, h, w))
            h, w = h // 2, w // 2
            src = None
    classes, c, _, _ = params["head.weight"].value.shape
    arrays["head.in"] = np.empty((n, c, h, w)) if src is None else src
    arrays["head.kernel_grad"] = np.empty((n, classes, c))
    arrays["head.input_grad"] = np.empty((n, c, h * w))
    arrays["logits"] = np.empty((n, classes, h, w))
    return arrays


def _forward_rows(params: ParamSet, images: np.ndarray, arrays, rows: slice) -> np.ndarray:
    """The forward pass of images[rows]; returns their logits. With `arrays`
    (from step_arrays) every result goes into these rows of them; with None
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


def _forward_cached(params: ParamSet, images: np.ndarray, arrays) -> np.ndarray:
    """Training forward into `arrays` (`step_arrays`, cut to the batch's
    rows); returns `arrays["logits"]`.

    Each row range of the batch (see `_parallel_map`) runs the whole forward
    into its rows of the arrays. Each conv's patch matrix is built once and
    kept in `cols`, so backward reuses it for the kernel gradient instead of
    rebuilding it. Pass the same arrays to `backward`; their contents stay
    valid until the next step writes them.
    """
    images = _checked_images(params, images)
    _parallel_map(
        lambda rows: _forward_rows(params, images, arrays, rows),
        row_ranges(images.shape[0], worker_count()),
    )
    return arrays["logits"]


def forward(params: ParamSet, images: np.ndarray) -> np.ndarray:
    """images: (N, 3, H, W) with H, W divisible by 4 -> logits (N, C+1, h, w)."""
    return _forward_rows(params, _checked_images(params, images), None, slice(None))


def backward(params: ParamSet, arrays, grad_logits: np.ndarray) -> None:
    """Accumulates parameter gradients (+=) for the forward pass whose
    `arrays` `_forward_cached` filled.

    Each row range of the batch (see `_parallel_map`) runs the whole
    backward on its rows, up to each layer's per-image kernel-gradient
    products; once the ranges have joined, the calling thread sums those and
    the upstream gradients over the whole batch (`conv2d_batch_sums`). The
    input gradient of conv1 is not computed: the image has no parameters.
    Each layer's large temporaries land in arrays the forward is done with
    (see `step_arrays`).
    """
    nb = num_blocks(params)
    # per layer: (name, kernel-gradient products, upstream gradient), full batch
    sums = [("head", arrays["head.kernel_grad"], grad_logits)]
    # the input gradient of the layer above, where its col2im leaves it (at
    # k == 1, in its patch matrix, a reshape of its input): an unpooled
    # block's upstream
    above = arrays["head.input_grad"].reshape(arrays["head.in"].shape)
    for i in range(nb, 0, -1):
        name, k = f"conv{i}", params[f"conv{i}.weight"].value.shape[2]
        sums.append((name, arrays[f"{name}.kernel_grad"], arrays.get(f"{name}.grad", above)))
        above = arrays[f"{name}.in"] if k == 1 else _interior(arrays[f"{name}.padded"], k)

    def backward_rows(rows: slice) -> None:
        def rows_of(name: str) -> np.ndarray:
            return arrays[name][rows]

        g, _, _ = conv2d_backward(
            rows_of("head.in"), params["head.weight"].value, grad_logits[rows],
            batch_sums=False, kernel_out=rows_of("head.kernel_grad"),
            cols_out=rows_of("head.input_grad"),
        )
        for i in range(nb, 0, -1):
            if i <= _MAX_POOLS:
                g = avgpool2_backward(g, out=rows_of(f"conv{i}.grad"))
            g = relu_backward(rows_of(f"conv{i}.out"), g, out=g)
            cols = rows_of(f"conv{i}.cols")
            g, _, _ = conv2d_backward(
                rows_of(f"conv{i}.in"), params[f"conv{i}.weight"].value, g, cols=cols,
                input_grad=i > 1, batch_sums=False, kernel_out=rows_of(f"conv{i}.kernel_grad"),
                cols_out=cols, input_out=rows_of(f"conv{i}.padded"),
            )

    _parallel_map(backward_rows, row_ranges(grad_logits.shape[0], worker_count()))
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
