"""Tiny fully-convolutional segmentation network trained from scratch.

Architecture: [3x3 conv -> relu -> 2x2 mean pool] x 2 -> 3x3 conv -> relu ->
1x1 conv to C+1 channels, so logits come out at 1/4 of the input resolution.
Inputs are RGB in [0,1] and are standardized inside the forward pass:
centered at 0.5 and divided by a nominal pixel std of 0.25. The layer stack
is recovered from parameter shapes, so a checkpoint alone is enough to run
inference. `forward` computes in the dtype of the weights: float64 as built
and loaded (the finite-difference gradient checks run it so), float32 in
the copy a train step runs through. Inference (`predict`, and the relabeling
in `pseudolabel`) always runs a float32 copy, so its plans are float32, and
takes the softmax of the small stride-4 logits in float64 (`_stride_probs`),
which `predict` upsamples without renormalizing. `_check_size` is the one
image-size rule.
"""
from __future__ import annotations

import math
import mmap
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
_KERNEL_SIZE = 3  # every conv block is 3x3, as every conv of VGG-16 (DeepLab's trunk)
_BLOCKS = 3  # conv1 and conv2 pool 2x2, conv3 does not
OUTPUT_STRIDE = 4
_INPUT_MEAN = 0.5
_INPUT_STD = 0.25


@dataclass(frozen=True)
class NetworkConfig:
    num_classes: int
    channels: tuple[int, ...] = (16, 32, 64)
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if len(self.channels) != _BLOCKS:
            raise ValueError(f"channels must be {_BLOCKS} widths, got {self.channels}")
        if min(self.channels) < 1:
            raise ValueError(f"channels must all be >= 1, got {self.channels}")


def _layer_shapes(num_classes: int, channels) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's (name, shape), in order: the one definition of the
    layer stack. Conv i is `conv{i}.weight` (cout, cin, 3, 3), cin = 3 for
    conv1, and `conv{i}.bias` (cout,); the head is a 1x1 conv to C+1."""
    k, cin, shapes = _KERNEL_SIZE, _INPUT_CHANNELS, []
    for i, cout in enumerate(channels, start=1):
        shapes += [(f"conv{i}.weight", (cout, cin, k, k)), (f"conv{i}.bias", (cout,))]
        cin = cout
    c = num_classes + 1
    return shapes + [("head.weight", (c, cin, 1, 1)), ("head.bias", (c,))]


def init_network(config: NetworkConfig) -> ParamSet:
    """He-scaled random conv weights (variance 2/fan_in), zero biases."""
    rng = np.random.default_rng(config.seed)
    params = ParamSet()
    for name, shape in _layer_shapes(config.num_classes, config.channels):
        if name.endswith(".weight"):
            params.add(name, rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), size=shape))
        else:
            params.add(name, np.zeros(shape))
    return params


def check_layers(params: ParamSet) -> tuple[int, tuple[int, ...]]:
    """(num_classes, channels), read off `head.weight` and the conv weights,
    once `params` has just the names and shapes `_layer_shapes` gives for
    them; else a ValueError names the first missing, extra or misshapen one."""
    blocks = range(1, _BLOCKS + 1)
    for name in [*(f"conv{i}.weight" for i in blocks), "head.weight"]:
        if name not in params:
            raise ValueError(f"missing {name}")
    head = params["head.weight"].value.shape
    num_classes = (head[0] if head else 0) - 1
    if num_classes < 1:
        raise ValueError(f"head.weight has shape {head}: the head needs C+1 >= 2 output channels")
    channels = tuple((params[f"conv{i}.weight"].value.shape or (0,))[0] for i in blocks)
    want = dict(_layer_shapes(num_classes, channels))
    extra = [name for name in params if name not in want]
    if extra:
        raise ValueError(f"{extra[0]} is not part of the layer stack")
    for name, shape in want.items():
        if name not in params:
            raise ValueError(f"missing {name}, of shape {shape}")
        if params[name].value.shape != shape:
            raise ValueError(f"{name} has shape {params[name].value.shape}, expected {shape}")
    return num_classes, channels


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


# this thread's inference plan, `plan`: (key, arrays) or None (see
# _inference_plan), and `in_map`: whether the thread runs `_parallel_map` work
_plans = threading.local()


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

    An inference pass maps over images: each thread's `forward` calls (one
    per `predict` or relabeled image, each through a float32 copy of the
    weights) reuse that thread's float32 plan. A plan lives for one call: the
    helpers' plans end with their threads, and the calling thread drops its
    own on return, so no plan is held while a stage trains.
    """
    items = list(items)
    own, *rest = [items[r] for r in row_ranges(len(items), worker_count())]
    done = [(None, None)] * len(rest)  # each helper's (results, error)

    def run(j: int, chunk: list) -> None:
        _plans.in_map = True
        try:
            done[j] = [fn(x) for x in chunk], None
        except BaseException as e:
            done[j] = None, e

    helpers = [threading.Thread(target=run, args=(j, c)) for j, c in enumerate(rest)]
    for t in helpers:
        t.start()
    _plans.in_map = True
    try:
        results = [fn(x) for x in own]
    finally:
        for t in helpers:
            t.join()
        _plans.in_map = False
        _plans.plan = None
    for chunk, error in done:
        if error is not None:
            raise error
        results += chunk
    return results


def _check_size(where, h: int, w: int, crop_size: int = 0) -> None:
    """The one image-size rule: an `h` x `w` image's sides are multiples of
    `OUTPUT_STRIDE` and at least `crop_size` (training); else a ValueError
    says so, starting with `where` when it is given."""
    at = f"{where}: " if where is not None else ""
    if h % OUTPUT_STRIDE or w % OUTPUT_STRIDE:
        raise ValueError(
            f"{at}image is {h}x{w}, not a multiple of the output stride {OUTPUT_STRIDE}"
        )
    if min(h, w) < crop_size:
        raise ValueError(f"{at}image is {h}x{w}, smaller than config key 'crop_size' {crop_size}")


def _checked_images(images) -> np.ndarray:
    """`images` as an array, once they are floating-point (values in [0,1],
    not bytes) and pass `_check_size`."""
    images = np.asarray(images)
    if images.dtype.kind != "f":
        raise ValueError(f"images must be floating-point in [0,1], got dtype {images.dtype}")
    _, _, h, w = images.shape
    _check_size(None, h, w)
    return images


def step_arrays(params: ParamSet, shape) -> dict[str, np.ndarray]:
    """Every array of a forward and backward pass on a batch of `shape`
    (n, 3, h, w), by name, in the dtype of `params`' weights: float64 for a
    net as `init_network` and checkpoints give it, float32 for the compute
    copy `train_stage` trains through. `train_stage` allocates them once, at
    full batch size, and every step writes into them, as Caffe keeps a
    layer's blobs; a smaller batch takes the leading rows (`a[:n]`, still
    contiguous).
    Without reuse, glibc hands the freed temporaries back to the OS and each
    step page-faults them in again. The forward's arrays are the cache that
    `backward` reads. At n == 1 the same layout is the inference plan that
    `forward` runs each image into.

    Each array lies in a memory mapping of its own (`_mapped`): its pages
    become resident only once written, and go back to the OS as soon as the
    array is freed, so a pass that writes only some of the arrays (the
    inference forward writes `in`, `padded`, `cols`, `out`, `head.in` and
    `logits`) costs only those, and a dropped plan leaves no resident memory
    behind.

    `params` must pass `check_layers`, so every conv is 3x3, and every
    value must have the dtype of `conv1.weight`. For conv i,
    named `conv{i}.*` (c/cout = in/out channels, (h, w) = its input size):

    - `padded` (n, c, h+2, w+2): the conv's input, zero-padded. The layer
      before writes its output (the standardized images, for conv1) into the
      interior. Dead once im2col has read it; backward's col2im then
      scatter-adds onto it, so the input gradient is its interior, and the
      next step's im2col zeroes its border again.
    - `in`: the interior of `padded`, which the layer before writes conv i's
      input into. For conv1, `train_stage` divides its crops by 255 into it,
      and the forward standardizes them there in place.
    - `cols` (n, c*9, h*w): the patch matrix, kept for the kernel gradient,
      then overwritten by `W^T @ g` in backward.
    - `out` (n, cout, h, w): the conv output, ReLU applied in place. Backward
      takes the ReLU mask from it (r > 0 iff z > 0).
    - `grad` (n, cout, h, w): the gradient at the conv output, on which ReLU
      backward runs in place. For conv1 and conv2, which pool, it is `out`
      itself: once backward has taken the ReLU mask, the output is dead and
      pool backward writes over it. For conv3 it is `head.input_grad`
      reshaped, which the head's backward writes.
    - `kernel_grad` (n, cout, c*9): per-image kernel-gradient products,
      summed into the parameter gradient.

    The head (1x1) has `head.in` (conv3's `out`), `head.kernel_grad` and
    `head.input_grad`, its `W^T @ g`: its patch matrix is its input itself,
    the ReLU output that backward still needs. `logits` (n, C+1, h/4, w/4)
    is the forward's result.
    """
    check_layers(params)
    n, _, h, w = shape
    k = _KERNEL_SIZE
    arrays = {}
    for i in range(1, _BLOCKS + 1):
        cout, c, _, _ = params[f"conv{i}.weight"].value.shape
        padded = arrays[f"conv{i}.padded"] = _mapped(params, (n, c, h + 2, w + 2))
        arrays[f"conv{i}.in"] = padded[:, :, 1:-1, 1:-1]  # a 3x3 conv pads by one pixel
        arrays[f"conv{i}.cols"] = _mapped(params, (n, c * k * k, h * w))
        out = arrays[f"conv{i}.out"] = _mapped(params, (n, cout, h, w))
        arrays[f"conv{i}.kernel_grad"] = _mapped(params, (n, cout, c * k * k))
        if i < _BLOCKS:
            arrays[f"conv{i}.grad"] = out
            h, w = h // 2, w // 2
    classes, c, _, _ = params["head.weight"].value.shape
    arrays["head.input_grad"] = _mapped(params, (n, c, h * w))
    arrays["head.in"] = out
    arrays[f"conv{_BLOCKS}.grad"] = arrays["head.input_grad"].reshape(out.shape)
    arrays["head.kernel_grad"] = _mapped(params, (n, classes, c))
    arrays["logits"] = _mapped(params, (n, classes, h, w))
    return arrays


def _mapped(params: ParamSet, shape) -> np.ndarray:
    """An uninitialised array of `shape`, in the dtype of `params`'
    `conv1.weight`, in a private anonymous memory mapping of its own. Freed
    heap memory that lies below blocks still in use stays resident; a
    mapping goes back to the OS when the array is freed."""
    dtype = params["conv1.weight"].value.dtype
    size = math.prod(shape)
    buf = mmap.mmap(-1, max(dtype.itemsize * size, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=dtype, count=size).reshape(shape)


def _forward_into(params: ParamSet, images: np.ndarray, arrays) -> np.ndarray:
    """The forward pass of `images` into `arrays` (from step_arrays, or
    their rows for these images); returns the logits."""
    a = np.subtract(images, _INPUT_MEAN, out=arrays["conv1.in"])
    a /= _INPUT_STD
    for i in range(1, _BLOCKS + 1):
        im2col(a, _KERNEL_SIZE, out=arrays[f"conv{i}.cols"], padded=arrays[f"conv{i}.padded"])
        z = conv2d_forward(
            a, params[f"conv{i}.weight"].value, params[f"conv{i}.bias"].value,
            cols=arrays[f"conv{i}.cols"], out=arrays[f"conv{i}.out"],
        )
        a = relu_forward(z, out=z)
        if i < _BLOCKS:
            a = avgpool2_forward(a, out=arrays[f"conv{i + 1}.in"])
    return conv2d_forward(
        a, params["head.weight"].value, params["head.bias"].value, out=arrays["logits"]
    )


def _rows(arrays, rows: slice) -> dict[str, np.ndarray]:
    return {name: a[rows] for name, a in arrays.items()}


def _forward_cached(params: ParamSet, images: np.ndarray, arrays) -> np.ndarray:
    """Training forward into `arrays` (`step_arrays`, cut to the batch's
    rows); returns `arrays["logits"]`.

    Each row range of the batch (see `_parallel_map`) runs the whole forward
    into its rows of the arrays. Each conv's patch matrix is built once and
    kept in `cols`, so backward reuses it for the kernel gradient instead of
    rebuilding it. Pass the same arrays to `backward`; their contents stay
    valid until the next step writes them.
    """
    images = _checked_images(images)
    _parallel_map(
        lambda rows: _forward_into(params, images[rows], _rows(arrays, rows)),
        row_ranges(images.shape[0], worker_count()),
    )
    return arrays["logits"]


def forward(params: ParamSet, images: np.ndarray) -> np.ndarray:
    """images: (N, 3, H, W) floats in [0,1] that pass `_check_size` ->
    logits (N, C+1, H/4, W/4), in the dtype of `params`.

    Runs one image at a time into this thread's inference plan (see
    `_parallel_map`) and copies its logits out, so the result never shares
    memory with the plan. Outside `_parallel_map` work the plan is dropped
    on return; inside, the thread's next call reuses it.
    """
    images = _checked_images(images)
    n, c, h, w = images.shape
    try:
        plan = _inference_plan(params, (1, c, h, w))
        logits = np.empty((n, *plan["logits"].shape[1:]), plan["logits"].dtype)
        for j in range(n):
            logits[j] = _forward_into(params, images[j : j + 1], plan)[0]
    finally:
        if not getattr(_plans, "in_map", False):
            _plans.plan = None
    return logits


def backward(params: ParamSet, arrays, grad_logits: np.ndarray) -> None:
    """Accumulates parameter gradients (+=) for the forward pass whose
    `arrays` `_forward_cached` filled.

    Each row range of the batch (see `_parallel_map`) runs the whole
    backward on its rows, up to each layer's per-image kernel-gradient
    products; once the ranges have joined, the calling thread sums those and
    the upstream gradients (`grad`) over the whole batch
    (`conv2d_batch_sums`). The input gradient of conv1 is not computed: the
    image has no parameters. Each layer's large temporaries land in arrays
    the forward is done with (see `step_arrays`): a pooled block takes its
    ReLU mask (`out > 0`) first, then pool backward writes its gradient
    over `out`, then the mask multiplies it, as in `relu_backward`.
    """
    def backward_rows(rows: slice) -> None:
        a = _rows(arrays, rows)
        g, _, _ = conv2d_backward(
            a["head.in"], params["head.weight"].value, grad_logits[rows], batch_sums=False,
            kernel_out=a["head.kernel_grad"], cols_out=a["head.input_grad"],
        )
        for i in range(_BLOCKS, 0, -1):
            if i < _BLOCKS:
                # `grad` is `out`: take the ReLU mask before pool backward writes
                alive = a[f"conv{i}.out"] > 0.0
                g = avgpool2_backward(g, out=a[f"conv{i}.grad"])
                g = np.multiply(g, alive, out=g)
            else:
                g = relu_backward(a[f"conv{i}.out"], g, out=g)
            # W^T @ g goes over the patch matrix, dead once the kernel gradient is taken
            cols = a[f"conv{i}.cols"]
            g, _, _ = conv2d_backward(
                a[f"conv{i}.in"], params[f"conv{i}.weight"].value, g, cols=cols,
                input_grad=i > 1, batch_sums=False, kernel_out=a[f"conv{i}.kernel_grad"],
                cols_out=cols, input_out=a[f"conv{i}.padded"],
            )

    _parallel_map(backward_rows, row_ranges(grad_logits.shape[0], worker_count()))
    for name in ["head", *(f"conv{i}" for i in range(_BLOCKS, 0, -1))]:
        upstream = grad_logits if name == "head" else arrays[f"{name}.grad"]
        weight = params[f"{name}.weight"]
        gk, gb = conv2d_batch_sums(arrays[f"{name}.kernel_grad"], upstream, weight.value.shape)
        weight.grad += gk
        params[f"{name}.bias"].grad += gb


def _inference_plan(params: ParamSet, shape) -> dict[str, np.ndarray]:
    """This thread's plan, `step_arrays(params, shape)`, made again only
    when the weight shapes, their dtype or the image shape change."""
    key = (
        tuple((name, p.value.shape) for name, p in params.items()),
        params["conv1.weight"].value.dtype,
        shape,
    )
    plan = getattr(_plans, "plan", None)
    if plan is None or plan[0] != key:
        plan = _plans.plan = key, step_arrays(params, shape)
    return plan[1]


def _stride_probs(params: ParamSet, image) -> np.ndarray:
    """The class distribution (C+1, H/4, W/4) at the output stride of one
    (H, W, 3) image, in float64: `forward` through a float32 copy of
    `params`, made for this call, then `channel_softmax` of its logits cast
    to float64. The one inference route: `predict` and the relabeling of
    `pseudolabel` upsample from it."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {image.shape}")
    logits = forward(params.float32_copy(), image.transpose(2, 0, 1)[None])[0]
    return channel_softmax(logits.astype(np.float64))


def predict(params: ParamSet, image: np.ndarray) -> np.ndarray:
    """Full-resolution float64 class distribution for one (H, W, 3) image:
    the bilinear upsample, channel by channel, of `_stride_probs` (a float32
    forward, a float64 softmax). It is not renormalized: each output pixel
    blends its source pixels with one set of weights summing to 1, so its
    channels sum to 1 within 1e-9."""
    return bilinear_resize(_stride_probs(params, image), *np.shape(image)[:2])
