"""Dense array ops with exact analytic gradients.

Everything the segmentation net and its losses need: same-padded stride-1
cross-correlation, ReLU, 2x2 mean pooling, align-corners bilinear resize,
and a numerically stabilized per-pixel channel softmax. Each backward
function is the exact gradient of its forward counterpart; central finite
differences (`numeric_grad` and `rel_err` in the test suite's helpers) are
the independent referee.

Convolution is im2col + matrix multiply, paired with col2im for the input
gradient, as in Caffe (Jia et al. 2014). `im2col` copies each k x k window
of the zero-padded input into one column of a (C*k*k, H*W) patch matrix
per image; the forward pass is one matmul of the flattened kernel with it,
and so is the kernel gradient. `col2im` is its adjoint: it scatter-adds
the columns of `W^T @ upstream` back onto the padded input grid (k*k
slice-adds), which is the input gradient. Every forward pass
(`network._forward_into`) builds each conv's patch matrix once, into an
array of its plan (`network.step_arrays`), and passes it to
`conv2d_forward` as `cols=`; training keeps it for `conv2d_backward`, so a
train step builds one patch matrix per conv. Inference (`network.forward`,
run by `network.predict` and the relabeling of `pseudolabel` through a
float32 copy of the weights) runs one image at a time through one float32
plan per thread, so its patch matrices land in the same arrays on every
call; `channel_softmax` then takes the logits cast to float64, and
`bilinear_resize` upsamples the float64 probabilities. The network's conv
blocks are all 3x3 and its head is 1x1; these ops take any odd k.

Every op computes in the dtype of the array it transforms, a floating-point
one (x in the forward ops and `conv2d_backward`, `upstream` in the other
backward ops, the patch matrix in `col2im`, the map in `bilinear_resize`,
the logits in `channel_softmax`), and makes every new array in that dtype.
It converts nothing, so the other arrays it takes (kernel, bias) should
share that dtype.

Ops whose results are large take keyword-only `out=` arguments (like numpy's
ufuncs): arrays of the result's shape and dtype (C-contiguous where the op
reshapes them or multiplies into them) that receive the result in place of
a new array, so that a train step can reuse the same arrays every step, and
an inference pass every image (`network.step_arrays` says which array holds
what). `_out` checks them, or makes the new array. The arithmetic, and so
every bit of the result, is the same with or without them. `im2col(padded=)`
is the zero-padded copy of the input it reads; `col2im(out=)` is the padded
grid it scatter-adds onto and returns the interior of. One array may serve
both: col2im leaves the border of the grid nonzero, and im2col zeroes it
again before use. Likewise `conv2d_backward` may write `W^T @ upstream` over
the patch matrix it has just used for the kernel gradient.

Array conventions: feature maps are (N, C, H, W), kernels (Cout, Cin, k, k),
probability/logit maps (..., C+1, h, w).
"""
from __future__ import annotations

import functools

import numpy as np


def _out(out, shape, dtype, contiguous=False) -> np.ndarray:
    """`out`, checked to be a `dtype` array of `shape`, or a new one.
    `contiguous` is for results written through a reshape of `out`, or by
    matmul (which takes the same BLAS path for a C-contiguous `out` as for a
    new array)."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(
            f"out array {out.dtype}{out.shape} is not a {dtype} array of shape {shape}"
        )
    if contiguous and not out.flags.c_contiguous:
        raise ValueError(f"out array of shape {shape} is not C-contiguous")
    return out


def im2col(x: np.ndarray, k: int, *, out=None, padded=None) -> np.ndarray:
    """Zero-padded patch matrix: (N, C, H, W) -> (N, C*k*k, H*W).

    Row c*k*k + i*k + j holds channel c shifted by (i - k//2, j - k//2).
    `out` receives the patch matrix; `padded`, (N, C, H+2p, W+2p) with
    p = k//2, receives the zero-padded input and may hold anything before
    the call (without it, the padded grid is a new array, filled the same
    way). x may be the interior of `padded` already, as when the layer
    before wrote its output there; numpy skips copying a view onto itself.
    For k == 1 the patch matrix is a reshape of x and neither is written.
    """
    n, c, h, w = x.shape
    if k == 1:
        return x.reshape(n, c, h * w)
    p = k // 2
    xp = _out(padded, (n, c, h + 2 * p, w + 2 * p), x.dtype)
    xp[:, :, :p] = 0.0
    xp[:, :, h + p :] = 0.0
    xp[:, :, p : h + p, :p] = 0.0
    xp[:, :, p : h + p, w + p :] = 0.0
    xp[:, :, p : h + p, p : w + p] = x
    out = _out(out, (n, c * k * k, h * w), x.dtype, contiguous=True)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    out.reshape(n, c, k, k, h, w)[...] = win.transpose(0, 1, 4, 5, 2, 3)
    return out


def col2im(cols: np.ndarray, shape, k: int, *, out=None) -> np.ndarray:
    """Adjoint of im2col: scatter-adds a (N, C*k*k, H*W) patch matrix onto
    an (N, C, H, W) grid, one slice-add per kernel offset.

    The adds go onto a zeroed (N, C, H+2p, W+2p) padded grid, `out` if
    given, and the result is its interior (a view). For k == 1 the result
    is a reshape of cols and `out` is not written.
    """
    n, c, h, w = shape
    if cols.shape != (n, c * k * k, h * w):
        raise ValueError(f"patch matrix shape {cols.shape} does not match {shape} at k={k}")
    if k == 1:
        return cols.reshape(n, c, h, w)
    p = k // 2
    taps = cols.reshape(n, c, k, k, h, w)
    out = _out(out, (n, c, h + 2 * p, w + 2 * p), cols.dtype)
    out[...] = 0.0
    for i in range(k):
        for j in range(k):
            out[:, :, i : i + h, j : j + w] += taps[:, :, i, j]
    return out[:, :, p : p + h, p : p + w]


def _patch_matrix(x: np.ndarray, k: int, cols) -> np.ndarray:
    if cols is None:
        return im2col(x, k)
    n, c, h, w = x.shape
    if cols.shape != (n, c * k * k, h * w):
        raise ValueError(
            f"patch matrix shape {cols.shape} does not match input {x.shape} at k={k}"
        )
    return cols


def conv2d_forward(x, kernel, bias, *, cols=None, out=None) -> np.ndarray:
    """Stride-1 cross-correlation with odd square kernel and zero same-padding.

    x: (N, Cin, H, W), kernel: (Cout, Cin, k, k), bias: (Cout,).
    Output spatial size equals input spatial size. `cols`, if given, is
    im2col(x, k), built by the caller so that it can keep it for backward.
    `out`, (N, Cout, H, W), receives the output.
    """
    n, cin, h, w = x.shape
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise ValueError(
            f"channel mismatch: input shape {x.shape} vs kernel shape {kernel.shape}"
        )
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {kh}x{kw}")
    if bias.shape != (cout,):
        raise ValueError(f"bias shape {bias.shape} does not match {cout} output channels")
    out = _out(out, (n, cout, h, w), x.dtype, contiguous=True).reshape(n, cout, h * w)
    out = np.matmul(kernel.reshape(cout, -1), _patch_matrix(x, kh, cols), out=out)
    out += bias[:, None]
    return out.reshape(n, cout, h, w)


def conv2d_batch_sums(products, upstream, kernel_shape):
    """The batch reductions of conv2d_backward: (grad_kernel, grad_bias).

    grad_kernel sums the per-image kernel-gradient products, (N, Cout,
    Cin*k*k), over images; grad_bias sums upstream, (N, Cout, H, W), over
    images and pixels. Summing the whole batch in one call fixes the order
    of the adds, so the bits do not depend on how the rows were computed.
    """
    return products.sum(axis=0).reshape(kernel_shape), upstream.sum(axis=(0, 2, 3))


def conv2d_backward(
    x, kernel, upstream, *, cols=None, input_grad=True, batch_sums=True,
    kernel_out=None, cols_out=None, input_out=None,
):
    """Gradients of conv2d_forward: returns (grad_input, grad_kernel, grad_bias).

    `cols`, if given, is im2col(x, k) from the forward pass. With
    `input_grad=False` the input gradient is skipped and returned as None.
    With `batch_sums=False` grad_kernel and grad_bias are returned as None:
    the products stay in `kernel_out` for a `conv2d_batch_sums` over a
    larger batch that these rows are part of.
    Optional arrays that receive the large intermediates:
    `kernel_out`, (N, Cout, Cin*k*k), the per-image kernel-gradient products
    summed into grad_kernel; `cols_out`, (N, Cin*k*k, H*W), the patch matrix
    `W^T @ upstream` (it may be `cols` itself, which is dead once the kernel
    gradient is computed; for k == 1 that overwrites x, whose patch matrix
    is a reshape of it); `input_out`, the padded grid col2im scatter-adds
    onto, so grad_input is a view of it.
    """
    n, cin, h, w = x.shape
    cout = kernel.shape[0]
    k = kernel.shape[2]
    if upstream.shape != (n, cout, h, w):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match output shape {(n, cout, h, w)}"
        )
    g = upstream.reshape(n, cout, h * w)
    cols = _patch_matrix(x, k, cols)
    kernel_out = _out(kernel_out, (n, cout, cin * k * k), x.dtype, contiguous=True)
    products = np.matmul(g, cols.transpose(0, 2, 1), out=kernel_out)
    grad_kernel = grad_bias = None
    if batch_sums:
        grad_kernel, grad_bias = conv2d_batch_sums(products, upstream, kernel.shape)
    grad_input = None
    if input_grad:
        cols_out = _out(cols_out, cols.shape, x.dtype, contiguous=True)
        back = np.matmul(kernel.reshape(cout, -1).T, g, out=cols_out)
        grad_input = col2im(back, x.shape, k, out=input_out)
    return grad_input, grad_kernel, grad_bias


def relu_forward(x, *, out=None) -> np.ndarray:
    """`out` may be x itself (in place)."""
    return np.maximum(x, 0.0, out=_out(out, x.shape, x.dtype))


def relu_backward(x, upstream, *, out=None) -> np.ndarray:
    """Subgradient at 0 is 0: upstream passes only where x > 0. `x` may be
    the ReLU output in place of its input (the same mask), and `out` may be
    upstream itself (in place)."""
    return np.multiply(upstream, x > 0.0, out=_out(out, upstream.shape, upstream.dtype))


def avgpool2_forward(x, *, out=None) -> np.ndarray:
    """Non-overlapping 2x2 mean pooling over the trailing two axes."""
    *lead, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avgpool2 requires even spatial dims, got {h}x{w}")
    out = _out(out, (*lead, h // 2, w // 2), x.dtype)
    np.add(x[..., 0::2, 0::2], x[..., 0::2, 1::2], out=out)
    out += x[..., 1::2, 0::2]
    out += x[..., 1::2, 1::2]
    out *= 0.25
    return out


def avgpool2_backward(upstream, *, out=None) -> np.ndarray:
    """Spreads each upstream value uniformly (1/4) over its 2x2 source block."""
    *lead, h, w = upstream.shape
    out = _out(out, (*lead, 2 * h, 2 * w), upstream.dtype)
    np.multiply(upstream, 0.25, out=out[..., 0::2, 0::2])
    out[..., 0::2, 1::2] = out[..., 0::2, 0::2]
    out[..., 1::2, :] = out[..., 0::2, :]
    return out


@functools.lru_cache(maxsize=64)
def _taps(n: int, target: int):
    """Align-corners taps that resample an axis of length n to `target`
    samples: (i0, i1, 1 - f, f), the source index at or below each sample,
    the one above it (clamped) and their weights. Read-only, as cached."""
    s = np.linspace(0.0, n - 1.0, target)
    i0 = np.floor(s).astype(np.intp)
    i1 = np.minimum(i0 + 1, n - 1)
    f = s - i0
    taps = i0, i1, 1.0 - f, f
    for a in taps:
        a.flags.writeable = False
    return taps


def bilinear_resize(m, target_h: int, target_w: int) -> np.ndarray:
    """Align-corners bilinear interpolation over the trailing two axes.

    Exact identity when the target equals the source size. A target axis of 1
    samples the source origin. Separable: each source row is interpolated
    along x once, then each target row blends two of those rows along y.
    """
    *lead, h, w = m.shape
    if target_h < 1 or target_w < 1:
        raise ValueError(f"target size must be >= 1, got {target_h}x{target_w}")
    if m.dtype.kind != "f":  # its taps would round to integers
        raise ValueError(f"bilinear_resize needs a floating-point map, got {m.dtype}")
    y0, y1, gy, fy = _taps(h, target_h)
    x0, x1, gx, fx = _taps(w, target_w)
    gy, fy, gx, fx = (a.astype(m.dtype, copy=False) for a in (gy, fy, gx, fx))
    rows = m[..., x0]
    rows *= gx
    right = m[..., x1]
    right *= fx
    rows += right
    del right
    out = np.empty((*lead, target_h, target_w), m.dtype)
    # one leading slice at a time: temporaries as large as the result, once
    # freed, make glibc trim its heap, and the next call faults it in again
    for src, dst in zip(rows.reshape(-1, h, target_w), out.reshape(-1, target_h, target_w)):
        np.multiply(src[y0], gy[:, None], out=dst)
        below = src[y1]
        below *= fy[:, None]
        dst += below
    return out


def channel_softmax(logits) -> np.ndarray:
    """Per-pixel softmax over the channel axis (axis -3).

    Accepts (..., C+1, h, w); stabilized by subtracting the per-pixel max
    logit before exponentiation.
    """
    z = logits - logits.max(axis=-3, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-3, keepdims=True)
