"""Dense float64 array ops with exact analytic gradients.

Everything the segmentation net and its losses need: same-padded stride-1
cross-correlation, ReLU, 2x2 mean pooling, align-corners bilinear resize,
and a numerically stabilized per-pixel channel softmax. Each backward
function is the exact gradient of its forward counterpart; the
finite-difference checker in `params` is the independent referee.

Convolution is im2col + matrix multiply, paired with col2im for the input
gradient, as in Caffe (Jia et al. 2014). `im2col` copies each k x k window
of the zero-padded input into one column of a (C*k*k, H*W) patch matrix
per image; the forward pass is one matmul of the flattened kernel with it,
and so is the kernel gradient. `col2im` is its adjoint: it scatter-adds
the columns of `W^T @ upstream` back onto the padded input grid (k*k
slice-adds), which is the input gradient. The training forward
(`network._forward_cached`) builds each conv's patch matrix once, passes it
to `conv2d_forward` as `cols=` and caches it for `conv2d_backward`, so a
train step builds one patch matrix per conv. Inference (`network.forward`,
`predict`) builds it inside `conv2d_forward` and keeps none.

Ops whose results are large take keyword-only `out=` arguments (like numpy's
ufuncs): float64 arrays of the result's shape (C-contiguous where the op
reshapes them or multiplies into them) that receive the result in place of
a new array, so that a train step can reuse the same arrays every step
(`network.StepBuffers` says which array holds what). The arithmetic, and so
every bit of the result, is the same with or without them. `im2col(padded=)`
is the zero-padded copy of the input it reads; `col2im(out=)` is the padded
grid it scatter-adds onto and returns the interior of. One array may serve
both: col2im leaves the border of the grid nonzero, and im2col zeroes it
again before use. Likewise `conv2d_backward` may write `W^T @ upstream` over
the patch matrix it has just used for the kernel gradient.

Array conventions: feature maps are (N, C, H, W), kernels (Cout, Cin, k, k),
probability/logit maps (..., C+1, h, w). All math is float64.
"""
from __future__ import annotations

import numpy as np


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_out(out, shape) -> np.ndarray:
    if out.shape != tuple(shape) or out.dtype != np.float64:
        raise ValueError(
            f"out array {out.dtype}{out.shape} is not a float64 array of shape {tuple(shape)}"
        )
    return out


def _check_contiguous_out(out, shape) -> np.ndarray:
    """For results written through a reshape of `out`, or by matmul (which
    takes the same BLAS path for a C-contiguous `out` as for a new array)."""
    if not _check_out(out, shape).flags.c_contiguous:
        raise ValueError(f"out array of shape {out.shape} is not C-contiguous")
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
    if padded is None:
        xp = np.empty((n, c, h + 2 * p, w + 2 * p))
    else:
        xp = _check_out(padded, (n, c, h + 2 * p, w + 2 * p))
    xp[:, :, :p] = 0.0
    xp[:, :, h + p :] = 0.0
    xp[:, :, p : h + p, :p] = 0.0
    xp[:, :, p : h + p, w + p :] = 0.0
    xp[:, :, p : h + p, p : w + p] = x
    if out is None:
        out = np.empty((n, c * k * k, h * w))
    else:
        _check_contiguous_out(out, (n, c * k * k, h * w))
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
    if out is None:
        out = np.zeros((n, c, h + 2 * p, w + 2 * p))
    else:
        _check_out(out, (n, c, h + 2 * p, w + 2 * p))[...] = 0.0
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
    x, kernel, bias = _f64(x), _f64(kernel), _f64(bias)
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
    if out is not None:
        out = _check_contiguous_out(out, (n, cout, h, w)).reshape(n, cout, h * w)
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
    x, kernel, upstream = _f64(x), _f64(kernel), _f64(upstream)
    n, cin, h, w = x.shape
    cout = kernel.shape[0]
    k = kernel.shape[2]
    if upstream.shape != (n, cout, h, w):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match output shape {(n, cout, h, w)}"
        )
    g = upstream.reshape(n, cout, h * w)
    cols = _patch_matrix(x, k, cols)
    if kernel_out is not None:
        _check_contiguous_out(kernel_out, (n, cout, cin * k * k))
    products = np.matmul(g, cols.transpose(0, 2, 1), out=kernel_out)
    grad_kernel = grad_bias = None
    if batch_sums:
        grad_kernel, grad_bias = conv2d_batch_sums(products, upstream, kernel.shape)
    grad_input = None
    if input_grad:
        if cols_out is not None:
            _check_contiguous_out(cols_out, cols.shape)
        back = np.matmul(kernel.reshape(cout, -1).T, g, out=cols_out)
        grad_input = col2im(back, x.shape, k, out=input_out)
    return grad_input, grad_kernel, grad_bias


def relu_forward(x, *, out=None) -> np.ndarray:
    """`out` may be x itself (in place)."""
    x = _f64(x)
    if out is not None:
        _check_out(out, x.shape)
    return np.maximum(x, 0.0, out=out)


def relu_backward(x, upstream, *, out=None) -> np.ndarray:
    """Subgradient at 0 is 0: upstream passes only where x > 0. `x` may be
    the ReLU output in place of its input (the same mask), and `out` may be
    upstream itself (in place)."""
    upstream = _f64(upstream)
    if out is not None:
        _check_out(out, upstream.shape)
    return np.multiply(upstream, _f64(x) > 0.0, out=out)


def avgpool2_forward(x, *, out=None) -> np.ndarray:
    """Non-overlapping 2x2 mean pooling over the trailing two axes."""
    x = _f64(x)
    *lead, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avgpool2 requires even spatial dims, got {h}x{w}")
    if out is not None:
        _check_out(out, (*lead, h // 2, w // 2))
    out = np.add(x[..., 0::2, 0::2], x[..., 0::2, 1::2], out=out)
    out += x[..., 1::2, 0::2]
    out += x[..., 1::2, 1::2]
    out *= 0.25
    return out


def avgpool2_backward(upstream, *, out=None) -> np.ndarray:
    """Spreads each upstream value uniformly (1/4) over its 2x2 source block."""
    upstream = _f64(upstream)
    *lead, h, w = upstream.shape
    if out is None:
        out = np.empty((*lead, 2 * h, 2 * w))
    else:
        _check_out(out, (*lead, 2 * h, 2 * w))
    np.multiply(upstream, 0.25, out=out[..., 0::2, 0::2])
    out[..., 0::2, 1::2] = out[..., 0::2, 0::2]
    out[..., 1::2, :] = out[..., 0::2, :]
    return out


def bilinear_resize(m, target_h: int, target_w: int) -> np.ndarray:
    """Align-corners bilinear interpolation over the trailing two axes.

    Exact identity when the target equals the source size. A target axis of 1
    samples the source origin.
    """
    m = _f64(m)
    *lead, h, w = m.shape
    if target_h < 1 or target_w < 1:
        raise ValueError(f"target size must be >= 1, got {target_h}x{target_w}")
    ys = np.linspace(0.0, h - 1.0, target_h)
    xs = np.linspace(0.0, w - 1.0, target_w)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).reshape(-1, 1)
    fx = (xs - x0).reshape(1, -1)
    r0 = m[..., y0, :]
    r1 = m[..., y1, :]
    top = r0[..., x0] * (1.0 - fx) + r0[..., x1] * fx
    bot = r1[..., x0] * (1.0 - fx) + r1[..., x1] * fx
    return top * (1.0 - fy) + bot * fy


def channel_softmax(logits) -> np.ndarray:
    """Per-pixel softmax over the channel axis (axis -3).

    Accepts (..., C+1, h, w); stabilized by subtracting the per-pixel max
    logit before exponentiation.
    """
    z = _f64(logits)
    z = z - z.max(axis=-3, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-3, keepdims=True)
