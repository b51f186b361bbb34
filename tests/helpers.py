"""Independent reference implementations used as test oracles, and the
mutations the fuzz tests apply to valid JSON inputs.

Everything here is deliberately naive (explicit loops), or an earlier
formula of an op that has since been rewritten for speed, and shares no
code with the package under test.
"""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

# a mutation of a JSON object: ("truncate", at), ("flip", at, xor mask),
# ("token", which value, replacement bytes) or ("splice", at, at in the
# other document): the head of this one joined to the tail of another
JSON_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 200)),
    st.tuples(st.just("flip"), st.integers(0, 200), st.integers(1, 255)),
    st.tuples(
        st.just("token"),
        st.integers(0, 20),
        st.sampled_from(
            [b"null", b"true", b"0", b"-1", b"2.5", b"1e999", b"NaN", b"9" * 30, b'"x"',
             b'"../x"', b"[]", b"[0]", b"[1,1]", b"{}", b""]
        )
        | st.binary(max_size=6),
    ),
    st.tuples(st.just("splice"), st.integers(0, 200), st.integers(0, 200)),
)


def mutated_json_object(fields: dict, other: bytes, mutation) -> bytes:
    """The JSON object of `fields` (key -> the value's JSON text, bytes)
    with one `JSON_MUTATIONS` draw applied; `other` is the document a
    splice takes its tail from."""
    values = list(fields.values())
    if mutation[0] == "token":
        values[mutation[1] % len(values)] = mutation[2]
    pairs = (b'"%s":%s' % (key.encode(), value) for key, value in zip(fields, values))
    raw = bytearray(b"{" + b",".join(pairs) + b"}")
    if mutation[0] == "truncate":
        del raw[mutation[1]:]
    elif mutation[0] == "flip" and mutation[1] < len(raw):
        raw[mutation[1]] ^= mutation[2]
    elif mutation[0] == "splice":
        raw[mutation[1]:] = other[mutation[2]:]
    return bytes(raw)


def naive_conv2d(x, kernel, bias):
    """Direct nested-loop same-padded stride-1 cross-correlation."""
    n, cin, h, w = x.shape
    cout, _, k, _ = kernel.shape
    p = k // 2
    out = np.zeros((n, cout, h, w))
    for ni in range(n):
        for co in range(cout):
            for y in range(h):
                for xx in range(w):
                    acc = bias[co]
                    for ci in range(cin):
                        for u in range(k):
                            for v in range(k):
                                yy, xv = y + u - p, xx + v - p
                                if 0 <= yy < h and 0 <= xv < w:
                                    acc += x[ni, ci, yy, xv] * kernel[co, ci, u, v]
                    out[ni, co, y, xx] = acc
    return out


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of scalar f w.r.t. every element of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def zero_grads(params):
    """Zeroes every gradient of a ParamSet, so that the next backward's
    accumulation (+=) gives that backward's gradients alone."""
    for name in params:
        params[name].grad[...] = 0.0


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def brute_force_iou(mask_pairs, n):
    """Per-pixel confusion counting with explicit loops over (gt, pred) pairs.

    A class absent from both gt and prediction over the whole corpus gets
    IoU 1. Returns (per_class_iou, miou).
    """
    tp = [0] * n
    fp = [0] * n
    fn = [0] * n
    for gt, pred in mask_pairs:
        for i in range(gt.shape[0]):
            for j in range(gt.shape[1]):
                g, p = int(gt[i, j]), int(pred[i, j])
                if g == p:
                    tp[g] += 1
                else:
                    fn[g] += 1
                    fp[p] += 1
    ious = []
    for k in range(n):
        denom = tp[k] + fp[k] + fn[k]
        ious.append(tp[k] / denom if denom else 1.0)
    return ious, sum(ious) / n


def restricted_argmax_scan(pred, allowed):
    """Per-pixel linear scan over the allowed labels only."""
    _, h, w = pred.shape
    out = np.zeros((h, w), dtype=np.int64)
    ids = sorted(allowed)
    for i in range(h):
        for j in range(w):
            best, best_v = ids[0], pred[ids[0], i, j]
            for k in ids[1:]:
                if pred[k, i, j] > best_v:
                    best, best_v = k, pred[k, i, j]
            out[i, j] = best
    return out


def gathered_bilinear_resize(m, target_h, target_w):
    """Align-corners bilinear resize over the trailing two axes, as the
    gathered-rows formula computes it: gather both source rows of every
    target row, interpolate each along x, then blend the two along y. The
    bitwise reference for `ops.bilinear_resize`."""
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape[-2:]
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


# Prepended to code that a test runs in a fresh interpreter to measure its
# peak memory. Not ru_maxrss: on Linux a child process's ru_maxrss starts at
# the peak of the process that started it, here the test runner's, which
# can hide any growth below that.
PEAK_RSS_KB = '''
def peak_rss_kb():
    """This process's own peak resident set size in KiB (VmHWM)."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
'''


# Names of the SGD schedule's values, which are fixed (pipeline._LR to
# _WEIGHT_DECAY): neither a run config nor TrainConfig takes them as keys.
SCHEDULE_KEYS = [
    "initial_lr", "final_layer_lr_multiplier", "lr_decay_factor", "lr_decay_every_epochs",
    "momentum", "weight_decay",
]
