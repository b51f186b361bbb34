import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gathered_bilinear_resize, naive_conv2d, numeric_grad, rel_err
from stc import ops


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConvForward:
    def test_identity_like_1x1_kernel(self):
        x = np.ones((1, 1, 3, 3))
        y = ops.conv2d_forward(x, np.full((1, 1, 1, 1), 2.0), np.zeros(1))
        assert np.array_equal(y, np.full((1, 1, 3, 3), 2.0))

    def test_single_pixel_with_padding(self):
        x = np.full((1, 1, 1, 1), 5.0)
        y = ops.conv2d_forward(x, np.ones((1, 1, 3, 3)), np.ones(1))
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == pytest.approx(6.0, abs=1e-15)

    def test_matches_naive_oracle(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = ops.conv2d_forward(x, k, b)
        want = naive_conv2d(x, k, b)
        assert np.abs(got - want).max() < 1e-12

    def test_matches_naive_oracle_5x5_kernel(self, rng):
        x = rng.normal(size=(1, 2, 6, 7))
        k = rng.normal(size=(3, 2, 5, 5))
        b = rng.normal(size=3)
        assert np.abs(ops.conv2d_forward(x, k, b) - naive_conv2d(x, k, b)).max() < 1e-12

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 2, 4, 4\).*\(1, 3, 3, 3\)"):
            ops.conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ops.conv2d_forward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_bias_of_another_length_rejected(self):
        with pytest.raises(ValueError, match=r"bias shape \(2,\) does not match 1 output"):
            ops.conv2d_forward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(2))

    def test_output_is_finite(self, rng):
        y = ops.conv2d_forward(
            rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
        )
        assert np.all(np.isfinite(y))


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        k = rng.normal(size=(3, 2, 3, 3))
        gx, gk, gb = ops.conv2d_backward(x, k, np.zeros((1, 3, 4, 4)))
        assert not gx.any() and not gk.any() and not gb.any()

    def test_scalar_chain_rule(self):
        x = np.full((1, 1, 1, 1), 3.0)
        k = np.full((1, 1, 1, 1), 7.0)
        g = np.full((1, 1, 1, 1), 2.0)
        gx, gk, gb = ops.conv2d_backward(x, k, g)
        assert gx[0, 0, 0, 0] == pytest.approx(14.0)
        assert gk[0, 0, 0, 0] == pytest.approx(6.0)
        assert gb[0] == pytest.approx(2.0)

    def test_matches_finite_differences(self, rng):
        x = rng.normal(size=(2, 2, 4, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(2, 3, 4, 5))  # random projection makes loss scalar

        gx, gk, gb = ops.conv2d_backward(x, k, r)
        num_x = numeric_grad(lambda v: float((ops.conv2d_forward(v, k, b) * r).sum()), x.copy())
        num_k = numeric_grad(lambda v: float((ops.conv2d_forward(x, v, b) * r).sum()), k.copy())
        num_b = numeric_grad(lambda v: float((ops.conv2d_forward(x, k, v) * r).sum()), b.copy())
        assert rel_err(gx, num_x).max() < 1e-6
        assert rel_err(gk, num_k).max() < 1e-6
        assert rel_err(gb, num_b).max() < 1e-6

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="upstream"):
            ops.conv2d_backward(
                np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 3, 3)), np.zeros((1, 2, 3, 3))
            )

    def test_passed_patch_matrix_gives_bitwise_same_grads(self, rng):
        x = rng.normal(size=(2, 3, 5, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        r = rng.normal(size=(2, 4, 5, 7))
        plain = ops.conv2d_backward(x, k, r)
        cached = ops.conv2d_backward(x, k, r, cols=ops.im2col(x, 3))
        for a, b in zip(plain, cached):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_col2im_input_grad_matches_flipped_kernel_correlation(self, rng, ksize):
        x = rng.normal(size=(2, 3, 6, 9))
        k = rng.normal(size=(4, 3, ksize, ksize))
        r = rng.normal(size=(2, 4, 6, 9))
        gx, _, _ = ops.conv2d_backward(x, k, r)
        # the input gradient of a same-padded correlation is the upstream
        # correlated with the spatially flipped, channel-transposed kernel
        flipped = np.ascontiguousarray(k.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        want = naive_conv2d(r, flipped, np.zeros(3))
        assert np.abs(gx - want).max() < 1e-12

    def test_batch_sums_of_row_slices_match_the_whole_batch(self, rng):
        x = rng.normal(size=(5, 2, 4, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        r = rng.normal(size=(5, 3, 4, 6))
        want = ops.conv2d_backward(x, k, r)
        products = np.empty((5, 3, 18))
        grad_input = np.empty_like(x)
        for rows in (slice(0, 2), slice(2, 5)):
            gx, gk, gb = ops.conv2d_backward(
                x[rows], k, r[rows], batch_sums=False, kernel_out=products[rows]
            )
            assert gk is None and gb is None
            grad_input[rows] = gx
        gk, gb = ops.conv2d_batch_sums(products, r, k.shape)
        for got, w in zip((grad_input, gk, gb), want):
            assert np.array_equal(got, w)

    def test_input_grad_can_be_skipped(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        k = rng.normal(size=(3, 2, 3, 3))
        r = rng.normal(size=(1, 3, 4, 4))
        gx, gk, gb = ops.conv2d_backward(x, k, r, input_grad=False)
        _, gk_full, gb_full = ops.conv2d_backward(x, k, r)
        assert gx is None
        assert np.array_equal(gk, gk_full) and np.array_equal(gb, gb_full)

    def test_patch_matrix_shape_checked(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        k = rng.normal(size=(3, 2, 3, 3))
        with pytest.raises(ValueError, match="patch matrix"):
            ops.conv2d_forward(x, k, np.zeros(3), cols=ops.im2col(x[:, :1], 3))

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_out_arrays_give_bitwise_same_results(self, rng, ksize):
        # dirty (NaN) arrays: every one must be fully written before it is read
        for dtype in (np.float64, np.float32):
            x = rng.normal(size=(2, 3, 6, 5)).astype(dtype)
            k = rng.normal(size=(4, 3, ksize, ksize)).astype(dtype)
            b = rng.normal(size=4).astype(dtype)
            r = rng.normal(size=(2, 4, 6, 5)).astype(dtype)
            p = ksize // 2
            cols_shape = (2, 3 * ksize * ksize, 30)
            padded = np.full((2, 3, 6 + 2 * p, 5 + 2 * p), np.nan, dtype)
            cols = ops.im2col(x, ksize, out=np.full(cols_shape, np.nan, dtype), padded=padded)
            assert np.array_equal(cols, ops.im2col(x, ksize))
            y = ops.conv2d_forward(x, k, b, cols=cols, out=np.full((2, 4, 6, 5), np.nan, dtype))
            plain = ops.conv2d_forward(x, k, b)
            assert np.array_equal(y, plain)
            want = ops.conv2d_backward(x, k, r)
            # for k == 1 the patch matrix is x itself, so writing `W^T @ g` over
            # it overwrites x; x is not read again below
            got = ops.conv2d_backward(
                x, k, r, cols=cols, kernel_out=np.full((2, 4, 3 * ksize * ksize), np.nan, dtype),
                cols_out=cols, input_out=padded,
            )
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            for a in (cols, ops.im2col(x, ksize), y, plain, *got, *want):
                assert a.dtype == dtype
            if ksize > 1:
                # the input gradient is the interior of the padded grid, which
                # im2col can use again after col2im left its border dirty
                assert np.shares_memory(got[0], padded)
                assert np.array_equal(
                    ops.im2col(x, ksize, out=cols, padded=padded), ops.im2col(x, ksize)
                )

    def test_out_array_checked(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        with pytest.raises(ValueError, match="out array"):
            ops.im2col(x, 3, out=np.empty((1, 18, 15)))
        with pytest.raises(ValueError, match="out array"):
            ops.conv2d_forward(
                x, np.ones((1, 2, 3, 3)), np.zeros(1), out=np.empty((1, 1, 4, 8))[..., ::2]
            )
        with pytest.raises(ValueError, match="out array"):
            ops.relu_forward(x, out=np.empty((1, 2, 4, 5)))
        with pytest.raises(ValueError, match="out array float32.* not a float64 array"):
            ops.avgpool2_forward(x, out=np.empty((1, 2, 2, 2), dtype=np.float32))
        # an out array of the other dtype than the input's, naming both
        x32 = x.astype(np.float32)
        with pytest.raises(ValueError, match="out array float64.* not a float32 array"):
            ops.relu_forward(x32, out=np.empty(x.shape))
        with pytest.raises(ValueError, match="out array float64.* not a float32 array"):
            ops.col2im(ops.im2col(x32, 3), x.shape, 3, out=np.empty((1, 2, 6, 6)))
        with pytest.raises(ValueError, match="out array float64.* not a float32 array"):
            ops.conv2d_backward(
                x32, np.ones((1, 2, 3, 3), np.float32), np.ones((1, 1, 4, 4), np.float32),
                kernel_out=np.empty((1, 1, 18)),
            )


class TestIm2col:
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 8), (1, 2, 7, 3), (3, 1, 1, 6)])
    def test_col2im_is_adjoint_of_im2col(self, rng, ksize, shape):
        x = rng.normal(size=shape)
        n, c, h, w = shape
        d = rng.normal(size=(n, c * ksize * ksize, h * w))
        lhs = float((ops.im2col(x, ksize) * d).sum())
        rhs = float((x * ops.col2im(d, shape, ksize)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 8), (1, 2, 7, 3), (3, 1, 1, 6)])
    def test_im2col_matches_np_pad_windows(self, rng, ksize, shape):
        x = rng.normal(size=shape)
        n, c, h, w = shape
        p = ksize // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        want = np.empty((n, c, ksize, ksize, h, w))
        for i in range(ksize):
            for j in range(ksize):
                want[:, :, i, j] = xp[:, :, i : i + h, j : j + w]
        assert np.array_equal(ops.im2col(x, ksize), want.reshape(n, c * ksize * ksize, h * w))

    def test_im2col_rows_are_shifted_channels(self, rng):
        x = rng.normal(size=(1, 2, 4, 5))
        cols = ops.im2col(x, 3).reshape(1, 2, 3, 3, 4, 5)
        # offset (i, j) = (2, 0) reads input[y + 1, x - 1], zero outside the grid
        assert np.array_equal(cols[:, :, 2, 0, :3, 1:], x[:, :, 1:, :4])
        assert not cols[:, :, 2, 0, 3].any() and not cols[:, :, 2, 0, :, 0].any()

    def test_col2im_shape_checked(self):
        with pytest.raises(ValueError, match="patch matrix"):
            ops.col2im(np.zeros((1, 9, 16)), (1, 2, 4, 4), 3)


class TestRelu:
    def test_forward(self):
        assert np.array_equal(ops.relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_backward_subgradient_zero_at_zero(self):
        got = ops.relu_backward(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(got, [0.0, 0.0, 1.0])

    def test_backward_matches_where(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        x[0, 0, 0, :2] = 0.0
        r = rng.normal(size=x.shape)
        assert np.array_equal(ops.relu_backward(x, r), np.where(x > 0.0, r, 0.0))

    def test_output_mask_equals_input_mask_in_place(self, rng):
        for dtype in (np.float64, np.float32):
            z = rng.normal(size=(2, 3, 4, 4)).astype(dtype)
            z[0, 0, 0, :3] = [0.0, -0.0, np.nan]
            g = rng.normal(size=z.shape).astype(dtype)
            want = ops.relu_backward(z, g)
            r = ops.relu_forward(z.copy(), out=None)
            in_place = g.copy()
            got = ops.relu_backward(r, in_place, out=in_place)
            assert got is in_place
            assert np.array_equal(got, want, equal_nan=True)
            assert want.dtype == r.dtype == dtype

    def test_matches_finite_differences_away_from_kink(self, rng):
        x = rng.normal(size=(20,))
        x = x[np.abs(x) > 1e-3]
        r = rng.normal(size=x.shape)
        ana = ops.relu_backward(x, r)
        num = numeric_grad(lambda v: float((ops.relu_forward(v) * r).sum()), x.copy())
        assert rel_err(ana, num).max() < 1e-6


class TestAvgPool:
    def test_block_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0]]).reshape(1, 1, 2, 2)
        assert ops.avgpool2_forward(x)[0, 0, 0, 0] == pytest.approx(3.0)

    def test_constant_preserved(self):
        x = np.full((2, 3, 4, 6), 1.25)
        assert np.array_equal(ops.avgpool2_forward(x), np.full((2, 3, 2, 3), 1.25))

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ops.avgpool2_forward(np.zeros((1, 1, 3, 4)))

    def test_matches_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        r = rng.normal(size=(1, 2, 2, 2))
        ana = ops.avgpool2_backward(r)
        num = numeric_grad(lambda v: float((ops.avgpool2_forward(v) * r).sum()), x.copy())
        assert np.abs(ana - num).max() < 1e-8


    def test_strided_pooling_matches_reshape_mean(self, rng):
        x = rng.normal(size=(3, 4, 10, 6))
        want = x.reshape(3, 4, 5, 2, 3, 2).mean(axis=(-3, -1))
        assert np.abs(ops.avgpool2_forward(x) - want).max() < 1e-15

    def test_backward_matches_repeat(self, rng):
        g = rng.normal(size=(2, 3, 4, 5))
        want = np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) * 0.25
        assert np.array_equal(ops.avgpool2_backward(g), want)

    def test_out_arrays_give_bitwise_same_results(self, rng):
        for dtype in (np.float64, np.float32):
            x = rng.normal(size=(3, 4, 10, 6)).astype(dtype)
            out = np.full((3, 4, 5, 3), np.nan, dtype)
            assert ops.avgpool2_forward(x, out=out) is out
            assert np.array_equal(out, ops.avgpool2_forward(x))
            back = np.full(x.shape, np.nan, dtype)
            assert ops.avgpool2_backward(out, out=back) is back
            assert np.array_equal(back, ops.avgpool2_backward(out))
            assert ops.avgpool2_forward(x).dtype == ops.avgpool2_backward(out).dtype == dtype

class TestBilinearResize:
    def test_identity_at_same_size(self, rng):
        m = rng.normal(size=(3, 5, 7))
        assert np.array_equal(ops.bilinear_resize(m, 5, 7), m)

    def test_constant_map_any_size(self):
        m = np.full((4, 6), 0.7)
        out = ops.bilinear_resize(m, 9, 3)
        assert out.shape == (9, 3)
        assert np.allclose(out, 0.7, atol=1e-15)

    def test_hand_evaluated_align_corners(self):
        out = ops.bilinear_resize(np.array([[0.0, 1.0]]), 1, 3)
        assert np.allclose(out, [[0.0, 0.5, 1.0]], atol=1e-15)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            ops.bilinear_resize(np.zeros((2, 2)), 0, 3)

    def test_integer_map_rejected(self):
        # it computes in the map's dtype, so integer taps would give [0, 0, 10]
        with pytest.raises(ValueError, match="floating-point map, got int64"):
            ops.bilinear_resize(np.array([[0, 10]]), 1, 3)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["0-lead", "1-lead", "2-lead"])
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 3), (5, 4), (7, 9), (16, 16)])
    @pytest.mark.parametrize(
        "target",
        [
            lambda h, w: (1, 1),
            lambda h, w: (h, w),
            lambda h, w: (max(1, h // 2), max(1, w // 3)),
            lambda h, w: (4 * h, 4 * w),
            lambda h, w: (2 * h + 1, 1),
            lambda h, w: (1, 3 * w - 1 if w > 1 else 5),
        ],
        ids=["to-1x1", "identity", "down", "up-4x", "up-h-1-w", "1-h-up-w"],
    )
    def test_bitwise_equal_to_gathered_rows_formula(self, rng, lead, h, w, target):
        m = rng.uniform(size=(*lead, h, w))
        th, tw = target(h, w)
        got = ops.bilinear_resize(m, th, tw)
        assert got.shape == (*lead, th, tw)
        assert np.array_equal(got, gathered_bilinear_resize(m, th, tw))

    def test_cached_taps_are_read_only(self):
        ops.bilinear_resize(np.zeros((4, 6)), 9, 11)
        for taps in (ops._taps(4, 9), ops._taps(6, 11)):
            for a in taps:
                with pytest.raises(ValueError):
                    a[...] = 0


class TestChannelSoftmax:
    def test_uniform_on_equal_logits(self):
        p = ops.channel_softmax(np.zeros((1, 3, 2, 2)))
        assert np.allclose(p, 1.0 / 3.0, atol=1e-15)

    def test_two_logit_values(self):
        logits = np.array([1.0, 0.0]).reshape(1, 2, 1, 1)
        p = ops.channel_softmax(logits)
        assert p[0, 0, 0, 0] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert p[0, 1, 0, 0] == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_per_pixel_sums_near_one(self, rng):
        p = ops.channel_softmax(rng.normal(scale=5.0, size=(2, 5, 6, 6)))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
        assert p.min() > 0.0 and p.max() < 1.0

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
    def test_shift_invariance(self, seed, shift):
        # adding a per-pixel constant across channels leaves the output unchanged
        r = np.random.default_rng(seed)
        logits = r.normal(size=(3, 4, 4))
        const = shift + r.normal(size=(1, 4, 4))
        assert np.allclose(
            ops.channel_softmax(logits), ops.channel_softmax(logits + const), atol=1e-12
        )

    def test_extreme_logits_stay_finite(self):
        logits = np.array([700.0, -700.0, 0.0]).reshape(1, 3, 1, 1)
        p = ops.channel_softmax(logits)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)



# Every op as a function of random inputs of the listed shapes.
OPS = {
    "im2col": (lambda x: ops.im2col(x, 3), [(2, 3, 6, 5)]),
    "col2im": (lambda c: ops.col2im(c, (2, 3, 6, 5), 3), [(2, 27, 30)]),
    "conv2d_forward": (ops.conv2d_forward, [(2, 3, 6, 5), (4, 3, 3, 3), (4,)]),
    "conv2d_backward": (ops.conv2d_backward, [(2, 3, 6, 5), (4, 3, 3, 3), (2, 4, 6, 5)]),
    "relu_forward": (ops.relu_forward, [(2, 3, 6, 4)]),
    "relu_backward": (ops.relu_backward, [(2, 3, 6, 4), (2, 3, 6, 4)]),
    "avgpool2_forward": (ops.avgpool2_forward, [(2, 3, 6, 4)]),
    "avgpool2_backward": (ops.avgpool2_backward, [(2, 3, 3, 2)]),
    "bilinear_resize": (lambda m: ops.bilinear_resize(m, 9, 7), [(3, 5, 4)]),
    "channel_softmax": (ops.channel_softmax, [(2, 5, 4, 4)]),
}

# The float64 arithmetic of the ops that no test above holds bitwise to a
# reference, written out in numpy, in the same order of operations.
FLOAT64_FORMULAS = {
    "col2im": lambda c: sum(
        np.pad(c.reshape(2, 3, 3, 3, 6, 5)[:, :, i, j], ((0, 0), (0, 0), (i, 2 - i), (j, 2 - j)))
        for i in range(3) for j in range(3)
    )[:, :, 1:-1, 1:-1],
    "conv2d_forward": lambda x, k, b: (
        np.matmul(k.reshape(4, 27), ops.im2col(x, 3)) + b[:, None]
    ).reshape(2, 4, 6, 5),
    "conv2d_backward": lambda x, k, r: (
        ops.col2im(np.matmul(k.reshape(4, 27).T, r.reshape(2, 4, 30)), x.shape, 3),
        np.matmul(r.reshape(2, 4, 30), ops.im2col(x, 3).transpose(0, 2, 1))
        .sum(axis=0)
        .reshape(k.shape),
        r.sum(axis=(0, 2, 3)),
    ),
    "relu_forward": lambda x: np.maximum(x, 0.0),
    "relu_backward": lambda x, r: r * (x > 0.0),
    "avgpool2_forward": lambda x: (
        x[..., ::2, ::2] + x[..., ::2, 1::2] + x[..., 1::2, ::2] + x[..., 1::2, 1::2]
    ) * 0.25,
    "channel_softmax": lambda z: np.exp(z - z.max(axis=-3, keepdims=True))
    / np.exp(z - z.max(axis=-3, keepdims=True)).sum(axis=-3, keepdims=True),
}

# |float32 result - float64 result| <= F32_TOL * max(1, max |float64 result|).
# The worst measured over 200 seeds of these inputs was 5.2e-7
# (conv2d_backward), about 4 float32 epsilons (1.19e-7); the bound leaves 4x.
F32_TOL = 2e-6


def _results(r):
    return r if isinstance(r, tuple) else (r,)


@pytest.mark.parametrize("name", FLOAT64_FORMULAS)
def test_float64_results_are_bitwise_the_float64_formulas(rng, name):
    fn, shapes = OPS[name]
    args = [rng.normal(size=s) for s in shapes]
    want = _results(FLOAT64_FORMULAS[name](*args))
    for got, w in zip(_results(fn(*args)), want, strict=True):
        assert got.dtype == np.float64
        assert np.array_equal(got, w)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", OPS)
def test_float32_inputs_give_float32_results_near_float64(name, seed):
    fn, shapes = OPS[name]
    rng = np.random.default_rng(seed)
    args = [rng.normal(size=s) for s in shapes]
    want = _results(fn(*args))
    got = _results(fn(*(a.astype(np.float32) for a in args)))
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.float32 and w.dtype == np.float64
        assert np.abs(g - w).max() <= F32_TOL * max(1.0, np.abs(w).max())
