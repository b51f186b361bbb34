import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import PEAK_RSS_KB, gathered_bilinear_resize, numeric_grad, rel_err, zero_grads
from stc import network, ops
from stc.losses import batch_ce_and_grad, one_hot
from stc.network import (
    NetworkConfig,
    _forward_cached,
    _parallel_map,
    backward,
    check_layers,
    forward,
    init_network,
    output_stride,
    predict,
    row_ranges,
    step_arrays,
)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestInit:
    def test_deterministic(self):
        cfg = NetworkConfig(num_classes=4, seed=5)
        a, b = init_network(cfg), init_network(cfg)
        assert a.names() == b.names()
        for n in a.names():
            assert np.array_equal(a[n].value, b[n].value)

    def test_biases_zero(self):
        ps = init_network(NetworkConfig(num_classes=3, seed=1))
        for name in ps.names():
            if name.endswith(".bias"):
                assert not ps[name].value.any()

    def test_he_variance_on_large_layer(self):
        ps = init_network(NetworkConfig(num_classes=2, channels=(64, 128), seed=2))
        w = ps["conv2.weight"].value  # fan_in = 64*9
        target = 2.0 / (64 * 9)
        assert abs(w.var() / target - 1.0) < 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(num_classes=0)
        with pytest.raises(ValueError):
            NetworkConfig(num_classes=2, channels=())

    @pytest.mark.parametrize("channels", [(0,), (-3, 4), (16, 0, 8)])
    def test_channel_counts_below_one_rejected_naming_the_field(self, channels):
        with pytest.raises(ValueError, match="channels"):
            NetworkConfig(num_classes=2, channels=channels)


class TestCheckLayers:
    @pytest.mark.parametrize("num_classes", [1, 2, 3, 4])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 4])
    def test_init_network_passes_giving_its_config(self, num_classes, blocks):
        cfg = NetworkConfig(num_classes, channels=(4, 6, 8, 5)[:blocks], seed=1)
        assert check_layers(init_network(cfg)) == (cfg.num_classes, cfg.channels)

    def test_head_with_one_output_channel_rejected(self):
        ps = init_network(NetworkConfig(num_classes=1, channels=(4,), seed=1))
        ps["head.weight"].value = np.zeros((1, 4, 1, 1))
        with pytest.raises(ValueError, match=r"head\.weight has shape \(1, 4, 1, 1\).*C\+1 >= 2"):
            check_layers(ps)

    def test_missing_conv3_bias_fails_training_forward_naming_it(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8), seed=8))
        ps = ps.subset(n for n in ps.names() if n != "conv3.bias")
        with pytest.raises(ValueError, match=r"missing conv3\.bias, of shape \(8,\)"):
            step_arrays(ps, (2, 3, 16, 12))


class TestForward:
    def test_output_shape(self, rng):
        ps = init_network(NetworkConfig(num_classes=4, seed=0))
        logits = forward(ps, rng.uniform(size=(2, 3, 64, 64)))
        assert logits.shape == (2, 5, 16, 16)
        assert output_stride(ps) == 4
        assert check_layers(ps) == (4, (16, 32, 64))

    def test_zero_weights_zero_logits(self, rng):
        ps = init_network(NetworkConfig(num_classes=2, seed=0))
        for name in ps.names():
            ps[name].value[...] = 0.0
        logits = forward(ps, rng.uniform(size=(1, 3, 8, 8)))
        assert not logits.any()

    def test_final_layer_linearity(self, rng):
        ps = init_network(NetworkConfig(num_classes=2, channels=(4, 6, 8), seed=3))
        x = rng.uniform(size=(1, 3, 16, 16))
        base = forward(ps, x)
        ps["head.weight"].value[...] *= 2.0
        ps["head.bias"].value[...] *= 2.0
        assert np.allclose(forward(ps, x), 2.0 * base, atol=1e-12)

    def test_indivisible_dims_rejected(self, rng):
        # the sentence of the pipeline's size check, with no file named
        ps = init_network(NetworkConfig(num_classes=2, seed=0))
        want = "^image is 10x12, not a multiple of the output stride 4$"
        with pytest.raises(ValueError, match=want):
            forward(ps, rng.uniform(size=(1, 3, 10, 12)))
        with pytest.raises(ValueError, match=want):
            predict(ps, rng.uniform(size=(10, 12, 3)))

    def test_finite_outputs(self, rng):
        ps = init_network(NetworkConfig(num_classes=4, seed=9))
        assert np.all(np.isfinite(forward(ps, rng.uniform(size=(2, 3, 16, 16)))))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_])
    def test_integer_images_rejected_naming_the_dtype(self, dtype):
        # bytes 0..255 standardized as if in [0,1] would be garbage, not an error
        ps = init_network(NetworkConfig(num_classes=2, seed=0))
        img = np.full((16, 12, 3), 128).astype(dtype)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            predict(ps, img)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            forward(ps, img.transpose(2, 0, 1)[None])

    def test_empty_batch_gives_empty_logits(self):
        ps = init_network(NetworkConfig(num_classes=4, seed=0))
        assert forward(ps, np.zeros((0, 3, 16, 12))).shape == (0, 5, 4, 3)

    def test_forward_on_a_batch_is_the_full_batch_forward_in_bits(self, rng):
        # the training forward, into full-batch arrays, is the reference
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8, 5), seed=2))
        x = rng.uniform(size=(3, 3, 16, 12))
        want = _forward_cached(ps, x, step_arrays(ps, x.shape))
        # inside a map, where the plan outlives the call
        got, plan = _parallel_map(lambda _: (forward(ps, x), held_plan()), [None])[0]
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, plan[1]["logits"])

    def test_forward_peak_memory_does_not_grow_with_the_batch(self):
        # in a fresh interpreter, so that the peak starts from the imports: a
        # forward into full-batch arrays holds every conv's patch matrix for
        # every image, about 15 MB per 128-px image with the default channels
        code = PEAK_RSS_KB + """
import numpy as np
from stc.network import NetworkConfig, _forward_cached, init_network, forward, step_arrays
ps = init_network(NetworkConfig(num_classes=4, seed=4))
x = np.random.default_rng(0).uniform(size=(10, 3, 128, 128))
before = peak_rss_kb()
got = forward(ps, x)
print((peak_rss_kb() - before) // 1024)
want = _forward_cached(ps, x, step_arrays(ps, x.shape))
print(int(np.array_equal(got, want)))
"""
        src = str(Path(network.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "STC_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        grown_mb, same = map(int, run.stdout.split())
        assert same, "forward's logits differ from the full-batch forward's"
        assert grown_mb < 50, f"forward on 10 images of 128 px grew peak RSS by {grown_mb} MB"


class TestPredict:
    def test_channel_sums_at_full_resolution(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, seed=4))
        p = predict(ps, rng.uniform(size=(16, 16, 3)))
        assert p.shape == (4, 16, 16)
        assert np.abs(p.sum(axis=0) - 1.0).max() < 1e-9

    def test_uniform_logits_give_uniform_probmap(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, seed=4))
        for name in ps.names():
            ps[name].value[...] = 0.0
        p = predict(ps, rng.uniform(size=(8, 8, 3)))
        assert np.allclose(p, 0.25, atol=1e-12)

    def test_resize_preserves_constant_channel_argmax(self, rng):
        # distinct constant logits per channel: upsampling cannot flip argmax
        ps = init_network(NetworkConfig(num_classes=2, seed=4))
        for name in ps.names():
            ps[name].value[...] = 0.0
        ps["head.bias"].value[:] = [0.1, 0.9, 0.4]
        p = predict(ps, rng.uniform(size=(12, 12, 3)))
        assert (p.argmax(axis=0) == 1).all()

    def test_deterministic_and_pure(self, rng):
        ps = init_network(NetworkConfig(num_classes=2, seed=6))
        img = rng.uniform(size=(8, 8, 3))
        before = {n: ps[n].value.copy() for n in ps.names()}
        a = predict(ps, img)
        b = predict(ps, img)
        assert np.array_equal(a, b)
        for n in ps.names():
            assert np.array_equal(ps[n].value, before[n])

    def test_rejects_wrong_layout(self):
        ps = init_network(NetworkConfig(num_classes=2, seed=6))
        with pytest.raises(ValueError, match="H, W, 3"):
            predict(ps, np.zeros((3, 8, 8)))


def held_plan():
    """The inference plan the calling thread holds, or None."""
    return getattr(network._plans, "plan", None)


class TestInferencePlan:
    def test_predict_is_softmax_upsample_of_forward(self, rng):
        # no renormalization: relabeling reads these very values
        ps = init_network(NetworkConfig(num_classes=3, seed=4))
        for size in ((16, 12), (8, 8), (16, 12), (44, 28)):
            img = rng.uniform(size=(*size, 3))
            logits = forward(ps.float32_copy(), img.transpose(2, 0, 1)[None])[0]
            probs = ops.channel_softmax(logits.astype(np.float64))
            got = predict(ps, img)
            assert np.array_equal(got, gathered_bilinear_resize(probs, *size)), size
            assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-9, size

    def test_predict_computes_in_float32_whatever_the_weights(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, seed=4))
        img = rng.uniform(size=(16, 12, 3))
        got = predict(ps, img)
        assert got.dtype == np.float64
        assert np.array_equal(got, predict(ps.float32_copy(), img))
        # forward still follows its weights: the float64 net stays the gradient oracle
        assert forward(ps, img.transpose(2, 0, 1)[None]).dtype == np.float64
        assert ps["conv1.weight"].value.dtype == np.float64

    @pytest.mark.parametrize("size", [16, 64, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_probabilities_are_within_1e5_of_the_float64_route(self, seed, size):
        ps = init_network(NetworkConfig(num_classes=4, seed=seed))
        img = np.random.default_rng(seed).uniform(size=(size, size, 3))
        probs = ops.channel_softmax(forward(ps, img.transpose(2, 0, 1)[None])[0])
        up = ops.bilinear_resize(probs, size, size)
        up /= up.sum(axis=0, keepdims=True)
        got = predict(ps, img)
        assert np.max(np.abs(got - up)) <= 1e-5
        assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-9

    def test_second_predict_leaves_the_first_result_unchanged(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, seed=4))
        other = init_network(NetworkConfig(num_classes=2, channels=(4, 6), seed=5))
        img = rng.uniform(size=(16, 12, 3))
        first = predict(ps, img)
        kept = first.copy()
        for net, size in ((ps, (16, 12)), (ps, (8, 8)), (other, (16, 12))):
            later = predict(net, rng.uniform(size=(*size, 3)))
            assert not np.shares_memory(later, first)
        assert np.array_equal(first, kept)
        assert np.array_equal(predict(ps, img), kept)

    def test_one_plan_per_thread_reused_while_the_shapes_match(self, rng, monkeypatch):
        monkeypatch.setenv("STC_THREADS", "1")  # one thread runs the items in order
        ps = init_network(NetworkConfig(num_classes=3, seed=4))

        def plan_after_predict(size):
            predict(ps, rng.uniform(size=(*size, 3)))
            return held_plan()

        plans = _parallel_map(plan_after_predict, [(16, 12), (16, 12), (8, 8)])
        assert plans[0] is not None
        assert plans[1] is plans[0]
        assert plans[2] is not plans[0]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_calling_thread_holds_no_plan_after_parallel_map(self, rng, monkeypatch, workers):
        monkeypatch.setenv("STC_THREADS", workers)
        ps = init_network(NetworkConfig(num_classes=3, seed=4))
        imgs = [rng.uniform(size=(16, 12, 3)) for _ in range(4)]
        got = _parallel_map(lambda im: (predict(ps, im), held_plan() is not None), imgs)
        assert all(held for _, held in got)
        assert held_plan() is None
        for im, (p, _) in zip(imgs, got):
            assert np.array_equal(p, predict(ps, im))

    def test_top_level_predict_and_forward_hold_no_plan(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, seed=4))
        img = rng.uniform(size=(16, 12, 3))
        p = predict(ps, img)
        assert held_plan() is None
        forward(ps, img.transpose(2, 0, 1)[None])
        assert held_plan() is None
        assert np.array_equal(p, _parallel_map(lambda im: predict(ps, im), [img])[0])

    def test_plan_is_dropped_when_parallel_map_raises(self, rng, monkeypatch):
        monkeypatch.setenv("STC_THREADS", "1")
        ps = init_network(NetworkConfig(num_classes=3, seed=4))

        def fail_after_predict(im):
            predict(ps, im)
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            _parallel_map(fail_after_predict, [rng.uniform(size=(16, 12, 3))])
        assert held_plan() is None

    @pytest.mark.parametrize("size", [64, 128])
    def test_predict_takes_no_page_faults_after_its_first_calls(self, size):
        # in a fresh interpreter: the arrays earlier tests freed leave glibc's
        # mmap and trim thresholds raised, which can hide the faults. Two
        # calls first: freeing the first result raises the mmap threshold,
        # so the second result is the first one placed on the heap. The
        # calls run inside one map, as in an inference pass: a top-level
        # predict drops its plan on return
        code = f"""
import resource
import numpy as np
from stc.network import NetworkConfig, _parallel_map, init_network, predict
ps = init_network(NetworkConfig(num_classes=4, seed=4))
img = np.random.default_rng(0).uniform(size=({size}, {size}, 3))

def faults(_):
    predict(ps, img)
    predict(ps, img)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        predict(ps, img)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(_parallel_map(faults, [None])[0])
"""
        src = str(Path(network.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "STC_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        faults = int(run.stdout)
        assert faults <= 20, f"{faults} minor page faults in 5 predict calls at {size} px"


class TestBackward:
    def _grads(self, ps, x, targets):
        return train_step(ps, x, targets)[1]

    def _batch(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8), seed=8))
        x = rng.uniform(size=(2, 3, 16, 12))
        targets = np.stack([one_hot(m, 3) for m in rng.integers(0, 4, size=(2, 4, 3))])
        return ps, x, targets

    def test_skipping_conv1_input_grad_leaves_param_grads_unchanged(self, rng, monkeypatch):
        monkeypatch.setenv("STC_THREADS", "1")  # one row range: one call per layer, in order
        ps, x, targets = self._batch(rng)
        skipped = self._grads(ps, x, targets)
        calls = []

        def full(*args, **kwargs):
            calls.append(kwargs.get("input_grad", True))
            return ops.conv2d_backward(*args, **{**kwargs, "input_grad": True})

        monkeypatch.setattr(network, "conv2d_backward", full)
        reference = self._grads(ps, x, targets)
        assert calls == [True, True, True, False]  # head, conv3, conv2, conv1
        for name in ps.names():
            assert np.array_equal(skipped[name], reference[name]), name

    def test_cached_patch_matrices_give_bitwise_same_grads(self, rng, monkeypatch):
        ps, x, targets = self._batch(rng)
        cached = self._grads(ps, x, targets)

        def rebuild(*args, **kwargs):
            return ops.conv2d_backward(*args, **{**kwargs, "cols": None})

        monkeypatch.setattr(network, "conv2d_backward", rebuild)
        rebuilt = self._grads(ps, x, targets)
        for name in ps.names():
            assert np.array_equal(cached[name], rebuilt[name]), name

    def test_training_forward_matches_forward_and_backward_consumes_cache(self, rng):
        ps, x, _ = self._batch(rng)
        arrays = step_arrays(ps, x.shape)
        logits = _forward_cached(ps, x, arrays)
        assert logits is arrays["logits"]
        assert np.array_equal(logits, forward(ps, x))
        assert np.array_equal(arrays["conv1.cols"], ops.im2col(arrays["conv1.in"], 3))
        backward(ps, arrays, np.zeros_like(logits))
        # W^T @ g, zero here, is written over the patch matrices it is done with
        for i in (2, 3):
            assert not arrays[f"conv{i}.cols"].any(), i

    def test_unpooled_convs_match_finite_differences(self, rng):
        # conv3 and conv4 do not pool: conv4 reads conv3's ReLU output, whose
        # mask conv3's backward reads, and writes conv3's upstream gradient
        # into its own padded grid
        net = init_network(NetworkConfig(num_classes=2, channels=(4, 6, 8, 5), seed=7))
        image = rng.uniform(size=(1, 3, 8, 8))
        target = rng.uniform(size=(1, 3, 2, 2))
        target /= target.sum(axis=1, keepdims=True)
        arrays = step_arrays(net, image.shape)
        logits = _forward_cached(net, image, arrays)
        zero_grads(net)
        backward(net, arrays, batch_ce_and_grad(logits, target)[1])

        def loss_fn(_):  # numeric_grad perturbs a parameter of `net` in place
            return batch_ce_and_grad(forward(net, image), target)[0]

        for name, p in net.items():
            numeric = numeric_grad(loss_fn, p.value)
            assert rel_err(p.grad, numeric).max() < 1e-4, name


def nan_filled(arrays):
    """`arrays` with every one filled with NaN: a read before a write
    shows, also a read of rows another range has not written yet."""
    for a in arrays.values():
        a[...] = np.nan
    return arrays


def train_step(ps, x, targets, arrays=None):
    """Logits and gradients of one step through `arrays`, or through new
    NaN-filled ones if None."""
    if arrays is None:
        arrays = nan_filled(step_arrays(ps, x.shape))
    logits = _forward_cached(ps, x, arrays)
    zero_grads(ps)
    backward(ps, arrays, batch_ce_and_grad(logits, targets)[1])
    return logits.copy(), {n: ps[n].grad.copy() for n in ps.names()}


def assert_same_step(got, want):
    assert np.array_equal(got[0], want[0])
    for name, g in want[1].items():
        assert np.array_equal(got[1][name], g), name


class TestStepArrays:
    def _inputs(self, rng, sizes):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8), seed=8))
        batches = [
            (
                rng.uniform(size=(n, 3, 16, 12)),
                np.stack([one_hot(m, 3) for m in rng.integers(0, 4, size=(n, 4, 3))]),
            )
            for n in sizes
        ]
        return ps, batches

    @pytest.mark.parametrize("shape", [(6, 4, 1, 1), (6, 4, 5, 5), (6, 4, 3, 1), (6, 4, 9)])
    def test_conv_weight_that_is_not_3x3_is_rejected_naming_it(self, shape):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8), seed=8))
        ps["conv2.weight"].value = np.zeros(shape)
        want = rf"conv2\.weight has shape {re.escape(str(shape))}, expected \(6, 4, 3, 3\)"
        with pytest.raises(ValueError, match=want):
            step_arrays(ps, (1, 3, 16, 12))
        with pytest.raises(ValueError, match=want):
            forward(ps, np.zeros((1, 3, 16, 12)))

    def test_a_pooled_blocks_grad_is_its_conv_output(self):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8), seed=8))
        arrays = step_arrays(ps, (2, 3, 16, 12))
        for i in (1, 2):
            assert np.shares_memory(arrays[f"conv{i}.grad"], arrays[f"conv{i}.out"]), i
            assert arrays[f"conv{i}.grad"].shape == arrays[f"conv{i}.out"].shape

    @pytest.mark.parametrize("channels", [(4, 6, 8), (4, 6), (5,)])
    def test_grad_over_the_conv_output_matches_a_separate_grad_array(self, rng, channels):
        ps = init_network(NetworkConfig(num_classes=3, channels=channels, seed=8))
        x = rng.uniform(size=(2, 3, 16, 12))
        s = output_stride(ps)
        t = np.stack([one_hot(m, 3) for m in rng.integers(0, 4, size=(2, 16 // s, 12 // s))])
        separate = nan_filled(step_arrays(ps, x.shape))
        for i in range(1, min(len(channels), 2) + 1):
            separate[f"conv{i}.grad"] = np.full_like(separate[f"conv{i}.out"], np.nan)
        assert_same_step(train_step(ps, x, t, separate), train_step(ps, x, t))

    def test_an_unpooled_blocks_grad_is_where_the_layer_above_writes(self):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8, 5), seed=8))
        arrays = step_arrays(ps, (2, 3, 16, 12))
        assert np.shares_memory(arrays["conv3.grad"], arrays["conv4.padded"])
        assert arrays["conv3.grad"].shape == arrays["conv3.out"].shape
        assert np.shares_memory(arrays["conv4.grad"], arrays["head.input_grad"])
        assert arrays["conv4.grad"].shape == arrays["conv4.out"].shape

    def test_shared_arrays_match_fresh_ones_each_step(self, rng):
        ps, batches = self._inputs(rng, [2, 2, 2])
        shared = step_arrays(ps, batches[0][0].shape)
        for x, t in batches:
            assert_same_step(train_step(ps, x, t, shared), train_step(ps, x, t))

    def test_smaller_batch_reuses_leading_rows(self, rng):
        ps, batches = self._inputs(rng, [8, 4, 8])
        full = step_arrays(ps, batches[0][0].shape)
        before = None
        for x, t in batches:
            n = x.shape[0]
            got = train_step(ps, x, t, {name: a[:n] for name, a in full.items()})
            assert_same_step(got, train_step(ps, x, t))
            assert np.array_equal(full["logits"][:n], got[0])
            if before is not None:  # the rows past the batch keep the last step's logits
                assert np.array_equal(full["logits"][n:], before[n:])
            before = full["logits"].copy()

    def test_backward_writes_into_arrays_the_forward_is_done_with(self, rng, monkeypatch):
        monkeypatch.setenv("STC_THREADS", "1")  # one row range: one call per layer, in order
        ps, [(x, t)] = self._inputs(rng, [2])
        arrays = step_arrays(ps, x.shape)
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return ops.conv2d_backward(*args, **kwargs)

        monkeypatch.setattr(network, "conv2d_backward", spy)
        train_step(ps, x, t, arrays)
        for i, kw in zip((3, 2), calls[1:3]):  # head, conv3, conv2, conv1
            assert kw["cols_out"] is kw["cols"]
            assert np.shares_memory(kw["cols"], arrays[f"conv{i}.cols"])
            assert np.shares_memory(kw["input_out"], arrays[f"conv{i}.padded"])


class TestRowRanges:
    def test_ranges_partition_the_batch_in_order(self):
        for n in range(10):
            for workers in (1, 2, 3, 4):
                ranges = row_ranges(n, workers)
                assert len(ranges) == max(1, min(workers, n))
                rows = [r for s in ranges for r in range(n)[s]]
                assert rows == list(range(n)), (n, workers)
                sizes = [len(range(n)[s]) for s in ranges]
                assert max(sizes) - min(sizes) <= 1, (n, workers)

    def _inputs(self, rng, n, soft):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8), seed=8))
        x = rng.uniform(size=(n, 3, 16, 12))
        if soft:  # per-pixel distributions, as saliency supervision gives
            t = rng.uniform(size=(n, 4, 4, 3))
            t /= t.sum(axis=1, keepdims=True)
        else:
            t = np.stack([one_hot(m, 3) for m in rng.integers(0, 4, size=(n, 4, 3))])
        return ps, x, t

    def _step(self, monkeypatch, workers, ps, x, t, arrays=None):
        monkeypatch.setenv("STC_THREADS", str(workers))
        return train_step(ps, x, t, arrays)

    @pytest.mark.parametrize("soft", [True, False], ids=["soft", "masks"])
    @pytest.mark.parametrize("n, workers", [(8, 2), (8, 3), (5, 3), (1, 2), (2, 3)])
    def test_step_bitwise_equal_for_any_worker_count(self, rng, monkeypatch, soft, n, workers):
        ps, x, t = self._inputs(rng, n, soft)
        want = self._step(monkeypatch, 1, ps, x, t, step_arrays(ps, x.shape))
        got = self._step(monkeypatch, workers, ps, x, t, step_arrays(ps, x.shape))
        assert_same_step(got, want)
        assert_same_step(self._step(monkeypatch, workers, ps, x, t), want)

    def test_each_row_runs_once_per_layer_across_threads(self, rng, monkeypatch):
        ps, x, t = self._inputs(rng, 8, False)
        calls = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                calls.append((fn.__name__, threading.current_thread(), args[0].shape[0]))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(network, "conv2d_forward", spy(ops.conv2d_forward))
        monkeypatch.setattr(network, "conv2d_backward", spy(ops.conv2d_backward))
        self._step(monkeypatch, 3, ps, x, t)
        for name in ("conv2d_forward", "conv2d_backward"):
            rows = sorted(r for fn, _, r in calls if fn == name)
            assert rows == [2] * 4 + [3] * 8, name  # 4 convs x ranges of 3, 3, 2
            # the forward call, then the backward call, each on 3 threads (Thread
            # objects: an ident may be reused once its thread has ended)
            assert len({th for fn, th, _ in calls if fn == name}) == 3, name

    def test_results_are_read_only_after_every_range_has_joined(self, rng, monkeypatch):
        # pool threads run slowly, so a result read before its range is done
        # (a range never joined, a batch sum taken early) reads NaN rows
        ps, x, t = self._inputs(rng, 8, False)
        want = self._step(monkeypatch, 1, ps, x, t, step_arrays(ps, x.shape))

        def slow(fn):
            def wrapped(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(0.02)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("conv2d_forward", "conv2d_backward", "relu_backward"):
            monkeypatch.setattr(network, name, slow(getattr(ops, name)))
        assert_same_step(self._step(monkeypatch, 2, ps, x, t), want)

    def test_parallel_map_results_in_item_order(self, monkeypatch):
        # up to more workers than cores, switching threads as often as it can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 4, 8):
                monkeypatch.setenv("STC_THREADS", str(workers))
                for n in range(10):
                    got = _parallel_map(lambda v: v * v, range(n))
                    assert got == [v * v for v in range(n)], (workers, n)
        finally:
            sys.setswitchinterval(interval)

    def test_error_in_a_range_is_raised_after_all_ranges_end(self, monkeypatch):
        monkeypatch.setenv("STC_THREADS", "3")
        ended = []

        def fn(rows):
            if rows.start == 0:
                raise RuntimeError("range failed")
            time.sleep(0.05)
            ended.append(rows)

        with pytest.raises(RuntimeError, match="range failed"):
            _parallel_map(fn, row_ranges(6, 3))
        assert ended and len(ended) == 2

    def test_parallel_map_raises_the_first_error_the_callers_first(self, monkeypatch):
        monkeypatch.setenv("STC_THREADS", "3")

        def failing(*starts):
            def fn(rows):
                if rows.start in starts:
                    raise RuntimeError(f"range {rows.start} failed")
            return fn

        with pytest.raises(RuntimeError, match="range 0 failed"):
            _parallel_map(failing(0, 2, 4), row_ranges(6, 3))
        with pytest.raises(RuntimeError, match="range 2 failed"):
            _parallel_map(failing(2, 4), row_ranges(6, 3))

    def test_threads_end_when_parallel_map_returns(self, monkeypatch):
        monkeypatch.setenv("STC_THREADS", "3")
        before = threading.active_count()

        def count(rows):
            time.sleep(0.01)
            return threading.active_count()

        assert max(_parallel_map(count, row_ranges(6, 3))) > before
        assert threading.active_count() == before
        # one range: no thread
        assert _parallel_map(count, row_ranges(1, 3)) == [before]
        assert threading.active_count() == before
