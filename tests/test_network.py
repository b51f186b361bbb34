import threading
import time

import numpy as np
import pytest

from stc import network, ops
from stc.losses import batch_ce_and_grad, one_hot
from stc.network import (
    NetworkConfig,
    StepBuffers,
    _forward_cached,
    backward,
    forward,
    init_network,
    num_classes_of,
    output_stride,
    predict,
    row_ranges,
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
        with pytest.raises(ValueError):
            NetworkConfig(num_classes=2, kernel_size=4)


class TestForward:
    def test_output_shape(self, rng):
        ps = init_network(NetworkConfig(num_classes=4, seed=0))
        logits = forward(ps, rng.uniform(size=(2, 3, 64, 64)))
        assert logits.shape == (2, 5, 16, 16)
        assert output_stride(ps) == 4
        assert num_classes_of(ps) == 4

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
        ps = init_network(NetworkConfig(num_classes=2, seed=0))
        with pytest.raises(ValueError, match="divisible"):
            forward(ps, rng.uniform(size=(1, 3, 10, 12)))

    def test_finite_outputs(self, rng):
        ps = init_network(NetworkConfig(num_classes=4, seed=9))
        assert np.all(np.isfinite(forward(ps, rng.uniform(size=(2, 3, 16, 16)))))


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


class TestBackward:
    def _grads(self, ps, x, targets):
        logits, cache = _forward_cached(ps, x)
        ps.zero_grads()
        backward(ps, cache, batch_ce_and_grad(logits, targets)[1])
        return {n: ps[n].grad.copy() for n in ps.names()}

    def _batch(self, rng):
        ps = init_network(NetworkConfig(num_classes=3, channels=(4, 6, 8), seed=8))
        x = rng.uniform(size=(2, 3, 16, 12))
        targets = np.stack([one_hot(m, 3) for m in rng.integers(0, 4, size=(2, 4, 3))])
        return ps, x, targets

    def test_skipping_conv1_input_grad_leaves_param_grads_unchanged(self, rng, monkeypatch):
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
        logits, cache = _forward_cached(ps, x)
        assert np.array_equal(logits, forward(ps, x))
        a_in, _, cols = cache[0]
        assert np.array_equal(cols, ops.im2col(a_in, 3))
        backward(ps, cache, np.zeros_like(logits))
        assert cache == []


class NaNBuffers(StepBuffers):
    """New NaN-filled arrays on every take: a read before a write shows,
    also a read of rows another range has not written yet."""

    def take(self, name, shape):
        return np.full(shape, np.nan)


def train_step(ps, x, targets, buffers):
    """Logits and gradients of one step."""
    logits, cache = _forward_cached(ps, x, buffers)
    ps.zero_grads()
    backward(ps, cache, batch_ce_and_grad(logits, targets)[1], buffers)
    return logits, {n: ps[n].grad.copy() for n in ps.names()}


def assert_same_step(got, want):
    assert np.array_equal(got[0], want[0])
    for name, g in want[1].items():
        assert np.array_equal(got[1][name], g), name


class TestStepBuffers:
    def _step(self, ps, x, targets, buffers):
        return train_step(ps, x, targets, buffers)

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

    def _assert_same(self, got, want):
        assert_same_step(got, want)

    def test_shared_buffers_match_fresh_ones_each_step(self, rng):
        ps, batches = self._inputs(rng, [2, 2, 2])
        shared = StepBuffers()
        for x, t in batches:
            self._assert_same(self._step(ps, x, t, shared), self._step(ps, x, t, NaNBuffers()))

    def test_smaller_batch_reuses_leading_rows(self, rng):
        ps, batches = self._inputs(rng, [8, 4, 8])
        shared = StepBuffers()
        first = None
        for x, t in batches:
            got = self._step(ps, x, t, shared)
            self._assert_same(got, self._step(ps, x, t, NaNBuffers()))
            if first is None:
                first = shared.arrays()
            now = shared.arrays()
            assert now.keys() == first.keys()
            for name, buf in now.items():
                assert buf.shape[0] == 8 and np.shares_memory(buf, first[name]), name

    def test_backward_writes_into_buffers_the_forward_is_done_with(self, rng, monkeypatch):
        ps, [(x, t)] = self._inputs(rng, [2])
        shared = StepBuffers()
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return ops.conv2d_backward(*args, **kwargs)

        monkeypatch.setattr(network, "conv2d_backward", spy)
        self._step(ps, x, t, shared)
        bufs = shared.arrays()
        for i, kw in zip((3, 2), calls[1:3]):  # head, conv3, conv2, conv1
            assert kw["cols_out"] is kw["cols"]
            assert np.shares_memory(kw["cols"], bufs[f"conv{i}.cols"])
            assert np.shares_memory(kw["input_out"], bufs[f"conv{i}.padded"])

    def test_take_reallocates_only_for_a_new_shape(self):
        b = StepBuffers()
        a = b.take("x", (4, 3))
        assert b.take("x", (2, 3)).shape == (2, 3)
        assert np.shares_memory(b.take("x", (4, 3)), a)
        assert not np.shares_memory(b.take("x", (6, 3)), a)
        assert b.take("x", (6, 2)).shape == (6, 2)


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

    def _step(self, ps, x, t, buffers):
        with buffers:
            return train_step(ps, x, t, buffers)

    @pytest.mark.parametrize("soft", [True, False], ids=["soft", "masks"])
    @pytest.mark.parametrize("n, workers", [(8, 2), (8, 3), (5, 3), (1, 2), (2, 3)])
    def test_step_bitwise_equal_for_any_worker_count(self, rng, soft, n, workers):
        ps, x, t = self._inputs(rng, n, soft)
        want = self._step(ps, x, t, StepBuffers(1))
        assert_same_step(self._step(ps, x, t, StepBuffers(workers)), want)
        assert_same_step(self._step(ps, x, t, NaNBuffers(workers)), want)

    def test_each_row_runs_once_per_layer_across_threads(self, rng, monkeypatch):
        ps, x, t = self._inputs(rng, 8, False)
        calls = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                calls.append((fn.__name__, threading.get_ident(), args[0].shape[0]))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(network, "conv2d_forward", spy(ops.conv2d_forward))
        monkeypatch.setattr(network, "conv2d_backward", spy(ops.conv2d_backward))
        self._step(ps, x, t, StepBuffers(3))
        for name in ("conv2d_forward", "conv2d_backward"):
            rows = sorted(r for fn, _, r in calls if fn == name)
            assert rows == [2] * 4 + [3] * 8, name  # 4 convs x ranges of 3, 3, 2
        assert len({tid for _, tid, _ in calls}) == 3

    def test_results_are_read_only_after_every_range_has_joined(self, rng, monkeypatch):
        # pool threads run slowly, so a result read before its range is done
        # (a range never joined, a batch sum taken early) reads NaN rows
        ps, x, t = self._inputs(rng, 8, False)
        want = self._step(ps, x, t, StepBuffers(1))

        def slow(fn):
            def wrapped(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(0.02)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("conv2d_forward", "conv2d_backward", "relu_backward"):
            monkeypatch.setattr(network, name, slow(getattr(ops, name)))
        assert_same_step(self._step(ps, x, t, NaNBuffers(2)), want)

    def test_error_in_a_range_is_raised_after_all_ranges_end(self):
        ended = []

        def fn(rows):
            if rows.start == 0:
                raise RuntimeError("range failed")
            time.sleep(0.05)
            ended.append(rows)

        with StepBuffers(3) as buffers:
            with pytest.raises(RuntimeError, match="range failed"):
                buffers.run_rows(6, fn)
            assert ended and len(ended) == 2

    def test_close_ends_the_pool_threads(self):
        before = threading.active_count()
        buffers = StepBuffers(3)
        buffers.run_rows(6, lambda rows: time.sleep(0.01))
        assert threading.active_count() > before
        buffers.close()
        assert threading.active_count() == before
        buffers.run_rows(1, lambda rows: None)  # one range: no pool
        assert threading.active_count() == before
