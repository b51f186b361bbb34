import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import numeric_grad, rel_err
from stc.losses import (
    batch_ce_and_grad,
    build_simple_target,
    downsample_mask_nearest,
    multilabel_ce,
    multilabel_ce_grad,
    one_hot,
    singlelabel_ce,
)
from stc.ops import channel_softmax


def random_probmap(rng, c1, h, w):
    return channel_softmax(rng.normal(size=(c1, h, w)))


def random_target(rng, c1, h, w):
    t = rng.uniform(size=(c1, h, w))
    return t / t.sum(axis=0, keepdims=True)


class TestBuildSimpleTarget:
    def test_direct_construction(self):
        sal = np.full((4, 4), 0.8)
        t = build_simple_target(sal, class_id=2, h=4, w=4, num_classes=3)
        assert np.allclose(t[2], 0.8)
        assert np.allclose(t[0], 0.2)
        assert not t[1].any() and not t[3].any()

    def test_zero_saliency_gives_pure_background(self):
        t = build_simple_target(np.zeros((6, 6)), 1, 3, 3, 4)
        assert np.allclose(t[0], 1.0)
        assert not t[1:].any()

    def test_channel_sums_exactly_one(self):
        rng = np.random.default_rng(0)
        t = build_simple_target(rng.uniform(size=(16, 16)), 3, 4, 4, 4)
        assert np.array_equal(t.sum(axis=0), np.ones((4, 4)))

    def test_resizes_saliency_to_target_grid(self):
        t = build_simple_target(np.array([[0.0, 1.0]]), 1, 1, 3, 2)
        assert np.allclose(t[1], [[0.0, 0.5, 1.0]])

    def test_background_or_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            build_simple_target(np.zeros((2, 2)), 0, 2, 2, 4)
        with pytest.raises(ValueError):
            build_simple_target(np.zeros((2, 2)), 5, 2, 2, 4)


class TestMultilabelCe:
    def test_half_confidence_every_pixel(self):
        # one-hot target at class 1, prediction 0.5 there
        pred = np.stack([np.full((3, 3), 0.5), np.full((3, 3), 0.5)])
        target = one_hot(np.ones((3, 3), dtype=int), 1)
        assert multilabel_ce(pred, target) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_entropy_of_uniform(self):
        p = np.full((2, 4, 4), 0.5)
        assert multilabel_ce(p, p) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction_limit(self):
        target = one_hot(np.zeros((2, 2), dtype=int), 1)
        assert multilabel_ce(target, target) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_rejects_a_label_above_the_class_count(self):
        with pytest.raises(ValueError, match=r"mask labels outside 0\.\.2"):
            one_hot(np.array([[0, 3]]), 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            multilabel_ce(np.zeros((2, 3, 3)), np.zeros((2, 4, 4)))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pred = random_probmap(rng, 3, 4, 4)
            target = random_target(rng, 3, 4, 4)
            assert multilabel_ce(pred, target) >= 0.0

    def test_invariant_under_per_pixel_logit_shift(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 5, 5))
        target = random_target(rng, 4, 5, 5)
        shift = rng.normal(size=(1, 5, 5))
        a = multilabel_ce(channel_softmax(logits), target)
        b = multilabel_ce(channel_softmax(logits + shift), target)
        assert a == pytest.approx(b, abs=1e-9)


class TestMultilabelCeGrad:
    def test_zero_at_match(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 4, 4))
        target = channel_softmax(logits)
        assert np.abs(multilabel_ce_grad(logits, target)).max() < 1e-15

    def test_per_pixel_channel_sums_vanish(self):
        rng = np.random.default_rng(7)
        g = multilabel_ce_grad(rng.normal(size=(5, 6, 6)), random_target(rng, 5, 6, 6))
        assert np.abs(g.sum(axis=0)).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 4, 4))
        target = random_target(rng, 3, 4, 4)
        ana = multilabel_ce_grad(logits, target)
        num = numeric_grad(
            lambda z: multilabel_ce(channel_softmax(z), target), logits.copy()
        )
        assert rel_err(ana, num).max() < 1e-6


class TestSinglelabelCe:
    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_multilabel_with_one_hot(self, seed):
        rng = np.random.default_rng(seed)
        pred = random_probmap(rng, 4, 5, 5)
        mask = rng.integers(0, 4, size=(5, 5))
        a = singlelabel_ce(pred, mask)
        b = multilabel_ce(pred, one_hot(mask, 3))
        assert abs(a - b) < 1e-12

    def test_confident_correct_prediction(self):
        mask = np.ones((4, 4), dtype=int)
        pred = np.where(one_hot(mask, 1) > 0, 0.99, 0.01)
        assert singlelabel_ce(pred, mask) == pytest.approx(-np.log(0.99), abs=1e-9)

    def test_uniform_prediction_gives_log_classes(self):
        rng = np.random.default_rng(9)
        pred = np.full((5, 3, 3), 0.2)
        for _ in range(3):
            mask = rng.integers(0, 5, size=(3, 3))
            assert singlelabel_ce(pred, mask) == pytest.approx(np.log(5.0), abs=1e-9)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            singlelabel_ce(np.full((3, 2, 2), 1 / 3), np.full((2, 2), 3))


class TestBatchCeAndGrad:
    def test_soft_targets_equal_per_image_mean_and_stack(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(3, 4, 5, 6))
        targets = np.stack(
            [build_simple_target(rng.uniform(size=(20, 24)), c, 5, 6, 3) for c in (1, 3, 2)]
        )
        loss, grad = batch_ce_and_grad(logits, targets)
        probs = channel_softmax(logits)
        want = np.mean([multilabel_ce(probs[j], targets[j]) for j in range(3)])
        assert loss == pytest.approx(want, abs=1e-12)
        assert np.array_equal(
            grad, np.stack([multilabel_ce_grad(logits[j], targets[j]) for j in range(3)])
        )

    def test_one_hot_targets_equal_per_image_singlelabel_mean_and_stack(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(scale=3.0, size=(4, 5, 3, 7))
        masks = rng.integers(0, 5, size=(4, 3, 7))
        targets = np.stack([one_hot(m, 4) for m in masks])
        loss, grad = batch_ce_and_grad(logits, targets)
        probs = channel_softmax(logits)
        want = np.mean([singlelabel_ce(probs[j], masks[j]) for j in range(4)])
        assert loss == pytest.approx(want, abs=1e-12)
        assert np.array_equal(
            grad, np.stack([multilabel_ce_grad(logits[j], targets[j]) for j in range(4)])
        )

    def test_matches_finite_differences_of_summed_loss(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(2, 3, 3, 4))
        targets = random_target(rng, 3, 3, 4)[None].repeat(2, axis=0)
        _, grad = batch_ce_and_grad(logits, targets)
        # the gradient is that of the sum over images: N times the mean's
        num = numeric_grad(lambda z: 2 * batch_ce_and_grad(z, targets)[0], logits.copy())
        assert rel_err(grad, num).max() < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_float32_logits_give_a_float32_gradient_near_float64(self, seed):
        # the float64 targets are converted to the logits' dtype. Over 300
        # seeds the worst relative error was 1.3e-7 (loss) and 2.2e-7 (the
        # gradient, relative to its largest magnitude); the bound leaves 4x
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(2, 4, 5, 6))
        targets = np.stack([random_target(rng, 4, 5, 6) for _ in range(2)])
        loss64, grad64 = batch_ce_and_grad(logits, targets)
        loss32, grad32 = batch_ce_and_grad(logits.astype(np.float32), targets)
        assert grad64.dtype == np.float64 and grad32.dtype == np.float32
        assert abs(loss32 - loss64) <= 1e-6 * loss64
        assert np.abs(grad32 - grad64).max() <= 1e-6 * np.abs(grad64).max()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="logits"):
            batch_ce_and_grad(np.zeros((2, 3, 4, 4)), np.zeros((2, 3, 2, 2)))
        with pytest.raises(ValueError, match="logits"):
            batch_ce_and_grad(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))

class TestDownsampleMaskNearest:
    def test_exact_factor_sampling(self):
        mask = np.arange(16).reshape(4, 4)
        out = downsample_mask_nearest(mask, 2, 2)
        # cell centers of the 2x2 grid -> source pixels (1,1),(1,3),(3,1),(3,3)
        assert np.array_equal(out, [[5, 7], [13, 15]])

    def test_identity_when_same_size(self):
        mask = np.arange(12).reshape(3, 4)
        assert np.array_equal(downsample_mask_nearest(mask, 3, 4), mask)

    def test_labels_preserved_not_interpolated(self):
        mask = np.array([[0, 4], [4, 0]])
        out = downsample_mask_nearest(mask, 1, 1)
        assert out[0, 0] in (0, 4)
