import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import restricted_argmax_scan
from stc.network import NetworkConfig, init_network, predict
from stc.ops import channel_softmax
from stc.pseudolabel import argmax_full, argmax_restricted, relabel_complex, relabel_simple


def probmap(seed, c1=5, h=6, w=6):
    return channel_softmax(np.random.default_rng(seed).normal(size=(c1, h, w)))


class TestArgmaxFull:
    def test_direct(self):
        pred = np.array([0.2, 0.5, 0.3]).reshape(3, 1, 1)
        assert argmax_full(pred)[0, 0] == 1

    def test_tie_goes_to_smallest_label(self):
        pred = np.array([0.5, 0.5, 0.0]).reshape(3, 1, 1)
        assert argmax_full(pred)[0, 0] == 0

    def test_matches_brute_force_scan(self):
        for seed in range(5):
            pred = probmap(seed)
            assert np.array_equal(argmax_full(pred), restricted_argmax_scan(pred, range(5)))


class TestArgmaxRestricted:
    def test_excluded_winner_falls_to_allowed(self):
        pred = np.array([0.2, 0.5, 0.3]).reshape(3, 1, 1)
        assert argmax_restricted(pred, {0, 2})[0, 0] == 2

    def test_full_set_reproduces_argmax_full(self):
        for seed in range(5):
            pred = probmap(seed)
            assert np.array_equal(
                argmax_restricted(pred, set(range(5))), argmax_full(pred)
            )

    def test_requires_background(self):
        with pytest.raises(ValueError, match="background"):
            argmax_restricted(probmap(0), {1, 2})
        with pytest.raises(ValueError, match="background"):
            argmax_restricted(probmap(0), set())

    def test_rejects_labels_beyond_channels(self):
        with pytest.raises(ValueError, match="outside"):
            argmax_restricted(probmap(0), {0, 9})

    def test_label_ids_above_255_rejected_naming_the_label(self):
        pred = probmap(0, c1=301, h=2, w=2)
        with pytest.raises(ValueError, match="label 300 .*uint8"):
            argmax_restricted(pred, {0, 2, 300})
        assert argmax_restricted(pred, {0, 255}).dtype == np.uint8

    def test_matches_brute_force_scan(self):
        for seed in range(5):
            pred = probmap(seed)
            allowed = {0, 2, 4}
            assert np.array_equal(
                argmax_restricted(pred, allowed), restricted_argmax_scan(pred, allowed)
            )

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sets(st.integers(1, 4), max_size=3))
    def test_soundness_property(self, seed, extra):
        allowed = {0} | extra
        out = argmax_restricted(probmap(seed), allowed)
        assert set(np.unique(out)) <= allowed

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_removing_nonwinner_never_changes_output(self, seed):
        pred = probmap(seed)
        full = argmax_restricted(pred, {0, 1, 2, 3, 4})
        for drop in (1, 2, 3, 4):
            reduced = argmax_restricted(pred, {0, 1, 2, 3, 4} - {drop})
            keep = full != drop
            assert np.array_equal(full[keep], reduced[keep])


@pytest.fixture(scope="module")
def net():
    return init_network(NetworkConfig(num_classes=4, seed=13))


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(3).uniform(size=(16, 16, 3))


class TestRelabel:
    def test_simple_restricted_to_background_and_class(self, net, image):
        mask = relabel_simple(net, image, 3)
        assert set(np.unique(mask)) <= {0, 3}

    def test_simple_deterministic(self, net, image):
        assert np.array_equal(relabel_simple(net, image, 2), relabel_simple(net, image, 2))

    def test_simple_rejects_background_class(self, net, image):
        with pytest.raises(ValueError):
            relabel_simple(net, image, 0)

    def test_complex_restricted_to_labels_plus_background(self, net, image):
        mask = relabel_complex(net, image, {2, 4})
        assert set(np.unique(mask)) <= {0, 2, 4}

    def test_complex_with_one_label_equals_simple(self, net, image):
        for c in (1, 2, 3, 4):
            assert np.array_equal(relabel_complex(net, image, {c}), relabel_simple(net, image, c))

    def test_complex_with_all_classes_equals_full(self, net, image):
        full = argmax_full(predict(net, image))
        assert np.array_equal(relabel_complex(net, image, {1, 2, 3, 4}), full)

    @settings(max_examples=100)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.lists(st.integers(1, 16), min_size=3, max_size=3),
        st.integers(2, 32),
        st.integers(2, 32),
        st.data(),
    )
    def test_relabel_is_restricted_argmax_of_predict(self, seed, classes, channels, h, w, data):
        # relabel upsamples only the allowed channels and skips the
        # renormalization; its masks must still be those of the full route
        net = init_network(NetworkConfig(classes, channels=tuple(channels), seed=seed))
        image = np.random.default_rng(seed).uniform(size=(4 * h, 4 * w, 3))
        labels = data.draw(st.sets(st.integers(1, classes), min_size=1))
        pred = predict(net, image)
        want = argmax_restricted(pred, labels | {0})
        assert np.array_equal(relabel_complex(net, image, labels), want)
        c = data.draw(st.sampled_from(sorted(labels)))
        assert np.array_equal(relabel_simple(net, image, c), argmax_restricted(pred, {0, c}))

    def test_masks_are_uint8(self, net, image):
        assert relabel_simple(net, image, 3).dtype == np.uint8
        assert relabel_complex(net, image, {2, 4}).dtype == np.uint8

    def test_complex_rejects_empty_labels(self, net, image):
        with pytest.raises(ValueError, match="non-empty"):
            relabel_complex(net, image, set())

    def test_pixels_with_allowed_winner_unchanged(self, net, image):
        pred = predict(net, image)
        full = argmax_full(pred)
        restricted = relabel_complex(net, image, {1, 2})
        inside = np.isin(full, [0, 1, 2])
        assert np.array_equal(full[inside], restricted[inside])


def test_trained_pseudo_masks_beat_thresholded_saliency(tmp_path):
    # the stage-2 improvement premise: on a trained first-stage net, pseudo-mask
    # foreground IoU exceeds that of the 0.5-thresholded saliency maps on average
    from stc import data
    from stc.pipeline import (
        SUPERVISION_SALIENCY,
        TrainConfig,
        _saliency_bytes,
        train_stage,
    )

    data.write_dataset(data.build_dataset(200, 0, 0, seed=77), tmp_path)
    manifest = data.read_dataset(tmp_path)
    pairs = [(manifest, r) for r in manifest.records]
    decoded = [(r, manifest.load_image_bytes(r)) for r in manifest.records]
    maps = [_saliency_bytes(image) for _, image in decoded]
    trained = init_network(NetworkConfig(4, seed=40))
    train_stage(trained, decoded, SUPERVISION_SALIENCY, maps, TrainConfig(seed=41))

    def fg_iou(mask, gt, c):
        inter = ((mask == c) & (gt == c)).sum()
        union = ((mask == c) | (gt == c)).sum()
        return inter / union if union else 1.0

    mask_scores, saliency_scores = [], []
    for (mf, rec), sal in zip(pairs, maps):
        gt = mf.load_gt_mask(rec)
        c = min(rec.labels)
        pseudo = relabel_simple(trained, mf.load_image(rec), c)
        mask_scores.append(fg_iou(pseudo, gt, c))
        saliency_scores.append(fg_iou(np.where(sal >= 128, c, 0), gt, c))
    assert np.mean(mask_scores) >= np.mean(saliency_scores)
