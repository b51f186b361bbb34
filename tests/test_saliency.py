import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stc import data
from stc.saliency import _box_blur, compute_saliency, normalize_saliency


def window_mean_blur(image, k):
    p = k // 2
    padded = np.pad(image, ((p, p), (p, p), (0, 0)), mode="edge")
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    return win.mean(axis=(-2, -1))


class TestNormalize:
    def test_min_max_formula(self):
        assert np.allclose(normalize_saliency(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0])

    def test_constant_map_goes_to_zero(self):
        assert not normalize_saliency(np.full((4, 4), 3.7)).any()

    def test_identity_on_already_normalized(self):
        raw = np.array([[0.0, 0.25], [0.75, 1.0]])
        assert np.array_equal(normalize_saliency(raw), raw)

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.floats(-1e6, 1e6))
    def test_shift_invariance(self, seed, shift):
        raw = np.random.default_rng(seed).uniform(size=(5, 5))
        assert np.allclose(
            normalize_saliency(raw), normalize_saliency(raw + shift), atol=1e-9
        )

    def test_output_range(self):
        out = normalize_saliency(np.random.default_rng(3).normal(size=(8, 8)))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestBoxBlur:
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", [(64, 64), (128, 128), (37, 53), (5, 5), (1, 7)])
    def test_bitwise_equal_to_window_mean(self, shape, k):
        img = np.random.default_rng(shape[0] * 100 + shape[1] + k).uniform(size=(*shape, 3))
        assert np.array_equal(_box_blur(img, k), window_mean_blur(img, k))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_bitwise_equal_on_corpus_images(self, k):
        for ex in data.build_dataset(20, 0, 0, seed=3):
            assert np.array_equal(_box_blur(ex.image, k), window_mean_blur(ex.image, k))


class TestComputeSaliency:
    def test_uniform_image_gives_zero_map(self):
        img = np.full((16, 16, 3), 0.4)
        assert not compute_saliency(img).any()

    def test_white_disc_on_black(self):
        img = np.zeros((32, 32, 3))
        yy, xx = np.mgrid[0:32, 0:32]
        disc = (xx - 16) ** 2 + (yy - 16) ** 2 <= 64
        img[disc] = 1.0
        s = compute_saliency(img)
        assert s[disc].mean() > s[~disc].mean()

    def test_output_in_unit_range(self):
        img, _, _ = data.gen_simple(2, 5)
        s = compute_saliency(img)
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_object_beats_background_on_generated_corpus(self):
        wins = 0
        for i in range(30):
            img, mask, _ = data.gen_simple(1 + i % 4, np.random.SeedSequence([21, i]))
            s = compute_saliency(img)
            fg = mask > 0
            wins += s[fg].mean() > s[~fg].mean()
        assert wins == 30

    def test_deterministic(self):
        img, _, _ = data.gen_simple(3, 9)
        assert np.array_equal(compute_saliency(img), compute_saliency(img))
