import dataclasses
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PEAK_RSS_KB, SCHEDULE_KEYS, brute_force_iou
from stc import cli, data, imageio, network, ops
from stc import pipeline
from stc.imageio import read_pgm, write_saliency_pgm
from stc.losses import batch_ce_and_grad, build_simple_target
from stc.network import NetworkConfig, _forward_cached, backward, init_network, step_arrays
from stc.params import save_params
from stc.pipeline import (
    SUPERVISION_MASKS,
    SUPERVISION_SALIENCY,
    StageReport,
    TrainConfig,
    confusion_matrix,
    evaluate,
    iou_from_confusion,
    run_stc,
    train_stage,
    worker_count,
    write_report_csv,
    write_report_json,
)
from stc.pipeline import _saliency_bytes, _saliency_for
from stc.pseudolabel import relabel_simple
from stc.saliency import compute_saliency


TINY_CHANNELS = (6, 8, 10)
TINY = TrainConfig(batch_size=4, epochs=2, crop_size=48, seed=5, channels=TINY_CHANNELS)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    data.write_dataset(data.build_dataset(8, 4, 3, seed=2), root)
    return data.read_dataset(root)


def simple_pairs(manifest):
    m = manifest.split("simple")
    return [(m, r) for r in m.records]


def decoded(pairs):
    """(manifest, record) pairs as `train_stage` takes them: (record, uint8 image)."""
    return [(r, m.load_image_bytes(r)) for m, r in pairs]


def saliency_maps(pairs):
    return [_saliency_bytes(m.load_image_bytes(r)) for m, r in pairs]


class TestMetrics:
    def test_hand_enumerated_2x2_case(self):
        gt = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        per, miou = iou_from_confusion(confusion_matrix(gt, pred, 2))
        assert per[0] == pytest.approx(0.5)
        assert per[1] == pytest.approx(2.0 / 3.0)
        assert miou == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(3)
        pairs = [
            (rng.integers(0, 5, size=(6, 7)), rng.integers(0, 5, size=(6, 7)))
            for _ in range(10)
        ]
        conf = sum(confusion_matrix(g, p, 5) for g, p in pairs)
        per, miou = iou_from_confusion(conf)
        oracle_per, oracle_miou = brute_force_iou(pairs, 5)
        assert np.allclose(per, oracle_per, atol=1e-12)
        assert miou == pytest.approx(oracle_miou, abs=1e-12)

    def test_absent_class_scores_one(self):
        gt = np.zeros((4, 4), dtype=int)
        pred = np.zeros((4, 4), dtype=int)
        per, miou = iou_from_confusion(confusion_matrix(gt, pred, 3))
        assert per == [1.0, 1.0, 1.0]
        assert miou == 1.0

    def test_confusion_sums_equal_pixel_count(self):
        rng = np.random.default_rng(8)
        gt = rng.integers(0, 4, size=(10, 10))
        pred = rng.integers(0, 4, size=(10, 10))
        conf = confusion_matrix(gt, pred, 4)
        assert conf.sum() == 100
        assert np.array_equal(conf.sum(axis=1), np.bincount(gt.ravel(), minlength=4))
        assert np.array_equal(conf.sum(axis=0), np.bincount(pred.ravel(), minlength=4))


class TestEvaluate:
    def test_all_background_predictor(self, corpus):
        # zero weights + background-favoring head bias predict background everywhere
        net = init_network(NetworkConfig(4, seed=0))
        for n in net.names():
            net[n].value[...] = 0.0
        net["head.bias"].value[0] = 1.0
        per, miou = evaluate(net, corpus.split("eval"))
        present = set()
        for rec in corpus.split("eval").records:
            present |= rec.labels
        for c in present:
            assert per[c] == 0.0

    def test_perfect_prediction_scores_one(self, tmp_path):
        # gt masks that are all background match the all-background predictor
        examples = list(data.build_dataset(1, 0, 0, seed=4))
        gt = np.zeros_like(examples[0].gt_mask)
        examples[0] = data.DatasetExample(
            "eval_0000", examples[0].image, frozenset({1}), "eval", gt
        )
        data.write_dataset(examples, tmp_path)
        manifest = data.read_dataset(tmp_path)
        net = init_network(NetworkConfig(4, seed=0))
        for n in net.names():
            net[n].value[...] = 0.0
        net["head.bias"].value[0] = 1.0
        per, miou = evaluate(net, manifest.split("eval"))
        assert miou == 1.0

    def test_missing_gt_rejected(self, corpus):
        complex_m = corpus.split("complex")  # has gt on disk but exercise the check
        rec = complex_m.records[0]
        import dataclasses

        broken = data.DatasetManifest(
            complex_m.root, [dataclasses.replace(rec, gt_mask=None)]
        )
        net = init_network(NetworkConfig(4, seed=0))
        with pytest.raises(ValueError, match="ground-truth"):
            evaluate(net, broken)


    def test_out_of_range_gt_label_names_file_and_label(self, tmp_path):
        examples = list(data.build_dataset(0, 0, 2, seed=4))
        gt = examples[1].gt_mask.copy()
        gt[0, 0] = 9
        examples[1] = data.DatasetExample(
            examples[1].name, examples[1].image, examples[1].labels, "eval", gt
        )
        data.write_dataset(examples, tmp_path)
        manifest = data.read_dataset(tmp_path)
        bad = manifest.records[1].gt_mask
        net = init_network(NetworkConfig(4, seed=0))
        with pytest.raises(ValueError, match=rf"{re.escape(bad)}.*label 9"):
            evaluate(net, manifest.split("eval"))

    @pytest.mark.parametrize("shape", [(32, 32), (1, 1), (64, 32)])
    def test_gt_mask_of_another_shape_names_file(self, tmp_path, shape):
        examples = list(data.build_dataset(0, 0, 2, seed=4))
        gt = np.zeros(shape, dtype=np.int64)
        examples[1] = data.DatasetExample(
            examples[1].name, examples[1].image, examples[1].labels, "eval", gt
        )
        data.write_dataset(examples, tmp_path)
        manifest = data.read_dataset(tmp_path)
        bad = manifest.records[1].gt_mask
        net = init_network(NetworkConfig(4, seed=0))
        with pytest.raises(ValueError, match=rf"{re.escape(bad)}.*{shape[0]}x{shape[1]}"):
            evaluate(net, manifest.split("eval"))


@pytest.mark.parametrize(
    "key, value",
    [
        ("enhance_rounds", 0), ("channels", ()), ("channels", (8, 0, 4)), ("num_classes", 0),
        ("seed", -1),
    ],
)
def test_train_config_out_of_range_error_names_the_key(key, value):
    with pytest.raises(ValueError, match=f"config key {key!r}"):
        TrainConfig(**{key: value})


@pytest.mark.parametrize(
    "key, value, want",
    [
        ("epochs", 2.5, "an integer"),
        ("crop_size", 48.0, "an integer"),
        ("seed", 1.5, "an integer"),
        ("channels", (8.5, 6, 8), "a list of 3 positive integers"),
        ("channels", (6,), "a list of 3 positive integers"),
        ("channels", (6, 8, 10, 12), "a list of 3 positive integers"),
        ("batch_size", True, "an integer"),
        ("warm_start", 1, "true or false"),
        ("num_classes", 3.0, "an integer"),
    ],
)
def test_train_config_value_of_another_type_rejected_naming_the_key(key, value, want):
    # the library gets the checks `stc run --config` gets, when the config is built
    with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be {want}, got ")):
        TrainConfig(**{key: value})


def test_train_config_takes_a_list_for_channels():
    config = TrainConfig(channels=[4, 6, 8], num_classes=3)
    assert config.channels == (4, 6, 8) and config.num_classes == 3
    assert TrainConfig().num_classes is None


@pytest.mark.parametrize("key", SCHEDULE_KEYS)
def test_sgd_schedule_is_no_train_config_setting(key):
    with pytest.raises(TypeError, match=key):
        TrainConfig(**{key: 1})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=8,
)


@settings(max_examples=300)
@given(key=st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]), value=JSON_VALUES)
def test_train_config_of_any_json_value_builds_or_raises_naming_the_key(key, value):
    try:
        TrainConfig(**{key: value})
    except ValueError as e:
        assert str(e).startswith(f"config key {key!r} "), e


@pytest.mark.parametrize("num_classes, want", [(None, 4), (6, 6)])
def test_load_corpus_class_count_is_the_configs_else_the_largest_label(corpus, num_classes, want):
    loaded = pipeline.load_corpus(
        *(corpus.split(s) for s in data.SPLITS), replace(TINY, num_classes=num_classes)
    )
    assert loaded.num_classes == want


def _corpus_with_one_cut_image(root, split: str):
    """An 8/4/3 corpus of 68-px images whose first `split` image (and its
    mask) is cut to 66 px."""
    examples = list(data.build_dataset(8, 4, 3, seed=2, size=68))
    i = next(i for i, ex in enumerate(examples) if ex.split == split)
    cut = examples[i]
    examples[i] = replace(cut, image=cut.image[:66, :66], gt_mask=cut.gt_mask[:66, :66])
    data.write_dataset(examples, root)
    return data.read_dataset(root), f"images/{cut.name}.ppm"


@pytest.mark.parametrize("split", data.SPLITS)
def test_load_corpus_holds_every_image_side_to_a_multiple_of_4(tmp_path, split):
    manifest, cut = _corpus_with_one_cut_image(tmp_path, split)
    with pytest.raises(ValueError) as err:
        pipeline.load_corpus(*(manifest.split(s) for s in data.SPLITS), TINY)
    want = f"{tmp_path / cut}: image is 66x66, not a multiple of the output stride 4"
    assert str(err.value) == want


def _prior(num_classes: int, channels=TINY_CHANNELS):
    return init_network(NetworkConfig(num_classes, channels=channels, seed=4))


# case -> (stage, prior, whether the config warm-starts, the error)
BAD_PRIORS = {
    "none": ("enhanced", None, False, "stage 'enhanced' takes a prior"),
    "classes": (
        "powerful", lambda: _prior(2), False,
        "checkpoint has num_classes 2, the run has num_classes 4",
    ),
    "initial": ("initial", lambda: _prior(4), False, "stage 'initial' takes no prior"),
    "warm-channels": (
        "enhanced", lambda: _prior(4, (6, 8, 12)), True,
        "checkpoint has channels [6, 8, 12], the run config has channels [6, 8, 10], "
        "and warm_start trains the checkpoint",
    ),
    "layers": (
        "enhanced",
        lambda: _prior(4).subset([*(f"conv{i}.weight" for i in (1, 2, 3)), "head.weight"]), False,
        "missing conv1.bias",
    ),
    "unknown-stage": (
        "Enhanced", lambda: _prior(4), False,
        "unknown stage 'Enhanced': the stages are initial, enhanced, powerful",
    ),
}


def _no_stage_work(monkeypatch):
    def no_stage_work(*args, **kwargs):
        raise AssertionError("stage work ran although an input is bad")

    for fn in ("compute_saliency", "relabel_complex", "train_stage", "init_network"):
        monkeypatch.setattr(pipeline, fn, no_stage_work)


@pytest.mark.parametrize("case", list(BAD_PRIORS))
def test_run_stage_rejects_a_bad_prior_before_any_stage_work(corpus, tmp_path, monkeypatch, case):
    stage, prior, warm_start, want = BAD_PRIORS[case]
    loaded = pipeline.load_corpus(*(corpus.split(s) for s in data.SPLITS), TINY)
    _no_stage_work(monkeypatch)
    out = tmp_path / "out"
    config = replace(TINY, warm_start=warm_start)
    with pytest.raises(ValueError) as err:
        pipeline.run_stage(stage, prior and prior(), loaded, config, out_dir=out)
    assert str(err.value).startswith(want), err.value
    assert not out.exists()


def test_train_config_channels_default_is_the_networks():
    assert TrainConfig().channels == NetworkConfig(1).channels


def test_saliency_bytes_stored_and_computed_agree_and_saliency_for_divides_them(tmp_path):
    data.write_dataset(data.build_dataset(3, 0, 0, seed=4), tmp_path)
    computed = data.read_dataset(tmp_path)
    (tmp_path / "saliency").mkdir()
    stored = []
    for rec in computed.records:
        rel = f"saliency/{Path(rec.image).stem}.pgm"
        write_saliency_pgm(tmp_path / rel, compute_saliency(computed.load_image(rec)))
        stored.append(replace(rec, saliency=rel))
    stored = data.DatasetManifest(tmp_path, stored)
    for rec, stored_rec in zip(computed.records, stored.records):
        image = computed.load_image_bytes(rec)
        got = _saliency_bytes(image)
        assert got.dtype == np.uint8
        assert np.array_equal(got, stored.load_saliency(stored_rec))
        assert np.array_equal(_saliency_for(computed, rec), got / 255.0)
        assert np.array_equal(_saliency_for(stored, stored_rec), got / 255.0)


class TestTrainStage:
    def test_zero_epochs_returns_params_unchanged(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        before = {n: net[n].value.copy() for n in net.names()}
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        _, losses = train_stage(
            net, decoded(pairs), SUPERVISION_SALIENCY, maps,
            TrainConfig(epochs=0, seed=1),
        )
        assert losses == []
        for n in net.names():
            assert np.array_equal(net[n].value, before[n])

    def test_fixed_seed_bit_identical_trajectory(self, corpus):
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        runs = []
        for _ in range(2):
            net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
            _, losses = train_stage(
                net, decoded(pairs), SUPERVISION_SALIENCY, maps, TINY
            )
            runs.append((losses, {n: net[n].value.copy() for n in net.names()}))
        assert runs[0][0] == runs[1][0]
        for n in runs[0][1]:
            assert np.array_equal(runs[0][1][n], runs[1][1][n])

    def test_partial_last_batch_matches_fresh_buffers(self, corpus, monkeypatch):
        # 8 records at batch 3: every epoch ends with a batch of 2, which
        # trains on leading rows of the full-size step arrays
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        config = TrainConfig(batch_size=3, epochs=2, crop_size=48, seed=5)

        def run():
            net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
            _, losses = train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, maps, config)
            return losses, {n: net[n].value.copy() for n in net.names()}

        shared = [run(), run()]

        forward_cached = pipeline._forward_cached

        def nan_filled_first(params, images, arrays):
            # `images` is conv1's input, the interior of conv1.padded
            for name, a in arrays.items():
                if name not in ("conv1.in", "conv1.padded"):
                    a[...] = np.nan
            for border in (np.s_[:, :, [0, -1]], np.s_[:, :, :, [0, -1]]):
                arrays["conv1.padded"][border] = np.nan
            return forward_cached(params, images, arrays)

        monkeypatch.setattr(pipeline, "_forward_cached", nan_filled_first)
        fresh = run()
        for losses, values in (shared[1], fresh):
            assert losses == shared[0][0]
            for n, v in shared[0][1].items():
                assert np.array_equal(values[n], v), n

    @pytest.mark.parametrize("supervision", [SUPERVISION_SALIENCY, SUPERVISION_MASKS])
    @pytest.mark.parametrize("records", [8, 2, 1])
    def test_one_step_bitwise_equal_for_any_stc_threads(
        self, corpus, monkeypatch, supervision, records
    ):
        # one step over `records` images, so 1 and 2 images meet more workers
        pairs = simple_pairs(corpus)[:records]
        maps = saliency_maps(pairs)
        if supervision == SUPERVISION_MASKS:
            maps = [np.where(m > 127, min(r.labels), 0) for m, (_, r) in zip(maps, pairs)]
        config = TrainConfig(batch_size=8, epochs=1, crop_size=48, seed=5)
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("STC_THREADS", threads)
            net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
            _, losses = train_stage(net, decoded(pairs), supervision, maps, config)
            runs.append((losses, {n: (p.value.copy(), p.velocity.copy()) for n, p in net.items()}))
        for losses, state in runs[1:]:
            assert losses == runs[0][0]
            for n, (value, velocity) in runs[0][1].items():
                assert np.array_equal(state[n][0], value), n
                assert np.array_equal(state[n][1], velocity), n  # the step's gradient

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_step_threads_end_with_the_stage(self, corpus, monkeypatch, fails):
        monkeypatch.setenv("STC_THREADS", "3")
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        if fails:
            net["head.weight"].value[...] = 1e308  # non-finite loss at step 0
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        during = []
        caller = threading.get_ident()

        def counting_conv(*args, **kwargs):
            if threading.get_ident() == caller:
                during.append(threading.active_count())
            else:  # keep the helpers alive while the calling thread counts
                time.sleep(0.005)
            return ops.conv2d_forward(*args, **kwargs)

        monkeypatch.setattr(network, "conv2d_forward", counting_conv)
        before = threading.active_count()
        if fails:
            with pytest.raises(ValueError, match="step 0"):
                train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, maps, TINY)
        else:
            train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, maps, TINY)
        assert max(during) == before + 2  # two helper threads ran
        assert threading.active_count() == before

    def test_peak_memory_of_an_epoch_at_crop_96(self, tmp_path):
        # in a fresh interpreter, so that the peak is not an earlier test's:
        # one epoch over 64 images of 128 px at crop 96, batch 8, as the
        # initial stage of a 128-px run trains. The images stay uint8, a
        # pooled block's gradient goes over its conv output, and the step
        # arrays are float32: it grew by 42 MB, and by 83-84 MB with float64
        # step arrays (float64 images and a separate gradient array added
        # about 32 MB more to that)
        data.write_dataset(data.build_dataset(64, 0, 0, seed=3, size=128), tmp_path)
        code = PEAK_RSS_KB + f"""
from stc import data
from stc.network import NetworkConfig, init_network
from stc.pipeline import SUPERVISION_SALIENCY, TrainConfig, _saliency_bytes, train_stage
m = data.read_dataset({str(tmp_path)!r})
pairs = [(r, m.load_image_bytes(r)) for r in m.records]
maps = [_saliency_bytes(image) for _, image in pairs]
net = init_network(NetworkConfig(4, seed=1))
config = TrainConfig(epochs=1, crop_size=96, seed=2)
before = peak_rss_kb()
train_stage(net, pairs, SUPERVISION_SALIENCY, maps, config)
print((peak_rss_kb() - before) // 1024)
"""
        src = str(Path(network.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "STC_THREADS": "2"}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        grown_mb = int(run.stdout)
        assert grown_mb < 60, f"an epoch at crop 96 grew peak RSS by {grown_mb} MB"

    # worst over parameters of max |float32 grad - float64 grad| / max |float64
    # grad| for one batch-8 step: 1.3e-7 to 4.1e-7 over five net seeds, at
    # init and after three epochs; float32's epsilon is 1.2e-7
    FLOAT32_GRAD_TOL = 1e-5

    def test_float32_step_gradients_are_within_tolerance_of_the_float64_step(self, corpus):
        pairs = simple_pairs(corpus)
        images = [m.load_image_bytes(r) for m, r in pairs]
        x = np.stack([im[8:56, 8:56].transpose(2, 0, 1) for im in images]) / 255.0
        t = np.stack([
            build_simple_target(s[8:56, 8:56] / 255, min(r.labels), 12, 12, 4)
            for s, (_, r) in zip(saliency_maps(pairs), pairs)
        ])
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        masters = {}
        for dtype in (np.float64, np.float32):
            master = masters[dtype] = net.copy()
            compute = master if dtype == np.float64 else master.float32_copy()
            arrays = step_arrays(compute, x.shape)
            assert arrays["conv1.cols"].dtype == dtype
            _, g = batch_ce_and_grad(_forward_cached(compute, x.astype(dtype), arrays), t)
            backward(compute, arrays, g)
        for name, want in masters[np.float64].items():
            got = masters[np.float32][name].grad
            assert got.dtype == np.float64, name  # the compute copy adds into the master's
            err = np.abs(got - want.grad).max() / np.abs(want.grad).max()
            assert err < self.FLOAT32_GRAD_TOL, (name, err)

    def test_master_weights_gradients_momentum_and_checkpoint_stay_float64(
        self, corpus, tmp_path
    ):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        pairs = simple_pairs(corpus)
        config = replace(TINY, epochs=1, batch_size=8)  # one step
        train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, saliency_maps(pairs), config)
        save_params(net, tmp_path / "net.stcp")
        checkpoint = (tmp_path / "net.stcp").read_bytes()
        for name, p in net.items():
            assert {a.dtype for a in (p.value, p.grad, p.velocity)} == {np.dtype(np.float64)}
            # the update lands in float64, off float32's grid
            assert not np.array_equal(p.value.astype(np.float32), p.value), name
            assert p.value.astype("<f8").tobytes() in checkpoint, name

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_float32_loss_leaves_the_master_unchanged(self, corpus):
        # 1e39 is a finite float64 whose float32 copy is inf
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        net["head.weight"].value[...] = 1e39
        before = {n: (p.value.copy(), p.velocity.copy()) for n, p in net.items()}
        pairs = simple_pairs(corpus)
        with pytest.raises(ValueError, match="non-finite loss at step 0"):
            train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, saliency_maps(pairs), TINY)
        for name, p in net.items():
            assert np.array_equal(p.value, before[name][0]), name
            assert np.array_equal(p.velocity, before[name][1]), name
            assert not p.grad.any(), name

    def test_training_changes_parameters(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        before = {n: net[n].value.copy() for n in net.names()}
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, maps, TINY)
        assert any(not np.array_equal(net[n].value, before[n]) for n in net.names())

    def test_loss_decreases_early_on_small_corpus(self, tmp_path):
        # optimization sanity: non-increasing first-5-epoch loss in >= 9/10 seeds
        data.write_dataset(data.build_dataset(20, 0, 0, seed=31), tmp_path)
        manifest = data.read_dataset(tmp_path)
        pairs = [(manifest, r) for r in manifest.records]
        maps = saliency_maps(pairs)
        wins = 0
        for seed in range(10):
            net = init_network(NetworkConfig(4, seed=seed))
            _, losses = train_stage(
                net, decoded(pairs), SUPERVISION_SALIENCY, maps,
                TrainConfig(epochs=5, seed=seed),
            )
            wins += losses[-1] <= losses[0]
        assert wins >= 9

    def test_saliency_supervision_rejects_multilabel_records(self, corpus):
        complex_m = corpus.split("complex")
        pairs = [(complex_m, r) for r in complex_m.records]
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        with pytest.raises(ValueError, match="single-label"):
            train_stage(
                net, decoded(pairs), SUPERVISION_SALIENCY,
                [np.zeros((64, 64), np.uint8)] * len(pairs), TINY,
            )

    def test_float_image_rejected_naming_the_record(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        pairs = simple_pairs(corpus)
        images = decoded(pairs)
        images[2] = (images[2][0], images[2][1] / 255.0)
        with pytest.raises(ValueError, match=rf"{re.escape(repr(pairs[2][1].image))}.*uint8"):
            train_stage(net, images, SUPERVISION_SALIENCY, saliency_maps(pairs), TINY)

    def test_float_saliency_target_rejected_naming_the_record(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        maps[1] = maps[1] / 255.0
        with pytest.raises(ValueError, match=rf"{re.escape(repr(pairs[1][1].image))}.*uint8"):
            train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, maps, TINY)

    @pytest.mark.parametrize("supervision", [SUPERVISION_SALIENCY, SUPERVISION_MASKS])
    def test_targets_have_the_heads_class_count(self, corpus, monkeypatch, supervision):
        pairs = [p for p in simple_pairs(corpus) if min(p[1].labels) <= 2]
        maps = saliency_maps(pairs)
        if supervision == SUPERVISION_MASKS:
            maps = [np.where(m > 127, min(r.labels), 0) for m, (_, r) in zip(maps, pairs)]
        shapes = []
        loss = pipeline.batch_ce_and_grad

        def recording_loss(logits, targets):
            shapes.append(targets.shape)
            return loss(logits, targets)

        monkeypatch.setattr(pipeline, "batch_ce_and_grad", recording_loss)
        net = init_network(NetworkConfig(2, channels=TINY_CHANNELS, seed=1))
        train_stage(net, decoded(pairs), supervision, maps, replace(TINY, epochs=1))
        assert shapes and all(shape[1:] == (3, 12, 12) for shape in shapes), shapes

    def test_target_count_must_match_the_records(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)[:-1]
        with pytest.raises(ValueError, match="^7 targets for 8 records$"):
            train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, maps, TINY)

    def test_unknown_supervision_rejected(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        with pytest.raises(ValueError, match="supervision"):
            train_stage(net, decoded(simple_pairs(corpus)), "nonsense", [], TINY)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_loss_names_step(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        net["head.weight"].value[...] = 1e308  # force overflow in the loss
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        with pytest.raises(ValueError, match="step 0"):
            train_stage(net, decoded(pairs), SUPERVISION_SALIENCY, maps, TINY)

    def test_crop_size_validation(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        pairs = simple_pairs(corpus)
        maps = saliency_maps(pairs)
        want = "config key 'crop_size' must be a multiple of the output stride 4, got 42"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            train_stage(
                net, decoded(pairs), SUPERVISION_SALIENCY, maps,
                TrainConfig(crop_size=42),
            )
        with pytest.raises(ValueError, match=re.escape("multiple of the output stride 4, got 10")):
            TrainConfig(crop_size=10, channels=TINY_CHANNELS)
        want = "record 'images/simple_0000.ppm': image is 64x64, smaller than config key"
        with pytest.raises(ValueError, match=f"^{re.escape(want)} 'crop_size' 128$"):
            train_stage(
                net, decoded(pairs), SUPERVISION_SALIENCY, maps,
                TrainConfig(crop_size=128),
            )


@pytest.fixture(scope="module")
def result(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    nets, reports = run_stc(
        corpus.split("simple"), corpus.split("complex"), corpus.split("eval"),
        TINY, out_dir=out,
    )
    return nets, reports, out


class TestRunStc:
    def test_three_reports_in_stage_order(self, result):
        _, reports, _ = result
        assert [r.stage for r in reports] == ["initial", "enhanced", "powerful"]

    def test_miou_within_bounds(self, result):
        _, reports, _ = result
        for r in reports:
            assert 0.0 <= r.miou <= 1.0
            assert len(r.per_class_iou) == 5
            assert r.miou == pytest.approx(np.mean(r.per_class_iou), abs=1e-12)

    def test_pseudo_mask_directories_written(self, result, corpus):
        _, _, out = result
        initial = sorted((out / "masks_initial").glob("*.pgm"))
        enhanced = sorted((out / "masks_enhanced").glob("*.pgm"))
        assert len(initial) == len(corpus.split("simple"))
        # enhanced-net masks cover complex plus (by default) simple images
        assert len(enhanced) == len(corpus.split("complex")) + len(corpus.split("simple"))

    def test_nets_differ_from_fresh_init(self, result):
        nets, _, _ = result
        fresh = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=0))
        for stage in ("initial", "enhanced", "powerful"):
            assert nets[stage].names() == fresh.names()

    def test_masks_initial_come_from_the_initial_net(self, corpus, tmp_path):
        simple = corpus.split("simple")
        nets, _ = run_stc(
            simple, corpus.split("complex"), corpus.split("eval"),
            replace(TINY, enhance_rounds=2), out_dir=tmp_path,
        )
        for rec in simple.records:
            expected = relabel_simple(nets["initial"], simple.load_image(rec), min(rec.labels))
            written = read_pgm(tmp_path / "masks_initial" / f"{Path(rec.image).stem}.pgm")
            assert np.array_equal(written, expected), rec.image

    def test_empty_simple_manifest_fails_with_stage(self, corpus):
        empty = data.DatasetManifest(corpus.root, [])
        with pytest.raises(ValueError, match="stage 'initial': no simple records to train on"):
            run_stc(empty, corpus.split("complex"), corpus.split("eval"), TINY)

    def test_report_files(self, result, tmp_path):
        _, reports, _ = result
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        write_report_json(reports, jpath, seed=5)
        write_report_csv(reports, cpath)
        import json

        doc = json.loads(jpath.read_text())
        assert [s["stage"] for s in doc["stages"]] == ["initial", "enhanced", "powerful"]
        lines = cpath.read_text().splitlines()
        assert lines[0] == "stage,class,iou,miou,seconds"
        assert len(lines) == 1 + 3 * 5


class TestWeakSupervisionAudit:
    def test_training_never_reads_gt_masks(self, corpus, tmp_path):
        reads = {"train": 0}

        class AuditManifest(data.DatasetManifest):
            def load_gt_mask(self, record):
                reads["train"] += 1
                raise AssertionError(
                    f"training stage read a ground-truth mask: {record.image}"
                )

        audited_simple = AuditManifest(
            corpus.root, corpus.split("simple").records
        )
        audited_complex = AuditManifest(
            corpus.root, corpus.split("complex").records
        )
        run_stc(
            audited_simple, audited_complex, corpus.split("eval"), TINY,
        )
        assert reads["train"] == 0

    def test_each_training_image_is_decoded_once_per_stage_as_bytes(self, corpus):
        decodes = {"bytes": 0, "floats": 0}

        class CountingManifest(data.DatasetManifest):
            def load_image_bytes(self, record):
                decodes["bytes"] += 1
                return super().load_image_bytes(record)

            def load_image(self, record):
                decodes["floats"] += 1
                return super().load_image(record)

        simple = CountingManifest(corpus.root, corpus.split("simple").records)
        complex_ = CountingManifest(corpus.root, corpus.split("complex").records)
        run_stc(simple, complex_, corpus.split("eval"), TINY)
        # the 8 simple and 4 complex images are decoded once for the run, and
        # every stage trains on those bytes
        assert decodes == {"bytes": 8 + 4, "floats": 0}


def test_each_input_file_is_decoded_once_per_run_and_each_eval_file_once_more_per_stage(
    tmp_path, monkeypatch
):
    data.write_dataset(data.build_dataset(4, 2, 2, seed=2), tmp_path)
    assert cli.main(["saliency", "--data", str(tmp_path)]) == 0
    manifest = data.read_dataset(tmp_path)
    reads = Counter()
    read_pnm = imageio._read_pnm

    def counting_read(path, magic):
        reads[path.relative_to(tmp_path).as_posix()] += 1
        return read_pnm(path, magic)

    monkeypatch.setattr(imageio, "_read_pnm", counting_read)
    run_stc(*(manifest.split(s) for s in data.SPLITS), replace(TINY, epochs=1))
    training = [r for r in manifest.records if r.split != "eval"]
    want = {r.image: 1 for r in training}
    want |= {r.saliency: 1 for r in training if r.saliency is not None}
    # the check before the first stage, then each stage's evaluation
    want |= {f: 1 + 3 for r in manifest.split("eval").records for f in (r.image, r.gt_mask)}
    assert len(want) == 4 + 2 + 4 + 2 * 2
    assert reads == want


def test_relabel_masks_and_eval_confusion_identical_for_any_stc_threads(corpus, monkeypatch):
    net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=3))
    confusions = []
    monkeypatch.setattr(
        pipeline, "iou_from_confusion",
        lambda conf: (confusions.append(conf), iou_from_confusion(conf))[1],
    )
    loaded = pipeline.load_corpus(
        corpus.split("simple"), corpus.split("complex"), corpus.split("eval"), TINY
    )
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("STC_THREADS", threads)
        masks = [
            pipeline._stage_targets(stage, net, entries)
            for stage, entries in (
                ("enhanced", loaded.simple), ("powerful", loaded.complex + loaded.simple)
            )
        ]
        runs.append((masks, evaluate(net, corpus.split("eval"))))
    for (masks, scores), conf in zip(runs[1:], confusions[1:]):
        assert scores == runs[0][1]
        assert np.array_equal(conf, confusions[0])
        for got, want in zip(masks, runs[0][0]):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_worker_count_error_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("STC_THREADS", value)
    with pytest.raises(ValueError) as err:
        worker_count()
    assert str(err.value) == f"STC_THREADS must be an integer >= 1, got {value!r}"


def test_bad_stc_threads_rejected_by_run_stc_before_any_stage_work(corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("STC_THREADS", "0")
    _no_stage_work(monkeypatch)
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        run_stc(*(corpus.split(s) for s in data.SPLITS), TINY, out_dir=out)
    assert str(err.value) == "STC_THREADS must be an integer >= 1, got '0'"
    assert not out.exists()


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("STC_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("STC_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("STC_THREADS")
    assert worker_count() >= 1
