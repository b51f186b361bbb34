import re
import threading
from pathlib import Path

import numpy as np
import pytest

from helpers import brute_force_iou
from stc import data
from stc import pipeline
from stc.imageio import read_pgm
from stc.network import NetworkConfig, StepBuffers, init_network
from stc.pipeline import (
    SUPERVISION_MASKS,
    SUPERVISION_SALIENCY,
    PipelineError,
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
from stc.pipeline import _saliency_for
from stc.pseudolabel import relabel_simple


TINY = TrainConfig(batch_size=4, epochs=2, crop_size=48, seed=5)
TINY_CHANNELS = (6, 8, 10)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    data.write_dataset(data.build_dataset(8, 4, 3, seed=2), root)
    return data.read_dataset(root)


def simple_pairs(manifest):
    m = manifest.split("simple")
    return [(m, r) for r in m.records]


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
        examples = data.build_dataset(1, 0, 0, seed=4)
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
        examples = data.build_dataset(0, 0, 2, seed=4)
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

class TestTrainStage:
    def test_zero_epochs_returns_params_unchanged(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        before = {n: net[n].value.copy() for n in net.names()}
        pairs = simple_pairs(corpus)
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        _, losses = train_stage(
            net, pairs, SUPERVISION_SALIENCY, maps,
            TrainConfig(epochs=0, seed=1), num_classes=4,
        )
        assert losses == []
        for n in net.names():
            assert np.array_equal(net[n].value, before[n])

    def test_fixed_seed_bit_identical_trajectory(self, corpus):
        pairs = simple_pairs(corpus)
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        runs = []
        for _ in range(2):
            net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
            _, losses = train_stage(
                net, pairs, SUPERVISION_SALIENCY, maps, TINY, num_classes=4
            )
            runs.append((losses, {n: net[n].value.copy() for n in net.names()}))
        assert runs[0][0] == runs[1][0]
        for n in runs[0][1]:
            assert np.array_equal(runs[0][1][n], runs[1][1][n])

    def test_partial_last_batch_matches_fresh_buffers(self, corpus, monkeypatch):
        # 8 records at batch 3: every epoch ends with a batch of 2, which
        # trains on leading rows of the full-size step buffers
        pairs = simple_pairs(corpus)
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        config = TrainConfig(batch_size=3, epochs=2, crop_size=48, seed=5)

        def run():
            net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
            _, losses = train_stage(net, pairs, SUPERVISION_SALIENCY, maps, config, num_classes=4)
            return losses, {n: net[n].value.copy() for n in net.names()}

        shared = [run(), run()]

        class FreshEachTake(StepBuffers):
            def take(self, name, shape):
                return np.full(shape, np.nan)

        monkeypatch.setattr(pipeline, "StepBuffers", FreshEachTake)
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
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        if supervision == SUPERVISION_MASKS:
            maps = [np.where(m > 0.5, min(r.labels), 0) for m, (_, r) in zip(maps, pairs)]
        config = TrainConfig(batch_size=8, epochs=1, crop_size=48, seed=5)
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("STC_THREADS", threads)
            net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
            _, losses = train_stage(net, pairs, supervision, maps, config, num_classes=4)
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
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        during = []
        loss = pipeline.batch_ce_and_grad

        def counting_loss(*args):
            during.append(threading.active_count())
            return loss(*args)

        monkeypatch.setattr(pipeline, "batch_ce_and_grad", counting_loss)
        before = threading.active_count()
        if fails:
            with pytest.raises(ValueError, match="step 0"):
                train_stage(net, pairs, SUPERVISION_SALIENCY, maps, TINY, num_classes=4)
        else:
            train_stage(net, pairs, SUPERVISION_SALIENCY, maps, TINY, num_classes=4)
        assert max(during) == before + 2  # the pool ran
        assert threading.active_count() == before

    def test_training_changes_parameters(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        before = {n: net[n].value.copy() for n in net.names()}
        pairs = simple_pairs(corpus)
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        train_stage(net, pairs, SUPERVISION_SALIENCY, maps, TINY, num_classes=4)
        assert any(not np.array_equal(net[n].value, before[n]) for n in net.names())

    def test_loss_decreases_early_on_small_corpus(self, tmp_path):
        # optimization sanity: non-increasing first-5-epoch loss in >= 9/10 seeds
        data.write_dataset(data.build_dataset(20, 0, 0, seed=31), tmp_path)
        manifest = data.read_dataset(tmp_path)
        pairs = [(manifest, r) for r in manifest.records]
        maps = [_saliency_for(manifest, r) for _, r in pairs]
        wins = 0
        for seed in range(10):
            net = init_network(NetworkConfig(4, seed=seed))
            _, losses = train_stage(
                net, pairs, SUPERVISION_SALIENCY, maps,
                TrainConfig(epochs=5, seed=seed), num_classes=4,
            )
            wins += losses[-1] <= losses[0]
        assert wins >= 9

    def test_saliency_supervision_rejects_multilabel_records(self, corpus):
        complex_m = corpus.split("complex")
        pairs = [(complex_m, r) for r in complex_m.records]
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        with pytest.raises(ValueError, match="single-label"):
            train_stage(
                net, pairs, SUPERVISION_SALIENCY,
                [np.zeros((64, 64))] * len(pairs), TINY, num_classes=4,
            )

    def test_unknown_supervision_rejected(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        with pytest.raises(ValueError, match="supervision"):
            train_stage(net, simple_pairs(corpus), "nonsense", [], TINY, num_classes=4)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_loss_names_step(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        net["head.weight"].value[...] = 1e308  # force overflow in the loss
        pairs = simple_pairs(corpus)
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        with pytest.raises(ValueError, match="step 0"):
            train_stage(net, pairs, SUPERVISION_SALIENCY, maps, TINY, num_classes=4)

    def test_crop_size_validation(self, corpus):
        net = init_network(NetworkConfig(4, channels=TINY_CHANNELS, seed=1))
        pairs = simple_pairs(corpus)
        maps = [_saliency_for(corpus, r) for _, r in pairs]
        with pytest.raises(ValueError, match="divisible by 4"):
            train_stage(
                net, pairs, SUPERVISION_SALIENCY, maps,
                TrainConfig(crop_size=42), num_classes=4,
            )
        with pytest.raises(ValueError, match="exceeds"):
            train_stage(
                net, pairs, SUPERVISION_SALIENCY, maps,
                TrainConfig(crop_size=128), num_classes=4,
            )


@pytest.fixture(scope="module")
def result(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    nets, reports = run_stc(
        corpus.split("simple"), corpus.split("complex"), corpus.split("eval"),
        TINY, channels=TINY_CHANNELS, out_dir=out,
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
            TINY, channels=TINY_CHANNELS, enhance_rounds=2, out_dir=tmp_path,
        )
        for rec in simple.records:
            expected = relabel_simple(nets["initial"], simple.load_image(rec), min(rec.labels))
            written = read_pgm(tmp_path / "masks_initial" / f"{Path(rec.image).stem}.pgm")
            assert np.array_equal(written, expected), rec.image

    def test_empty_simple_manifest_fails_with_stage(self, corpus):
        empty = data.DatasetManifest(corpus.root, [])
        with pytest.raises(PipelineError) as err:
            run_stc(empty, corpus.split("complex"), corpus.split("eval"), TINY)
        assert err.value.stage == "initial"

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
            audited_simple, audited_complex, corpus.split("eval"),
            TINY, channels=TINY_CHANNELS,
        )
        assert reads["train"] == 0


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_worker_count_error_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("STC_THREADS", value)
    with pytest.raises(ValueError) as err:
        worker_count()
    assert str(err.value) == f"STC_THREADS must be an integer >= 1, got {value!r}"


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("STC_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("STC_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("STC_THREADS")
    assert worker_count() >= 1
