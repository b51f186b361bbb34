"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The trend criterion (last) performs five full end-to-end runs of the default
200/100/50 corpus and dominates the runtime.
"""
import dataclasses
import json
import re
import statistics
import time

import numpy as np
import pytest

from helpers import brute_force_iou, numeric_grad, rel_err, restricted_argmax_scan, zero_grads
from stc import data
from stc.cli import main as cli_main
from stc.losses import multilabel_ce, multilabel_ce_grad, one_hot, singlelabel_ce
from stc.network import (
    NetworkConfig,
    _forward_cached,
    backward,
    forward,
    init_network,
    predict,
    step_arrays,
)
from stc.ops import avgpool2_backward, avgpool2_forward, channel_softmax, conv2d_backward, conv2d_forward
from stc.pipeline import (
    TrainConfig,
    confusion_matrix,
    evaluate,
    iou_from_confusion,
    run_stc,
)
from stc.pseudolabel import argmax_full, argmax_restricted
from stc.saliency import compute_saliency

# Fixed seeds for the trend experiment; calibrated once, frozen thereafter.
TREND_SEEDS = (11, 22, 33, 44, 55)
POWERFUL_MIOU_FLOOR = 0.55


def report(line: str) -> None:
    print(f"\n[PASS] {line}")


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # per-op finite-difference checks, relative error < 1e-6
    x = rng.normal(size=(1, 2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    r = rng.normal(size=(1, 3, 6, 6))
    gx, gk, _ = conv2d_backward(x, k, r)
    nx = numeric_grad(lambda v: float((conv2d_forward(v, k, np.zeros(3)) * r).sum()), x.copy())
    nk = numeric_grad(lambda v: float((conv2d_forward(x, v, np.zeros(3)) * r).sum()), k.copy())
    assert rel_err(gx, nx).max() < 1e-6
    assert rel_err(gk, nk).max() < 1e-6
    xp = rng.normal(size=(1, 2, 4, 4))
    rp = rng.normal(size=(1, 2, 2, 2))
    np_pool = numeric_grad(lambda v: float((avgpool2_forward(v) * rp).sum()), xp.copy())
    assert rel_err(avgpool2_backward(rp), np_pool).max() < 1e-6

    # composed map: image -> forward -> softmax -> soft-target CE, 8x8, C=2
    net = init_network(NetworkConfig(num_classes=2, channels=(4, 6, 8), seed=7))
    image = rng.uniform(size=(1, 3, 8, 8))
    target = rng.uniform(size=(3, 2, 2))
    target /= target.sum(axis=0, keepdims=True)

    def loss_fn(_):  # numeric_grad perturbs a parameter of `net` in place
        probs = channel_softmax(forward(net, image)[0])
        return multilabel_ce(probs, target)

    arrays = step_arrays(net, image.shape)
    logits = _forward_cached(net, image, arrays)
    zero_grads(net)
    backward(net, arrays, multilabel_ce_grad(logits[0], target)[None])
    worst = 0.0
    for _, p in net.items():
        numeric = numeric_grad(loss_fn, p.value, eps=1e-5)
        worst = max(worst, float(rel_err(p.grad, numeric).max()))
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        f"criterion 1: composed-map gradients match finite differences "
        f"(worst rel err {worst:.2e}, per-op < 1e-6, {elapsed:.1f}s)"
    )


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(100):
        c1 = int(rng.integers(2, 6))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        pred = channel_softmax(rng.normal(size=(c1, h, w)))
        mask = rng.integers(0, c1, size=(h, w))
        gap = abs(singlelabel_ce(pred, mask) - multilabel_ce(pred, one_hot(mask, c1 - 1)))
        worst_gap = max(worst_gap, gap)
    assert worst_gap < 1e-12

    for c1 in (2, 5, 9):
        pred = np.full((c1, 4, 4), 1.0 / c1)
        mask = rng.integers(0, c1, size=(4, 4))
        assert abs(singlelabel_ce(pred, mask) - np.log(c1)) < 1e-9

    worst_sum = 0.0
    for _ in range(20):
        logits = rng.normal(size=(5, 6, 6))
        target = rng.uniform(size=(5, 6, 6))
        target /= target.sum(axis=0, keepdims=True)
        worst_sum = max(worst_sum, np.abs(multilabel_ce_grad(logits, target).sum(axis=0)).max())
    assert worst_sum < 1e-12
    report(
        f"criterion 2: loss identities hold (one-hot gap {worst_gap:.1e}, "
        f"uniform = log(C+1), grad channel sums {worst_sum:.1e})"
    )


def test_criterion_3_pseudolabel_soundness():
    rng = np.random.default_rng(11)
    violations = 0
    for i in range(1000):
        c1 = int(rng.integers(2, 7))
        pred = channel_softmax(rng.normal(size=(c1, 5, 5)))
        extra = set(rng.choice(np.arange(1, c1), size=rng.integers(0, c1 - 1), replace=False).tolist())
        allowed = {0} | extra
        out = argmax_restricted(pred, allowed)
        violations += int(bool(set(np.unique(out)) - allowed))

        full_allowed = set(range(c1))
        if not np.array_equal(argmax_restricted(pred, full_allowed), argmax_full(pred)):
            violations += 1

        full = argmax_full(pred)
        nonwinners = full_allowed - set(np.unique(full)) - {0}
        if nonwinners:
            drop = next(iter(nonwinners))
            if not np.array_equal(argmax_restricted(pred, full_allowed - {drop}), full):
                violations += 1
    assert violations == 0
    report("criterion 3: restriction soundness, vacuity and stability (0 violations in 1000 maps)")


def test_criterion_4_miou_oracle(tmp_path):
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        pairs = [
            (rng.integers(0, n, size=(5, 6)), rng.integers(0, n, size=(5, 6)))
            for _ in range(rng.integers(1, 4))
        ]
        conf = sum(confusion_matrix(g, p, n) for g, p in pairs)
        per, miou = iou_from_confusion(conf)
        oper, omiou = brute_force_iou(pairs, n)
        assert np.abs(np.asarray(per) - np.asarray(oper)).max() < 1e-12
        assert abs(miou - omiou) < 1e-12

    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    _, miou = iou_from_confusion(confusion_matrix(gt, pred, 2))
    assert miou == pytest.approx(7.0 / 12.0, abs=1e-12)

    # evaluate() end-to-end against the oracle applied to its own predictions
    data.write_dataset(data.build_dataset(2, 2, 6, seed=21), tmp_path)
    manifest = data.read_dataset(tmp_path)
    eval_m = manifest.split("eval")
    net = init_network(NetworkConfig(4, channels=(6, 8, 10), seed=3))
    per, miou = evaluate(net, eval_m)
    pairs = [
        (eval_m.load_gt_mask(rec), argmax_full(predict(net, eval_m.load_image(rec))))
        for rec in eval_m.records
    ]
    oper, omiou = brute_force_iou(pairs, 5)
    assert np.abs(np.asarray(per) - np.asarray(oper)).max() < 1e-12
    assert abs(miou - omiou) < 1e-12
    report(f"criterion 4: evaluate() matches the brute-force oracle (2x2 case = 7/12 = {7/12:.4f})")


def test_criterion_5_saliency_quality_gate():
    wins, tp, pos = 0, 0, 0
    for i in range(100):
        c = 1 + i % 4
        img, mask, _ = data.gen_simple(c, np.random.SeedSequence([1234, i]))
        s = compute_saliency(img)
        fg = mask > 0
        wins += int(s[fg].mean() > s[~fg].mean())
        t = s >= 0.5
        tp += int((t & fg).sum())
        pos += int(t.sum())
    precision = tp / pos
    assert wins >= 99, f"object saliency beat background in only {wins}/100 images"
    assert precision > 0.9, f"foreground precision {precision:.3f}"
    report(f"criterion 5: saliency gate (object>background in {wins}/100, precision {precision:.3f})")


def test_criterion_7_weak_supervision_audit(tmp_path):
    gt_reads = {"count": 0}

    class AuditManifest(data.DatasetManifest):
        def load_gt_mask(self, record):
            gt_reads["count"] += 1
            return super().load_gt_mask(record)

    data.write_dataset(data.build_dataset(10, 5, 3, seed=31), tmp_path)
    manifest = data.read_dataset(tmp_path)
    audited_simple = AuditManifest(manifest.root, manifest.split("simple").records)
    audited_complex = AuditManifest(manifest.root, manifest.split("complex").records)
    run_stc(
        audited_simple,
        audited_complex,
        manifest.split("eval"),
        TrainConfig(epochs=2, batch_size=4, seed=5, channels=(6, 8, 10)),
    )
    assert gt_reads["count"] == 0
    report("criterion 7: zero ground-truth mask reads during all three training stages")


def _masked_report_bytes(out_dir):
    """Report bytes with the volatile wall-clock fields blanked."""
    doc = json.loads((out_dir / "report.json").read_text())
    for stage in doc["stages"]:
        stage["seconds"] = None
    csv_lines = []
    for line in (out_dir / "report.csv").read_text().splitlines():
        csv_lines.append(re.sub(r",[0-9.]+$", ",_", line) if "," in line else line)
    return json.dumps(doc, sort_keys=True), "\n".join(csv_lines)


def test_criterion_8_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(
        ["gen", "--out", str(data_dir), "--simple", "12", "--complex", "6",
         "--eval", "4", "--seed", "9"]
    ) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 3, "batch_size": 4, "seed": 17,
                               "channels": [8, 12, 16]}))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(
            ["run", "--data", str(data_dir), "--out", str(out), "--config", str(cfg)]
        ) == 0
        outs.append(out)

    for stage in ("initial", "enhanced", "powerful"):
        a = (outs[0] / f"checkpoint_{stage}.stcp").read_bytes()
        b = (outs[1] / f"checkpoint_{stage}.stcp").read_bytes()
        assert a == b, f"checkpoint_{stage} differs between identical runs"
    for sub in ("masks_initial", "masks_enhanced"):
        for p in sorted((outs[0] / sub).glob("*.pgm")):
            assert p.read_bytes() == (outs[1] / sub / p.name).read_bytes()
    # wall-clock seconds are inherently volatile; every other report byte must match
    assert _masked_report_bytes(outs[0]) == _masked_report_bytes(outs[1])
    report("criterion 8: identical seeds give byte-identical checkpoints, masks and reports (timing masked)")


@pytest.mark.slow
def test_criterion_6_stc_trend(tmp_path):
    t0 = time.perf_counter()
    results = []
    for seed in TREND_SEEDS:
        corpus = tmp_path / f"corpus_{seed}"
        data.write_dataset(data.build_dataset(200, 100, 50, seed=seed), corpus)
        manifest = data.read_dataset(corpus)
        _, reports = run_stc(
            manifest.split("simple"),
            manifest.split("complex"),
            manifest.split("eval"),
            TrainConfig(seed=seed),
        )
        mious = [r.miou for r in reports]
        results.append(mious)
        print(
            f"  seed {seed}: initial {mious[0]:.4f} -> enhanced {mious[1]:.4f} "
            f"-> powerful {mious[2]:.4f}"
        )
    elapsed = time.perf_counter() - t0

    monotone = sum(1 for m in results if m[0] <= m[1] <= m[2])
    median_powerful = statistics.median(m[2] for m in results)
    assert monotone >= 4, f"monotone trend in only {monotone}/5 seeds: {results}"
    assert median_powerful >= POWERFUL_MIOU_FLOOR, (
        f"median powerful-stage miou {median_powerful:.4f} < {POWERFUL_MIOU_FLOOR}"
    )
    assert elapsed < 20 * 60
    report(
        f"criterion 6: stage trend monotone in {monotone}/5 seeds, "
        f"median powerful miou {median_powerful:.4f} (>= {POWERFUL_MIOU_FLOOR}), {elapsed:.0f}s"
    )
