import json

import numpy as np
import pytest

from stc import data, pipeline
from stc.cli import load_run_config, main
from stc.network import NetworkConfig, init_network
from stc.params import save_params


TINY_CONFIG = {
    "epochs": 2,
    "batch_size": 4,
    "seed": 3,
    "num_classes": 4,
    "channels": [6, 8, 10],
}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = main(
        ["gen", "--out", str(d), "--simple", "8", "--complex", "4", "--eval", "3",
         "--seed", "1"]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    rc = main(
        ["run", "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg)]
    )
    assert rc == 0
    return out


class TestGen:
    def test_counts_and_manifest(self, dataset_dir):
        manifest = data.read_dataset(dataset_dir)
        assert len(manifest.split("simple")) == 8
        assert len(manifest.split("complex")) == 4
        assert len(manifest.split("eval")) == 3

    def test_default_counts(self, tmp_path):
        rc = main(["gen", "--out", str(tmp_path), "--seed", "4"])
        assert rc == 0
        manifest = data.read_dataset(tmp_path)
        assert len(manifest.split("simple")) == 200
        assert len(manifest.split("complex")) == 100
        assert len(manifest.split("eval")) == 50

    def test_zero_simple_rejected(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path), "--simple", "0"])
        assert rc != 0
        assert "simple" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(
                ["gen", "--out", str(d), "--simple", "3", "--complex", "2",
                 "--eval", "1", "--seed", "7"]
            ) == 0
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestSaliencyCommand:
    def test_materializes_maps_and_is_idempotent(self, tmp_path):
        d = tmp_path / "data"
        assert main(["gen", "--out", str(d), "--simple", "3", "--complex", "0",
                     "--eval", "0", "--seed", "2"]) == 0
        assert main(["saliency", "--data", str(d)]) == 0
        manifest = data.read_dataset(d)
        for rec in manifest.split("simple").records:
            assert rec.saliency is not None
            assert manifest.load_saliency(rec).shape == (64, 64)
        snapshot = {
            p: p.read_bytes() for p in d.rglob("*") if p.is_file()
        }
        assert main(["saliency", "--data", str(d)]) == 0
        for p, blob in snapshot.items():
            assert p.read_bytes() == blob


class TestRun:
    def test_outputs_exist(self, run_dir):
        for stage in ("initial", "enhanced", "powerful"):
            assert (run_dir / f"checkpoint_{stage}.stcp").is_file()
            assert (run_dir / f"checkpoint_{stage}.json").is_file()
        assert (run_dir / "report.json").is_file()
        assert (run_dir / "report.csv").is_file()

    def test_report_stages_in_order(self, run_dir):
        doc = json.loads((run_dir / "report.json").read_text())
        assert [s["stage"] for s in doc["stages"]] == ["initial", "enhanced", "powerful"]

    def test_missing_manifest_nonzero_exit(self, tmp_path, capsys):
        rc = main(["run", "--data", str(tmp_path / "nope"), "--out", str(tmp_path)])
        assert rc != 0
        assert "manifest" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"epochs": 1, "bogus_knob": 3}))
        rc = main(
            ["run", "--data", str(dataset_dir), "--out", str(tmp_path), "--config", str(cfg)]
        )
        assert rc != 0
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("channels", 16),
            ("channels", []),
            ("channels", [16, "32"]),
            ("channels", [16, 0]),
            ("epochs", "2"),
            ("epochs", 2.5),
            ("batch_size", True),
            ("initial_lr", "0.01"),
            ("initial_lr", False),
            ("warm_start", 1),
            ("data", 7),
        ],
    )
    def test_config_value_type_rejected_naming_file_and_key(
        self, dataset_dir, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(
            ["run", "--data", str(dataset_dir), "--out", str(tmp_path), "--config", str(cfg)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and repr(key) in err

    def test_config_accepts_integer_for_float_key(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"initial_lr": 1, "momentum": 0, "data": "d", "out": None}))
        merged = load_run_config(cfg)
        assert merged["initial_lr"] == 1 and merged["data"] == "d"


class TestEval:
    def test_prints_consistent_table(self, dataset_dir, run_dir, capsys):
        ckpt = run_dir / "checkpoint_powerful.stcp"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir)]) == 0
        out1 = capsys.readouterr().out
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir)]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2

        lines = out1.strip().splitlines()
        assert lines[0].startswith("class")
        class_rows = lines[1:-1]
        assert len(class_rows) == 5  # C+1 rows including background
        ious = [float(r.split()[1]) for r in class_rows]
        miou = float(lines[-1].split()[1])
        assert abs(miou - np.mean(ious)) < 1e-4

    def test_corrupt_checkpoint_nonzero_exit(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.stcp"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir)])
        assert rc != 0
        assert "magic" in capsys.readouterr().err

    def test_head_only_checkpoint_rejected(self, dataset_dir, tmp_path, capsys):
        full = init_network(NetworkConfig(4, seed=0))
        head_only = full.subset(n for n in full.names() if n.startswith("head."))
        path = tmp_path / "head_only.stcp"
        save_params(head_only, path)
        rc = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert str(path) in captured.err and "conv1.weight" in captured.err
        assert "miou" not in captured.out


class TestStageCommand:
    def test_initial_stage_writes_checkpoint(self, dataset_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "stage_out"
        rc = main(
            ["stage", "--data", str(dataset_dir), "--out", str(out),
             "--stage", "initial", "--config", str(cfg)]
        )
        assert rc == 0
        assert (out / "checkpoint_initial.stcp").is_file()

    def test_enhanced_requires_params(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "stage_out"
        rc = main(
            ["stage", "--data", str(dataset_dir), "--out", str(out), "--stage", "enhanced"]
        )
        assert rc != 0
        assert "--params" in capsys.readouterr().err

    def test_head_only_params_rejected(self, dataset_dir, tmp_path, capsys):
        full = init_network(NetworkConfig(4, seed=0))
        path = tmp_path / "head_only.stcp"
        save_params(full.subset(n for n in full.names() if n.startswith("head.")), path)
        rc = main(
            ["stage", "--data", str(dataset_dir), "--out", str(tmp_path / "stage_out"),
             "--stage", "enhanced", "--params", str(path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(path) in err and "conv1.weight" in err

    def test_missing_params_file_rejected(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "nope.stcp"
        rc = main(
            ["stage", "--data", str(dataset_dir), "--out", str(tmp_path / "stage_out"),
             "--stage", "powerful", "--params", str(path)]
        )
        assert rc == 1
        assert str(path) in capsys.readouterr().err

    def test_initial_rejects_params(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "prior.stcp"
        save_params(init_network(NetworkConfig(4, seed=0)), path)
        out = tmp_path / "stage_out"
        rc = main(
            ["stage", "--data", str(dataset_dir), "--out", str(out),
             "--stage", "initial", "--params", str(path)]
        )
        assert rc == 1
        assert "--params" in capsys.readouterr().err
        assert not (out / "checkpoint_initial.stcp").exists()

    def test_enhanced_from_initial_checkpoint(self, dataset_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "stage_out"
        assert main(
            ["stage", "--data", str(dataset_dir), "--out", str(out),
             "--stage", "initial", "--config", str(cfg)]
        ) == 0
        rc = main(
            ["stage", "--data", str(dataset_dir), "--out", str(out),
             "--stage", "enhanced", "--config", str(cfg),
             "--params", str(out / "checkpoint_initial.stcp")]
        )
        assert rc == 0
        assert (out / "checkpoint_enhanced.stcp").is_file()


@pytest.mark.parametrize("command", ["run", "stage"])
def test_empty_eval_split_rejected_before_training(tmp_path, capsys, monkeypatch, command):
    d = tmp_path / "data"
    assert main(["gen", "--out", str(d), "--simple", "4", "--complex", "2",
                 "--eval", "0", "--seed", "5"]) == 0

    def no_training(*args, **kwargs):
        raise AssertionError("trained although there is nothing to evaluate on")

    monkeypatch.setattr(pipeline, "train_stage", no_training)
    argv = [command, "--data", str(d), "--out", str(tmp_path / "out")]
    if command == "stage":
        argv += ["--stage", "initial"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "no eval records" in err and str(d) in err


@pytest.mark.parametrize(
    "flags",
    [{}, {"warm_start": True, "enhance_rounds": 2, "include_simple_in_powerful": False}],
    ids=["default", "warm-2rounds-complex-only"],
)
def test_stage_chain_matches_run(dataset_dir, tmp_path, flags):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, **flags}))
    run_out, chain_out = tmp_path / "run", tmp_path / "chain"
    assert main(
        ["run", "--data", str(dataset_dir), "--out", str(run_out), "--config", str(cfg)]
    ) == 0
    prior = []
    for stage in ("initial", "enhanced", "powerful"):
        assert main(
            ["stage", "--data", str(dataset_dir), "--out", str(chain_out),
             "--stage", stage, "--config", str(cfg), *prior]
        ) == 0
        prior = ["--params", str(chain_out / f"checkpoint_{stage}.stcp")]

    for stage in ("initial", "enhanced", "powerful"):
        for suffix in (".stcp", ".json"):
            name = f"checkpoint_{stage}{suffix}"
            assert (chain_out / name).read_bytes() == (run_out / name).read_bytes(), name
    for sub in ("masks_initial", "masks_enhanced"):
        masks = sorted(p.name for p in (run_out / sub).glob("*.pgm"))
        assert masks and masks == sorted(p.name for p in (chain_out / sub).glob("*.pgm"))
        for name in masks:
            assert (chain_out / sub / name).read_bytes() == (run_out / sub / name).read_bytes()


def test_run_is_byte_identical_for_any_stc_threads(dataset_dir, tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("STC_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert main(
            ["run", "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg)]
        ) == 0
        outs.append(out)
    for stage in ("initial", "enhanced", "powerful"):
        name = f"checkpoint_{stage}.stcp"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    for sub in ("masks_initial", "masks_enhanced"):
        masks = sorted(p.name for p in (outs[0] / sub).glob("*.pgm"))
        assert masks and masks == sorted(p.name for p in (outs[1] / sub).glob("*.pgm"))
        for name in masks:
            assert (outs[0] / sub / name).read_bytes() == (outs[1] / sub / name).read_bytes()
