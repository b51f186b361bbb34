import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import JSON_MUTATIONS, PEAK_RSS_KB, SCHEDULE_KEYS, mutated_json_object
from stc import cli, data, imageio, network, pipeline
from stc.cli import load_run_config, main
from stc.network import NetworkConfig, init_network, predict
from stc.params import ParamSet, save_params


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

    @pytest.mark.parametrize("size", ["0", "-4", "6"])
    def test_size_not_a_positive_multiple_of_4_rejected_naming_the_flag(
        self, tmp_path, capsys, size
    ):
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--size", size]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --size must be a positive multiple of 4"), err
        assert not out.exists()

    def test_size_too_small_to_place_the_classes_exits_1_naming_classes_and_size(
        self, tmp_path, capsys
    ):
        rc = main(["gen", "--out", str(tmp_path), "--size", "12", "--seed", "1",
                   "--simple", "40", "--complex", "40", "--eval", "40"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "could not place classes [1, 4, 3] in a 12x12 image" in err, err
        assert list(tmp_path.iterdir()) == []  # the 40 simple images it wrote are gone

    @pytest.mark.parametrize(
        "flag, value, want",
        [("--complex", "-1", "--complex and --eval must be >= 0"),
         ("--classes", "5", "--classes must be 1..4, got 5"),
         ("--classes", "0", "--classes must be 1..4, got 0"),
         ("--classes", "1", "--complex and --eval need --classes >= 2, got 1"),
         ("--seed", "-1", "--seed must be >= 0, got -1")],
    )
    def test_bad_count_rejected_naming_it_before_writing_anything(
        self, tmp_path, capsys, flag, value, want
    ):
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    def test_out_holding_a_manifest_rejected_before_writing_anything(self, tmp_path, capsys):
        argv = ["gen", "--out", str(tmp_path), "--simple", "4", "--complex", "2", "--eval", "2",
                "--seed", "1"]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main([*argv, "--size", "12"]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'manifest.jsonl'}: " in err, err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert len(data.read_dataset(tmp_path)) == 8

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(
                ["gen", "--out", str(d), "--simple", "3", "--complex", "2",
                 "--eval", "1", "--seed", "7"]
            ) == 0
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_peak_memory_of_the_default_corpus(self, tmp_path):
        # in a fresh interpreter, so that the peak is not an earlier test's.
        # Each example is written as it is generated: holding the 350 float64
        # images and int64 masks first grew the peak by about 56 MB, writing
        # them as they come by about 7 MB
        code = PEAK_RSS_KB + f"""
from stc import cli
before = peak_rss_kb()
assert cli.main(["gen", "--out", {str(tmp_path)!r}, "--seed", "3"]) == 0
print((peak_rss_kb() - before) // 1024)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        grown_mb = int(run.stdout.splitlines()[-1])
        assert grown_mb < 25, f"stc gen grew peak RSS by {grown_mb} MB"


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

    def test_same_dataset_for_any_stc_threads(self, tmp_path, monkeypatch):
        written = []
        for threads in ("1", "2"):
            monkeypatch.setenv("STC_THREADS", threads)
            d = tmp_path / f"threads{threads}"
            assert main(["gen", "--out", str(d), "--simple", "5", "--complex", "2",
                         "--eval", "1", "--seed", "2"]) == 0
            assert main(["saliency", "--data", str(d)]) == 0
            written.append({p.relative_to(d): p.read_bytes() for p in d.rglob("*.*")})
        assert len([p for p in written[0] if p.parts[0] == "saliency"]) == 5
        assert written[0] == written[1]

    def test_bad_stc_threads_rejected_before_anything_is_written(
        self, tmp_path, capsys, monkeypatch
    ):
        d = _dataset(tmp_path)
        before = (d / "manifest.jsonl").read_bytes()
        monkeypatch.setenv("STC_THREADS", "0")
        assert main(["saliency", "--data", str(d)]) == 1
        assert capsys.readouterr().err == "error: STC_THREADS must be an integer >= 1, got '0'\n"
        assert not (d / "saliency").exists()
        assert (d / "manifest.jsonl").read_bytes() == before


    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda e: e.pop("image"), "image"),
            (lambda e: e.pop("labels"), "labels"),
            (lambda e: e.pop("split"), "split"),
            (lambda e: e.update(labels=3), "labels"),
            (lambda e: e.update(labels="ab"), "labels"),
            (lambda e: e.update(labels=[1.7]), "labels"),
            (lambda e: e.update(labels=[True]), "labels"),
            (lambda e: e.update(labels=[]), "labels"),
            (lambda e: e.update(labels=None), "labels"),
            (lambda e: e.update(image=None), "image"),
            (lambda e: e.update(image="images/" + "a" * 300 + ".ppm"), "image"),
            ([1, 2], "object"),
        ],
        ids=[
            "no-image", "no-labels", "no-split", "labels-int", "labels-str",
            "labels-float", "labels-bool", "labels-empty", "labels-null", "image-null",
            "image-name-too-long", "array",
        ],
    )
    def test_bad_manifest_line_names_file_line_and_field(self, tmp_path, capsys, edit, field):
        d = tmp_path / "data"
        assert main(["gen", "--out", str(d), "--simple", "2", "--complex", "0",
                     "--eval", "0", "--seed", "2"]) == 0
        manifest_path = d / "manifest.jsonl"
        lines = manifest_path.read_text().splitlines()
        entry = json.loads(lines[1])
        if callable(edit):
            edit(entry)
        else:
            entry = edit
        lines[1] = json.dumps(entry)
        manifest_path.write_text("\n".join(lines) + "\n")
        before = manifest_path.read_bytes()
        assert main(["saliency", "--data", str(d)]) == 1
        err = capsys.readouterr().err
        assert f"{manifest_path}:2: " in err and field in err, err
        assert manifest_path.read_bytes() == before


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

    @pytest.mark.parametrize(
        "raw", [b'{"epochs": 1', b'\xff{"epochs": 1}', b"[" * 100_000], ids=["json", "utf8", "deep"]
    )
    def test_config_that_is_not_json_rejected_naming_the_file(
        self, dataset_dir, tmp_path, capsys, raw
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(raw)
        rc = main(
            ["run", "--data", str(dataset_dir), "--out", str(tmp_path), "--config", str(cfg)]
        )
        assert rc == 1
        assert f"error: {cfg}: not valid JSON (" in capsys.readouterr().err

    def test_config_that_is_not_an_object_rejected_naming_the_file(
        self, dataset_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "out"
        argv = ["run", "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg)]
        assert main(argv) == 1
        assert f"error: {cfg}: config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--data", "--out"])
    @pytest.mark.parametrize(
        "command", [["run"], ["stage", "--stage", "initial"]], ids=["run", "stage"]
    )
    def test_data_and_out_are_required_flags(
        self, dataset_dir, tmp_path, capsys, monkeypatch, command, missing
    ):
        _no_stage_work(monkeypatch)
        out = tmp_path / "out"
        flags = {"--data": str(dataset_dir), "--out": str(out)}
        del flags[missing]
        with pytest.raises(SystemExit) as exit_:
            main([*command, *(a for pair in flags.items() for a in pair)])
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: stc {command[0]} [-h] --data DATA --out OUT"), err
        assert err.endswith(f"error: the following arguments are required: {missing}\n"), err
        assert not out.exists()

    def test_seed_flag_overrides_the_configs_seed(self, dataset_dir, tmp_path):
        outputs = []
        for config_seed, flags in ((0, ["--seed", "3"]), (3, [])):
            cfg = tmp_path / f"seed{config_seed}.json"
            cfg.write_text(json.dumps({**TINY_CONFIG, "epochs": 1, "seed": config_seed}))
            out = tmp_path / f"out{config_seed}"
            assert main(["run", "--data", str(dataset_dir), "--out", str(out),
                         "--config", str(cfg), *flags]) == 0
            outputs.append({
                p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                if p.is_file() and not p.name.startswith("report.")  # reports hold timings
            })
        assert len(outputs[0]) == 6 + 8 + 12 and outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command", [["run"], ["stage", "--stage", "initial"]], ids=["run", "stage"]
    )
    def test_negative_seed_flag_rejected_before_any_stage_work(
        self, dataset_dir, tmp_path, capsys, monkeypatch, command
    ):
        _no_stage_work(monkeypatch)
        out = tmp_path / "out"
        argv = [*command, "--data", str(dataset_dir), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"epochs": 1, "bogus_knob": 3}))
        rc = main(
            ["run", "--data", str(dataset_dir), "--out", str(tmp_path), "--config", str(cfg)]
        )
        assert rc != 0
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["simple", "complex", "eval"])
    def test_corpus_size_key_rejected_as_unknown(self, dataset_dir, tmp_path, capsys, key):
        # corpus sizes are `stc gen` flags; `run` and `stage` never read them
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: 5}))
        rc = main(
            ["run", "--data", str(dataset_dir), "--out", str(tmp_path), "--config", str(cfg)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and f"unknown config keys [{key!r}]" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("channels", 16),
            ("channels", []),
            ("channels", [16, "32", 64]),
            ("channels", [16, 0, 64]),
            ("epochs", "2"),
            ("epochs", 2.5),
            ("batch_size", True),
            ("warm_start", 1),
            ("num_classes", "4"),
            ("epochs", None),
            ("warm_start", None),
            ("channels", None),
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
        if value is None:
            assert err.startswith(f"error: {cfg}: config key {key!r} must be "), err
            assert err.endswith(", got None\n"), err

    def test_null_num_classes_is_the_default_class_count(self, tmp_path):
        # None is TrainConfig's own default: the largest label
        (tmp_path / "null.json").write_text('{"num_classes": null}')
        (tmp_path / "empty.json").write_text("{}")
        loaded = load_run_config(tmp_path / "null.json")
        assert loaded == load_run_config(tmp_path / "empty.json") == pipeline.TrainConfig()

    @pytest.mark.parametrize("channels", [[6], [6, 8, 10, 12]])
    def test_channels_other_than_three_widths_rejected_naming_file_and_key(
        self, dataset_dir, tmp_path, capsys, monkeypatch, channels
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "channels": channels}))
        _no_stage_work(monkeypatch)
        out = tmp_path / "out"
        assert main(["run", "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg)]) == 1
        want = f"config key 'channels' must be a list of 3 positive integers, got {channels}"
        assert capsys.readouterr().err == f"error: {cfg}: {want}\n"
        assert not out.exists()


RUN_CONFIG_TEXT = {k: json.dumps(v).encode() for k, v in TINY_CONFIG.items()}


@settings(max_examples=300)
@given(mutation=JSON_MUTATIONS)
def test_mutated_run_config_loads_or_raises_naming_the_file(tmp_path_factory, mutation):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    other = json.dumps(dataclasses.asdict(pipeline.TrainConfig())).encode()
    path.write_bytes(mutated_json_object(RUN_CONFIG_TEXT, other, mutation))
    try:
        config = load_run_config(path)
    except ValueError as e:
        assert str(e).startswith(f"{path}: "), e
        return
    assert isinstance(config, pipeline.TrainConfig)


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


def _with_shape(net, name, shape):
    """A copy of `net` whose parameter `name` is zeros of `shape` (added if
    `net` lacks it), or lacks it if `shape` is None."""
    out = ParamSet()
    for n, p in net.items():
        if n != name:
            out.add(n, p.value)
    if shape is not None:
        out.add(name, np.zeros(shape))
    return out


def _command_loading(command, ckpt, dataset_dir, out):
    if command == "eval":
        return ["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir)]
    return ["stage", "--data", str(dataset_dir), "--out", str(out), "--stage", "enhanced",
            "--params", str(ckpt)]


# defect -> (parameter, shape it gets) in the default 16/32/64 network, 4 classes
BAD_STACKS = {
    "conv1-input-channels": ("conv1.weight", (16, 4, 3, 3)),
    "chain": ("conv2.weight", (32, 8, 3, 3)),
    "even-kernel": ("conv2.weight", (32, 16, 2, 2)),
    "non-square-kernel": ("conv3.weight", (64, 32, 3, 1)),
    "5x5-kernel": ("conv2.weight", (32, 16, 5, 5)),
    "weight-rank": ("conv1.weight", (16, 3, 9)),
    "bias-length": ("conv2.bias", (31,)),
    "head-input": ("head.weight", (5, 32, 1, 1)),
    "head-kernel": ("head.weight", (5, 64, 3, 3)),
    "head-bias": ("head.bias", (4,)),
    "missing-bias": ("conv2.bias", None),
    "stray-parameter": ("conv5.weight", (8, 64, 3, 3)),
}


@pytest.mark.parametrize("command", ["eval", "stage"])
@pytest.mark.parametrize("defect", list(BAD_STACKS))
def test_checkpoint_whose_layers_do_not_chain_names_file_and_field(
    dataset_dir, tmp_path, capsys, command, defect
):
    name, shape = BAD_STACKS[defect]
    path = tmp_path / "bad.stcp"
    save_params(_with_shape(init_network(NetworkConfig(4, seed=0)), name, shape), path)
    out = tmp_path / "stage_out"
    assert main(_command_loading(command, path, dataset_dir, out)) == 1
    captured = capsys.readouterr()
    assert str(path) in captured.err and name in captured.err
    assert "miou" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("defect", list(BAD_STACKS))
def test_parameter_set_whose_layers_do_not_chain_is_rejected_by_predict(defect):
    name, shape = BAD_STACKS[defect]
    net = _with_shape(init_network(NetworkConfig(4, seed=0)), name, shape)
    with pytest.raises(ValueError, match=re.escape(name)):
        predict(net, np.zeros((16, 16, 3)))


@pytest.mark.parametrize("command", ["eval", "stage"])
@pytest.mark.parametrize(
    "channels, name", [((16, 32), "conv3.weight"), ((16, 32, 64, 8), "conv4.weight")],
    ids=["2-block", "4-block"],
)
def test_checkpoint_of_another_depth_exits_1_naming_file_and_layer(
    dataset_dir, tmp_path, capsys, command, channels, name
):
    net = ParamSet()
    for n, shape in network._layer_shapes(4, channels):
        net.add(n, np.full(shape, 0.1))
    path = tmp_path / "depth.stcp"
    save_params(net, path)
    out = tmp_path / "stage_out"
    assert main(_command_loading(command, path, dataset_dir, out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and name in captured.err, captured.err
    assert "miou" not in captured.out
    assert not out.exists()


# field -> value that disagrees with the default 16/32/64 network, 4 classes
SIDECAR_EDITS = {
    "num_classes": 3,
    "channels": [16, 32],
    "kernel_size": 5,
}


@pytest.mark.parametrize("command", ["eval", "stage"])
@pytest.mark.parametrize(
    "edit", [*SIDECAR_EDITS, "missing-field", "not-json", "not-utf8", "too-deep", "array"]
)
def test_sidecar_that_disagrees_with_the_weights_names_file_and_field(
    dataset_dir, tmp_path, capsys, command, edit
):
    path = tmp_path / "ckpt.stcp"
    save_params(init_network(NetworkConfig(4, seed=0)), path)
    sidecar = {"num_classes": 4, "channels": [16, 32, 64], "kernel_size": 3, "seed": 0}
    field = edit
    if edit == "missing-field":
        field = "channels"
        del sidecar[field]
    elif edit in SIDECAR_EDITS:
        sidecar[field] = SIDECAR_EDITS[field]
    unreadable = {"not-json": b"{not json", "not-utf8": b"\xff\xfe{}", "too-deep": b"[" * 100_000}
    raw = {**unreadable, "array": b"[]"}.get(edit, json.dumps(sidecar).encode())
    path.with_suffix(".json").write_bytes(raw)
    out = tmp_path / "stage_out"
    assert main(_command_loading(command, path, dataset_dir, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path.with_suffix('.json')}: "), err
    if edit == "array":
        assert "checkpoint sidecar must be a JSON object" in err, err
    elif edit in unreadable:
        assert "not valid JSON (" in err, err
    else:
        assert repr(field) in err
    assert not out.exists()


SIDECAR_TEXT = {
    k: json.dumps(v).encode()
    for k, v in {"num_classes": 4, "channels": [6, 8, 10], "kernel_size": 3, "seed": 0}.items()
}


@settings(max_examples=300)
@given(mutation=JSON_MUTATIONS)
def test_mutated_sidecar_loads_or_raises_naming_the_sidecar(tmp_path_factory, mutation):
    path = tmp_path_factory.getbasetemp() / "fuzz.stcp"
    net = init_network(NetworkConfig(4, channels=(6, 8, 10), seed=0))
    save_params(net, path)
    other = json.dumps({"seed": 5, "channels": [16, 32, 64], "num_classes": 3}).encode()
    path.with_suffix(".json").write_bytes(mutated_json_object(SIDECAR_TEXT, other, mutation))
    try:
        loaded = cli._load_network(path)
    except ValueError as e:
        assert str(e).startswith(f"{path.with_suffix('.json')}: "), e
        return
    assert cli._architecture(loaded) == cli._architecture(net)


class TestStageCommand:
    def test_params_with_another_class_count_rejected_before_any_stage_work(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        def no_stage_work(*args, **kwargs):
            raise AssertionError("a stage ran on a checkpoint with another class count")

        monkeypatch.setattr(pipeline, "run_stage", no_stage_work)
        path = tmp_path / "three_classes.stcp"
        save_params(init_network(NetworkConfig(3, seed=0)), path)
        out = tmp_path / "stage_out"
        rc = main(["stage", "--data", str(dataset_dir), "--out", str(out),
                   "--stage", "enhanced", "--params", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(path) in err and "num_classes" in err, err
        assert not out.exists()

    def test_warm_start_params_with_other_channels_rejected_before_any_stage_work(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        def no_stage_work(*args, **kwargs):
            raise AssertionError("a warm-started stage ran on a checkpoint with other channels")

        monkeypatch.setattr(pipeline, "run_stage", no_stage_work)
        path = tmp_path / "prior.stcp"
        save_params(init_network(NetworkConfig(4, channels=(6, 8, 10), seed=0)), path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "channels": [16, 32, 64], "warm_start": True}))
        out = tmp_path / "stage_out"
        rc = main(["stage", "--data", str(dataset_dir), "--out", str(out),
                   "--stage", "enhanced", "--params", str(path), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(path) in err and "channels" in err, err
        assert not out.exists()

    def test_cold_start_params_with_other_channels_train_the_configs_channels(
        self, dataset_dir, tmp_path
    ):
        path = tmp_path / "prior.stcp"
        save_params(init_network(NetworkConfig(4, channels=(4, 6, 5), seed=0)), path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "epochs": 1}))
        out = tmp_path / "stage_out"
        assert main(["stage", "--data", str(dataset_dir), "--out", str(out),
                     "--stage", "enhanced", "--params", str(path), "--config", str(cfg)]) == 0
        sidecar = json.loads((out / "checkpoint_enhanced.json").read_text())
        assert sidecar["channels"] == TINY_CONFIG["channels"]

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
@pytest.mark.parametrize(
    "key, value",
    [
        ("crop_size", 50),
        ("crop_size", 0),
        ("batch_size", 0),
        ("epochs", -1),
        ("enhance_rounds", 0),
        ("num_classes", 0),
        ("seed", -1),
    ],
)
def test_config_value_out_of_range_rejected_naming_file_and_key_before_any_stage_work(
    dataset_dir, tmp_path, capsys, monkeypatch, command, key, value
):
    def no_stage_work(*args, **kwargs):
        raise AssertionError(f"a stage ran with {key} {value}")

    monkeypatch.setattr(pipeline, "run_stage", no_stage_work)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, key: value}))
    out = tmp_path / "out"
    argv = [command, "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg)]
    if command == "stage":
        argv += ["--stage", "initial"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: config key {key!r}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "stage"])
@pytest.mark.parametrize("key", [*SCHEDULE_KEYS, "data", "out"])
def test_sgd_schedule_key_rejected_as_unknown_naming_file_and_key_before_any_stage_work(
    dataset_dir, tmp_path, capsys, monkeypatch, command, key
):
    _no_stage_work(monkeypatch)
    cfg = tmp_path / "schedule.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, key: 1}))
    out = tmp_path / "out"
    argv = [command, "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg)]
    if command == "stage":
        argv += ["--stage", "initial"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown config keys [{key!r}]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, split",
    [
        (["run"], "simple"),
        (["stage", "--stage", "initial"], "simple"),
        (["stage", "--stage", "powerful", "--params"], "simple"),
    ],
    ids=["run", "stage-initial", "stage-powerful"],
)
def test_crop_size_above_a_training_image_rejected_before_saliency_or_relabel(
    dataset_dir, tmp_path, capsys, monkeypatch, argv, split
):
    def no_stage_work(*args, **kwargs):
        raise AssertionError("stage work ran although crop_size exceeds the images")

    for fn in ("compute_saliency", "relabel_complex", "train_stage"):
        monkeypatch.setattr(pipeline, fn, no_stage_work)
    if argv[-1] == "--params":
        argv = argv + [str(tmp_path / "prior.stcp")]
        save_params(init_network(NetworkConfig(4, channels=(6, 8, 10), seed=0)), argv[-1])
    cfg = tmp_path / "crop.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "crop_size": 68}))
    argv += ["--data", str(dataset_dir), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    first = data.read_dataset(dataset_dir).split(split).records[0].image
    assert f"{first}: image is 64x64" in err and "'crop_size' 68" in err, err
    assert not (tmp_path / "out").exists()


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
    assert not (tmp_path / "out").exists()


def test_empty_eval_split_rejected_by_eval_naming_the_dataset(tmp_path, capsys):
    d = tmp_path / "data"
    assert main(["gen", "--out", str(d), "--simple", "2", "--complex", "1",
                 "--eval", "0", "--seed", "5"]) == 0
    path = tmp_path / "ckpt.stcp"
    save_params(init_network(NetworkConfig(4, seed=0)), path)
    assert main(["eval", "--checkpoint", str(path), "--data", str(d)]) == 1
    err = capsys.readouterr().err
    assert "no eval records" in err and str(d) in err


@pytest.mark.parametrize("command", ["run", "stage"])
def test_stage_with_nothing_to_train_on_rejected_before_any_stage_runs(
    tmp_path, capsys, monkeypatch, command
):
    d = tmp_path / "data"
    assert main(["gen", "--out", str(d), "--simple", "4", "--complex", "0",
                 "--eval", "2", "--seed", "5"]) == 0

    def no_stage_work(*args, **kwargs):
        raise AssertionError("stage work ran although the powerful stage has nothing to train on")

    for fn in ("compute_saliency", "relabel_complex", "train_stage"):
        monkeypatch.setattr(pipeline, fn, no_stage_work)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "include_simple_in_powerful": False}))
    argv = [command, "--data", str(d), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    if command == "stage":
        argv += ["--stage", "powerful", "--params", str(tmp_path / "prior.stcp")]
        save_params(init_network(NetworkConfig(4, channels=(6, 8, 10), seed=0)), argv[-1])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: stage 'powerful': no complex records to train on\n", err
    assert not (tmp_path / "out").exists()


# defect -> what one eval ground-truth mask is written as
BAD_GT = {"label": np.full((64, 64), 9), "size": np.zeros((32, 64), dtype=np.int64)}


@pytest.mark.parametrize("command", ["run", "stage"])
@pytest.mark.parametrize("defect", list(BAD_GT))
def test_bad_eval_ground_truth_rejected_before_training(
    tmp_path, capsys, monkeypatch, command, defect
):
    d = tmp_path / "data"
    assert main(["gen", "--out", str(d), "--simple", "4", "--complex", "2",
                 "--eval", "2", "--seed", "5"]) == 0
    bad = data.read_dataset(d).split("eval").records[1].gt_mask
    imageio.write_pgm(d / bad, BAD_GT[defect])

    def no_training(*args, **kwargs):
        raise AssertionError("trained although an eval ground-truth mask is bad")

    monkeypatch.setattr(pipeline, "train_stage", no_training)
    argv = [command, "--data", str(d), "--out", str(tmp_path / "out")]
    if command == "stage":
        argv += ["--stage", "initial"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    want = "ground-truth label 9 outside 0..4" if defect == "label" else "mask is 32x64"
    assert str(d / bad) in err and want in err, err
    assert not (tmp_path / "out").exists()


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
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("STC_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert main(
            ["run", "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg)]
        ) == 0
        outs.append(out)
    for other in outs[1:]:
        for stage in ("initial", "enhanced", "powerful"):
            name = f"checkpoint_{stage}.stcp"
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name
        for sub in ("masks_initial", "masks_enhanced"):
            masks = sorted(p.name for p in (outs[0] / sub).glob("*.pgm"))
            assert masks and masks == sorted(p.name for p in (other / sub).glob("*.pgm"))
            for name in masks:
                assert (outs[0] / sub / name).read_bytes() == (other / sub / name).read_bytes()


def test_run_with_stored_saliency_maps_matches_run_that_computes_them(tmp_path):
    # the initial stage trains on the bytes `stc saliency` stores
    d = _dataset(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    computed, stored = tmp_path / "computed", tmp_path / "stored"
    assert main(["run", "--data", str(d), "--out", str(computed), "--config", str(cfg)]) == 0
    assert main(["saliency", "--data", str(d)]) == 0
    assert all(r.saliency for r in data.read_dataset(d).split("simple").records)
    assert main(["run", "--data", str(d), "--out", str(stored), "--config", str(cfg)]) == 0

    def outputs(out: Path) -> dict:  # checkpoints and pseudo-masks
        files = [p for p in out.rglob("*") if p.suffix in (".stcp", ".pgm")]
        return {p.relative_to(out): p.read_bytes() for p in files}

    want, got = outputs(computed), outputs(stored)
    assert len(want) == 3 + 4 + 6 and got.keys() == want.keys()
    for name, blob in want.items():
        assert got[name] == blob, name


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "stage-fails"])
def test_no_thread_outlives_a_run(dataset_dir, tmp_path, monkeypatch, fails):
    monkeypatch.setenv("STC_THREADS", "3")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    if fails:
        def broken_train_stage(*args, **kwargs):
            raise RuntimeError("training broke")

        monkeypatch.setattr(pipeline, "train_stage", broken_train_stage)
    before = threading.active_count()
    rc = main(["run", "--data", str(dataset_dir), "--out", str(tmp_path / "out"),
               "--config", str(cfg)])
    assert rc == (2 if fails else 0)
    assert threading.active_count() == before


def test_run_whose_powerful_stage_fails_leaves_no_checkpoint_report_or_partial_mask(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    train_stage = pipeline.train_stage
    stages = []

    def fail_third_stage(*args, **kwargs):
        stages.append(args[2])
        if len(stages) == 3:
            raise RuntimeError("killed while training")
        return train_stage(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_stage", fail_third_stage)
    out = tmp_path / "out"
    assert main(["run", "--data", str(dataset_dir), "--out", str(out),
                 "--config", str(cfg)]) == 2
    assert "stage 'powerful' failed" in capsys.readouterr().err
    left = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    manifest = data.read_dataset(dataset_dir)
    sizes = {Path(r.image).stem: manifest.load_image(r).shape[:2] for r in manifest.records}
    stems = {s: [Path(r.image).stem for r in manifest.split(s).records] for s in data.SPLITS}
    # the masks of the two stages that ran are whole; nothing else is left
    want = [f"masks_initial/{stem}.pgm" for stem in stems["simple"]]
    want += [f"masks_enhanced/{stem}.pgm" for stem in stems["complex"] + stems["simple"]]
    assert left == sorted(want)
    for name in left:
        stem = Path(name).stem
        assert imageio.read_pgm(out / name).shape == sizes[stem], name


@pytest.mark.parametrize("command", ["run", "stage"])
def test_label_above_num_classes_rejected_before_training(
    tmp_path, capsys, monkeypatch, command
):
    d = tmp_path / "data"
    assert main(["gen", "--out", str(d), "--simple", "4", "--complex", "2",
                 "--eval", "1", "--seed", "5"]) == 0
    manifest_path = d / "manifest.jsonl"
    lines = manifest_path.read_text().splitlines()
    entry = json.loads(lines[4])
    assert entry["split"] == "complex"
    entry["labels"] = [min(entry["labels"]), 7]
    lines[4] = json.dumps(entry)
    manifest_path.write_text("\n".join(lines) + "\n")

    def no_training(*args, **kwargs):
        raise AssertionError("trained although a label id is out of range")

    monkeypatch.setattr(pipeline, "train_stage", no_training)
    cfg = tmp_path / "config.json"  # without the key, num_classes is the largest label
    cfg.write_text(json.dumps({"num_classes": 4}))
    argv = [command, "--data", str(d), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    if command == "stage":
        argv += ["--stage", "initial"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(manifest_path) in err and entry["image"] in err and "7" in err, err
    assert not (tmp_path / "out").exists()


def _dataset(tmp_path, *flags) -> Path:
    d = tmp_path / "data"
    assert main(["gen", "--out", str(d), "--simple", "4", "--complex", "2",
                 "--eval", "2", "--seed", "5", *flags]) == 0
    return d


def _no_stage_work(monkeypatch):
    def no_stage_work(*args, **kwargs):
        raise AssertionError("stage work ran although an input is bad")

    for fn in ("compute_saliency", "relabel_complex", "train_stage"):
        monkeypatch.setattr(pipeline, fn, no_stage_work)


# defect -> (how one complex image is damaged, what the error says)
BAD_COMPLEX = {
    "truncated": (lambda raw: raw[:-100], "truncated pixel data"),
    "40x40": (lambda raw: b"P6\n40 40\n255\n" + bytes(40 * 40 * 3), "image is 40x40"),
}


def test_label_id_above_255_rejected_naming_the_manifest_line_before_any_stage_work(
    tmp_path, capsys, monkeypatch
):
    # a mask stores class ids as bytes, so reading the manifest rejects a
    # larger one, before the initial stage trains
    d = _dataset(tmp_path)
    path = d / "manifest.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    for entry in entries:
        if entry["split"] != "eval":
            entry["labels"] = [300 if c == 2 else c for c in entry["labels"]]
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    line = 1 + next(i for i, e in enumerate(entries) if 300 in e["labels"])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1}))
    _no_stage_work(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--data", str(d), "--out", str(out), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: labels must be class ids in 1..255"), err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["stage", "--stage", "initial"]], ids=["run", "stage"])
@pytest.mark.parametrize("defect", list(BAD_COMPLEX))
def test_bad_complex_image_rejected_before_any_stage_work(
    tmp_path, capsys, monkeypatch, argv, defect
):
    d = _dataset(tmp_path)
    bad = d / data.read_dataset(d).split("complex").records[1].image
    damage, want = BAD_COMPLEX[defect]
    bad.write_bytes(damage(bad.read_bytes()))
    _no_stage_work(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--data", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: {want}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["stage", "--stage", "initial"]], ids=["run", "stage"])
@pytest.mark.parametrize("split", data.SPLITS)
def test_image_side_not_a_multiple_of_4_rejected_before_any_stage_work(
    tmp_path, capsys, monkeypatch, argv, split
):
    d = tmp_path / "data"
    examples = list(data.build_dataset(4, 2, 2, seed=5, size=68))
    i = next(i for i, ex in enumerate(examples) if ex.split == split)
    cut = examples[i]
    examples[i] = dataclasses.replace(cut, image=cut.image[:66, :66], gt_mask=cut.gt_mask[:66, :66])
    data.write_dataset(examples, d)
    _no_stage_work(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--data", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    want = f"{d / 'images' / cut.name}.ppm: image is 66x66, not a multiple of the output stride 4"
    assert f"error: {want}\n" == err, err
    assert not out.exists()


def test_eval_image_the_nets_stride_does_not_divide_rejected_naming_it(tmp_path, capsys):
    # `stc eval` holds each eval image to the output stride of the checkpoint
    d = tmp_path / "data"
    examples = list(data.build_dataset(2, 1, 2, seed=5, size=68))
    i = next(i for i, ex in enumerate(examples) if ex.split == "eval")
    cut = examples[i]
    examples[i] = dataclasses.replace(cut, image=cut.image[:66, :66], gt_mask=cut.gt_mask[:66, :66])
    data.write_dataset(examples, d)
    path = tmp_path / "ckpt.stcp"
    save_params(init_network(NetworkConfig(4, seed=0)), path)
    assert main(["eval", "--checkpoint", str(path), "--data", str(d)]) == 1
    err = capsys.readouterr().err
    image = d / "images" / f"{cut.name}.ppm"
    assert err.startswith(f"error: {image}: "), err
    assert err == f"error: {image}: image is 66x66, not a multiple of the output stride 4\n"


@pytest.mark.parametrize("argv", [["run"], ["stage", "--stage", "initial"]], ids=["run", "stage"])
def test_bad_stc_threads_rejected_before_any_stage_work(
    dataset_dir, tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.setenv("STC_THREADS", "0")
    _no_stage_work(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--data", str(dataset_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: STC_THREADS must be an integer >= 1, got '0'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["stage", "--stage", "initial"]], ids=["run", "stage"])
def test_stored_saliency_map_of_another_size_rejected_naming_file_and_sizes(
    tmp_path, capsys, monkeypatch, argv
):
    d = _dataset(tmp_path)
    assert main(["saliency", "--data", str(d)]) == 0
    imageio.write_pgm(d / "saliency" / "simple_0003.pgm", np.zeros((40, 40), dtype=np.uint8))
    _no_stage_work(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--data", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    want = "saliency map is 40x40, its image 'images/simple_0003.ppm' is 64x64"
    assert f"{d / 'saliency' / 'simple_0003.pgm'}: {want}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["stage", "--stage", "initial"]], ids=["run", "stage"])
@pytest.mark.parametrize("key", [None, 4], ids=["no-key", "key-4"])
def test_num_classes_is_the_largest_label_unless_the_config_sets_it(tmp_path, argv, key):
    d = _dataset(tmp_path, "--classes", "3")
    cfg = {k: v for k, v in TINY_CONFIG.items() if k != "num_classes"}
    if key is not None:
        cfg["num_classes"] = key
    (tmp_path / "config.json").write_text(json.dumps({**cfg, "epochs": 1}))
    out = tmp_path / "out"
    assert main([*argv, "--data", str(d), "--out", str(out),
                 "--config", str(tmp_path / "config.json")]) == 0
    want = 3 if key is None else key
    for ckpt in out.glob("checkpoint_*.json"):
        assert json.loads(ckpt.read_text())["num_classes"] == want, ckpt
    if argv == ["run"]:
        report = json.loads((out / "report.json").read_text())
        assert all(len(s["per_class_iou"]) == want + 1 for s in report["stages"])


def test_stage_params_compared_with_the_class_count_of_the_labels(tmp_path, capsys):
    d = _dataset(tmp_path, "--classes", "3")
    path = tmp_path / "four_classes.stcp"
    save_params(init_network(NetworkConfig(4, seed=0)), path)
    out = tmp_path / "out"
    assert main(["stage", "--data", str(d), "--out", str(out), "--stage", "enhanced",
                 "--params", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: checkpoint has num_classes 4, the run has num_classes 3" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "stage"])
def test_out_that_cannot_be_created_exits_1_before_stage_work(
    dataset_dir, tmp_path, capsys, monkeypatch, command
):
    def no_stage_work(*args, **kwargs):
        raise AssertionError("stage work ran although --out cannot be created")

    for fn in ("compute_saliency", "relabel_complex", "train_stage"):
        monkeypatch.setattr(pipeline, fn, no_stage_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [command, "--data", str(dataset_dir), "--out", str(blocker / "out")]
    if command == "stage":
        argv += ["--stage", "initial"]
    assert main(argv) == 1
    assert str(blocker) in capsys.readouterr().err


def _write(writer: str, out: Path, seed: int) -> None:
    """One atomic writer of `stc`, writing content that depends on `seed`."""
    net = init_network(NetworkConfig(4, channels=(6, 8, 10), seed=seed))
    reports = [pipeline.StageReport("initial", [1.0], [0.5] * 5, 0.5, 1.0)] * (seed + 1)
    if writer == "manifest.jsonl":
        rec = data.DatasetRecord(f"images/{seed}.ppm", frozenset({1}), "simple")
        data.write_manifest(out, [rec])
    elif writer == "net.stcp":
        save_params(net, out / writer)
    elif writer == "checkpoint_initial.json":  # the sidecar, after its checkpoint
        cli._write_checkpoint(out, "initial", net, seed)
    elif writer == "report.json":
        pipeline.write_report_json(reports, out / writer, seed)
    elif writer == "report.csv":
        pipeline.write_report_csv(reports, out / writer)
    elif writer == "masks_initial/0.pgm":
        rec = data.DatasetRecord("images/0.ppm", frozenset({1}), "simple")
        pipeline._write_masks(out, "masks_initial", [(None, rec)], [np.full((4, 6), seed)])
    elif writer == "image.ppm":
        imageio.write_ppm(out / writer, np.full((4, 6, 3), 0.5 * seed))
    else:
        imageio.write_saliency_pgm(out / writer, np.full((4, 6), 0.5 * seed))


@pytest.mark.parametrize(
    "writer, method",
    [
        ("manifest.jsonl", "write_text"),
        ("net.stcp", "write_bytes"),
        ("checkpoint_initial.json", "write_text"),
        ("report.json", "write_text"),
        ("report.csv", "write_text"),
        ("masks_initial/0.pgm", "write_bytes"),
        ("image.ppm", "write_bytes"),
        ("saliency.pgm", "write_bytes"),
    ],
)
def test_failed_write_leaves_the_previous_file(tmp_path, monkeypatch, writer, method):
    _write(writer, tmp_path, 0)
    before = (tmp_path / writer).read_bytes()
    files = sorted(tmp_path.rglob("*"))
    write = getattr(Path, method)

    def half_then_fail(self, data, *args, **kwargs):
        write(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, method, half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        _write(writer, tmp_path, 1)
    monkeypatch.undo()
    assert (tmp_path / writer).read_bytes() == before
    assert sorted(tmp_path.rglob("*")) == files  # no temporary file left
    _write(writer, tmp_path, 1)
    assert (tmp_path / writer).read_bytes() != before


def test_key_error_inside_a_command_is_a_fault_not_bad_input(dataset_dir, tmp_path, monkeypatch):
    # every loader reports bad input as a ValueError; a KeyError is a bug
    def fault(*args, **kwargs):
        raise KeyError("conv9.weight")

    monkeypatch.setattr(pipeline, "run_stc", fault)
    with pytest.raises(KeyError, match="conv9.weight"):
        main(["run", "--data", str(dataset_dir), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "argv, want",
    [
        (["stage", "--stage", "Enhanced"], "argument --stage: invalid choice: 'Enhanced'"),
        (["gen", "--out", "{tmp}", "--simple", "abc"], "argument --simple: invalid int value"),
        (["run", "--data", "{tmp}", "--out", "{tmp}", "--bogus"],
         "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
    ids=["stage-choice", "gen-int", "run-flag", "no-command"],
)
def test_usage_error_exits_1_with_argparses_usage_message(tmp_path, capsys, argv, want):
    # exit 2 is a stage that failed while it ran; a typo is bad input
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([a.replace("{tmp}", str(out)) for a in argv])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: stc") and want in err, err
    assert not out.exists()


def test_usage_error_exits_1_from_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = ["run", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out"), "--bogus"]
    run = subprocess.run(
        [sys.executable, "-m", "stc", *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == 1
    assert "error: unrecognized arguments: --bogus" in run.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: stc")
