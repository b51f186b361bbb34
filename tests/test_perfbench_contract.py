"""The benchmark's tracer (`perfbench/spans.py`) reaches into `stc` by name:
it wraps the functions its LAYERS table lists at every binding, and the
thread-pool wrapper calls `_parallel_map(task_fn, items)`. These tests load
the tracer as it is and check that the names still resolve and that
tracing leaves the program's results and bindings as they were."""
import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from stc import cli, data, imageio, network, pipeline, pseudolabel
from stc.network import NetworkConfig, init_network

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stc_bindings() -> dict:
    """Every (module, attribute) -> value in the loaded stc modules."""
    return {
        (name, attr): value
        for name, m in list(sys.modules.items())
        if name == "stc" or name.startswith("stc.")
        for attr, value in vars(m).items()
    }


def test_every_traced_function_resolves_in_stc(spans):
    for mod, fns in spans.LAYERS.items():
        owner = importlib.import_module(f"stc.{mod}")
        for fn in fns:
            assert callable(getattr(owner, fn, None)), f"stc.{mod}.{fn}"
    for (mod, fn), bindings in spans.ONLY_BINDINGS.items():
        assert fn in spans.LAYERS[mod], (mod, fn)
        original = getattr(importlib.import_module(f"stc.{mod}"), fn)
        for binding in bindings:
            assert getattr(importlib.import_module(binding), fn, None) is original, binding
    assert spans.POOL == "pipeline._parallel_map"


def test_tracer_spans_predict_and_parallel_map_then_restores_them(spans, monkeypatch):
    monkeypatch.setenv("STC_THREADS", "2")
    ps = init_network(NetworkConfig(num_classes=2, channels=(4, 6, 8), seed=1))
    rng = np.random.default_rng(5)
    imgs = [rng.uniform(size=(16, 12, 3)) for _ in range(3)]
    want = ([network.predict(ps, imgs[0])],
            [pseudolabel.relabel_complex(ps, im, {1}) for im in imgs])
    before = stc_bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert pipeline._parallel_map is not before[("stc.pipeline", "_parallel_map")]
        first = [network.predict(ps, imgs[0])]
        masks = pipeline._parallel_map(lambda im: pseudolabel.relabel_complex(ps, im, {1}), imgs)
        assert getattr(network._plans, "plan", None) is None
    assert stc_bindings() == before
    assert np.array_equal(first[0], want[0][0])
    assert all(np.array_equal(m, w) for m, w in zip(masks, want[1]))

    metrics = spans.layer_metrics(tracer.spans)
    # relabeling shares predict's forward and softmax, not predict itself
    assert metrics["network.predict.calls"] == 1
    assert metrics["pseudolabel.relabel_complex.calls"] == 3
    assert metrics["ops.conv2d_forward.calls"] == 4 * 4  # 3 convs and the head
    assert metrics["ops.bilinear_resize.calls"] == 4
    assert metrics["pipeline._parallel_map.calls"] == 1
    assert metrics["pipeline.pool.busy_s"] > 0.0
    by_id = {s[0]: s for s in tracer.spans}
    tasks = [s for s in tracer.spans if s[1] == spans.POOL_TASK]
    assert len(tasks) == 3
    assert all(by_id[t[2]][1] == spans.POOL for t in tasks)


def test_tracer_spans_the_image_writers_with_their_file_sizes(spans, tmp_path):
    # the writers go through the atomic writer; the tracer stats the path
    # they were given once they return
    before = stc_bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        imageio.write_ppm(tmp_path / "image.ppm", np.full((4, 6, 3), 0.5))
        imageio.write_pgm(tmp_path / "mask.pgm", np.full((4, 6), 2))
    assert stc_bindings() == before
    metrics = spans.layer_metrics(tracer.spans)
    for fn, name in (("write_ppm", "image.ppm"), ("write_pgm", "mask.pgm")):
        assert metrics[f"imageio.{fn}.calls"] == 1
        assert metrics[f"imageio.{fn}.bytes"] == (tmp_path / name).stat().st_size > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["image.ppm", "mask.pgm"]


# the run-config keys as of the benchmark's workloads, TrainConfig's fields;
# dropping or renaming one changes what `stc run --config` accepts
RUN_CONFIG_KEYS = [
    "batch_size", "channels", "crop_size", "enhance_rounds", "epochs",
    "include_simple_in_powerful", "num_classes", "seed", "warm_start",
]


def test_run_config_keys_are_pinned(tmp_path):
    (tmp_path / "empty.json").write_text("{}")
    loaded = cli.load_run_config(tmp_path / "empty.json")
    assert sorted(dataclasses.asdict(loaded)) == RUN_CONFIG_KEYS


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads_under_test", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_workload_run_config_loads(tmp_path, workloads):
    configs = [w.run_config for w in workloads.WORKLOADS.values() if w.run_config is not None]
    assert configs
    for i, run_config in enumerate(configs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(run_config))
        loaded = cli.load_run_config(path)
        assert {k: getattr(loaded, k) for k in run_config} == run_config


def test_benchmark_inference_pass_passes_its_checks(tmp_path, workloads):
    # the pass calls pipeline._saliency_for, pipeline._write_masks with
    # (manifest, record) pairs and pseudolabel.relabel_simple by name
    data.write_dataset(data.build_dataset(3, 2, 2, seed=4), tmp_path / "data")
    manifest = data.read_dataset(tmp_path / "data")
    net = init_network(NetworkConfig(num_classes=4, channels=(6, 8, 10), seed=1))
    result = workloads.inference_pass(net, manifest, tmp_path / "infer")
    assert workloads.check_pass(result) == []
    assert (result.images, len(result.saliency), len(result.masks)) == (7, 3, 5)
    assert len(list(result.mask_dir.glob("*.pgm"))) == 5


@pytest.mark.parametrize("run_config", [None, {"epochs": 1}], ids=["infer", "pipeline"])
def test_benchmark_setup_passes_its_checks(tmp_path, workloads, run_config):
    # the set-up calls `cli.main gen`, `load_image`, `load_gt_mask`,
    # `init_network` and `save_params`/`load_params` by name
    w = workloads.Workload("tiny", workloads.Corpus(3, 2, 2, 32), run_config)
    s = workloads.setup(w, tmp_path / "data", 0, 1)
    assert workloads.check_setup(w, s) == []
    if run_config is None:
        want = init_network(NetworkConfig(workloads.NUM_CLASSES, seed=1))
        assert s.net.names() == want.names()
        assert all(np.array_equal(s.net[n].value, want[n].value) for n in want.names())
    else:
        assert s.net is None
