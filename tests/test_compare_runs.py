import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[1] / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _SCRIPT)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def fake_run(d: Path, seconds: float) -> Path:
    d.mkdir()
    (d / "checkpoint_initial.stcp").write_bytes(b"weights")
    (d / "checkpoint_initial.json").write_text('{"channels": [4]}\n')
    (d / "masks_initial").mkdir()
    (d / "masks_initial" / "a.pgm").write_bytes(b"P5\n1 1\n255\n\x01")
    stage = {"stage": "initial", "miou": 0.5, "seconds": seconds}
    (d / "report.json").write_text(json.dumps({"seed": 7, "stages": [stage]}))
    (d / "report.csv").write_text(
        f"stage,class,iou,miou,seconds\ninitial,0,0.5,0.5,{seconds:.3f}\n"
    )
    return d


def test_runs_that_differ_only_in_seconds_are_identical(tmp_path, capsys):
    a, b = fake_run(tmp_path / "a", 1.0), fake_run(tmp_path / "b", 2.5)
    assert compare_runs.main([str(a), str(b)]) == 0
    assert "identical: 5 files" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["mask", "missing", "report"])
def test_any_other_difference_exits_1_naming_the_file(tmp_path, capsys, change):
    a = fake_run(tmp_path / "a", 1.0)
    b = fake_run(tmp_path / "b", 1.0)
    if change == "mask":
        (b / "masks_initial" / "a.pgm").write_bytes(b"P5\n1 1\n255\n\x02")
    if change == "missing":
        (b / "checkpoint_initial.stcp").unlink()
    if change == "report":
        doc = json.loads((b / "report.json").read_text())
        doc["stages"][0]["miou"] = 0.6
        (b / "report.json").write_text(json.dumps(doc))
    assert compare_runs.main([str(a), str(b)]) == 1
    want = {"mask": "masks_initial/a.pgm", "missing": "checkpoint_initial.stcp",
            "report": "report.json"}[change]
    assert want in capsys.readouterr().out


def fake_dataset(d: Path) -> Path:
    for sub in ("images", "masks", "saliency"):
        (d / sub).mkdir(parents=True)
    (d / "images" / "simple_0000.ppm").write_bytes(b"P6\n1 1\n255\n\x01\x02\x03")
    (d / "masks" / "simple_0000.pgm").write_bytes(b"P5\n1 1\n255\n\x01")
    (d / "saliency" / "simple_0000.pgm").write_bytes(b"P5\n1 1\n255\n\x80")
    (d / "manifest.jsonl").write_text('{"image":"images/simple_0000.ppm"}\n')
    return d


@pytest.mark.parametrize(
    "change",
    [None, "images/simple_0000.ppm", "masks/simple_0000.pgm", "saliency/simple_0000.pgm",
     "manifest.jsonl"],
)
def test_dataset_trees_compare_without_reports(tmp_path, capsys, change):
    a, b = fake_dataset(tmp_path / "a"), fake_dataset(tmp_path / "b")
    if change is None:
        assert compare_runs.main([str(a), str(b)]) == 0
        assert "identical: 4 files" in capsys.readouterr().out
    else:
        (b / change).write_bytes((b / change).read_bytes() + b"\x00")
        assert compare_runs.main([str(a), str(b)]) == 1
        assert f"{change}: bytes differ" in capsys.readouterr().out


def test_directories_with_nothing_to_compare_differ(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "no run or dataset files" in capsys.readouterr().out
