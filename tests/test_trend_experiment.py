import importlib.util
from pathlib import Path

import pytest

from test_acceptance import POWERFUL_MIOU_FLOOR

_SCRIPT = Path(__file__).parents[1] / "scripts" / "trend_experiment.py"
_spec = importlib.util.spec_from_file_location("trend_experiment", _SCRIPT)
trend_experiment = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend_experiment)


def run_main(monkeypatch, tmp_path, mious_by_seed):
    """main() over the given seeds, with each seed's run stubbed to return
    its (initial, enhanced, powerful) mIoU."""
    def run_one(seed, workdir):
        return list(mious_by_seed[seed]), ["0" * 12] * 3, 0.0

    monkeypatch.setattr(trend_experiment, "run_one", run_one)
    seeds = [str(s) for s in mious_by_seed]
    return trend_experiment.main(["--seeds", *seeds, "--out", str(tmp_path)])


UP = (0.45, 0.55, 0.60)
DOWN = (0.45, 0.62, 0.60)
LOW = (0.40, 0.45, 0.50)


def test_floor_is_the_acceptance_suites():
    assert trend_experiment.POWERFUL_MIOU_FLOOR == POWERFUL_MIOU_FLOOR


def test_table_that_meets_the_gate_exits_0(monkeypatch, tmp_path, capsys):
    # 4/5 monotone, median powerful 0.60
    assert run_main(monkeypatch, tmp_path, {1: UP, 2: UP, 3: UP, 4: UP, 5: DOWN}) == 0
    out = capsys.readouterr().out
    assert "monotone in 4/5 seeds" in out
    assert "gate failed" not in out


@pytest.mark.parametrize(
    "table, failed",
    [
        ({1: UP, 2: UP, 3: UP, 4: DOWN, 5: DOWN}, ["monotone in 3/5 seeds, fewer than 4"]),
        # 4/5 of 3 seeds, rounded up, is all 3
        ({1: UP, 2: UP, 3: DOWN}, ["monotone in 2/3 seeds, fewer than 3"]),
        ({1: UP, 2: LOW, 3: LOW, 4: LOW, 5: UP}, ["median powerful miou 0.5000 < 0.55"]),
        (
            {1: DOWN, 2: (0.5, 0.45, 0.4), 3: (0.5, 0.4, 0.3)},
            ["monotone in 0/3 seeds, fewer than 3", "median powerful miou 0.4000 < 0.55"],
        ),
    ],
)
def test_table_that_misses_the_gate_exits_1_naming_it(monkeypatch, tmp_path, capsys, table, failed):
    assert run_main(monkeypatch, tmp_path, table) == 1
    gates = [line for line in capsys.readouterr().out.splitlines() if "gate failed" in line]
    assert len(gates) == len(failed)
    for line, want in zip(gates, failed):
        assert want in line
