"""The golden iteration tables (``tests/golden``) and their comparer.

A fresh run of ``presets/sweep.cfg`` matches its golden table, and the
comparer fails on a count moved anywhere but at a threshold cell, where
it allows a move of one.
"""

from pathlib import Path

import compare_golden
from compare_golden import GOLDEN, THRESHOLD_CELLS, compare, compare_all
from mpet.cli import main

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def _moved(table, tmp_path, line, step):
    """A copy of golden ``table`` with the count on ``line`` moved by ``step``."""
    lines = (GOLDEN / table).read_text().splitlines(keepends=True)
    *keys, iterations, converged = lines[line - 1].rstrip("\n").split(",")
    lines[line - 1] = ",".join([*keys, str(int(iterations) + step), converged]) + "\n"
    path = tmp_path / f"{step}_{table.replace('/', '_')}"
    path.write_text("".join(lines))
    return path


def test_fresh_sweep_matches_its_golden_table(tmp_path):
    assert main(["sweep", "--config", str(PRESETS / "sweep.cfg"), "--out", str(tmp_path / "sweep")]) == 0
    assert compare(GOLDEN / "sweep/sweep.csv", tmp_path / "sweep/sweep.csv") == []


def test_a_moved_count_fails(tmp_path, capsys):
    # sweep.csv line 3 is cell (1, 0, 1.0); sweep_mixed.csv line 21 is the
    # threshold cell (2, 2, 1.0), line 20 its neighbour (2, 0, 1e8)
    table = "sweep_mixed/sweep.csv"
    cells = THRESHOLD_CELLS[table]
    assert len(compare(GOLDEN / "sweep/sweep.csv", _moved("sweep/sweep.csv", tmp_path, 3, 1))) == 1
    assert compare(GOLDEN / table, _moved(table, tmp_path, 21, -1), cells) == []
    assert compare(GOLDEN / table, _moved(table, tmp_path, 21, 2), cells)
    assert compare(GOLDEN / table, _moved(table, tmp_path, 20, 1), cells)
    assert compare(GOLDEN / table, _moved(table, tmp_path, 21, 1)), "no threshold cell given"

    # the command line: a moved count in one table of an output directory
    out = tmp_path / "out"
    for golden in GOLDEN.rglob("*.csv"):
        target = out / golden.relative_to(GOLDEN)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(golden.read_bytes())
    assert compare_all(out) == []
    (out / "orderrobust/orderrobust.csv").write_text(
        _moved("orderrobust/orderrobust.csv", tmp_path, 3, 1).read_text())
    assert compare_golden.main([str(out)]) == 1
    assert "orderrobust.csv:3" in capsys.readouterr().out
