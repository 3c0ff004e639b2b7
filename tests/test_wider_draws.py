"""tools/wider_draws.py: the verify reports that refactors compare with residual_diff.py."""

import collections
import importlib.util
import json
import os

from qkit.identities import all_identities


def _load(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load("wider_draws")


def test_the_draws_are_the_suite_seeds_and_the_baseline():
    runs = tool.runs()
    assert len(runs) == len(set(runs)) == 181
    per_group = collections.Counter(rec.group for rec in all_identities())
    assert sum(per_group[group] for group, _ in runs) == 4768
    assert all((group, seed) in runs for group, seed in tool.SUITE_SEEDS.items())


def test_one_report_per_draw(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tool, "runs", lambda: [("MELLIN", 3), ("PRELIM", 69)])
    assert tool.main([str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["MELLIN_3.json", "PRELIM_69.json"]
    reports = json.loads((tmp_path / "MELLIN_3.json").read_text())
    assert {rep["group"] for rep in reports} == {"MELLIN"}
    # PRELIM at seed 69 holds a failing point, which the report records
    statuses = {rep["status"] for rep in json.loads((tmp_path / "PRELIM_69.json").read_text())}
    assert "fail" in statuses
    capsys.readouterr()
    assert _load("residual_diff").compare_dirs(str(tmp_path), str(tmp_path)) == 0


def test_a_directory_without_qkit_is_refused(tmp_path):
    assert tool.main([str(tmp_path / "out"), "--src", str(tmp_path)]) == 2
