"""tools/residual_diff.py: the report comparison that refactors cite for unchanged residuals."""

import importlib.util
import json
import math
import os

import pytest


def _load_residual_diff():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "residual_diff.py")
    spec = importlib.util.spec_from_file_location("residual_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_residual_diff()


def _point(ident, rel_err=1e-14, status="pass", lhs=(0.5, 0.25)):
    nan = math.isnan(rel_err)
    return {"id": ident, "group": "PRELIM",
            "lhs": [math.nan, math.nan] if nan else list(lhs),
            "rhs": [math.nan, math.nan] if nan else list(lhs),
            "rel_err": rel_err, "status": status}


def _run(tmp_path, capsys, parent, change):
    paths = []
    for name, reports in (("parent.json", parent), ("change.json", change)):
        path = tmp_path / name
        path.write_text(json.dumps(reports))
        paths.append(str(path))
    code = tool.main(paths)
    return code, capsys.readouterr().out


def test_identical_reports(tmp_path, capsys):
    # a repeated id is matched by its order within that id
    reports = [_point("a"), _point("a", 3e-13), _point("b", 0.0)]
    code, out = _run(tmp_path, capsys, reports, reports)
    assert code == 0
    assert "PRELIM: 3 points, 3 identical, 0 status changes" in out
    assert "0 grew >10x" in out


def test_pass_to_fail_is_a_status_change(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, [_point("a"), _point("b")],
                     [_point("a"), _point("b", 2e-9, "fail")])
    assert code == 1
    assert "1 identical, 1 status changes" in out
    assert "status b#0: pass -> fail" in out
    assert "grew b#0: 1e-14 -> 2e-09" in out


@pytest.mark.parametrize("side", ["parent", "change"])
def test_missing_point(tmp_path, capsys, side):
    full, short = [_point("a"), _point("b")], [_point("a")]
    parent, change = (short, full) if side == "parent" else (full, short)
    code, out = _run(tmp_path, capsys, parent, change)
    assert code == 1
    before, after = ("missing", "pass") if side == "parent" else ("pass", "missing")
    assert f"status b#0: {before} -> {after}" in out


def test_nan_residual_compared_by_status_only(tmp_path, capsys):
    # a point that raised has no residual: an unchanged status passes, and a
    # changed one is a status change without a growth line
    skipped = _point("a", math.nan, "skipped(budget)")
    code, out = _run(tmp_path, capsys, [skipped, _point("b")], [skipped, _point("b")])
    assert code == 0
    assert "2 identical, 0 status changes" in out
    assert "max 0.00 median 0.00" in out

    code, out = _run(tmp_path, capsys, [skipped], [_point("a", 1e-3, "fail")])
    assert code == 1
    assert "status a#0: skipped(budget) -> fail" in out
    assert "grew" not in out.split("\n", 1)[1]
    assert "max 0.00 median 0.00, 0 grew >10x" in out


def test_usage_error(tmp_path):
    assert tool.main(["only-one.json"]) == 2
    # a directory against a file
    assert tool.main([str(tmp_path), str(tmp_path / "report.json")]) == 2


def _run_dirs(tmp_path, capsys, parent, change):
    """main() on two directories, each a {file name: reports} dict."""
    dirs = []
    for side, files in (("parent", parent), ("change", change)):
        path = tmp_path / side
        path.mkdir()
        for name, reports in files.items():
            (path / name).write_text(json.dumps(reports))
        dirs.append(str(path))
    code = tool.main(dirs)
    return code, capsys.readouterr().out


def test_directories_compare_same_named_reports(tmp_path, capsys):
    files = {"prelim_0.json": [_point("a"), _point("b")], "prelim_1.json": [_point("c")]}
    code, out = _run_dirs(tmp_path, capsys, files, files)
    assert code == 0
    assert "prelim_0.json:\nPRELIM: 2 points, 2 identical, 0 status changes" in out
    assert "prelim_1.json:\nPRELIM: 1 points, 1 identical, 0 status changes" in out


def test_directories_status_change_in_one_report(tmp_path, capsys):
    parent = {"prelim_0.json": [_point("a")], "prelim_1.json": [_point("c")]}
    change = {"prelim_0.json": [_point("a")], "prelim_1.json": [_point("c", 2e-9, "fail")]}
    code, out = _run_dirs(tmp_path, capsys, parent, change)
    assert code == 1
    assert "status c#0: pass -> fail" in out


@pytest.mark.parametrize("side", ["parent", "change"])
def test_directories_report_on_one_side_only(tmp_path, capsys, side):
    full = {"prelim_0.json": [_point("a")], "prelim_1.json": [_point("c")]}
    short = {"prelim_0.json": [_point("a")]}
    parent, change = (short, full) if side == "parent" else (full, short)
    code, out = _run_dirs(tmp_path, capsys, parent, change)
    assert code == 1
    other = "change" if side == "parent" else "parent"
    assert f"prelim_1.json: only in {tmp_path / other}" in out


def test_directories_point_on_one_side_only(tmp_path, capsys):
    code, out = _run_dirs(tmp_path, capsys, {"prelim_0.json": [_point("a"), _point("b")]},
                          {"prelim_0.json": [_point("a")]})
    assert code == 1
    assert "status b#0: pass -> missing" in out


def test_directories_end_with_totals(tmp_path, capsys):
    # the sums over all reports, per group and overall, close the output
    fourier = dict(_point("f"), group="FOURIER")
    parent = {"a.json": [_point("a"), _point("b"), fourier],
              "b.json": [_point("c"), _point("d")]}
    change = {"a.json": [_point("a"), _point("b", 2e-9, "fail"), dict(fourier, rel_err=3e-14)],
              "b.json": [_point("c"), _point("d", 5e-13)]}
    code, out = _run_dirs(tmp_path, capsys, parent, change)
    assert code == 1
    assert out.splitlines()[-3:] == [
        "TOTAL FOURIER: 1 points, 0 identical, 0 status changes, 0 grew >10x",
        "TOTAL PRELIM: 4 points, 2 identical, 1 status changes, 2 grew >10x",
        "TOTAL: 5 points, 2 identical, 1 status changes, 2 grew >10x",
    ]
