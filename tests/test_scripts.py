"""Smoke tests: the scripts run end to end through their __main__ blocks."""

import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_make_figures_writes_the_gallery(tmp_path, monkeypatch, capsys):
    assert run_script("make_figures.py", ["--outdir", str(tmp_path)], monkeypatch) == 0
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert svgs == ["basis_narrow.svg", "basis_quarter.svg", "rational_basis.svg",
                    "rational_curves.svg"]
    assert all((tmp_path / name).read_text().startswith("<svg") for name in svgs)
    capsys.readouterr()


def test_shape_sweep_passes(monkeypatch, capsys):
    assert run_script("shape_sweep.py", [], monkeypatch) == 0
    assert capsys.readouterr().out.rstrip().endswith("all checks passed")


def test_op_digests_prints_the_same_line_on_two_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ and perfbench/ in front
    monkeypatch.setenv("PYTHONPATH", "")  # and src/ in the children's PYTHONPATH
    lines = []
    for _ in range(2):
        assert run_script("op_digests.py", ["point-query", "--seeds", "1"], monkeypatch) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    workload, seed, sha1 = lines[0].split()
    assert (workload, seed, len(sha1)) == ("point-query", "1", 40)
