"""The scripts run in-process with their default options."""
import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script, monkeypatch, capsys) -> str:
    """Standard output of the script; it must exit with code 0."""
    monkeypatch.chdir(ROOT)  # the census finds the test descriptors by relative path
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [script])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert exit_.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("script, verdict", [
    ("holonomy_census.py", ", 0 mismatches\n"),
    ("symspace_survey.py", ", 0 failures\n"),
])
def test_script_runs_clean(script, verdict, monkeypatch, capsys):
    assert verdict in _run(script, monkeypatch, capsys)


def test_oriented_lines_scan_stabilizes_at_every_base_point(monkeypatch, capsys):
    """The scan's four re-centred metrics each give dimension 2 at every order."""
    out = _run("oriented_lines_scan.py", monkeypatch, capsys)
    assert out.count(" dims [2, 2, 2, 2, 2] stabilized True\n") == 4
