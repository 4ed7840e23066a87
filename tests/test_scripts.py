"""The census and survey scripts run in-process with their default options."""
import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, verdict", [
    ("holonomy_census.py", ", 0 mismatches\n"),
    ("symspace_survey.py", ", 0 failures\n"),
])
def test_script_runs_clean(script, verdict, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the census finds the test descriptors by relative path
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [script])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert exit_.value.code == 0
    assert verdict in capsys.readouterr().out
