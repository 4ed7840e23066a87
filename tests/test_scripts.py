"""The scripts run in-process with their default options."""
import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script, monkeypatch, capsys, tmp_path, *args) -> str:
    """Standard output of the script run from a directory outside the repo,
    with neither tests/ on the path nor its conftest imported; it must exit
    with code 0."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", [p for p in sys.path
                                      if pathlib.Path(p).resolve() != ROOT / "tests"])
    monkeypatch.delitem(sys.modules, "conftest", raising=False)
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert exit_.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("script, verdict", [
    ("holonomy_census.py", ", 0 mismatches\n"),
    ("symspace_survey.py", ", 0 failures\n"),
])
def test_script_runs_clean(script, verdict, monkeypatch, capsys, tmp_path):
    assert verdict in _run(script, monkeypatch, capsys, tmp_path)


def test_oriented_lines_scan_stabilizes_at_every_base_point(monkeypatch, capsys, tmp_path):
    """The scan's four re-centred metrics each give dimension 2 at every order."""
    out = _run("oriented_lines_scan.py", monkeypatch, capsys, tmp_path)
    assert out.count(" dims [2, 2, 2, 2, 2] stabilized True\n") == 4


def test_report_digests_are_repeatable(monkeypatch, capsys, tmp_path):
    """Two runs of the digest script on a subset of its verdicts print the
    same lines: one sha256, exit code and name per selected verdict, with
    the library-level dense lines after the CLI verdicts and no exit code."""
    only = ["--only", "catalog-n1", "*-n1-e0", "holonomy-d1", "ppwave-d1", "symspace-d-*",
            "dense-n1-o6-*"]
    first = _run("report_digests.py", monkeypatch, capsys, tmp_path, *only)
    second = _run("report_digests.py", monkeypatch, capsys, tmp_path, *only)
    lines = [line.split() for line in first.splitlines()]
    assert [name for _, _, name in lines] == [
        "catalog-n1", "classify-n1-e0", "berger-n1-e0", "holonomy-d1", "ppwave-d1",
        "symspace-d-1-0", "dense-n1-o6-s0", "dense-n1-o6-s7"]
    assert all(len(digest) == 64 for digest, _, _ in lines)
    assert [code for _, code, _ in lines] == ["0"] * 6 + ["-"] * 2
    assert lines[-2][0] != lines[-1][0]
    assert second == first


def test_report_digests_end_with_the_n0_descriptor_potentials(monkeypatch, capsys, tmp_path):
    """The n = 0 lines come after the dense ones: G0, which has no potential,
    exits 1 on each command, and G1, G2 and both G3 exit 0."""
    out = _run("report_digests.py", monkeypatch, capsys, tmp_path,
               "--only", "dense-n0-o8-s7", "holonomy-n0-*", "ppwave-n0-*", "validate-n0-*")
    lines = [line.split() for line in out.splitlines()]
    names = [f"{cmd}-n0-e{i}" for i in range(5) for cmd in ("holonomy", "ppwave", "validate")]
    assert [name for _, _, name in lines] == ["dense-n0-o8-s7"] + names
    assert [code for _, code, _ in lines] == ["-"] + ["1"] * 3 + ["0"] * 12


def test_berger_reports_are_the_same_in_every_conjugate_frame(monkeypatch, capsys, tmp_path):
    """The conjugate lines of the digest script: each catalog entry at n = 1
    written as a basis file in a Levi-rotated, a parabolic and a
    U(1,3)-conjugated frame gives the berger report of the entry itself,
    byte for byte."""
    out = _run("report_digests.py", monkeypatch, capsys, tmp_path, "--only", "berger-n1-*")
    lines = {name: (digest, code) for digest, code, name in map(str.split, out.splitlines())}
    assert len(lines) == 16
    for i in range(4):
        assert lines[f"berger-n1-e{i}"][1] == "0"
        for kind in ("levi", "parabolic", "unitary"):
            assert lines[f"berger-n1-e{i}-{kind}"] == lines[f"berger-n1-e{i}"], (i, kind)


def test_report_digests_end_with_the_classify_conjugate_lines(monkeypatch, capsys, tmp_path):
    """The last lines classify the conjugates of the catalog entries: at
    n = 1 the matcher proves its reading of every Levi and parabolic
    conjugate (exit 0) and reports every U(1,3) conjugate UNKNOWN (exit 2)."""
    out = _run("report_digests.py", monkeypatch, capsys, tmp_path,
               "--only", "holonomy-d9-o10", "classify-n1-e*-*")
    lines = [line.split() for line in out.splitlines()]
    kinds = ("levi", "parabolic", "unitary")
    assert [name for _, _, name in lines] == ["holonomy-d9-o10"] + [
        f"classify-n1-e{i}-{kind}" for i in range(4) for kind in kinds]
    assert [code for _, code, _ in lines[1:]] == ["0", "0", "2"] * 4
