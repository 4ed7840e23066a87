#!/usr/bin/env python3
"""Print one sha256 per CLI verdict of a fixed list, so two source trees can
be checked for byte-identical reports with one command each.

The verdicts run in-process through ``lkholonomy.cli.main``:
  - ``catalog --n 0..4``;
  - ``classify`` and ``berger`` on every catalog entry with n <= 3;
  - ``holonomy --rmax 5``, ``ppwave --rmax 4`` and ``validate`` at order 9
    on the ten regression descriptors (the first ten of the test suite's);
  - ``symspace`` on the 14 canonical cases of scripts/symspace_survey.py.

Each line is ``<sha256> <exit code> <verdict>``.  The digest is of the
``--out`` report, or of the error output when no report is written.

Usage: PYTHONPATH=src python3 scripts/report_digests.py [--only PATTERN ...]

``--only`` keeps the verdicts whose name matches one of the shell-style
patterns.
"""
import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from conftest import descriptor_suite  # noqa: E402

from lkholonomy import cli  # noqa: E402
from lkholonomy import serialization as S  # noqa: E402

CATALOG_N = range(5)
ALGEBRA_NMAX = 3
ORDER = 9
SYMSPACE_CASES = [("a", 0, 0), ("b", 0, 0), ("c", 0, 0), ("d", 1, 0), ("e", 1, 0)] + [
    ("f", n, m) for n in (1, 2, 3) for m in range(n + 1)]


def _verdict(work: str, name: str, argv: list[str]) -> tuple[str, int]:
    """The sha256 of the verdict's report (or of its error output) and its
    exit code."""
    out = os.path.join(work, f"{name}.json")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", out])
    data = pathlib.Path(out).read_bytes() if os.path.exists(out) else err.getvalue().encode()
    return hashlib.sha256(data).hexdigest(), code


def _write(work: str, name: str, obj) -> str:
    path = os.path.join(work, f"{name}.in.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _catalog(work: str, n: int) -> list[dict]:
    """The families of the catalog report for n."""
    out = os.path.join(work, f"families-n{n}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["catalog", "--n", str(n), "--out", out])
    with open(out) as fh:
        return json.load(fh)["result"]["families"]


def verdicts(work: str):
    """(name, argv) of every verdict, in the fixed order."""
    for n in CATALOG_N:
        yield f"catalog-n{n}", ["catalog", "--n", str(n)]
    for n in range(ALGEBRA_NMAX + 1):
        for i, entry in enumerate(_catalog(work, n)):
            alg = _write(work, f"n{n}-e{i}", entry["descriptor"])
            yield f"classify-n{n}-e{i}", ["classify", "--algebra", alg]
            yield f"berger-n{n}-e{i}", ["berger", "--algebra", alg]
    for i, d in enumerate(descriptor_suite()[:10]):
        pot = _write(work, f"d{i}", {"kind": "descriptor", "order": ORDER,
                                     "descriptor": S.encode_descriptor(d)})
        yield f"holonomy-d{i}", ["holonomy", "--potential", pot, "--rmax", "5"]
        yield f"ppwave-d{i}", ["ppwave", "--metric", pot, "--rmax", "4"]
        yield f"validate-d{i}", ["validate", "--potential", pot]
    for fam, n, m in SYMSPACE_CASES:
        yield (f"symspace-{fam}-{n}-{m}",
               ["symspace", "--family", fam, "--n", str(n), "--m", str(m)])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", nargs="+", default=["*"], metavar="PATTERN")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for name, argv in verdicts(work):
            if any(fnmatch.fnmatchcase(name, p) for p in args.only):
                digest, code = _verdict(work, name, argv)
                print(f"{digest} {code} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
