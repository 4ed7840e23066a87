#!/usr/bin/env python3
"""Print one sha256 per CLI verdict of a fixed list, so two source trees can
be checked for byte-identical reports with one command each.

The verdicts run in-process through ``lkholonomy.cli.main``:
  - ``catalog --n 0..4``;
  - ``classify`` and ``berger`` on every catalog entry with n <= 3;
  - ``holonomy --rmax 5``, ``ppwave --rmax 4`` and ``validate`` at order 9
    on the ten regression descriptors (the first ten of the test suite's);
  - ``symspace`` on the 14 canonical cases of scripts/symspace_survey.py;
  - after the dense lines below, ``holonomy --rmax 5``, ``ppwave --rmax 4``
    and ``validate`` at order 9 on the descriptor potentials of the five
    ``catalog --n 0`` entries (G0 has no potential: its lines digest the
    one-line error, with exit code 1);
  - last, ``berger`` on three conjugates of every catalog entry with
    1 <= n <= 3, written as basis files: ``-levi`` (a unitary rotation of
    e_1..e_n), ``-parabolic`` and ``-unitary`` (an element of U(1,n+1)),
    drawn by ``tests/oracles.py::conjugations`` from
    ``numpy.random.default_rng((n, i))`` for entry i; then on the full
    algebra at n = 4 and 5 and on the first entry of ``catalog --n 4`` and
    ``catalog --n 5``; then on the other entries of ``catalog --n 4`` and
    ``catalog --n 5``, on the full algebra at n = 6 and 7 and on the first
    entry of ``catalog --n 6`` and ``catalog --n 7``;
  - then ``holonomy --rmax 6`` at order 10 on the ten regression
    descriptors, the full spans with the highest r_max that the benchmark's
    ``verdict-mix`` workload runs;
  - then ``holonomy --order 12 --rmax 4`` on the same ten: the CLI builds
    Ricci, and with it the full Gamma and R, before the span, which then
    reuses them, and these lines show that this order leaves the report
    unchanged;
  - then ten library lines ``cut-d<i>-o12-r4`` (see below);
  - at the very end, ``classify`` on the ``-levi``, ``-parabolic`` and
    ``-unitary`` conjugates of every catalog entry with n <= 3, drawn as
    for the ``berger`` conjugate lines.

Each line is ``<sha256> <exit code> <verdict>``.  The digest is of the
``--out`` report, or of the error output when no report is written.

No CLI path reaches the seeded dense Walker potentials of the benchmark's
``holonomy-dense`` workload, so ten more lines run them in the library:
the five (n, order, r_max) cases of that workload at seeds 0 and 7, each
potential drawn from ``numpy.random.default_rng((seed, case))`` by
``perfbench/inputs.py``, which is loaded by path and only read.  Their
digest is of Gamma and R (order, keys and coefficient bytes of every
entry, in dict order), of the holonomy basis bytes, ``dims_by_order`` and
the ``bracket_residual`` bytes; their exit code column is ``-``.  The
curvature of every n >= 1 case already spans u(1,n+1)_Cp at the base
point, so its holonomy basis is the real span of the pattern's unit
matrices, which holds no curvature value; at n = 0 it is the full span's.

The ``cut-d<i>-o12-r4`` lines run ``geometry.infinitesimal_holonomy`` with
r_max 4 on a fresh metric of each regression descriptor's potential at
order 12, so that the span builds Gamma to degree r_max + 1 and R to r_max
without caching them.  Their digest is of the holonomy basis bytes,
``dims_by_order`` and the ``bracket_residual`` bytes; their exit code
column is ``-``.

Usage: PYTHONPATH=src python3 scripts/report_digests.py [--only PATTERN ...]

``--only`` keeps the verdicts whose name matches one of the shell-style
patterns.
"""
import argparse
import contextlib
import fnmatch
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from conftest import descriptor_suite  # noqa: E402
from oracles import conjugations  # noqa: E402

from lkholonomy import classify as C  # noqa: E402
from lkholonomy import cli  # noqa: E402
from lkholonomy import geometry as G  # noqa: E402
from lkholonomy import serialization as S  # noqa: E402
from lkholonomy.lie import unitary_basis  # noqa: E402

CATALOG_N = range(5)
ALGEBRA_NMAX = 3
ORDER = 9
SYMSPACE_CASES = [("a", 0, 0), ("b", 0, 0), ("c", 0, 0), ("d", 1, 0), ("e", 1, 0)] + [
    ("f", n, m) for n in (1, 2, 3) for m in range(n + 1)]
DENSE_CASES = [(0, 8, 4), (0, 10, 4), (1, 6, 2), (1, 7, 3), (2, 6, 2)]  # (n, order, r_max)
DENSE_SEEDS = (0, 7)


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


def n0_verdicts(work: str):
    """(name, argv) of the verdicts on the n = 0 catalog entries' descriptor
    potentials, printed after the dense lines so that the lines before them
    keep their order."""
    for i, entry in enumerate(_catalog(work, 0)):
        pot = _write(work, f"n0-d{i}", {"kind": "descriptor", "order": ORDER,
                                        "descriptor": entry["descriptor"]})
        yield f"holonomy-n0-e{i}", ["holonomy", "--potential", pot, "--rmax", "5"]
        yield f"ppwave-n0-e{i}", ["ppwave", "--metric", pot, "--rmax", "4"]
        yield f"validate-n0-e{i}", ["validate", "--potential", pot]


def order10_verdicts(work: str):
    """(name, argv) of ``holonomy --rmax 6`` at order 10 on the ten
    regression descriptors, then of ``holonomy --order 12 --rmax 4`` on
    each, printed last so that the lines before them keep their order."""
    pots = [_write(work, f"d{i}-o10", {"kind": "descriptor", "order": 10,
                                       "descriptor": S.encode_descriptor(d)})
            for i, d in enumerate(descriptor_suite()[:10])]
    for i, pot in enumerate(pots):
        yield f"holonomy-d{i}-o10", ["holonomy", "--potential", pot, "--rmax", "6"]
    for i, pot in enumerate(pots):
        yield (f"holonomy-d{i}-o12-r4",
               ["holonomy", "--potential", pot, "--order", "12", "--rmax", "4"])


def cut_digests(selected):
    """(name, digest) of the holonomy with r_max 4 of a fresh metric of
    each regression descriptor's potential at order 12."""
    for i, d in enumerate(descriptor_suite()[:10]):
        name = f"cut-d{i}-o12-r4"
        if selected(name):
            m = S.build_metric_from_config({"kind": "descriptor", "order": 12,
                                            "descriptor": S.encode_descriptor(d)})
            digest = hashlib.sha256()
            _holonomy_digest(digest, G.infinitesimal_holonomy(m, r_max=4))
            yield name, digest.hexdigest()


def classify_conjugate_verdicts(work: str):
    """(name, argv) of ``classify`` on the conjugates of every catalog entry
    with n <= 3, printed last so that the lines before them keep their
    order."""
    for name, alg in _conjugates(work, range(ALGEBRA_NMAX + 1)):
        yield f"classify-{name}", ["classify", "--algebra", alg]


def _full(work: str, n: int) -> str:
    """A descriptor file of the full algebra u(1,n+1)_Cp."""
    zero = np.zeros((n, n), complex)
    full = C.KLDescriptor(n, n, [(1.0, zero), (1j, zero)] + [(0.0, A) for A in unitary_basis(n)])
    return _write(work, f"full-n{n}", S.encode_descriptor(full))


def _conjugates(work: str, ns):
    """(name, path) of the basis files of the conjugates of every catalog
    entry with n in ns, drawn by conjugations from default_rng((n, i)) for
    entry i."""
    for n in ns:
        for i, entry in enumerate(_catalog(work, n)):
            basis = C.build_family(S.decode_descriptor(entry["descriptor"])).basis
            for kind, U in conjugations(n, np.random.default_rng((n, i))).items():
                moved = [S.encode_matrix(U @ b @ np.linalg.inv(U)) for b in basis]
                name = f"n{n}-e{i}-{kind}"
                yield name, _write(work, name, {"n": n, "basis": moved})


def berger_verdicts(work: str):
    """(name, argv) of the berger verdicts on conjugated basis files, the
    full algebra at n = 4 and 5 and the first catalog entry at n = 4 and
    5, then the other catalog entries at n = 4 and 5, the full algebra at
    n = 6 and 7 and the first catalog entry at n = 6 and 7, printed last
    so that the lines before them keep their order."""
    for name, alg in _conjugates(work, range(1, ALGEBRA_NMAX + 1)):
        yield f"berger-{name}", ["berger", "--algebra", alg]
    for n in (4, 5):
        yield f"berger-full-n{n}", ["berger", "--algebra", _full(work, n)]
    for n in (4, 5):
        alg = _write(work, f"n{n}-e0", _catalog(work, n)[0]["descriptor"])
        yield f"berger-n{n}-e0", ["berger", "--algebra", alg]
    for n in (4, 5):
        for i, entry in enumerate(_catalog(work, n)[1:], 1):
            alg = _write(work, f"n{n}-e{i}", entry["descriptor"])
            yield f"berger-n{n}-e{i}", ["berger", "--algebra", alg]
    for n in (6, 7):
        yield f"berger-full-n{n}", ["berger", "--algebra", _full(work, n)]
    for n in (6, 7):
        alg = _write(work, f"n{n}-e0", _catalog(work, n)[0]["descriptor"])
        yield f"berger-n{n}-e0", ["berger", "--algebra", alg]


def _benchmark_inputs():
    """perfbench/inputs.py, loaded by path with no bytecode written; the
    sys.path entries its import of perfbench/common.py adds are removed
    again, so lkholonomy keeps coming from the tree already imported."""
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return inputs


def dense_cases():
    """(name, n, order, r_max, seed, case) of every dense line, in order."""
    for seed in DENSE_SEEDS:
        for case, (n, order, r_max) in enumerate(DENSE_CASES):
            yield f"dense-n{n}-o{order}-s{seed}", n, order, r_max, seed, case


def _dense_digest(inputs, n: int, order: int, r_max: int, seed: int, case: int) -> str:
    f = inputs.dense_walker_potential(np.random.default_rng((seed, case)), n, order, order)
    m = G.metric_from_potential(f)
    hol = G.infinitesimal_holonomy(m, r_max=r_max)
    digest = hashlib.sha256()
    for M in m.gamma + [R for row in m.curv for R in row]:
        for jet in M.flat:
            digest.update(repr((jet.order, list(jet.coeffs))).encode())
            digest.update(np.array(list(jet.coeffs.values()), complex).tobytes())
    _holonomy_digest(digest, hol)
    return digest.hexdigest()


def _holonomy_digest(digest, hol) -> None:
    digest.update(np.array(hol.algebra.basis, complex).tobytes())
    digest.update(repr(hol.dims_by_order).encode())
    digest.update(np.float64(hol.bracket_residual).tobytes())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", nargs="+", default=["*"], metavar="PATTERN")
    args = ap.parse_args()

    def selected(name):
        return any(fnmatch.fnmatchcase(name, p) for p in args.only)

    def run(work, cases):
        for name, argv in cases:
            if selected(name):
                digest, code = _verdict(work, name, argv)
                print(f"{digest} {code} {name}")

    with tempfile.TemporaryDirectory() as work:
        run(work, verdicts(work))
        dense = [case for case in dense_cases() if selected(case[0])]
        if dense:
            inputs = _benchmark_inputs()
            for name, *case in dense:
                print(f"{_dense_digest(inputs, *case)} - {name}")
        run(work, n0_verdicts(work))
        run(work, berger_verdicts(work))
        run(work, order10_verdicts(work))
        for name, digest in cut_digests(selected):
            print(f"{digest} - {name}")
        run(work, classify_conjugate_verdicts(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
