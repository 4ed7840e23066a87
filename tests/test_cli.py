"""End-to-end CLI runs through main(argv)."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import random_unitary

import lkholonomy
from lkholonomy import classify as C
from lkholonomy import serialization as S
from lkholonomy.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, build_parser, main
from lkholonomy.curvspace import MAX_BERGER_N


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def gk_potential(tmp_path):
    return _write(tmp_path, "gk.json", {
        "kind": "descriptor", "order": 8,
        "descriptor": {"family": "GK", "n": 1,
                       "k_basis": [{"a": [1.0, 0.0], "A": [[[0.0, 0.0]]]},
                                   {"a": [0.0, 0.0], "A": [[[0.0, 1.0]]]}]}})


def test_holonomy_verified(tmp_path, gk_potential, capsys):
    expect = _write(tmp_path, "expect.json",
                    {"matched_family": "GK", "stabilized": True})
    assert main(["holonomy", "--potential", gk_potential,
                 "--expect", expect]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["matched_family"] == "GK"
    assert report["result"]["realizable"] == "yes"


def test_holonomy_mismatch(tmp_path, gk_potential, capsys):
    expect = _write(tmp_path, "expect.json", {"matched_family": "GKL"})
    assert main(["holonomy", "--potential", gk_potential,
                 "--expect", expect]) == EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert report["expectation_errors"]


def test_holonomy_gkjl_without_complex_part(tmp_path, capsys):
    p = _write(tmp_path, "gkjl.json", {
        "kind": "descriptor", "order": 9,
        "descriptor": {"family": "GKJL", "n": 1, "m": 0,
                       "k_basis": [{"a2": 1.0, "A": []}]}})
    assert main(["holonomy", "--potential", p, "--rmax", "5"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["matched_family"] == "GKJL"


@pytest.mark.parametrize("A", [
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],   # diag(0, i)
    [[[0.0, 0.5], [0.0, 0.5]], [[0.0, 0.5], [0.0, 0.5]]],   # i v v^H, v = (1, 1)/sqrt 2
])
def test_holonomy_scalar_generator_with_a_kernel_in_any_position(tmp_path, capsys, A):
    """The scalar-carrying generator's A has a kernel that is not the last
    coordinates: the potential is built all the same and matches back."""
    p = _write(tmp_path, "gk.json", {
        "kind": "descriptor", "order": 9,
        "descriptor": {"family": "GK", "n": 2, "k_basis": [{"a": [1.0, 0.0], "A": A}]}})
    assert main(["holonomy", "--potential", p, "--rmax", "5"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["matched_family"], result["dim"]) == ("GK", 6)


def test_holonomy_refuses_the_berger_only_family(tmp_path, capsys):
    p = _write(tmp_path, "berger.json", {
        "kind": "descriptor",
        "descriptor": {"family": "BERGER_GK", "n": 2, "m": 0,
                       "k_basis": [{"a1": 0.0, "a2": 1.0, "A": []}], "lambdas": [0.5]}})
    assert main(["holonomy", "--potential", p]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: no potential construction for family 'BERGER_GK'\n"


def test_holonomy_unknown_match_is_a_report(tmp_path, capsys):
    pp = _write(tmp_path, "pp.json", {
        "kind": "ppwave", "n": 1, "order": 8,
        "phi_terms": [{"coeff": [1, 0], "z": [3]}]})
    assert main(["holonomy", "--potential", pp]) == EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["matched_family"] == "UNKNOWN"
    assert report["result"]["descriptor"]["family"] == "UNKNOWN"
    assert report["result"]["realizable"] == "unknown"


def test_missing_file_is_input_error(capsys):
    assert main(["holonomy", "--potential", "/nonexistent.json"]) == EXIT_INPUT


def test_bad_potential_kind_is_input_error(tmp_path, capsys):
    p = _write(tmp_path, "bad.json", {"kind": "bogus"})
    assert main(["holonomy", "--potential", p]) == EXIT_INPUT


# Non-objects, then objects that are malformed for every subcommand: phi
# terms that are not objects, a basis matrix whose rows are not lists, an
# order below 2, and a complex number that is neither a number nor a pair.
@pytest.mark.parametrize("top", ["[1, 2]", "3", '"x"', "null",
                                 '{"kind": "ppwave", "n": 1, "phi_terms": [1, 2]}',
                                 '{"n": 1, "basis": [[1, 2]]}',
                                 '{"kind": "small", "tag": "g1", "order": -3}',
                                 '{"kind": "fc", "a": [null, 1], "order": 6}'])
@pytest.mark.parametrize("command, flag", [
    ("classify", "--algebra"), ("berger", "--algebra"), ("holonomy", "--potential"),
    ("validate", "--potential"), ("ppwave", "--metric")])
def test_non_object_json_is_one_line_error(tmp_path, capsys, command, flag, top):
    p = tmp_path / "top.json"
    p.write_text(top)
    assert main([command, flag, str(p)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if not top.startswith("{"):
        assert str(p) in err


def test_order_below_two_from_the_command_line_is_input_error(tmp_path, capsys):
    p = _write(tmp_path, "g1.json", {"kind": "small", "tag": "g1"})
    for order in ("-3", "0"):
        assert main(["validate", "--potential", p, "--order", order]) == EXIT_INPUT
        assert f"order must be at least 2, not {order}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["holonomy"], ["symspace", "--family", "z"],
                                  ["catalog", "--n", "1", "--bogus"],
                                  ["classify", "--algebra", "alg.json", "--rmax", "3"],
                                  ["symspace", "--family", "a", "--tol", "1e-6"]])
def test_usage_errors_are_input_errors(argv, capsys):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_and_survives_errors(tmp_path, capsys):
    """main() reuses one parser per process: a usage error, a valid call and
    an unknown flag in a row exit 1, 0 and 1, and the valid report is the
    one a fresh parser writes."""
    out = str(tmp_path / "rep.json")
    valid = ["symspace", "--family", "f", "--n", "2", "--m", "1", "--out", out]
    build_parser.cache_clear()
    assert main(valid) == EXIT_OK
    with open(out, "rb") as fh:
        fresh = fh.read()
    codes = [main(["symspace", "--family", "z"]), main(valid),
             main(["catalog", "--n", "1", "--bogus"])]
    assert codes == [EXIT_INPUT, EXIT_OK, EXIT_INPUT]
    with open(out, "rb") as fh:
        assert fh.read() == fresh
    assert build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["holonomy", "--help"])
    assert exit_.value.code == 0


MISLABELLED = [
    # a GKJL with no J part is a GKL
    {"family": "GKJL", "n": 1, "m": 0, "k_basis": [{"a2": 0.0, "A": []}]},
    # a GKJL on a twisted L_0 is the Berger-only family
    {"family": "GKJL", "n": 2, "m": 0, "k_basis": [{"a2": 1.0, "A": []}],
     "lambdas": [0.5]},
    # L = C^n makes any (k, L) family GK
    {"family": "GKJL", "n": 1, "m": 1, "k_basis": [{"a2": 1.0, "A": [[[0.0, 1.0]]]}]},
    {"family": "GKL", "n": 1, "m": 1, "k_basis": []},
    {"family": "BERGER_GK", "n": 1, "m": 1,
     "k_basis": [{"a1": 1.0, "a2": 0.0, "A": [[[0.0, 0.0]]]}]},
    # no twist and Re a = 0 is GKJL
    {"family": "BERGER_GK", "n": 2, "m": 0, "k_basis": [{"a1": 0.0, "a2": 1.0, "A": []}]},
]


@pytest.mark.parametrize("descriptor", MISLABELLED)
def test_mislabelled_descriptor_is_one_line_error(tmp_path, capsys, descriptor):
    alg = _write(tmp_path, "alg.json", descriptor)
    pot = _write(tmp_path, "pot.json", {"kind": "descriptor", "descriptor": descriptor})
    for argv in (["classify", "--algebra", alg], ["berger", "--algebra", alg],
                 ["holonomy", "--potential", pot]):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: the descriptor declares family ") and err.count("\n") == 1


def test_ppwave_flags(tmp_path, capsys):
    pp = _write(tmp_path, "pp.json", {
        "kind": "ppwave", "n": 1, "order": 8,
        "phi_terms": [{"coeff": [1.0, 0.0], "z": [2], "u": 0, "ubar": 2}]})
    assert main(["ppwave", "--metric", pp]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    res = report["result"]
    assert res["parallel_p"] and res["cond1_holonomy"] and res["cond4_coefficients"]


def test_classify_and_berger(tmp_path, capsys):
    alg = _write(tmp_path, "g1.json", {"family": "G1"})
    assert main(["classify", "--algebra", alg]) == EXIT_OK
    out1 = json.loads(capsys.readouterr().out)
    assert out1["result"]["matched_family"] == "G1"
    assert main(["berger", "--algebra", alg]) == EXIT_OK
    out2 = json.loads(capsys.readouterr().out)
    assert out2["result"]["is_berger"] is True


def _unitary_basis_file(n):
    """u(1,n+1) in the Witt frame as a basis file: Gram S for every
    anti-Hermitian S."""
    from lkholonomy.hermitian import WittMetric
    from lkholonomy.lie import unitary_basis
    return {"n": n, "basis": [S.encode_matrix(WittMetric(n).gram @ A)
                              for A in unitary_basis(n + 2)]}


@pytest.mark.parametrize("n, dim", [(0, 9), (1, 36)])
def test_berger_on_the_unitary_algebra(n, dim, tmp_path, capsys):
    """u(1,1) and u(1,2) are Berger, with curvature spaces of dimension 9
    and 36."""
    alg = _write(tmp_path, "u.json", _unitary_basis_file(n))
    assert main(["berger", "--algebra", alg]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["result"]
    assert (res["dim_R_space"], res["is_berger"]) == (dim, True)


def test_basis_outside_the_unitary_algebra_is_one_line_error(tmp_path, capsys):
    """so(3) is no subalgebra of u(1,2) in the Witt frame: berger refuses
    its basis file with one error line."""
    so3 = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        E = np.zeros((3, 3), complex)
        E[i, j], E[j, i] = 1.0, -1.0
        so3.append(S.encode_matrix(E))
    alg = _write(tmp_path, "so3.json", {"n": 1, "basis": so3})
    assert main(["berger", "--algebra", alg]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: a basis matrix is not in u(1,2) of the Witt frame\n"


def test_catalog_algebras_pass_the_basis_check():
    """Every catalog algebra at n = 0..4, written as a basis file, decodes
    to an algebra of the same span."""
    from lkholonomy.cli import _catalog_entries
    for n in range(5):
        for e in _catalog_entries(n):
            alg = C.build_family(e["descriptor"])
            back = S.decode_algebra({"n": n, "basis": [S.encode_matrix(b) for b in alg.basis]})
            assert back.equals(alg), e["descriptor"]


def test_a_verdict_builds_the_matched_family_once(tmp_path, gk_potential, monkeypatch,
                                                  capsys):
    """holonomy, and classify on a basis file, read realizability off the
    matched family: the one algebra built is the matcher's proof."""
    from lkholonomy.cli import _catalog_entries
    files = [_write(tmp_path, f"e{i}.json",
                    {"n": 1, "basis": [S.encode_matrix(b)
                                       for b in C.build_family(e["descriptor"]).basis]})
             for i, e in enumerate(_catalog_entries(1))]
    built = []
    build_family = C.build_family
    monkeypatch.setattr(C, "build_family", lambda d: built.append(d.family) or build_family(d))
    assert main(["holonomy", "--potential", gk_potential]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["realizable"] == "yes"
    assert built == ["GK"]
    for path in files:
        built.clear()
        assert main(["classify", "--algebra", path]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert built == [result["matched_family"]]
        assert result["realizable"] == "yes"


def test_classify_of_a_unitary_conjugate_keeps_its_unknown_reason(tmp_path, capsys, rng):
    """A U(1,n+1)-conjugate of a catalog entry at n = 1, 2, written as a
    basis file, moves the null line p: classify reports UNKNOWN with exit 2
    and the block-pattern reason."""
    from lkholonomy.cli import _catalog_entries
    reason = "not in the parabolic block pattern: matrix is not in the parabolic block pattern"
    for n in (1, 2):
        for e in _catalog_entries(n):
            U = random_unitary(n, rng)
            basis = [U @ b @ np.linalg.inv(U) for b in C.build_family(e["descriptor"]).basis]
            alg = _write(tmp_path, "moved.json",
                         {"n": n, "basis": [S.encode_matrix(b) for b in basis]})
            assert main(["classify", "--algebra", alg]) == EXIT_MISMATCH
            d = json.loads(capsys.readouterr().out)["result"]["descriptor"]
            assert (d["family"], d["reason"]) == ("UNKNOWN", reason), e["descriptor"]


def test_symspace_and_out_file(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    assert main(["symspace", "--family", "f", "--n", "2", "--m", "1",
                 "--out", out]) == EXIT_OK
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["result"]["jacobi"] is True
    assert rep["result"]["calabi_yau"] is False


def test_validate(tmp_path, capsys):
    p = _write(tmp_path, "flat.json", {"kind": "flat", "n": 1, "order": 6})
    assert main(["validate", "--potential", p]) == EXIT_OK


def test_catalog_dimensions(capsys):
    assert main(["catalog", "--n", "1"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    fams = {e["descriptor"]["family"] for e in rep["result"]["families"]}
    assert {"GK", "GKJL", "GKL"} <= fams
    assert all(e["dim"] >= 1 for e in rep["result"]["families"])

    assert main(["catalog", "--n", "0"]) == EXIT_OK
    rep0 = json.loads(capsys.readouterr().out)
    assert {e["descriptor"]["family"] for e in rep0["result"]["families"]} == \
        {"G0", "G1", "G2", "G3"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_catalog_entries_all_build(n, capsys):
    """Every catalog entry is a realizable descriptor whose listed dimension
    is that of the algebra it builds, and the matcher reads that algebra back
    as the entry."""
    assert main(["catalog", "--n", str(n)]) == EXIT_OK
    for entry in json.loads(capsys.readouterr().out)["result"]["families"]:
        d = S.decode_descriptor(entry["descriptor"])
        alg = C.build_family(d)
        assert C.is_holonomy_realizable(d) == "yes", entry["descriptor"]
        assert entry["dim"] == alg.dim == C.family_dim(d), entry["descriptor"]
        assert C.same_descriptor(C.match_algebra(alg), d), entry["descriptor"]


@pytest.mark.parametrize("argv", [["catalog", "--n"], ["symspace", "--family", "f", "--n"],
                                  ["berger", "--algebra"]])
def test_n_above_the_metric_bound_is_one_line_error(argv, tmp_path, capsys):
    """catalog and symspace bound --n; berger bounds the n of its file, a
    descriptor or a basis, before it reads anything else of it."""
    cases = [(argv + [str(n)], f"error: --n must be {bound}, not {n}\n")
             for n, bound in ((S.MAX_METRIC_N + 1, f"at most {S.MAX_METRIC_N}"), (-1, "at least 0"))]
    if argv[0] == "berger":
        n = MAX_BERGER_N + 1
        files = [_write(tmp_path, "descriptor.json",
                        {"family": "GKL", "n": n, "m": 0, "k_basis": "unread"}),
                 _write(tmp_path, "basis.json", {"n": n, "basis": "unread"})]
        cases = [(argv + [f], f"error: berger takes n <= {MAX_BERGER_N}, not {n}\n")
                 for f in files]
    for cmd, err in cases:
        assert main(cmd) == EXIT_INPUT
        assert capsys.readouterr().err == err


@pytest.mark.filterwarnings("error")
def test_holonomy_of_the_first_n4_catalog_entry_gives_a_report(tmp_path, capsys):
    """The GK entry at n = 4 packs exponent fields above bit 63: its jet keys
    must stay Python ints, with no overflow warning or traceback."""
    assert main(["catalog", "--n", "4"]) == EXIT_OK
    entry = json.loads(capsys.readouterr().out)["result"]["families"][0]
    assert entry["descriptor"]["family"] == "GK"
    pot = _write(tmp_path, "gk4.json", {"kind": "descriptor", "descriptor": entry["descriptor"]})
    assert main(["holonomy", "--potential", pot]) in (EXIT_OK, EXIT_MISMATCH)
    assert json.loads(capsys.readouterr().out)["result"]["matched_family"] == "GK"


def test_holonomy_of_the_n0_catalog_entries(tmp_path, capsys):
    """The descriptor potentials of G1, G2 and both G3 entries are the small
    metrics: holonomy matches each back to its entry with exit 0.  G0 has no
    potential construction and is a one-line error."""
    assert main(["catalog", "--n", "0"]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)["result"]["families"]
    assert [e["descriptor"]["family"] for e in entries] == ["G0", "G1", "G2", "G3", "G3"]
    for i, entry in enumerate(entries):
        pot = _write(tmp_path, f"n0-{i}.json",
                     {"kind": "descriptor", "descriptor": entry["descriptor"]})
        code = main(["holonomy", "--potential", pot])
        out, err = capsys.readouterr()
        if entry["descriptor"]["family"] == "G0":
            assert code == EXIT_INPUT
            assert err == "error: no potential construction for family 'G0'\n"
            continue
        assert code == EXIT_OK, entry["descriptor"]
        got = S.decode_descriptor(json.loads(out)["result"]["descriptor"])
        assert C.same_descriptor(got, S.decode_descriptor(entry["descriptor"]))


@pytest.mark.filterwarnings("error")
def test_overflowing_potential_is_one_line_error(tmp_path, capsys):
    """The jet products of this potential overflow to nan; the metric is
    refused, where every residual used to read 0.0 with exit 0."""
    pot = _write(tmp_path, "fc.json", {"kind": "fc", "a": [1e300, 0.0], "b": 0.5, "order": 6})
    assert main(["validate", "--potential", pot]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the metric or its potential has a non-finite jet coefficient\n"


def test_determinism(tmp_path, gk_potential, capsys):
    main(["holonomy", "--potential", gk_potential])
    out1 = capsys.readouterr().out
    main(["holonomy", "--potential", gk_potential])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_order_and_n_past_their_limits_are_one_line_errors(tmp_path, capsys):
    from lkholonomy.jets import MAX_ORDER
    flat = _write(tmp_path, "flat.json", {"kind": "flat", "n": 1})
    too_wide = _write(tmp_path, "wide.json", {"kind": "flat", "n": S.MAX_METRIC_N + 1})
    too_deep = _write(tmp_path, "deep.json", {"kind": "fc", "order": MAX_ORDER + 1})
    for argv in (["validate", "--potential", flat, "--order", str(MAX_ORDER + 1)],
                 ["validate", "--potential", too_deep],
                 ["holonomy", "--potential", too_wide],
                 ["holonomy", "--potential", flat, "--rmax", "-1"],
                 ["ppwave", "--metric", flat, "--rmax", "-2"],
                 ["ppwave", "--metric", flat, "--order", "2"]):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # h of order 0 leaves no order for Gamma: the derivative says so
    assert err == "error: jet order exhausted; rebuild with a larger truncation order\n"
    descriptor = {"family": "GKL", "n": S.MAX_METRIC_N + 1, "m": 0, "k_basis": []}
    with pytest.raises(ValueError, match=f"n <= {S.MAX_METRIC_N}"):
        S.build_metric_from_config({"kind": "descriptor", "descriptor": descriptor})
    assert main(["validate", "--potential", flat, "--order", str(MAX_ORDER)]) == EXIT_OK


def _fresh(args, cwd, timeout) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's source on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(lkholonomy.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_verdicts_do_not_load_scipy(tmp_path):
    """numpy is the only runtime dependency: a fresh process that runs
    catalog, classify on a twisted GKL file and holonomy on its potential
    never imports scipy."""
    gkl = {"family": "GKL", "n": 2, "m": 0, "k_basis": [], "lambdas": [0.5]}
    alg = _write(tmp_path, "gkl.json", gkl)
    pot = _write(tmp_path, "pot.json", {"kind": "descriptor", "order": 9, "descriptor": gkl})
    script = (
        "import contextlib, io, sys\n"
        "from lkholonomy.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['catalog', '--n', '3']),\n"
        f"             main(['classify', '--algebra', {alg!r}]),\n"
        f"             main(['holonomy', '--potential', {pot!r}, '--rmax', '5'])]\n"
        "print(codes, 'scipy' in sys.modules)\n")
    proc = _fresh(["-c", script], tmp_path, 300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == f"[{EXIT_OK}, {EXIT_OK}, {EXIT_OK}] False"


def test_importing_the_cli_loads_no_heavy_module(tmp_path):
    """A fresh `import lkholonomy.cli` loads none of scipy, sympy, mpmath,
    hypothesis or numpy.ma: each would add to every verdict's start-up."""
    script = ("import sys\nimport lkholonomy.cli\n"
              "print([m for m in ('scipy', 'sympy', 'mpmath', 'hypothesis', 'numpy.ma')"
              " if m in sys.modules])\n")
    proc = _fresh(["-c", script], tmp_path, 120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["classify", "berger"])
@pytest.mark.parametrize("text", [
    '{"family": "GK", "n": 1, "k_basis": [{"a": [Infinity, 0], "A": [[[0, 0]]]}]}',
    '{"family": "G3", "gamma": [NaN, 0]}'])
def test_non_finite_algebra_is_one_line_error(command, text, tmp_path):
    """Run in a fresh process with a timeout: before these numbers were
    refused, the Infinity file hung in the SVD and the NaN file gave a G3
    report."""
    path = tmp_path / "alg.json"
    path.write_text(text)
    proc = _fresh(["-m", "lkholonomy.cli", command, "--algebra", str(path)], tmp_path, 120)
    assert proc.returncode == EXIT_INPUT, proc.stdout
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
