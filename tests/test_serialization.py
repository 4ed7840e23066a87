"""Wire format: codecs, subset comparison, deterministic atomic output."""
import json
import os

import numpy as np
import pytest

from lkholonomy import classify as C
from lkholonomy import serialization as S


def test_complex_and_matrix_roundtrip(rng):
    z = complex(rng.standard_normal(), rng.standard_normal())
    assert S.decode_complex(S.encode_complex(z)) == z
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.abs(S.decode_matrix(S.encode_matrix(m)) - m).max() == 0.0
    assert S.decode_complex(2) == 2 and S.decode_complex([1, -0.5]) == 1 - 0.5j


@pytest.mark.parametrize("bad", [True, "1", None, [1], [1, 2, 3], [None, 1],
                                 [1, [2]], {"re": 1, "im": 0}])
def test_decode_complex_takes_only_a_number_or_a_pair(bad):
    with pytest.raises(ValueError, match="number"):
        S.decode_complex(bad)


# the two algebra files whose NaN and Infinity once reached the SVD: the
# first hung in it, the second dropped the NaN matrix and reported gamma 0
NON_FINITE_ALGEBRAS = [
    '{"family": "GK", "n": 1, "k_basis": [{"a": [Infinity, 0], "A": [[[0, 0]]]}]}',
    '{"family": "G3", "gamma": [NaN, 0]}',
]


@pytest.mark.parametrize("text", NON_FINITE_ALGEBRAS + [
    '{"family": "GKL", "n": 2, "m": 0, "k_basis": [], "lambdas": [NaN]}',
    '{"family": "GKJL", "n": 1, "m": 0, "k_basis": [{"a2": -Infinity, "A": []}]}',
    '{"family": "BERGER_GK", "n": 2, "m": 0, "k_basis": [{"a1": 1e999, "a2": 1.0, "A": []}],'
    ' "lambdas": [0.5]}',
    '{"family": "G3", "gamma": 1' + "0" * 400 + '}',
    '{"n": 0, "basis": [[[[0, NaN], [0, 0]], [[0, 0], [0, 0]]]]}',
])
def test_decode_algebra_refuses_non_finite_numbers(text):
    with pytest.raises(ValueError, match="finite"):
        S.decode_algebra(json.loads(text))


@pytest.mark.parametrize("text", [
    '{"kind": "fc", "a": [Infinity, 0.0], "b": 0.5}',
    '{"kind": "small", "tag": "g3gamma", "gamma": NaN}',
    '{"kind": "ppwave", "n": 1, "phi_terms": [{"coeff": [-Infinity, 0], "z": [2]}]}',
    '{"kind": "descriptor", "descriptor": {"family": "GKL", "n": 2, "m": 0, "lambdas": [NaN]}}',
])
def test_potential_files_refuse_non_finite_numbers(text):
    with pytest.raises(ValueError, match="finite"):
        S.build_metric_from_config(json.loads(text))


def test_descriptor_roundtrip(suite):
    for d in suite:
        obj = S.encode_descriptor(d)
        json.dumps(obj)  # must be pure JSON
        back = S.decode_descriptor(obj)
        assert C.same_descriptor(back, d), d.family


def test_n0_descriptor_roundtrip():
    for d in (C.N0Descriptor("G0"), C.N0Descriptor("G1"), C.N0Descriptor("G2"),
              C.N0Descriptor("G3", 1j)):
        back = S.decode_descriptor(S.encode_descriptor(d))
        assert C.same_descriptor(back, d)


def test_n0_catalog_entries_reencode_exactly():
    """encode -> decode -> encode gives the same JSON for each n = 0 catalog
    entry; a stray gamma on G1 is ignored, as on G0 and G2."""
    from lkholonomy.cli import _catalog_entries
    for entry in _catalog_entries(0):
        obj = S.encode_descriptor(entry["descriptor"])
        back = S.decode_descriptor(json.loads(json.dumps(obj)))
        assert back == entry["descriptor"]
        assert S.encode_descriptor(back) == obj
    assert S.decode_descriptor({"family": "G1", "gamma": [0.5, 1.0]}) == C.N0Descriptor("G1")


def test_empty_matrix_roundtrip():
    obj = {"family": "GKJL", "n": 1, "m": 0, "k_basis": [{"a2": 1.0, "A": []}]}
    d = S.decode_descriptor(obj)
    assert d.k_basis[0][1].shape == (0, 0)
    assert S.encode_descriptor(d) == obj
    assert C.same_descriptor(d, C.KLDescriptor(1, 0, [(1j, np.zeros((0, 0), complex))]))


@pytest.mark.parametrize("n, lambdas", [(4, [0.3, 0.7]), (2, [0.5])])
def test_declared_lambdas_roundtrip(n, lambdas):
    """A real form built from lambdas encodes the lambdas it was given, not
    their recomputation from omega (0.4999999999999998 for 0.5)."""
    obj = {"family": "GKL", "n": n, "m": 0, "k_basis": [], "lambdas": lambdas}
    assert S.encode_descriptor(S.decode_descriptor(obj)) == obj


def test_algebra_file_both_forms():
    d = C.N0Descriptor("G1")
    alg1 = S.decode_algebra({"family": "G1"})
    alg2 = S.decode_algebra({
        "n": 0, "basis": [S.encode_matrix(b) for b in C.build_family(d).basis]})
    assert alg1.dim == alg2.dim


def test_build_metric_kinds():
    flat = S.build_metric_from_config({"kind": "flat", "n": 1, "order": 6})
    assert flat.n == 1
    fc = S.build_metric_from_config({"kind": "fc", "a": [1.0, 0.0], "order": 6})
    assert fc.n == 0
    with pytest.raises(ValueError):
        S.build_metric_from_config({"kind": "nonsense"})


def test_order_argument_wins_over_the_file_which_wins_over_8():
    obj = {"kind": "fc", "a": [1.0, 0.0], "order": 8}
    assert S.build_metric_from_config(obj, 6).space.order == 4
    assert S.build_metric_from_config(obj).space.order == 6
    assert S.build_metric_from_config({"kind": "fc"}).space.order == 6


def test_jsonable_handles_numpy_and_dataclasses(suite):
    out = S.jsonable({"x": np.float64(1.5), "b": np.bool_(True),
                      "m": np.eye(2, dtype=complex), "d": suite[0]})
    json.dumps(out)
    assert out["b"] is True
    assert out["d"]["family"] == "GK"


def test_compare_expected_subset_and_tolerance():
    actual = {"a": 1.0000000001, "nested": {"flag": True, "extra": 5}}
    assert S.compare_expected({"a": 1.0}, actual) == []
    assert S.compare_expected({"nested": {"flag": True}}, actual) == []
    assert S.compare_expected({"a": 2.0}, actual)
    assert S.compare_expected({"missing": 1}, actual)
    assert S.compare_expected({"nested": {"flag": False}}, actual)


def test_dump_json_atomic_and_deterministic(tmp_path):
    path = str(tmp_path / "out.json")
    report = S.make_report("test", {"value": 1.0}, {"tol": 1e-9})
    t1 = S.dump_json(report, path)
    t2 = S.dump_json(report, path)
    assert t1 == t2
    with open(path) as fh:
        assert json.load(fh)["command"] == "test"
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
def test_dump_json_refuses_non_finite_numbers(tmp_path, value):
    """A report never holds NaN or Infinity, and nothing is written."""
    path = str(tmp_path / "out.json")
    with pytest.raises(ValueError):
        S.dump_json(S.make_report("test", {"value": value}), path)
    assert os.listdir(tmp_path) == []


def test_report_carries_version_and_digest():
    rep = S.make_report("x", {})
    assert rep["version"]
    assert len(rep["conventions_digest"]) == 16
    assert "bracket" in rep["conventions"]
