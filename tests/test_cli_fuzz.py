"""Near-valid JSON inputs to every file-reading subcommand: each run ends in
a report (exit 0 or 2) or a one-line error (exit 1), never an exception."""
import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from lkholonomy.cli import main

Z = [0.0, 0.0]
I = [0.0, 1.0]

POTENTIALS = [
    {"kind": "flat", "n": 1, "order": 6},
    {"kind": "fc", "a": [1.0, 0.0], "b": 0.5, "order": 6},
    {"kind": "descriptor", "order": 6, "descriptor": {
        "family": "GK", "n": 1, "k_basis": [{"a": [1.0, 0.0], "A": [[I]]}]}},
    {"kind": "descriptor", "order": 6, "descriptor": {
        "family": "GKJL", "n": 1, "m": 0, "k_basis": [{"a2": 1.0, "A": []}]}},
    {"kind": "small", "tag": "g1", "order": 6, "gamma": [1.0, 0.0]},
    {"kind": "oriented_lines", "variant": "hermitized", "order": 6},
    {"kind": "ppwave", "n": 1, "order": 6,
     "phi_terms": [{"coeff": [1.0, 0.0], "z": [2], "u": 0, "ubar": 2}]},
]

ALGEBRAS = [
    {"family": "G1"},
    {"family": "G3", "gamma": [1.0, 0.5]},
    {"family": "GK", "n": 1, "k_basis": [{"a": [1.0, 0.0], "A": [[Z]]},
                                         {"a": Z, "A": [[I]]}]},
    {"family": "GKJL", "n": 2, "m": 1, "k_basis": [{"a2": 1.0, "A": [[I]]}]},
    {"family": "GKL", "n": 2, "m": 0, "k_basis": [], "lambdas": [0.5]},
    {"family": "GK0PSI", "n": 2, "m": 1, "r": 1, "k0_basis": [], "psi_images": [[[I]]]},
    {"family": "BERGER_GK", "n": 2, "m": 0,
     "k_basis": [{"a1": 0.0, "a2": 1.0, "A": []}], "lambdas": [0.5]},
    {"n": 0, "basis": [[[Z, I], [Z, Z]]]},
    # G0, outside the parabolic pattern: berger solves it on the unitary ambient
    {"n": 0, "basis": [[[[1.0, 0.0], Z], [Z, [-1.0, 0.0]]], [[Z, I], [Z, Z]],
                       [[Z, Z], [[0.0, -1.0], Z]]]},
    # GKJL(n = 2, m = 1) with k = iR, Levi-conjugated by the rotation of
    # e_1, e_2 with cosine 0.6: in the block pattern, off the canonical frame
    {"n": 2, "basis": [
        [[Z, Z, Z, I], [Z, Z, Z, Z], [Z, Z, Z, Z], [Z, Z, Z, Z]],
        [[I, Z, Z, Z], [Z, I, Z, Z], [Z, Z, I, Z], [Z, Z, Z, I]],
        [[Z, [-0.6, 0.0], [-0.8, 0.0], Z], [Z, Z, Z, [0.6, 0.0]], [Z, Z, Z, [0.8, 0.0]],
         [Z, Z, Z, Z]],
        [[Z, [0.0, 0.6], [0.0, 0.8], Z], [Z, Z, Z, [0.0, 0.6]], [Z, Z, Z, [0.0, 0.8]],
         [Z, Z, Z, Z]],
        [[Z, [0.8, 0.0], [-0.6, 0.0], Z], [Z, Z, Z, [-0.8, 0.0]], [Z, Z, Z, [0.6, 0.0]],
         [Z, Z, Z, Z]]]},
    # GK(n = 1) with k = C + u(1), conjugated by the element of U(1,3) that
    # swaps p and q: off the block pattern
    {"n": 1, "basis": [
        [[Z, Z, Z], [Z, Z, Z], [I, Z, Z]],
        [[[-1.0, 0.0], Z, Z], [Z, Z, Z], [Z, Z, [1.0, 0.0]]],
        [[Z, Z, Z], [Z, I, Z], [Z, Z, Z]],
        [[Z, Z, Z], [[1.0, 0.0], Z, Z], [Z, [-1.0, 0.0], Z]],
        [[Z, Z, Z], [I, Z, Z], [Z, I, Z]]]},
]

COMMANDS = {"holonomy": ("--potential", POTENTIALS), "validate": ("--potential", POTENTIALS),
            "ppwave": ("--metric", POTENTIALS), "classify": ("--algebra", ALGEBRAS),
            "berger": ("--algebra", ALGEBRAS)}
# the jet flags each command takes; the algebra commands take neither
TAKES_RMAX = {"holonomy", "ppwave"}
TAKES_ORDER = {"holonomy", "ppwave", "validate"}

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([1e300, -1e300, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(["", "x", "g1", "g3zero", "GK", "GKL", "fc", "ppwave", "literal"]))
values = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["a", "A", "n"]), inner,
                                                 max_size=2)), max_leaves=6)


def _slots(doc, path=()):
    """Every (container path, key or index) in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield path, k
        yield from _slots(v, path + (k,))


@st.composite
def near_valid(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flag, docs = COMMANDS[command]
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        path, key = draw(st.sampled_from(slots))
        parent = doc
        for p in path:
            parent = parent[p]
        how = draw(st.sampled_from(["replace", "delete", "wrap"]))
        if how == "delete":
            del parent[key]
        elif how == "wrap":
            parent[key] = [parent[key]]
        else:
            parent[key] = draw(values)
    return command, flag, doc


@given(near_valid(), st.sampled_from([None, "-1", "2", "6"]))
@settings(max_examples=250, deadline=None)
def test_near_valid_json_gives_a_report_or_one_error_line(case, order):
    command, flag, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [command, flag, path]
        if command in TAKES_RMAX:
            argv += ["--rmax", "2"]
        if order is not None and command in TAKES_ORDER:
            argv += ["--order", order]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
