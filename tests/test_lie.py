"""Matrix-algebra helpers: block elements, sigma, real spans."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bracket_residual_by_pairs, list_flatten, list_real_span_basis
from test_geometry import _dense_walker_potential

from lkholonomy import classify as C
from lkholonomy import geometry as G
from lkholonomy import potentials as P
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.lie import (
    ABZCElement,
    MatrixAlgebra,
    abzc_parts,
    in_real_span,
    null_space,
    numerical_rank,
    flatten,
    real_span_basis,
    row_space,
    sigma_involution,
    unflatten,
)


def _random_abzc(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = 0.5 * (A - A.conj().T)
    return ABZCElement(
        complex(rng.standard_normal(), rng.standard_normal()),
        A,
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        float(rng.standard_normal()),
    )


def test_abzc_roundtrip(rng):
    for n in (0, 1, 3):
        el = _random_abzc(rng, n)
        a, A, Z, c = abzc_parts(el.to_matrix()[None])
        assert abs(a[0] - el.a) < 1e-12
        assert abs(c[0] - el.c) < 1e-12
        if n:
            assert np.abs(A[0] - el.A).max() < 1e-12
            assert np.abs(Z[0] - el.Z).max() < 1e-12


def test_abzc_fit_refuses_off_pattern_and_non_fixed_matrices(rng):
    """An entry off the pattern, and each of the four sigma-fixed block
    conditions broken, are refused at rank_rel·max(|m|, 1): 1e-8 passes in
    a matrix of entries near 100 and fails one near 1."""
    n = 2
    m = _random_abzc(rng, n).to_matrix()
    for idx, message in (((n + 1, 1), "not in the parabolic block pattern"),
                         ((n + 1, n + 1), "not fixed by sigma"),
                         ((0, 1), "not fixed by sigma"),
                         ((0, n + 1), "not fixed by sigma"),
                         ((1, 2), "not fixed by sigma")):
        big = 100 * m
        big[idx] += 1e-8
        abzc_parts(big[None])
        moved = m / np.abs(m).max()
        moved[idx] += 1e-8
        with pytest.raises(ValueError, match=message):
            abzc_parts(moved[None])


def test_abzc_matrix_shape(rng):
    el = _random_abzc(rng, 2)
    m = el.to_matrix()
    assert m.shape == (4, 4)
    assert np.abs(m[1:, 0]).max() < 1e-15      # first column below diagonal
    assert np.abs(m[3, 1:3]).max() < 1e-15     # last row translation block
    assert abs(m[3, 3] + np.conj(m[0, 0])) < 1e-15


def test_sigma_involution(rng):
    for n in (0, 2):
        w = _random_abzc(rng, n).to_matrix()
        assert np.abs(sigma_involution(sigma_involution(w)) - w).max() < 1e-12
        fixed = w + sigma_involution(w)
        assert np.abs(sigma_involution(fixed) - fixed).max() < 1e-12


def test_sigma_on_a_stack_is_sigma_of_each_matrix(rng):
    """Leading axes map matrix by matrix, bit for bit, and each matrix is
    fitted to the block pattern at its own scale: 1e-8 off the pattern
    passes in a matrix of entries near 100 and fails one near 1."""
    for n in (0, 1, 3):
        stack = np.array([[_random_abzc(rng, n).to_matrix() * 10.0 ** k for k in range(3)]
                          for _ in range(2)])
        out = sigma_involution(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(stack.shape[:2]):
            assert np.array_equal(out[idx], sigma_involution(stack[idx]))
        stack[1, 2, n + 1, 0] = 1e-8
        sigma_involution(stack)
        stack[1, 0, n + 1, 0] = 1e-8
        with pytest.raises(ValueError):
            sigma_involution(stack)


def test_sigma_rejects_bad_pattern():
    bad = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        sigma_involution(bad)


def test_equals_is_in_real_span_for_every_basis_matrix(rng):
    """One fit of the whole basis decides as in_real_span does for each
    basis matrix, for moves below, near and above rank_rel."""
    for n in (0, 1, 2):
        alg = MatrixAlgebra(n, [_random_abzc(rng, n).to_matrix() for _ in range(3)])
        for eps in (0.0, 1e-11, 1e-9, 1e-7):
            noise = rng.standard_normal((3, n + 2, n + 2))
            moved = MatrixAlgebra(n, [b + eps * e for b, e in zip(alg.basis, noise)])
            assert moved.equals(alg) == all(in_real_span(x, alg.basis) for x in moved.basis)
        assert not MatrixAlgebra(n, alg.basis[:2]).equals(alg)


def test_real_span_basis_dimensions():
    a = np.array([[1.0, 0], [0, 0]], dtype=complex)
    b = np.array([[1j, 0], [0, 0]], dtype=complex)
    span = real_span_basis([a, b, a + b, 2.0 * a])
    assert len(span) == 2
    assert in_real_span(3 * a - b, span)
    assert not in_real_span(np.array([[0, 1.0], [0, 0]], complex), span)


# entries with both signs of zero, and whole matrices that are zero or tiny
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-3.0, 3.0, allow_nan=False, width=64))


@st.composite
def complex_stacks(draw):
    """A stack of k = 0..5 complex matrices or vectors of one shape, some
    all-zero and some scaled far down."""
    shape = draw(st.sampled_from([(3,), (1, 1), (2, 2), (3, 3)]))
    k, size = draw(st.integers(0, 5)), int(np.prod(shape))
    X = np.array(draw(st.lists(ENTRIES, min_size=2 * k * size, max_size=2 * k * size)))
    X = (X[:k * size] + 1j * X[k * size:]).reshape((k, *shape))
    scale = draw(st.lists(st.sampled_from([1.0, 0.0, 1e-200]), min_size=k, max_size=k))
    return X * np.reshape(scale, (k,) + (1,) * len(shape))


def _same_stack_bits(got, want) -> bool:
    """Equal dtype, shape and bytes, so equal sign bits of every zero too."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@given(complex_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_span_helpers_are_the_list_versions_bit_for_bit(X):
    """flatten, unflatten and real_span_basis on a stack, or on the list of
    its matrices, give the bytes of one numpy call per matrix
    (oracles.list_flatten, list_real_span_basis): empty stacks, a single
    matrix and all-zero matrices included."""
    mats = list(X)
    if len(X):
        want = list_flatten(mats)
        assert _same_stack_bits(flatten(X), want) and _same_stack_bits(flatten(mats), want)
        rows = unflatten(want, X.shape[1:])
        assert all(_same_stack_bits(r, unflatten(w, X.shape[1:])) for r, w in zip(rows, want))
    else:
        assert flatten(X).size == 0
    want = list_real_span_basis(mats)
    for got in (real_span_basis(X), real_span_basis(mats)):
        assert len(got) == len(want)
        assert all(_same_stack_bits(g, w) for g, w in zip(got, want))


def test_family_algebras_are_bracket_closed(suite):
    for d in suite:
        alg = C.build_family(d)
        assert alg.dim == C.family_dim(d)
        for x in alg.basis:
            for y in alg.basis:
                w = x @ y - y @ x
                assert in_real_span(w, alg.basis), d.family


@pytest.mark.parametrize("kind", ["suite", "dense", "open", "small"])
def test_bracket_residual_is_the_largest_residual_pair_by_pair(kind, suite, monkeypatch, rng):
    """The one stacked fit gives the largest residual of the per-pair fits
    within 1e-15: on the holonomy algebras of the ten regression
    descriptors at order 9 (r_max 5) and of the dense n = 0, 1, 2
    potentials of report_digests.py at seeds 0 and 7.  On real spans that
    do not close the residual is of order 1 and the two agree to 1e-12
    relative; at dim 0 and 1 both are exactly 0.0."""
    if kind == "suite":
        algs = [G.infinitesimal_holonomy(G.metric_from_potential(
            P.build_potential(d, order=9)), 5).algebra for d in suite[:10]]
    elif kind == "dense":
        cases = [(0, 8, 4), (0, 10, 4), (1, 6, 2), (1, 7, 3), (2, 6, 2)]  # (n, order, r_max)
        algs = [G.infinitesimal_holonomy(G.metric_from_potential(
            _dense_walker_potential(monkeypatch, (seed, case), n, order)), r_max).algebra
                for seed in (0, 7) for case, (n, order, r_max) in enumerate(cases)]
    elif kind == "open":
        E = np.eye(3, dtype=complex)
        algs = [MatrixAlgebra(1, [np.outer(E[0], E[1]), np.outer(E[1], E[0])]),
                MatrixAlgebra(1, [_random_abzc(rng, 1).to_matrix() for _ in range(3)]),
                MatrixAlgebra(2, [_random_abzc(rng, 2).to_matrix() for _ in range(5)])]
    else:
        algs = [MatrixAlgebra(1, []), MatrixAlgebra(1, [_random_abzc(rng, 1).to_matrix()])]
    for alg in algs:
        got, want = alg.bracket_residual(), bracket_residual_by_pairs(alg)
        if kind == "open":
            assert want > 0.1 and abs(got - want) <= 1e-12 * want
        elif kind == "small":
            assert got == want == 0.0
        else:
            assert want <= 1e-14 and abs(got - want) <= 1e-15


def test_rank_of_zero_and_empty_input():
    assert numerical_rank(np.zeros(0)) == 0
    assert numerical_rank(np.zeros(3)) == 0
    assert row_space(np.zeros((0, 4))).shape == (0, 4)
    assert row_space(np.zeros((3, 4))).shape == (0, 4)
    assert null_space(np.zeros((3, 4))).shape == (4, 4)
    assert null_space(np.zeros((0, 4))).shape == (4, 4)


def test_rank_floor_drops_noise_only_rows():
    noise = 1e-12 * np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    floor = DEFAULT_TOL.rank_rel
    assert row_space(noise, floor).shape[0] == 0
    assert row_space(noise).shape[0] == 1
    assert null_space(noise, floor).shape[0] == 3
    assert null_space(noise).shape[0] == 2


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5)])
@pytest.mark.parametrize("cplx", [False, True])
def test_null_space_rows_are_orthonormal_and_annihilated(rng, shape, cplx):
    rows, cols = shape
    rank = min(rows, cols) - 1  # one dependent row or column on every shape

    def factor(*shape):
        return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cplx else 0)

    M = factor(rows, rank) @ factor(rank, cols)
    ns = null_space(M)
    assert ns.shape == (cols - rank, cols)
    assert np.abs(ns @ ns.conj().T - np.eye(len(ns))).max() < 1e-12
    assert np.abs(M @ ns.conj().T).max() < 1e-10 * np.abs(M).max()
    rs = row_space(M)
    assert rs.shape == (rank, cols)
    assert np.abs(rs @ ns.conj().T).max() < 1e-12
