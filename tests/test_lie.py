"""Matrix-algebra helpers: block elements, sigma, real spans."""
import numpy as np
import pytest

from lkholonomy import classify as C
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.lie import (
    ABZCElement,
    MatrixAlgebra,
    in_real_span,
    null_space,
    numerical_rank,
    real_span_basis,
    row_space,
    sigma_involution,
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
        back = ABZCElement.from_matrix(el.to_matrix())
        assert abs(back.a - el.a) < 1e-12
        assert abs(back.c - el.c) < 1e-12
        if n:
            assert np.abs(back.A - el.A).max() < 1e-12
            assert np.abs(back.Z - el.Z).max() < 1e-12


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


def test_family_algebras_are_bracket_closed(suite):
    for d in suite:
        alg = C.build_family(d)
        assert alg.dim == C.family_dim(d)
        for x in alg.basis:
            for y in alg.basis:
                w = x @ y - y @ x
                assert in_real_span(w, alg.basis), d.family


def test_rank_of_zero_and_empty_input():
    assert numerical_rank(np.zeros(0)) == 0
    assert numerical_rank(np.zeros(3)) == 0
    assert row_space(np.zeros((0, 4))).shape == (0, 4)
    assert row_space(np.zeros((3, 4))).shape == (0, 4)
    assert null_space(np.zeros((3, 4))).shape == (4, 4)
    assert null_space(np.zeros((0, 4))).shape == (4, 4)


def test_rank_floor_drops_noise_only_rows():
    noise = 1e-12 * np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    floor = DEFAULT_TOL.rank_abs
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
