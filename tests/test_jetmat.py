"""Jet-valued matrix helpers."""
import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (jmat_residual, reference_inverse, reference_jmat_exp, reference_mul,
                     reference_sqrt, same_bits,
                     same_matrix_bits, table_jmat, term_table)

from lkholonomy.jetmat import (
    jmat_conj_transpose,
    jmat_derivative,
    jmat_eval0,
    jmat_exp,
    jmat_from_const,
    jmat_identity,
    jmat_inverse,
    jmat_max_abs,
    jmat_mul,
    jmat_space,
    jmat_sqrt,
    jmat_truncated,
    jmat_zero,
)
from lkholonomy import potentials as P
from lkholonomy.geometry import MetricJet
from lkholonomy.jets import Jet, JetShapeError, JetSpace, table_mul

SPACE = JetSpace(2, 5)


def _random_jmat(rng, k=2, base_shift=1.0):
    A = jmat_zero((k, k), SPACE)
    for a in range(k):
        for b in range(k):
            jet = SPACE.constant(base_shift * (a == b))
            jet = jet + SPACE.variable(0) * complex(*rng.standard_normal(2)) * 0.3
            jet = jet + SPACE.conj_variable(1) * complex(*rng.standard_normal(2)) * 0.3
            A[a, b] = jet
    return A


def test_inverse(rng):
    A = _random_jmat(rng)
    I = jmat_identity(2, SPACE)
    assert jmat_residual(jmat_mul(A, jmat_inverse(A)), I) < 1e-10
    assert jmat_residual(jmat_mul(jmat_inverse(A), A), I) < 1e-10


def test_sqrt_squares_back(rng):
    A = _random_jmat(rng)
    H = jmat_mul(A, jmat_conj_transpose(A))  # Hermitian, positive at 0
    S = jmat_sqrt(H)
    assert jmat_residual(jmat_mul(S, S), H) < 1e-9


def test_exp_of_commuting_sums(rng):
    G = _random_jmat(rng, base_shift=0.0)
    twoG = G * 2.0
    lhs = jmat_exp(twoG)
    e = jmat_exp(G)
    assert jmat_residual(lhs, jmat_mul(e, e)) < 1e-9


def test_derivative_is_entrywise():
    A = jmat_zero((1, 2), SPACE)
    A[0, 0] = SPACE.variable(0) * SPACE.variable(0)
    A[0, 1] = SPACE.conj_variable(0)
    D = jmat_derivative(A, 0, holomorphic=True)
    assert (D[0, 0] - SPACE.variable(0) * 2.0).max_abs() < 1e-14
    assert D[0, 1].max_abs() < 1e-14


def test_commutator_antisymmetry(rng):
    A, B = _random_jmat(rng), _random_jmat(rng)
    lhs = jmat_mul(A, B) - jmat_mul(B, A)
    rhs = (jmat_mul(B, A) - jmat_mul(A, B)) * -1.0
    assert jmat_residual(lhs, rhs) < 1e-12


def test_eval0_extracts_constants():
    M = np.array([[1.0, 2.0j], [0.0, -1.0]])
    A = jmat_from_const(M, SPACE)
    assert np.abs(jmat_eval0(A) - M).max() < 1e-15
    assert jmat_max_abs(A + A * -1.0) == 0.0


# -- graded recursions against the iterations they replaced -------------------

def _neumann_inverse(A):
    """The Neumann series around the constant part, with its tolerance break:
    the inverse before the graded recursion."""
    space = jmat_space(A)
    A0 = jmat_eval0(A)
    A0inv = np.linalg.inv(A0)
    M = A + jmat_from_const(-A0, space)
    B = jmat_mul(jmat_from_const(A0inv, space), M) * -1.0
    acc = power = jmat_identity(A.shape[0], space)
    for _ in range(space.order):
        power = jmat_mul(power, B)
        if jmat_max_abs(power) <= 1e-12:
            break
        acc = acc + power
    return jmat_mul(acc, jmat_from_const(A0inv, space))


def _denman_beavers_sqrt(A):
    """The Denman-Beavers iteration with its absolute and rounding-floor
    stops: the square root before the graded recursion."""
    Y, Z = A, jmat_identity(A.shape[0], jmat_space(A))
    last = math.inf
    for _ in range(40):
        Yn = (Y + _neumann_inverse(Z)) * 0.5
        Zn = (Z + _neumann_inverse(Y)) * 0.5
        delta = jmat_max_abs(Yn - Y)
        Y, Z = Yn, Zn
        if delta <= 1e-12 or last <= delta <= 1e-9 * max(jmat_max_abs(Y), 1.0):
            return Y
        last = delta
    raise RuntimeError("matrix square-root iteration did not converge")


def _dense_jmat(rng, k=3, space=JetSpace(2, 4)):
    """Every monomial up to the order in every entry, constant part
    diagonally dominant."""
    keys = [((i1, i2), (j1, j2)) for i1 in range(space.order + 1)
            for i2 in range(space.order + 1 - i1)
            for j1 in range(space.order + 1 - i1 - i2)
            for j2 in range(space.order + 1 - i1 - i2 - j1)]
    A = jmat_zero((k, k), space)
    for a in range(k):
        for b in range(k):
            coeffs = {key: 0.2 * complex(*rng.standard_normal(2)) for key in keys}
            coeffs[keys[0]] += 2.0 * (a == b)
            A[a, b] = Jet(space.num_coords, space.order, coeffs)
    return A


def _rel_residual(A, ref):
    return jmat_residual(A, ref) / max(jmat_max_abs(ref), 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_inverse_matches_the_neumann_series(seed):
    A = _dense_jmat(np.random.default_rng(seed))
    assert _rel_residual(jmat_inverse(A), _neumann_inverse(A)) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_sqrt_matches_denman_beavers(seed):
    A = _dense_jmat(np.random.default_rng(seed), k=2)
    H = jmat_mul(A, jmat_conj_transpose(A))
    assert _rel_residual(jmat_sqrt(H), _denman_beavers_sqrt(H)) < 1e-12


def test_sqrt_of_a_hermitian_jet_matrix_is_hermitian(rng):
    A = _dense_jmat(rng)
    H = A + jmat_conj_transpose(A)  # constant part 4 + noise
    S = jmat_sqrt(H)
    assert jmat_residual(S, jmat_conj_transpose(S)) < 1e-12
    assert _rel_residual(jmat_mul(S, S), H) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_inverse_and_sqrt_are_the_jet_matrix_loops_bit_for_bit(seed):
    """jmat_inverse and jmat_sqrt, solved on term tables, have the keys in
    the same order and the bits of the graded loops on jet matrices over the
    entrywise product, on a dense matrix and a dense Hermitian one, whose
    constant parts are not the identity."""
    A = _dense_jmat(np.random.default_rng(seed))
    H = A + jmat_conj_transpose(A)
    for M in (A, H):
        assert np.abs(jmat_eval0(M) - np.eye(3)).max() > 0.5
        assert same_matrix_bits(jmat_inverse(M), reference_inverse(M))
    assert same_matrix_bits(jmat_sqrt(H), reference_sqrt(H))


@pytest.mark.parametrize("seed", range(3))
def test_exp_is_the_taylor_loop_bit_for_bit(seed):
    """jmat_exp, a Taylor sum on term tables, has the keys in the same order
    and the bits of the sum on jet matrices over the entrywise product, on a
    dense matrix with zero constant part, the same with an empty entry, and
    the same cut to order 2."""
    G = jmat_zero((3, 3), JetSpace(2, 4))
    for idx, a in np.ndenumerate(_dense_jmat(np.random.default_rng(seed))):
        G[idx] = Jet(2, 4, {k: c for k, c in a.coeffs.items() if k != ((0, 0), (0, 0))})
    empty, cut = G.copy(), jmat_truncated(G, 2)
    empty[1, 2] = Jet(2, 4, {})
    for M in (G, empty, cut):
        assert same_matrix_bits(jmat_exp(M), reference_jmat_exp(M))


def test_exp_of_the_suite_is_the_taylor_loop_bit_for_bit(suite, monkeypatch):
    """The same on every exponent G that fun_potential builds for the
    suite's descriptors at order 10."""
    seen = []
    monkeypatch.setattr(P, "jmat_exp", lambda G: seen.append(G) or jmat_exp(G))
    for d in suite:
        P.build_potential(d, order=10)
    assert seen
    for G in seen:
        assert same_matrix_bits(jmat_exp(G), reference_jmat_exp(G))


def test_sqrt_rejects_an_indefinite_constant_part():
    A = jmat_from_const(np.diag([1.0, -1.0]), SPACE)
    with pytest.raises(ValueError, match="positive definite"):
        jmat_sqrt(A)


@pytest.mark.parametrize("low", [(0, 0), (1, 1)])
def test_a_jet_matrix_of_two_orders_is_refused(low, rng):
    """A 2 x 2 jet matrix in one coordinate whose entry `low` has order 2
    and whose other entries have order 4 has no one jet space: its inverse,
    its square root, a product with it and a metric of it are each refused
    with a JetShapeError."""
    keys = [((i,), (j,)) for i in range(5) for j in range(5 - i)]
    A = jmat_zero((2, 2), JetSpace(1, 4))
    for a in range(2):
        for b in range(2):
            coeffs = {key: 0.2 * complex(*rng.standard_normal(2)) for key in keys}
            coeffs[keys[0]] += 2.0 * (a == b)
            A[a, b] = Jet(1, 4, coeffs)
    H = A + jmat_conj_transpose(A)  # Hermitian, constant part near 4
    for M in (A, H):
        M[low] = M[low].truncated(2)
    for refused in (lambda: jmat_inverse(A), lambda: jmat_sqrt(H),
                    lambda: jmat_mul(A, jmat_identity(2, JetSpace(1, 4))),
                    lambda: jmat_mul(jmat_identity(2, JetSpace(1, 2)), A),
                    lambda: MetricJet(0, H)):
        with pytest.raises(JetShapeError, match="one jet space"):
            refused()


# -- jmat_mul and the table product against the entrywise loop ---------------------

def _same_product(A, B) -> bool:
    """jmat_mul(A, B) has the shape and, entry by entry, the bits of the
    entrywise loop."""
    return same_matrix_bits(jmat_mul(A, B), reference_mul(A, B))


_KEYS = [((i1, i2), (j1, j2)) for i1 in range(5) for i2 in range(5 - i1)
         for j1 in range(5 - i1 - i2) for j2 in range(5 - i1 - i2 - j1)]


@st.composite
def entries(draw, order, empty_in_four=1):
    """A jet of the order with up to 8 terms, empty about empty_in_four
    times in four."""
    keys = draw(st.lists(st.sampled_from(_KEYS), max_size=8, unique=True))
    if draw(st.integers(0, 3)) < empty_in_four:
        keys = []
    return Jet(2, order,
               {k: complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))) / 4
                + draw(st.complex_numbers(max_magnitude=1.0, allow_nan=False))
                for k in keys})


@st.composite
def jet_matrices(draw, size=3, empty_in_four=1):
    """A and B that can be multiplied, each of one order 0..4 drawn on its
    own."""
    r, k, c = (draw(st.integers(1, size)) for _ in range(3))
    A = np.empty((r, k), dtype=object)
    B = np.empty((k, c), dtype=object)
    for M in (A, B):
        order = draw(st.integers(0, 4))
        for idx in np.ndindex(*M.shape):
            M[idx] = draw(entries(order, empty_in_four))
    return A, B


@given(jet_matrices())
@settings(max_examples=150, deadline=None)
def test_fused_product_matches_the_entrywise_loop_bit_for_bit(AB):
    assert _same_product(*AB)


@st.composite
def sparse_jet_matrices(draw):
    """A and B with about three entries in four empty, some whole rows of A
    and whole columns of B empty, each of one order 0..4 drawn on its own."""
    A, B = draw(jet_matrices(size=4, empty_in_four=3))
    (r, k), c = A.shape, B.shape[1]
    for i in draw(st.sets(st.integers(0, r - 1))):
        A[i, :] = [Jet(2, A[0, 0].order) for _ in range(k)]
    for j in draw(st.sets(st.integers(0, c - 1))):
        B[:, j] = [Jet(2, B[0, 0].order) for _ in range(k)]
    return A, B


@given(sparse_jet_matrices())
@settings(max_examples=100, deadline=None)
def test_sparse_product_matches_the_entrywise_loop_bit_for_bit(AB):
    assert _same_product(*AB)


@given(sparse_jet_matrices(), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_table_product_is_jmat_mul_bit_for_bit(AB, order):
    """The kernel's product of term tables, which jmat_mul and the holonomy
    span both call, has, entry by entry, the keys in the same order and the
    bits of the entrywise loop, on sparse matrices whose entries are all cut
    to one order."""
    A, B = ([[Jet(2, order, a.coeffs) for a in row] for row in M] for M in AB)
    A, B = np.array(A, dtype=object), np.array(B, dtype=object)
    got = table_mul(term_table(A), term_table(B), order)
    want = reference_mul(A, B)
    assert same_matrix_bits(table_jmat(got, want.shape, JetSpace(2, order)), want)


def test_table_product_is_jmat_mul_on_dense_matrices(rng):
    """The same on dense matrices, where several pairs of one product land
    on one key: merging a product straight into the sum would round
    otherwise."""
    A = _dense_jmat(rng, k=3)
    B = reference_mul(A, A)
    B[1, 2] = Jet(2, 4, {})
    for X, Y in [(A, B), (B, A), (A[:2], B)]:
        got = table_mul(term_table(X), term_table(Y), 4)
        want = reference_mul(X, Y)
        assert same_matrix_bits(table_jmat(got, want.shape, JetSpace(2, 4)), want)


def test_fused_product_matches_on_dense_matrices(rng):
    A = _dense_jmat(rng, k=3)
    B = jmat_mul(A, A)
    B[1, 2] = Jet(2, 4, {})
    cut = jmat_truncated(B, 2)
    for X, Y in [(A, B), (B, A), (B, B), (A[:2], B), (A, cut), (cut, B), (cut, cut)]:
        assert _same_product(X, Y)


def test_fused_product_rejects_mixed_jet_spaces():
    A = jmat_identity(2, SPACE)
    B = jmat_identity(2, SPACE)
    B[1, 0] = JetSpace(3, 5).constant(1.0)
    with pytest.raises(JetShapeError):
        jmat_mul(A, B)
    with pytest.raises(ValueError, match="shape mismatch"):
        jmat_mul(A, jmat_identity(3, SPACE))


# -- truncated operands give the truncated result ---------------------------------

@st.composite
def invertible_jet_matrices(draw):
    """A square jet matrix of one order 0..4, its entries drawn by
    `entries`, with 8 added to the constant term of each diagonal entry, so
    that the constant part is strictly diagonally dominant."""
    size, order = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    A = np.empty((size, size), dtype=object)
    for i, j in np.ndindex(size, size):
        A[i, j] = draw(entries(order)) + (8.0 if i == j else 0.0)
    return A


@given(jet_matrices(), invertible_jet_matrices(), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_truncated_operands_give_the_truncated_result_bit_for_bit(AB, M, k):
    """The product, the inverse and the reciprocal filter their pairs by
    degree, so operands cut at k give, key for key and bit for bit, the
    result cut at k: no term above k is read by a term at or below it."""
    A, B = AB
    assert same_matrix_bits(jmat_mul(jmat_truncated(A, k), jmat_truncated(B, k)),
                            jmat_truncated(jmat_mul(A, B), k))
    assert same_matrix_bits(jmat_inverse(jmat_truncated(M, k)),
                            jmat_truncated(jmat_inverse(M), k))
    assert same_bits(M[0, 0].truncated(k).reciprocal(), M[0, 0].reciprocal().truncated(k))
