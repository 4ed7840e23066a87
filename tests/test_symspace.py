"""Symmetric pairs, transvection algebras, canonical families."""
import json

import numpy as np
import pytest

from oracles import random_param

from lkholonomy import serialization as S

from lkholonomy import classify as C
from lkholonomy.classify import match_algebra
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.curvspace import (
    CurvatureMap,
    param_decode,
    param_encode,
    solve_curvature_space,
)
from lkholonomy.lie import MatrixAlgebra, real_span_basis, span_coords, span_residual
from lkholonomy.symspace import (
    InvalidPairError,
    SymmetricPair,
    build_transvection,
    canonical_pair,
    symspace_report,
)

ALL_CASES = ([("a", 0, 0), ("b", 0, 0), ("c", 0, 0), ("d", 1, 0), ("e", 1, 0)]
             + [("f", n, m) for n in (1, 2, 3) for m in range(n + 1)])


@pytest.mark.parametrize("family,n,m", ALL_CASES)
def test_canonical_pairs(family, n, m):
    pair = canonical_pair(family, n, m)
    tr = build_transvection(pair)
    assert tr.jacobi_residual < 1e-10
    assert tr.g_equals_image
    assert tr.dim == pair.g.dim + 2 * (n + 2)
    rep = symspace_report(pair, family, m)
    assert rep.calabi_yau == (family in "abde")
    # the curvature value decodes as a valid block parameter and re-encodes exactly
    assert np.array_equal(param_encode(param_decode(pair.R)).rho, pair.R.rho)


def test_negation_families_exact():
    assert np.array_equal(canonical_pair("b").R.rho, -canonical_pair("a").R.rho)
    assert np.array_equal(canonical_pair("e", 1).R.rho,
                          -canonical_pair("d", 1).R.rho)


def test_family_c_ricci_nondegenerate():
    rep = symspace_report(canonical_pair("c"), "c")
    assert not rep.ricci_degenerate
    assert not rep.calabi_yau


def test_invalid_pair_rejected():
    pair = canonical_pair("f", 1, 0)
    # break the exchange symmetry: scale one mixed value only
    rho = pair.R.rho.copy()
    rho[1, 1] *= 2.0
    bad = SymmetricPair(pair.n, pair.g, CurvatureMap(pair.n, rho))
    with pytest.raises(InvalidPairError):
        build_transvection(bad)


def test_image_outside_g_rejected():
    """The curvature of family a with g = i R id: the projection of R(m, m)
    onto g is zero, so the projected table satisfies the Jacobi identity,
    and only the closure of [m, m] in g rejects the pair."""
    base = canonical_pair("a")
    pair = SymmetricPair(0, MatrixAlgebra(0, [np.diag([1j, 1j])]), base.R)
    with pytest.raises(InvalidPairError, match="escapes g"):
        build_transvection(pair)


def test_reports_of_rejected_pairs_can_be_written(rng):
    """A pair rejected by closure and one rejected by the Jacobi identity
    each give a report with jacobi_residual null that dump_json writes."""
    g = canonical_pair("f", 1, 1).g
    closure = SymmetricPair(1, g, param_encode(random_param(1, rng)))
    with pytest.raises(InvalidPairError, match="escapes g"):
        build_transvection(closure)
    pairs = [closure]
    for R in solve_curvature_space(g):
        try:
            build_transvection(SymmetricPair(1, g, R))
        except InvalidPairError as err:
            if str(err).startswith("Jacobi"):
                pairs.append(SymmetricPair(1, g, R))
                break
    assert len(pairs) == 2
    for pair in pairs:
        text = S.dump_json(S.make_report("symspace", symspace_report(pair, "f", 1)), None)
        result = json.loads(text)["result"]
        assert (result["jacobi"], result["jacobi_residual"]) == (False, None)


def test_oversized_g_flagged_not_fatal():
    base = canonical_pair("a")
    extra = np.diag([1j, 1j])
    g_big = MatrixAlgebra(0, base.g.basis + [extra])
    pair = SymmetricPair(0, g_big, base.R)
    tr = build_transvection(pair)
    assert tr.jacobi_residual < 1e-10
    assert not tr.g_equals_image
    assert tr.image_dim == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        canonical_pair("a", n=1)
    with pytest.raises(ValueError):
        canonical_pair("d", n=2)
    with pytest.raises(ValueError):
        canonical_pair("f", n=0)
    with pytest.raises(ValueError):
        canonical_pair("f", n=2, m=3)
    with pytest.raises(ValueError):
        canonical_pair("z")


def _reference_real_curvature(pair, x, y):
    """R(X, Y) for real tangent vectors given by x, y in C^N: R(x, conj y)
    - R(y, conj x), one pair at a time."""
    rho = pair.R.rho
    return (np.einsum("i,j,ijab->ab", x, np.conj(y), rho)
            - np.einsum("i,j,ijab->ab", y, np.conj(x), rho))


def _reference_m_basis(pair):
    eye = np.eye(pair.dim, dtype=complex)
    return list(eye) + list(1j * eye)


def _reference_pair_checks(pair):
    """The pair checks one pair of m-basis vectors at a time: the largest
    fit residual of the curvature image in g, and the largest violation of
    g-invariance [A, R(X, Y)] = R(AX, Y) + R(X, AY)."""
    mb = _reference_m_basis(pair)
    pairs = [(x, y) for i, x in enumerate(mb) for y in mb[i + 1:]]
    vals = [_reference_real_curvature(pair, x, y) for x, y in pairs]
    image = real_span_basis([w for w in vals if np.abs(w).max() > DEFAULT_TOL.coeff_zero])
    image_res = max((span_residual(w, pair.g.basis) for w in image), default=0.0)
    ginv = 0.0
    for A in pair.g.basis:
        for x, y in pairs:
            w = _reference_real_curvature(pair, x, y)
            rhs = (_reference_real_curvature(pair, A @ x, y)
                   + _reference_real_curvature(pair, x, A @ y))
            ginv = max(ginv, np.abs(A @ w - w @ A - rhs).max())
    return image_res, float(ginv)


def _perturbed_pairs(rng):
    """Each canonical pair and two seeded random perturbations of its rho:
    one along the solved curvature maps of g, which can break g-invariance
    only, and one that breaks every check but keeps the parabolic block
    pattern that sigma reads."""
    out = []
    for family, n, m in ALL_CASES:
        pair = canonical_pair(family, n, m)
        solved = np.array([S.rho for S in solve_curvature_space(pair.g)])
        along = np.tensordot(rng.standard_normal(len(solved)), solved, 1)
        noise = rng.standard_normal(pair.R.rho.shape) + 1j * rng.standard_normal(pair.R.rho.shape)
        noise[..., 1:, 0] = noise[..., n + 1, 1:n + 1] = 0
        out += [pair] + [SymmetricPair(n, pair.g, CurvatureMap(n, pair.R.rho + 1e-3 * d))
                         for d in (along, noise)]
    return out


def _solved_pairs():
    """Every solved curvature map of each canonical g, as a pair with g."""
    out = []
    for family, n, m in ALL_CASES:
        g = canonical_pair(family, n, m).g
        out += [SymmetricPair(n, g, R) for R in solve_curvature_space(g)]
    return out


def test_closure_and_jacobi_reject_what_the_loop_oracle_rejects(rng):
    """The pair conditions checked one pair of m-basis vectors at a time
    (curvature-map invariants, image in g, g-invariance) reject a pair
    exactly when build_transvection does, on the perturbed pairs and on
    every solved curvature map of the canonical g."""
    cases = _perturbed_pairs(rng) + _solved_pairs()
    assert len(cases) == 128
    rejected = 0
    for pair in cases:
        ref = max(pair.R.invariant_residual(), *_reference_pair_checks(pair))
        try:
            build_transvection(pair)
        except InvalidPairError:
            rejected += 1
            assert ref > DEFAULT_TOL.rank_rel
        else:
            assert ref <= DEFAULT_TOL.rank_rel
    assert 0 < rejected < len(cases)


def test_transvection_brackets_reproduce_curvature():
    """[X, Y] for m-indices i, j equals -R(X, Y) expanded in the g-basis,
    and [A, X] is A X expanded in the m-basis."""
    for family, n, m in ALL_CASES:
        pair = canonical_pair(family, n, m)
        tr = build_transvection(pair)
        k = pair.g.dim
        mb = _reference_m_basis(pair)
        for i, x in enumerate(mb):
            for j, y in enumerate(mb):
                got = np.tensordot(tr.table[k + i, k + j, :k], pair.g.basis, 1)
                want = -_reference_real_curvature(pair, x, y)
                assert np.abs(got - want).max() < 1e-10
            assert np.abs(tr.table[k + i, k + j, k:]).max() == 0
        for a, A in enumerate(pair.g.basis):
            for i, x in enumerate(mb):
                got = np.tensordot(tr.table[a, k + i, k:], mb, 1)
                assert np.abs(got - A @ x).max() < 1e-10


def test_ricci_flag_is_scale_free():
    """c with R scaled by 1e-6 is homothetic to c: its Ricci form is still
    nondegenerate, although its determinant is below Tolerances.residual."""
    pair = canonical_pair("c")
    small = SymmetricPair(0, pair.g, CurvatureMap(0, 1e-6 * pair.R.rho))
    rep = symspace_report(small, "c")
    assert rep.jacobi
    assert not rep.ricci_degenerate
    assert not rep.calabi_yau


@pytest.mark.parametrize("family,n,m", ALL_CASES)
def test_jacobi_check_is_scale_free(family, n, m):
    """R scaled by 1e-11, 1e-6, 1e6 or 1e10 is homothetic to a valid pair:
    closure, the Jacobi identity and the Calabi-Yau flag hold relative to
    the scale of R and of the structure table, and the report's other flags
    do not move."""
    pair = canonical_pair(family, n, m)
    ref = symspace_report(pair, family, m)
    for scale in (1e-11, 1e-6, 1e6, 1e10):
        scaled = SymmetricPair(n, pair.g, CurvatureMap(n, scale * pair.R.rho))
        rep = symspace_report(scaled, family, m)
        assert rep.jacobi and rep.g_equals_image and rep.dim_h == ref.dim_h, scale
        assert (rep.ricci_degenerate, rep.calabi_yau) == (ref.ricci_degenerate,
                                                          ref.calabi_yau), scale


EXPECTED_FAMILY = {"a": "G3", "b": "G3", "c": "G2", "d": "GKL", "e": "GKL"}


def _expected_descriptor(family, n, m):
    """The descriptor each canonical g matches: G3 with gamma = 0 for a and
    b, G2 for c, GKL(1, 0) with k = 0 for d and e, and for f(n, m) the one
    k-generator (2i, i I_m): GK when m = n, GKJL when m < n."""
    if family in "ab":
        return C.N0Descriptor("G3")
    if family == "c":
        return C.N0Descriptor("G2")
    if family in "de":
        return C.KLDescriptor(1, 0, [])
    return C.KLDescriptor(n, m, [(2j, 1j * np.eye(m))])


@pytest.mark.parametrize("family,n,m", ALL_CASES)
def test_pair_agrees_with_berger_solve_and_matcher(family, n, m):
    """R lies in the real span of the Berger solve of g, and g matches its
    listed descriptor: GK for f(n, n), GKJL for f(n, m < n)."""
    pair = canonical_pair(family, n, m)
    solved = solve_curvature_space(pair.g)
    assert span_coords(pair.R.rho, [S.rho for S in solved])[1] <= DEFAULT_TOL.rank_rel
    want = _expected_descriptor(family, n, m)
    assert want.family == EXPECTED_FAMILY.get(family, "GK" if m == n else "GKJL")
    assert C.same_descriptor(match_algebra(pair.g), want)


def _top_right(N, val):
    w = np.zeros((N, N), dtype=complex)
    w[0, N - 1] = val
    return w


def _reference_basis(family, n, m):
    """The algebra g of each canonical pair, written out by hand entry by
    entry, independently of the classification's builders."""
    if family in "ab":
        return [np.array([[0, 1j], [0, 0]], dtype=complex)]
    if family == "c":
        return [np.diag([1.0, -1.0]).astype(complex), np.diag([1j, 1j])]
    if family in "de":
        return [np.array([[0, -1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex), _top_right(3, 1j)]
    N = n + 2
    a_gen = np.zeros((N, N), dtype=complex)
    a_gen[0, 0] = a_gen[N - 1, N - 1] = 2j
    for j in range(1, m + 1):
        a_gen[j, j] = 1j
    for k in range(m + 1, n + 1):
        a_gen[k, k] = 2j
    basis = [a_gen, _top_right(N, 1j)]
    for j in range(1, m + 1):
        for vec in (1.0, 1j):
            t = np.zeros((N, N), dtype=complex)
            t[j, N - 1] = vec
            t[0, j] = -np.conj(vec)
            basis.append(t)
    for k in range(m + 1, n + 1):
        t = np.zeros((N, N), dtype=complex)
        t[k, N - 1] = 1.0
        t[0, k] = -1.0
        basis.append(t)
    return basis


@pytest.mark.parametrize("family,n,m", ALL_CASES + [("f", 4, m) for m in range(5)])
def test_pair_g_is_the_hand_written_algebra(family, n, m):
    """g = build_family(d) spans the hand-written algebra of the pair, and
    matches back to d, also for f(4, m), which the survey leaves out."""
    g = canonical_pair(family, n, m).g
    assert g.equals(MatrixAlgebra(n, _reference_basis(family, n, m)))
    assert C.same_descriptor(match_algebra(g), _expected_descriptor(family, n, m))


@pytest.mark.parametrize("family,n,m", [("f", 1, 1), ("f", 2, 1), ("f", 3, 3)])
def test_g_invariance_is_enforced(family, n, m):
    """Solved curvature maps of g satisfy every curvature-map invariant and
    have their image in g, but most are not g-invariant; build_transvection
    rejects exactly those."""
    g = canonical_pair(family, n, m).g
    rejected = 0
    for R in solve_curvature_space(g):
        pair = SymmetricPair(n, g, R)
        image_res, ginv = _reference_pair_checks(pair)
        assert R.invariant_residual() < 1e-10
        assert image_res < 1e-10
        if ginv > DEFAULT_TOL.rank_rel:
            rejected += 1
            with pytest.raises(InvalidPairError):
                build_transvection(pair)
        else:
            assert build_transvection(pair).jacobi_residual < 1e-10
    assert rejected > 0
