"""Family constructors and the matcher: build -> match round trips."""
import numpy as np
import pytest

from oracles import conjugations, ricci_flat_condition, ricci_flat_symbolic

from lkholonomy import classify as C
from lkholonomy import geometry as G
from lkholonomy import potentials as P
from lkholonomy.cli import _catalog_entries
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.hermitian import RealFormData
from lkholonomy.jetmat import jmat_max_abs
from lkholonomy.jets import Jet, JetSpace
from lkholonomy.lie import MatrixAlgebra


RES = DEFAULT_TOL.residual
TWISTED = RealFormData.from_lambdas([0.5], 2)


@pytest.mark.parametrize("n, m, a_parts, real_form, family", [
    (1, 1, [1.0 + 1j], None, "GK"),                      # m = n, whatever a is
    (2, 2, [], None, "GK"),
    (2, 0, [], None, "GKL"),                             # no k at all
    (2, 1, [0j, 0j], None, "GKL"),                       # every a zero
    (2, 0, [0j], TWISTED, "GKL"),
    (2, 0, [1j, 0j], None, "GKJL"),                      # Re a = 0, L_0 untwisted
    (2, 0, [1j], TWISTED, "BERGER_GK"),                  # Re a = 0, L_0 twisted
    (2, 0, [1.0], None, "BERGER_GK"),                    # Re a != 0
    (2, 0, [1j, 0.5 + 1j], None, "BERGER_GK"),
    (2, 0, [RES], None, "BERGER_GK"),                    # +-residual is not zero
    (2, 0, [-RES], None, "BERGER_GK"),
    (2, 0, [RES * 1j], None, "GKJL"),
    (2, 0, [-RES * 1j], TWISTED, "BERGER_GK"),
    (2, 0, [0.99 * RES * (1 + 1j)], TWISTED, "GKL"),     # below it is zero
    (2, 0, [0.99 * RES + 1j], None, "GKJL"),
])
def test_family_rule_at_its_boundaries(n, m, a_parts, real_form, family):
    d = C.KLDescriptor(n, m, [(a, np.zeros((m, m), complex)) for a in a_parts], real_form)
    assert d.family == family
    assert C.is_holonomy_realizable(d) == ("berger_only" if family == "BERGER_GK" else "yes")


def test_build_match_roundtrip_algebra_only(suite):
    for d in suite:
        alg = C.build_family(d)
        got = C.match_algebra(alg)
        assert C.same_descriptor(got, d), (d.family, getattr(got, "reason", ""))


def test_n0_matches(rng):
    tags = [("G0", None), ("G1", None), ("G2", None), ("G3", 1.0), ("G3", 0.0),
            ("G3", 1j), ("G3", 1 + 1j)]
    for fam, gamma in tags:
        d = C.N0Descriptor(fam, gamma or 0.0)
        alg = C.build_family(d)
        # the same algebra after a real change of basis
        mix = rng.standard_normal((alg.dim, alg.dim)) + 2 * np.eye(alg.dim)
        mixed = MatrixAlgebra(0, list(np.tensordot(mix, np.array(alg.basis), 1)))
        for a in (alg, mixed):
            got = C.match_algebra(a)
            assert C.same_descriptor(got, d), (fam, gamma)
    m = G.metric_from_potential(P.fc_potential(JetSpace(2, 8), 0.5 + 0.5j, 1.0))
    hol = G.infinitesimal_holonomy(m, r_max=4)
    assert C.match_algebra(hol.algebra).family == "G1"


def test_same_descriptor_distinguishes():
    d1 = C.KLDescriptor(2, 0, [])
    d2 = C.KLDescriptor(2, 1, [])
    assert not C.same_descriptor(d1, d2)
    assert C.same_descriptor(d1, C.KLDescriptor(2, 0, []))


def test_family_dim_equals_algebra_dim(suite):
    for d in suite:
        assert C.family_dim(d) == C.build_family(d).dim


def test_realizability_gate():
    d_ok = C.KLDescriptor(1, 1, [(1.0, np.zeros((1, 1), complex))])
    assert C.is_holonomy_realizable(d_ok) == "yes"
    from lkholonomy.hermitian import RealFormData
    d_berger = C.KLDescriptor(
        2, 0, [(1j, np.zeros((0, 0), complex))],
        real_form=RealFormData.from_lambdas([0.5], 2))
    assert C.is_holonomy_realizable(d_berger) == "berger_only"
    assert C.is_holonomy_realizable(C.UnknownDescriptor("zero algebra")) == "unknown"


def _with_a_flat_or_curved_coordinate(f, curved):
    """The potential f of n = 1 in the coordinates (v, z1, u), written in
    (v, z1, z2, u) and plus |z2|^2, and plus |z2|^4 / 2 when curved: a
    product metric."""
    g = {((I[0], I[1], 0, I[2]), (J[0], J[1], 0, J[2])): c for (I, J), c in f.coeffs.items()}
    g[((0, 0, 1, 0), (0, 0, 1, 0))] = 1.0
    if curved:
        g[((0, 0, 2, 0), (0, 0, 2, 0))] = 0.5
    return Jet(4, f.order, g)


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("entry", range(4))
def test_a_product_metric_gets_the_l0_dimension_as_its_unknown_reason(entry, curved):
    """A catalog potential at n = 1 times a flat or curved line has a
    holonomy whose L_0 is too short for n = 2: GK (m = 1) reads none and
    GKJL and GKL (m = 0) read one real vector.  The matcher says so, where
    it used to pass the short basis on to RealFormData."""
    d = _catalog_entries(1)[entry]["descriptor"]
    f = _with_a_flat_or_curved_coordinate(P.build_potential(d, order=8), curved)
    hol = G.infinitesimal_holonomy(G.metric_from_potential(f), r_max=4)
    assert hol.stabilized
    got = C.match_algebra(hol.algebra)
    k = 0 if d.m == 1 else 1
    assert (got.family, got.reason) == (
        "UNKNOWN", f"L_0 has real dimension {k}, not n - m = {2 - d.m}")


def test_ricci_flat_corollary(suite):
    """The trace conditions of the Ricci-flat corollary agree with the trace
    of the built algebra, and with the Ricci tensor of the family's metric."""
    berger_only = C.KLDescriptor(
        2, 0, [(1j, np.zeros((0, 0), complex))],
        real_form=RealFormData.from_lambdas([0.5], 2))
    n0 = [C.N0Descriptor("G0"), C.N0Descriptor("G1"), C.N0Descriptor("G2"),
          C.N0Descriptor("G3", 0.0), C.N0Descriptor("G3", 1.0), C.N0Descriptor("G3", 1j)]
    for d in suite + n0 + [berger_only]:
        assert ricci_flat_condition(d) == ricci_flat_symbolic(d), d.family
    flat = []
    for d in suite:
        m = G.metric_from_potential(P.build_potential(d, order=6))
        assert (jmat_max_abs(G.ricci(m)) == 0) == ricci_flat_symbolic(d), d.family
        flat.append(ricci_flat_symbolic(d))
    assert flat.count(True) == 3  # the three untwisted GKL cases


def test_match_rejects_garbage():
    # not weakly irreducible: no c-line present
    alg = MatrixAlgebra(1, [np.diag([1j, 0, -1j])])
    got = C.match_algebra(alg)
    assert got.family == "UNKNOWN"


# The entries of `catalog --n n` whose Levi and parabolic conjugates, drawn
# by conjugations from default_rng((n, i)) for entry i, the matcher reads
# back as the entry; a U(1,n+1) conjugate leaves the block pattern.
MATCHED_CONJUGATES = {1: {0, 1, 2, 3}, 2: {0, 1, 3, 5}, 3: {0, 1, 4, 7}}


def test_every_match_is_proved_on_the_catalog_and_its_conjugates():
    """On every `catalog --n 1..3` entry and its Levi, parabolic and
    U(1,n+1) conjugates, match_algebra never raises, and returns UNKNOWN or a
    descriptor that builds the algebra, of the pinned family."""
    for n, matched in MATCHED_CONJUGATES.items():
        for i, e in enumerate(_catalog_entries(n)):
            d0 = e["descriptor"]
            alg = C.build_family(d0)
            algs = {"entry": alg}
            for kind, U in conjugations(n, np.random.default_rng((n, i))).items():
                algs[kind] = MatrixAlgebra(n, [U @ b @ np.linalg.inv(U) for b in alg.basis])
            for kind, a in algs.items():
                got = C.match_algebra(a)
                proved = kind == "entry" or (kind != "unitary" and i in matched)
                assert got.family == (d0.family if proved else "UNKNOWN"), (n, i, kind)
                if proved:
                    assert C.build_family(got).equals(a) and C.same_descriptor(got, d0)


def test_a_reading_that_drops_a_k_element_is_refused(monkeypatch):
    """The proof decides, not the reader: with a reader that drops one
    element of k, every (k, L) catalog entry with k at n = 1, 2 is UNKNOWN."""
    read = C._read_descriptor

    def drop_one(alg):
        d = read(alg)
        d.k_basis = d.k_basis[1:]
        return d

    monkeypatch.setattr(C, "_read_descriptor", drop_one)
    entries = [e["descriptor"] for n in (1, 2) for e in _catalog_entries(n)
               if isinstance(e["descriptor"], C.KLDescriptor) and e["descriptor"].k_basis]
    assert len(entries) == 8
    for d in entries:
        got = C.match_algebra(C.build_family(d))
        assert got.family == "UNKNOWN", d.family
        assert got.reason.startswith("the algebra is not build_family of the"), d.family


def test_gamma_normalization():
    assert C._normalize_gamma(2.0) == C._normalize_gamma(1.0)
    assert C._normalize_gamma(2j) == C._normalize_gamma(1j)
    assert C._normalize_gamma(0.0) == 0.0
