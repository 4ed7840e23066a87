"""Shared fixtures: the descriptor instances exercised across the suite."""
import numpy as np
import pytest

from lkholonomy import classify as C
from lkholonomy.hermitian import RealFormData


def _m(rows):
    return np.array(rows, dtype=complex)


def descriptor_suite():
    """Eleven instances spanning the four families at n = 1 and n = 2."""
    z00 = np.zeros((0, 0), dtype=complex)
    return [
        # GK, k = C + u(1)
        C.KLDescriptor(1, 1, [(1.0, _m([[0.0]])), (1j, _m([[0.0]])),
                              (0.0, _m([[1j]]))]),
        # GK, one mixed generator
        C.KLDescriptor(1, 1, [(1.0, _m([[1j]]))]),
        # GKJL, m = 0 < n = 1
        C.KLDescriptor(1, 0, [(1j, z00)]),
        # GKJL, m = 1 < n = 2
        C.KLDescriptor(2, 1, [(1j, _m([[1j]]))]),
        # GKL, m = 0, trivial twist
        C.KLDescriptor(1, 0, []),
        # GKL, m = 0, twisted real form
        C.KLDescriptor(2, 0, [], real_form=RealFormData.from_lambdas([0.5], 2)),
        # GKL, m = 0, untwisted two-plane
        C.KLDescriptor(2, 0, []),
        # GKL, m = 1 with k = u(1)
        C.KLDescriptor(2, 1, [(0j, _m([[1j]]))]),
        # GK0PSI, r = 1, complex psi domain
        C.GK0PsiDescriptor(2, 2, 1, [], [_m([[1j]]), _m([[2j]])]),
        # GK0PSI, r = m = 1, real psi domain
        C.GK0PsiDescriptor(2, 1, 1, [], [_m([[1j]])]),
        # GK, the scalar generator's A with its kernel in the first coordinate
        C.KLDescriptor(2, 2, [(1.0, _m([[0.0, 0.0], [0.0, 1j]]))]),
    ]


@pytest.fixture(scope="session")
def suite():
    return descriptor_suite()


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
