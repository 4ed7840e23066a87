"""Seeded inputs for the benchmark: dense Walker-form potentials, pp-wave
profiles, real changes of basis, and the fixed descriptor and algebra files.

Every generator takes a ``numpy.random.Generator`` or a fixed constant, so
the same seed gives the same inputs.  Nothing here is timed.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

import common  # noqa: F401  (puts the checkout's src/ on sys.path)
from lkholonomy.jets import Jet, JetSpace, real_part

# Seed of the n = 0 dense potentials.  They are fixed rather than drawn from
# --seed because every one of them trips the n = 0 matcher fault, and a
# failing operation must not depend on the seed.
N0_FIXED_SEED = 20160624


def _monomials(variables: list[tuple[int, bool]], num_coords: int,
               dmin: int, dmax: int):
    """Exponent keys (I, J) of all monomials of total degree dmin..dmax in
    the given (coordinate, holomorphic) variables."""
    for deg in range(dmin, dmax + 1):
        for combo in itertools.combinations_with_replacement(range(len(variables)), deg):
            I = [0] * num_coords
            J = [0] * num_coords
            for k in combo:
                coord, holo = variables[k]
                (I if holo else J)[coord] += 1
            yield tuple(I), tuple(J)


def _random_jet(rng: np.random.Generator, space: JetSpace,
                variables: list[tuple[int, bool]], dmin: int, dmax: int) -> Jet:
    coeffs = {}
    for key in _monomials(variables, space.num_coords, dmin, dmax):
        deg = sum(key[0]) + sum(key[1])
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[key] = c / math.factorial(deg - dmin + 1)
    return Jet(space.num_coords, space.order, coeffs)


def dense_walker_potential(rng: np.random.Generator, n: int, order: int,
                           degree: int) -> Jet:
    """f = Re(v ubar) + sum |z^k|^2 + Re(v g(z, u, ubar)) + H(z, zbar, u, ubar).

    g is holomorphic in z with terms of degree 2..degree-1, so v g has degree
    at most ``degree``; H is real with terms of degree 3..degree.  Neither
    touches the constant Gram matrix, and the form of f keeps the metric in
    the isotropic-line (Walker) normal form.
    """
    space = JetSpace(n + 2, order)
    v, u = 0, n + 1
    f = real_part(space.variable(v) * space.conj_variable(u))
    for k in range(1, n + 1):
        f = f + space.variable(k) * space.conj_variable(k)
    g_vars = [(k, True) for k in range(1, n + 1)] + [(u, True), (u, False)]
    g = _random_jet(rng, space, g_vars, 2, degree - 1)
    f = f + real_part(space.variable(v) * g)
    h_vars = g_vars + [(k, False) for k in range(1, n + 1)]
    f = f + real_part(_random_jet(rng, space, h_vars, 3, degree) * 0.5)
    return f


# ---------------------------------------------------------------------------
# descriptor and algebra files (wire format of lkholonomy.serialization)
# ---------------------------------------------------------------------------

def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _mat(rows) -> list:
    return [[_c(z) for z in row] for row in rows]


def regression_descriptors() -> list[dict]:
    """The ten regression descriptors (families GK, GKJL, GKL, GK0PSI at
    n = 1, 2), as descriptor files."""
    return [
        {"family": "GK", "n": 1, "k_basis": [
            {"a": _c(1.0), "A": _mat([[0]])}, {"a": _c(1j), "A": _mat([[0]])},
            {"a": _c(0), "A": _mat([[1j]])}]},
        {"family": "GK", "n": 1, "k_basis": [{"a": _c(1.0), "A": _mat([[1j]])}]},
        {"family": "GKJL", "n": 1, "m": 0, "k_basis": [{"a2": 1.0, "A": []}]},
        {"family": "GKJL", "n": 2, "m": 1, "k_basis": [{"a2": 1.0, "A": _mat([[1j]])}]},
        {"family": "GKL", "n": 1, "m": 0, "k_basis": [], "lambdas": []},
        {"family": "GKL", "n": 2, "m": 0, "k_basis": [], "lambdas": [0.5]},
        {"family": "GKL", "n": 2, "m": 0, "k_basis": [], "lambdas": []},
        {"family": "GKL", "n": 2, "m": 1, "k_basis": [_mat([[1j]])], "lambdas": []},
        {"family": "GK0PSI", "n": 2, "m": 2, "r": 1, "k0_basis": [],
         "psi_images": [_mat([[1j]]), _mat([[2j]])], "lambdas": []},
        {"family": "GK0PSI", "n": 2, "m": 1, "r": 1, "k0_basis": [],
         "psi_images": [_mat([[1j]])], "lambdas": []},
    ]


def n0_descriptors() -> list[dict]:
    return [{"family": "G0"}, {"family": "G1"}, {"family": "G2"},
            {"family": "G3", "gamma": _c(1.0)}, {"family": "G3", "gamma": _c(0.0)}]


def full_algebra_descriptor(n: int) -> dict:
    """u(1, n+1)_{Cp} as the GK descriptor with k = C + u(n)."""
    kb = [{"a": _c(1.0), "A": _mat(np.zeros((n, n)))},
          {"a": _c(1j), "A": _mat(np.zeros((n, n)))}]
    for j in range(n):
        for k in range(j, n):
            E = np.zeros((n, n), complex)
            if j == k:
                E[j, j] = 1j
                kb.append({"a": _c(0), "A": _mat(E)})
            else:
                E[j, k], E[k, j] = 1.0, -1.0
                kb.append({"a": _c(0), "A": _mat(E)})
                kb.append({"a": _c(0), "A": _mat(1j * np.abs(E))})
    return {"family": "GK", "n": n, "k_basis": kb}


def berger_only_descriptor() -> dict:
    """The Berger-only family with the theta twist (lambda = 1/2, n = 2)."""
    return {"family": "BERGER_GK", "n": 2, "m": 0,
            "k_basis": [{"a1": 0.0, "a2": 1.0, "A": []}], "lambdas": [0.5]}


def basis_file(n: int, basis: list[np.ndarray]) -> dict:
    return {"n": n, "basis": [_mat(b) for b in basis]}


def real_basis_change(rng: np.random.Generator, basis: list[np.ndarray]) -> list[np.ndarray]:
    """The same real span in another basis: b'_i = sum_j M_ij b_j with M a
    random real matrix, orthogonal times a diagonal scale in [1/2, 2]."""
    k = len(basis)
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    M = Q * rng.uniform(0.5, 2.0, size=k)[:, None]
    return [sum(M[i, j] * basis[j] for j in range(k)) for i in range(k)]


def ppwave_profile(rng: np.random.Generator, n: int, terms: int = 4) -> list[dict]:
    """Monomial terms of a random profile phi(z, u, ubar), holomorphic in z,
    each of total degree 3..5 so the Gram matrix at the origin stays flat."""
    out = []
    while len(out) < terms:
        z = [int(p) for p in rng.integers(0, 3, size=n)]
        u, ub = (int(p) for p in rng.integers(0, 3, size=2))
        if not 3 <= sum(z) + u + ub <= 5:
            continue
        out.append({"coeff": _c(complex(rng.standard_normal(), rng.standard_normal())),
                    "z": z, "u": u, "ubar": ub})
    return out
