"""Sparse truncated power series (jets) in holomorphic coordinates and their
formal conjugates.

A jet in ``n`` complex coordinates stores coefficients indexed by a pair of
multi-indices ``(I, J)``: ``I`` counts powers of the holomorphic variables,
``J`` powers of the formal conjugate variables.  Truncation is by total
degree ``|I| + |J|``.  The conjugate variables are independent formal
symbols; reality of a series is a checkable property, not a structural one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul

import numpy as np

from .config import DEFAULT_TOL

MultiIndex = tuple[int, ...]
Key = tuple[MultiIndex, MultiIndex]


class JetShapeError(ValueError):
    """Operands live in different jet spaces."""


class DivisibilityError(ValueError):
    """A series is not divisible by the requested power of a variable."""


class InsufficientOrderError(ValueError):
    """The truncation order has been exhausted by derivatives."""


def _zeros(n: int) -> MultiIndex:
    return (0,) * n


@dataclass(frozen=True, eq=False)
class Jet:
    """Truncated multivariate power series over complex scalars."""

    num_coords: int
    order: int
    coeffs: dict[Key, complex] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(value: complex, num_coords: int, order: int) -> "Jet":
        n = num_coords
        c = {} if value == 0 else {(_zeros(n), _zeros(n)): complex(value)}
        return Jet(n, order, c)

    @staticmethod
    def variable(i: int, num_coords: int, order: int, holomorphic: bool = True) -> "Jet":
        if not 0 <= i < num_coords:
            raise IndexError(f"coordinate {i} out of range")
        e = tuple(1 if k == i else 0 for k in range(num_coords))
        z = _zeros(num_coords)
        key = (e, z) if holomorphic else (z, e)
        return Jet(num_coords, order, {key: 1.0 + 0.0j})

    # -- basic queries --------------------------------------------------------

    def constant_term(self) -> complex:
        return self.coeffs.get((_zeros(self.num_coords), _zeros(self.num_coords)), 0.0 + 0.0j)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def coefficient(self, I: MultiIndex, J: MultiIndex) -> complex:
        return self.coeffs.get((tuple(I), tuple(J)), 0.0 + 0.0j)

    def is_real_valued(self, tol: float = DEFAULT_TOL.coeff_zero) -> bool:
        """coeff(I, J) == conj(coeff(J, I)) for all stored indices; tol is a
        parameter because metric_from_potential checks with residual."""
        scale = max(self.max_abs(), 1.0)
        for (I, J), c in self.coeffs.items():
            if abs(c - np.conj(self.coeffs.get((J, I), 0.0))) > tol * scale:
                return False
        return True

    def derivative_at_zero(self, I: MultiIndex, J: MultiIndex) -> complex:
        """Partial derivative d^{I}_z d^{J}_zbar at the base point."""
        fac = 1.0
        for k in I:
            fac *= math.factorial(k)
        for k in J:
            fac *= math.factorial(k)
        return self.coefficient(I, J) * fac

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "Jet") -> int:
        if self.num_coords != other.num_coords:
            raise JetShapeError(
                f"jet spaces differ: {self.num_coords} vs {other.num_coords} coordinates"
            )
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self + Jet.constant(other, self.num_coords, self.order)
        order = self._check(other)
        out: dict[Key, complex] = {}
        for k, c in self.coeffs.items():
            if sum(k[0]) + sum(k[1]) <= order:
                out[k] = c
        for k, c in other.coeffs.items():
            if sum(k[0]) + sum(k[1]) <= order:
                out[k] = out.get(k, 0.0) + c
        return Jet(self.num_coords, order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.num_coords, self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.num_coords, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            z = complex(other)
            if z == 0:
                return Jet(self.num_coords, self.order, {})
            return Jet(self.num_coords, self.order, {k: c * z for k, c in self.coeffs.items()})
        order = self._check(other)
        if not self.coeffs or not other.coeffs:
            return Jet(self.num_coords, order, {})
        # Each term's degree is taken once.  The pairs run in the order of
        # the plain double loop (self outside, other inside, both in dict
        # order), so every coefficient is the same sum in the same order;
        # `fits[room]` lists, in dict order, the terms of `other` of degree
        # <= room, so pairs above the order are never visited.
        terms = [(sum(I) + sum(J), I, J, c) for (I, J), c in other.coeffs.items()]
        fits: dict[int, list] = {}
        out: dict[Key, complex] = {}
        get = out.get
        for (I1, J1), c1 in self.coeffs.items():
            room = order - sum(I1) - sum(J1)
            if room < 0:
                continue
            inner = fits.get(room)
            if inner is None:
                inner = fits[room] = [(I2, J2, c2) for d2, I2, J2, c2 in terms if d2 <= room]
            for I2, J2, c2 in inner:
                key = (tuple(map(add, I1, I2)), tuple(map(add, J1, J2)))
                out[key] = get(key, 0.0) + c1 * c2
        return Jet(self.num_coords, order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / complex(other))

    def truncated(self, order: int) -> "Jet":
        order = min(order, self.order)
        out = {k: c for k, c in self.coeffs.items() if sum(k[0]) + sum(k[1]) <= order}
        return Jet(self.num_coords, order, out)

    def conjugate(self) -> "Jet":
        """Formal conjugate: swaps z and zbar exponents, conjugates coefficients."""
        return Jet(self.num_coords, self.order, {(J, I): np.conj(c) for (I, J), c in self.coeffs.items()})

    # -- calculus -------------------------------------------------------------

    def derivative(self, var: int, holomorphic: bool = True) -> "Jet":
        if self.order < 1:
            raise InsufficientOrderError("jet order exhausted; rebuild with a larger truncation order")
        out: dict[Key, complex] = {}
        for (I, J), c in self.coeffs.items():
            exps = I if holomorphic else J
            d = exps[var]
            if d == 0:
                continue
            shifted = tuple(e - 1 if k == var else e for k, e in enumerate(exps))
            key = (shifted, J) if holomorphic else (I, shifted)
            out[key] = out.get(key, 0.0) + d * c
        return Jet(self.num_coords, self.order - 1, out)

    def divide_power(self, var: int, k: int, holomorphic: bool = True) -> "Jet":
        """Divide by the k-th power of a variable; the series must be divisible.

        Raises DivisibilityError when low-order terms obstruct the division:
        that signals a genuinely singular, non-removable expression.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        scale = max(self.max_abs(), 1.0)
        out: dict[Key, complex] = {}
        for (I, J), c in self.coeffs.items():
            exps = I if holomorphic else J
            if exps[var] < k:
                if abs(c) > DEFAULT_TOL.coeff_zero * scale:
                    raise DivisibilityError(
                        f"series is not divisible by variable {var}^{k}: "
                        f"residual coefficient {c!r} at {(I, J)}"
                    )
                continue
            shifted = tuple(e - k if j == var else e for j, e in enumerate(exps))
            key = (shifted, J) if holomorphic else (I, shifted)
            out[key] = c
        return Jet(self.num_coords, self.order - k, out)

    # -- graded parts and analytic functions ----------------------------------

    def graded(self) -> list["Jet | None"]:
        """The homogeneous parts of degree 0..order, None where a part is empty."""
        parts: list[dict[Key, complex]] = [{} for _ in range(self.order + 1)]
        for k, c in self.coeffs.items():
            d = sum(k[0]) + sum(k[1])
            if d <= self.order:
                parts[d][k] = c
        return [Jet(self.num_coords, self.order, p) if p else None for p in parts]

    @staticmethod
    def from_graded(parts: list["Jet | None"]) -> "Jet":
        """The jet whose homogeneous parts these are; parts[0] must exist."""
        coeffs = {k: c for p in parts if p is not None for k, c in p.coeffs.items()}
        return Jet(parts[0].num_coords, parts[0].order, coeffs)

    def exp(self) -> "Jet":
        """Degree by degree from d E_d = sum_{0<i<=d} i a_i E_{d-i}."""
        a = self.graded()
        ia = [None] + [None if p is None else p * i for i, p in enumerate(a[1:], 1)]
        E = [Jet.constant(np.exp(self.constant_term()), self.num_coords, self.order)]
        for d in range(1, self.order + 1):
            s = graded_sum(ia, E, d)
            E.append(None if s is None else s * (1.0 / d))
        return Jet.from_graded(E)

    def reciprocal(self) -> "Jet":
        """Degree by degree from X_d = -(1/a_0) sum_{0<i<=d} a_i X_{d-i}."""
        a0 = self.constant_term()
        if abs(a0) < DEFAULT_TOL.coeff_zero:
            raise ZeroDivisionError("jet has (numerically) zero constant term")
        a = self.graded()
        X = [Jet.constant(1.0 / a0, self.num_coords, self.order)]
        for d in range(1, self.order + 1):
            s = graded_sum(a, X, d)
            X.append(None if s is None else s * (-1.0 / a0))
        return Jet.from_graded(X)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point: np.ndarray, conj_point: np.ndarray | None = None) -> complex:
        """Evaluate the polynomial at a point; conjugate variables default to
        the actual conjugates of the point (on-diagonal evaluation)."""
        z = np.asarray(point, dtype=complex)
        zb = np.conj(z) if conj_point is None else np.asarray(conj_point, dtype=complex)
        total = 0.0 + 0.0j
        for (I, J), c in self.coeffs.items():
            term = c
            for i, e in enumerate(I):
                if e:
                    term *= z[i] ** e
            for i, e in enumerate(J):
                if e:
                    term *= zb[i] ** e
            total += term
        return total

    def __repr__(self) -> str:  # compact, for debugging
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]))
        body = ", ".join(f"{k}:{c:.4g}" for k, c in terms[:8])
        more = "" if len(terms) <= 8 else f", +{len(terms) - 8} terms"
        return f"Jet(n={self.num_coords}, ord={self.order}, {{{body}{more}}})"


@dataclass(frozen=True)
class JetSpace:
    """Factory for jets sharing one coordinate count and truncation order."""

    num_coords: int
    order: int

    def constant(self, value: complex) -> Jet:
        return Jet.constant(value, self.num_coords, self.order)

    def zero(self) -> Jet:
        return Jet(self.num_coords, self.order, {})

    def variable(self, i: int) -> Jet:
        return Jet.variable(i, self.num_coords, self.order, holomorphic=True)

    def conj_variable(self, i: int) -> Jet:
        return Jet.variable(i, self.num_coords, self.order, holomorphic=False)


def graded_sum(a: list, x: list, d: int, mul=mul):
    """sum_i mul(a[i], x[d - i]) over the i at which both parts exist, or
    None when no pair does; the parts are jets or jet matrices."""
    terms = [mul(a[i], x[d - i]) for i in range(len(a))
             if 0 <= d - i < len(x) and a[i] is not None and x[d - i] is not None]
    return sum(terms[1:], terms[0]) if terms else None


def real_part(a: Jet) -> Jet:
    """a + conj(a).

    The explicit potentials pair every term with its formal conjugate; the
    convention here is fixed so that the flat potential comes out as
    ubar*v + vbar*u (without a factor 1/2).
    """
    return a + a.conjugate()
