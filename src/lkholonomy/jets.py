"""Sparse truncated power series (jets) in holomorphic coordinates and their
formal conjugates.

A jet in ``n`` complex coordinates stores coefficients indexed by a pair of
multi-indices ``(I, J)``: ``I`` counts powers of the holomorphic variables,
``J`` powers of the formal conjugate variables.  Truncation is by total
degree ``|I| + |J|``.  The conjugate variables are independent formal
symbols; reality of a series is a checkable property, not a structural one.

Storage: ``Jet.terms`` maps a packed integer key to its coefficient.  The
key holds the total degree in its low ``W`` bits and the exponents
I_0..I_{n-1}, J_0..J_{n-1} in the ``W``-bit fields above it (packed
exponent vectors, Monagan & Pearce, CASC 2007).  The key of a product term
is the sum of the keys, and its degree is ``key & MASK``.  Every stored term
has degree at most the jet's order, and the order is at most ``MAX_ORDER``,
so no field ever carries into its neighbour.  ``Jet.coeffs`` copies the
terms into an ``(I, J)``-keyed dict, for tests, scripts and debugging.

The float rules of all jet arithmetic live here: `product_into`, `_merge`
and the term-table kernel on them, `table_mul` and `graded_solve`, which
`Jet.exp`, `Jet.reciprocal` (on the one-entry table {(0, 0): terms}) and
`jetmat` run.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL

MultiIndex = tuple[int, ...]
Key = tuple[MultiIndex, MultiIndex]

W = 6                  # bits of the degree field and of each exponent field
MASK = (1 << W) - 1    # the degree of a key is key & MASK
MAX_ORDER = MASK       # the packing limit on the truncation order


class JetShapeError(ValueError):
    """Operands live in different jet spaces."""


class InsufficientOrderError(ValueError):
    """The truncation order has been exhausted by derivatives."""


def check_order(order: int) -> int:
    """order when it is within the packing limit, else a ValueError."""
    if order > MAX_ORDER:
        raise ValueError(f"the jet order must be at most {MAX_ORDER}, not {order}")
    return order


# -- packed keys --------------------------------------------------------------


def field_shift(num_coords: int, var: int, holomorphic: bool = True) -> int:
    """Bit offset of the exponent field of a variable."""
    return W * (1 + var + (0 if holomorphic else num_coords))


def var_key(num_coords: int, var: int, holomorphic: bool = True) -> int:
    """The key of the monomial z^var, or zbar^var."""
    return 1 + (1 << field_shift(num_coords, var, holomorphic))


def field_mask(num_coords: int, holo_vars=(), anti_vars=()) -> int:
    """The bits of the exponent fields of the given variables: key & mask is
    nonzero exactly when the term involves one of them."""
    out = 0
    for var in holo_vars:
        out |= MASK << field_shift(num_coords, var, True)
    for var in anti_vars:
        out |= MASK << field_shift(num_coords, var, False)
    return out


def pack(I, J) -> int:
    """The key of the exponents (I, J); each field must fit, which holds
    when |I| + |J| <= MAX_ORDER."""
    key, shift = sum(I) + sum(J), W
    for e in (*I, *J):
        key |= e << shift
        shift += W
    return key


def unpack(key: int, num_coords: int) -> Key:
    """The exponents (I, J) of a key."""
    exps = [(key >> (W * (1 + i))) & MASK for i in range(2 * num_coords)]
    return tuple(exps[:num_coords]), tuple(exps[num_coords:])


def _swap_key(key: int, num_coords: int) -> int:
    """The key with the I and J fields exchanged."""
    high = W * (1 + num_coords)
    holo = (key >> W) & ((1 << (W * num_coords)) - 1)
    return (key & MASK) | ((key >> high) << W) | (holo << high)


def _packed(num_coords: int, order: int, coeffs) -> dict[int, complex]:
    """The terms of a tuple-keyed mapping, those above the order dropped."""
    terms: dict[int, complex] = {}
    for (I, J), c in coeffs.items():
        I, J = tuple(I), tuple(J)
        if len(I) != num_coords or len(J) != num_coords or min(I + J, default=0) < 0:
            raise ValueError(f"bad exponents {(I, J)} for {num_coords} coordinates")
        if sum(I) + sum(J) <= order:
            terms[pack(I, J)] = c
    return terms


class Jet:
    """Truncated multivariate power series over complex scalars.

    ``Jet(num_coords, order, {(I, J): c})`` packs the given terms and drops
    those above the order.  Jets are values: no operation changes one.
    """

    __slots__ = ("num_coords", "order", "terms")

    def __init__(self, num_coords: int, order: int, coeffs: Mapping | None = None):
        self.num_coords = num_coords
        self.order = check_order(order)
        self.terms = _packed(num_coords, order, coeffs) if coeffs else {}

    @property
    def coeffs(self) -> dict[Key, complex]:
        """The terms as a new (I, J)-keyed dict, in storage order."""
        n = self.num_coords
        return {unpack(k, n): c for k, c in self.terms.items()}

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(value: complex, num_coords: int, order: int) -> "Jet":
        return _jet(num_coords, check_order(order), {} if value == 0 else {0: complex(value)})

    @staticmethod
    def variable(i: int, num_coords: int, order: int, holomorphic: bool = True) -> "Jet":
        if not 0 <= i < num_coords:
            raise IndexError(f"coordinate {i} out of range")
        terms = {var_key(num_coords, i, holomorphic): 1.0 + 0.0j} if order >= 1 else {}
        return _jet(num_coords, check_order(order), terms)

    # -- basic queries --------------------------------------------------------

    def constant_term(self) -> complex:
        return self.terms.get(0, 0.0 + 0.0j)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coefficient(self, I: MultiIndex, J: MultiIndex) -> complex:
        return self.coeffs.get((tuple(I), tuple(J)), 0.0 + 0.0j)

    def is_real_valued(self, tol: float = DEFAULT_TOL.coeff_zero) -> bool:
        """coeff(I, J) == conj(coeff(J, I)) for all stored indices; tol is a
        parameter because metric_from_potential checks with residual."""
        scale = max(self.max_abs(), 1.0)
        terms, n = self.terms, self.num_coords
        for k, c in terms.items():
            if abs(c - terms.get(_swap_key(k, n), 0.0).conjugate()) > tol * scale:
                return False
        return True

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
        out = dict(self._terms_upto(order))
        _merge(out, other._terms_upto(order))
        return _jet(self.num_coords, order, out)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.num_coords, self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.num_coords, self.order)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return _jet(self.num_coords, self.order, _scaled(self.terms, complex(other)))
        order = self._check(other)
        out: dict[int, complex] = {}
        if self.terms and other.terms:
            product_into(out, self.terms, other.terms, order, {})
        return _jet(self.num_coords, order, out)

    __rmul__ = __mul__

    def _terms_upto(self, order: int) -> dict[int, complex]:
        """The terms of degree <= order: all of them when order >= the jet's
        order, since no stored term lies above that."""
        if order >= self.order:
            return self.terms
        return {k: c for k, c in self.terms.items() if k & MASK <= order}

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return _jet(self.num_coords, order, self._terms_upto(order))

    def conjugate(self) -> "Jet":
        """Formal conjugate: swaps z and zbar exponents, conjugates coefficients."""
        n = self.num_coords
        return _jet(n, self.order, {_swap_key(k, n): c.conjugate() for k, c in self.terms.items()})

    # -- calculus -------------------------------------------------------------

    def derivative(self, var: int, holomorphic: bool = True, factor=None) -> "Jet":
        """The partial derivative in z^var (or zbar^var), each coefficient
        0.0 + d * c; with a factor, (0.0 + d * c) * complex(factor), the
        floats of the derivative times that scalar, in one pass."""
        if self.order < 1:
            raise InsufficientOrderError("jet order exhausted; rebuild with a larger truncation order")
        shift = field_shift(self.num_coords, var, holomorphic)
        unit = 1 + (1 << shift)
        out: dict[int, complex] = {}
        if factor is None:
            for k, c in self.terms.items():
                d = (k >> shift) & MASK
                if d:
                    out[k - unit] = 0.0 + d * c
        else:
            z = complex(factor)
            for k, c in self.terms.items():
                d = (k >> shift) & MASK
                if d:
                    out[k - unit] = (0.0 + d * c) * z
        return _jet(self.num_coords, self.order - 1, out)

    # -- analytic functions ---------------------------------------------------

    def exp(self) -> "Jet":
        """Degree by degree from d E_d = sum_{0<i<=d} i a_i E_{d-i}."""
        ia = [p and table_scaled(p, complex(i))
              for i, p in enumerate(table_parts({(0, 0): self.terms}, self.order))]
        return self._series(ia, np.exp(self.constant_term()), lambda d: complex(1.0 / d))

    def reciprocal(self) -> "Jet":
        """Degree by degree from X_d = -(1/a_0) sum_{0<i<=d} a_i X_{d-i}."""
        a0 = self.constant_term()
        if abs(a0) < DEFAULT_TOL.coeff_zero:
            raise ZeroDivisionError("jet has (numerically) zero constant term")
        z = complex(-1.0 / a0)
        return self._series(table_parts({(0, 0): self.terms}, self.order), 1.0 / a0,
                            lambda d: z)

    def _series(self, A: list, x0: complex, scale) -> "Jet":
        """X with X_0 = x0, X_d = scale(d) sum_{0<i<=d} A_i X_{d-i}: `graded_solve`
        on one-entry tables, each step scaled as by Jet.__mul__."""
        X0 = {(0, 0): Jet.constant(x0, self.num_coords, self.order).terms}
        X = graded_solve(A, [X0], self.order, lambda d, s: table_scaled(s, scale(d)))
        return _jet(self.num_coords, self.order, table_from_parts(X)[0, 0])

    def __repr__(self) -> str:  # compact, for debugging
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]))
        body = ", ".join(f"{k}:{c:.4g}" for k, c in terms[:8])
        more = "" if len(terms) <= 8 else f", +{len(terms) - 8} terms"
        return f"Jet(n={self.num_coords}, ord={self.order}, {{{body}{more}}})"


def _jet(num_coords: int, order: int, terms: dict[int, complex]) -> Jet:
    """A jet that takes ownership of packed terms, all of degree <= order."""
    j = object.__new__(Jet)
    j.num_coords, j.order, j.terms = num_coords, order, terms
    return j


def product_into(out: dict, a: dict, b: dict, order: int, fits: dict) -> None:
    """Add the terms of a * b of degree <= order into out.

    Each term's degree is taken once.  The pairs run in the order of the
    plain double loop (a outside, b inside, both in dict order), so every
    coefficient is the same sum in the same order; fits[room] lists, in dict
    order, the (key, coefficient) pairs of b of degree <= room, so pairs
    above the order are never visited.  A caller that multiplies several
    jets by the same b passes the same fits.
    """
    get = out.get
    for k1, c1 in a.items():
        room = order - (k1 & MASK)
        if room < 0:
            continue
        inner = fits.get(room)
        if inner is None:
            inner = fits[room] = [(k2, c2) for k2, c2 in b.items() if k2 & MASK <= room]
        for k2, c2 in inner:
            key = k1 + k2
            out[key] = get(key, 0.0) + c1 * c2


def _scaled(terms: dict, z: complex) -> dict:
    """The terms times a scalar as Jet.__mul__ forms them: c * z, none if z is 0."""
    return {k: c * z for k, c in terms.items()} if z != 0 else {}


def _merge(acc: dict, terms: dict) -> None:
    """Add terms into acc as Jet.__add__ merges: get(key, 0.0) + value."""
    get = acc.get
    for key, v in terms.items():
        acc[key] = get(key, 0.0) + v


# -- the term-table kernel: {(i, j): terms} over the entries of a jet matrix
# that have terms, the order of entry (i, j) given from outside as order(i, j)


def uniform(order: int):
    """The order function of a table whose entries all have this order."""
    return lambda i, j: order


def table_scaled(A: dict, z: complex) -> dict:
    """The table with every entry times the scalar z, as by Jet.__mul__."""
    return {e: _scaled(terms, z) for e, terms in A.items()}


def table_mul(A: dict, B: dict, order) -> dict:
    """The table of A B, entry (i, j) to degree order(i, j), with the floats
    and key order of the entrywise loop acc = acc + A[i, l] * B[l, j]: over
    the l, ascending, at which both factors have terms (an empty one adds
    nothing), the first product goes straight into the sum (merging it would
    add 0.0 to values that are never -0.0) and each later one is built on
    its own and merged.  B[l, j]'s degree-filtered term lists are shared
    across the rows; an entry without terms is left out."""
    rows: dict = {}
    for i, l in sorted(A):
        rows.setdefault(i, []).append((l, A[i, l]))
    cols: dict = {}
    for l, j in B:
        cols.setdefault(j, {})[l] = B[l, j]
    out = {}
    for j, col in cols.items():
        fits: dict = {}
        for i, row in rows.items():
            cap = order(i, j)
            acc: dict = {}
            for l, a in row:
                b = col.get(l)
                if b is None:
                    continue
                if not acc:
                    product_into(acc, a, b, cap, fits.setdefault(l, {}))
                    continue
                prod: dict = {}
                product_into(prod, a, b, cap, fits.setdefault(l, {}))
                _merge(acc, prod)
            if acc:
                out[i, j] = acc
    return out


def table_parts(A: dict, order: int) -> list[dict | None]:
    """The homogeneous parts of degree 0..order of a table, None if empty;
    terms of higher degree are left out."""
    parts: list[dict] = [{} for _ in range(order + 1)]
    for e, terms in A.items():
        for key, c in terms.items():
            deg = key & MASK
            if deg <= order:
                parts[deg].setdefault(e, {})[key] = c
    return [p or None for p in parts]


def table_from_parts(parts: list[dict | None]) -> dict:
    """The table of these parts, merged degree-major, each entry's keys by
    degree and within a degree in the part's order."""
    out: dict = {}
    for part in parts:
        for e, terms in (part or {}).items():
            out.setdefault(e, {}).update(terms)
    return out


def graded_solve(A: list, X: list, order: int, step) -> list:
    """Extend X = [X_0] to X_0..X_order by X_d = step(d, S_d), where S_d =
    sum_{0<i<=d} A_i X_{d-i} over the parts that both have terms, summed
    left to right into the first product as Jet.__add__ sums ({} if none).
    A may be X itself, read as far as it is solved.  Returns X."""
    every = uniform(order)
    for d in range(1, order + 1):
        prods = [table_mul(A[i], X[d - i], every) for i in range(1, min(d + 1, len(A)))
                 if A[i] and X[d - i]]
        s = prods[0] if prods else {}
        for prod in prods[1:]:
            for e, terms in prod.items():
                _merge(s.setdefault(e, {}), terms)
        X.append(step(d, s))
    return X


@dataclass(frozen=True)
class JetSpace:
    """Factory for jets sharing one coordinate count and truncation order."""

    num_coords: int
    order: int

    def __post_init__(self):
        check_order(self.order)

    def constant(self, value: complex) -> Jet:
        return Jet.constant(value, self.num_coords, self.order)

    def zero(self) -> Jet:
        return _jet(self.num_coords, self.order, {})

    def variable(self, i: int) -> Jet:
        return Jet.variable(i, self.num_coords, self.order, holomorphic=True)

    def conj_variable(self, i: int) -> Jet:
        return Jet.variable(i, self.num_coords, self.order, holomorphic=False)


def real_part(a: Jet) -> Jet:
    """a + conj(a).

    The explicit potentials pair every term with its formal conjugate; the
    convention here is fixed so that the flat potential comes out as
    ubar*v + vbar*u (without a factor 1/2).
    """
    return a + a.conjugate()
